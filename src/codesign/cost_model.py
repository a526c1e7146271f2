"""Latency, accuracy loss and the scalarized objective for candidate plans.

A candidate is a cut position plus one fusion strategy per sub-model.  The
cut at ``k`` runs layers [0, k) on device 1, ships the activation of layer
k-1 over the link, and runs layers [k, n) on device 2.

Every candidate, in the planner's grid sweep as here, is costed by one path:
``profiles.running_load`` sums the head [0, k) from layer 0 up and the tail
[k, n) from the last layer down, ``_price`` runs each segment on its
device's roofline, and ``_cut_rows`` builds the ``ROW_FIELDS`` rows.  So a
grid row and ``evaluate_plan`` agree to the last bit.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import roofline
from .errors import DegenerateSplit, InvariantViolation
from .profiles import (
    STRATEGY_RANK,
    AccuracyPenaltyTable,
    DeviceProfile,
    FusionStrategy,
    LinkProfile,
    ModelProfile,
    running_load,
)


# t1, t2: device 1 and device 2 compute seconds; t3: link transfer seconds;
# accuracy_loss in accuracy points; lagrangian = t_total + lambda1 * accuracy_loss.
CostBreakdown = namedtuple("CostBreakdown", "t1 t2 t3 t_total accuracy_loss lagrangian")

# The CostBreakdown fields a plan must hold as finite numbers.
COST_FIELDS = CostBreakdown._fields

# lambda_c, lambda_m: fractions of FLOPs and of bytes on device 1 under
# (theta1, theta2); cost: a CostBreakdown; feasible: a (bool, bool) pair.
PartitionPlan = namedtuple("PartitionPlan",
                           "cut_index lambda_c lambda_m theta1 theta2 cost feasible")


# Fields of a row, in order: one candidate as the grid sweep and
# ``evaluate_plan`` both build it.  The first five are the ranking: objective,
# then latency, then cut, then each strategy's declaration order.  So sorting
# row tuples ranks them, and exact ties break the same way whatever order
# the candidates were evaluated in.
ROW_FIELDS = ("lagrangian", "t_total", "cut", "theta1", "theta2", "t1", "t2", "t3",
              "accuracy_loss", "lambda_c", "lambda_m", "feasible1", "feasible2")

_STRATEGIES = tuple(FusionStrategy)


def row_plan(row: tuple) -> PartitionPlan:
    """The plan a row (laid out as ``ROW_FIELDS``) describes."""
    objective, t_total, cut, th1, th2, t1, t2, t3, loss, lam_c, lam_m, f1, f2 = row
    return PartitionPlan(cut_index=cut, lambda_c=lam_c, lambda_m=lam_m,
                         theta1=_STRATEGIES[th1], theta2=_STRATEGIES[th2],
                         cost=CostBreakdown(t1=t1, t2=t2, t3=t3, t_total=t_total,
                                            accuracy_loss=loss, lagrangian=objective),
                         feasible=(f1, f2))


def _price(flops: float, data: float, device: DeviceProfile) -> tuple[float, bool]:
    """Seconds of a segment at ``device``'s roofline rate, and
    whether the segment reaches the device's balance point."""
    intensity = flops / data
    rate = roofline.effective_rate(device, intensity)
    # a rate that underflows to 0 gives an infinite time, which the finite
    # check then names, instead of a ZeroDivisionError
    return flops / rate if rate else math.inf, roofline.reaches_balance(intensity, device)


def _transfer(data: float, link: LinkProfile) -> float:
    return data / link.bandwidth + link.fixed_latency


def _priced_segments(flops: list[float], data: list[float], device: DeviceProfile,
                     strategy: FusionStrategy, penalty: float) -> list[tuple]:
    """(FLOPs, bytes, seconds, feasible, strategy rank, penalty) of each
    segment whose sums are given, run on ``device`` under ``strategy``."""
    rank = STRATEGY_RANK[strategy]
    return [(c, m, *_price(c, m, device), rank, penalty) for c, m in zip(flops, data)]


def _cut_rows(cut: int, t3: float, heads, tails, lambda1: float) -> list[tuple]:
    """The ``ROW_FIELDS`` rows of one cut with link time ``t3``: each head
    segment (device 1) paired with each tail segment (device 2).  The
    accuracy loss (the penalties weighted by the FLOP split) and the
    objective ``t_total + lambda1 * loss`` are computed here and nowhere
    else."""
    rows = []
    for c1, m1, t1, f1, th1, p1 in heads:
        for c2, m2, t2, f2, th2, p2 in tails:
            t_total = t1 + t2 + t3
            lam_c = c1 / (c1 + c2)
            loss = lam_c * p1 + (1 - lam_c) * p2
            rows.append((t_total + lambda1 * loss, t_total, cut, th1, th2, t1, t2, t3,
                         loss, lam_c, m1 / (m1 + m2), f1, f2))
    return rows


def evaluate_plan(model: ModelProfile, cut: int, theta1: FusionStrategy,
                  theta2: FusionStrategy, d1: DeviceProfile, d2: DeviceProfile,
                  link: LinkProfile, table: AccuracyPenaltyTable,
                  lambda1: float) -> PartitionPlan:
    """Full evaluation of one candidate plan.  A latency, the accuracy loss
    or the objective that is not finite raises ``InvariantViolation``."""
    layers = model.layers
    if not 1 <= cut < len(layers):
        raise DegenerateSplit(f"cut={cut} leaves an empty segment (valid: 1..{len(layers) - 1})")
    c1, m1 = running_load(layers[:cut], theta1)
    c2, m2 = running_load(layers[cut:][::-1], theta2)
    [row] = _cut_rows(cut, _transfer(layers[cut - 1].output_activation_bytes, link),
                      _priced_segments(c1[-1:], m1[-1:], d1, theta1, table.penalty(1, theta1)),
                      _priced_segments(c2[-1:], m2[-1:], d2, theta2, table.penalty(2, theta2)),
                      lambda1)
    plan = row_plan(row)
    _require_finite(plan)
    return plan


def _require_finite(plan: PartitionPlan):
    """Raise ``InvariantViolation`` naming the first cost of ``plan`` that
    is not finite: the config's magnitudes overflow float arithmetic."""
    for name in COST_FIELDS:
        value = getattr(plan.cost, name)
        if not math.isfinite(value):
            raise InvariantViolation(
                f"{name} is {value!r} at cut {plan.cut_index}, theta1 {plan.theta1.value}, "
                f"theta2 {plan.theta2.value}; the config's magnitudes overflow float arithmetic")
