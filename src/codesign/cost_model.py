"""Latency, accuracy loss and the scalarized objective for candidate plans.

A candidate is a cut position plus one fusion strategy per sub-model.  The
cut at ``k`` runs layers [0, k) on device 1, ships the activation of layer
k-1 over the link, and runs layers [k, n) on device 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import roofline
from .errors import DegenerateSplit, InvariantViolation
from .profiles import (
    AccuracyPenaltyTable,
    DeviceProfile,
    FusionStrategy,
    LinkProfile,
    ModelProfile,
    segment_load,
)


@dataclass(frozen=True)
class CostBreakdown:
    t1: float               # device 1 compute seconds
    t2: float               # device 2 compute seconds
    t3: float               # link transfer seconds
    t_total: float
    accuracy_loss: float    # accuracy points
    lagrangian: float       # t_total + lambda1 * accuracy_loss


# The CostBreakdown fields a plan must hold as finite numbers.
COST_FIELDS = ("t1", "t2", "t3", "t_total", "accuracy_loss", "lagrangian")


@dataclass(frozen=True)
class PartitionPlan:
    cut_index: int
    lambda_c: float         # fraction of FLOPs on device 1 under (theta1, theta2)
    lambda_m: float         # fraction of bytes on device 1 under (theta1, theta2)
    theta1: FusionStrategy
    theta2: FusionStrategy
    cost: CostBreakdown
    feasible: tuple[bool, bool]


def _segments(model: ModelProfile, cut: int, theta1: FusionStrategy,
              theta2: FusionStrategy):
    n = len(model.layers)
    if not 1 <= cut <= n - 1:
        raise DegenerateSplit(f"cut={cut} leaves an empty segment (valid: 1..{n - 1})")
    return segment_load(model, 0, cut, theta1), segment_load(model, cut, n, theta2)


def _seconds(work: float, rate: float) -> float:
    # a rate that underflows to 0 gives an infinite time, which the finite
    # check then names, instead of a ZeroDivisionError
    return work / rate if rate else math.inf


def _latency_of(model: ModelProfile, cut: int, segments, d1: DeviceProfile,
                d2: DeviceProfile, link: LinkProfile) -> CostBreakdown:
    (c1, m1), (c2, m2) = segments
    t1 = _seconds(c1, roofline.effective_rate(d1, c1 / m1))
    t2 = _seconds(c2, roofline.effective_rate(d2, c2 / m2))
    embedding = model.layers[cut - 1].output_activation_bytes
    t3 = embedding / link.bandwidth + link.fixed_latency
    t_total = t1 + t2 + t3
    return CostBreakdown(t1=t1, t2=t2, t3=t3, t_total=t_total,
                         accuracy_loss=0.0, lagrangian=t_total)


def latency(model: ModelProfile, cut: int, theta1: FusionStrategy,
            theta2: FusionStrategy, d1: DeviceProfile, d2: DeviceProfile,
            link: LinkProfile) -> CostBreakdown:
    """Latency-only breakdown of one candidate; each segment runs at its
    device's roofline-attainable rate for the segment's intensity."""
    return _latency_of(model, cut, _segments(model, cut, theta1, theta2), d1, d2, link)


def accuracy_loss(theta1: FusionStrategy, theta2: FusionStrategy, lam: float,
                  table: AccuracyPenaltyTable) -> float:
    """Cut-weighted sum of the two sub-models' strategy penalties."""
    return lam * table.penalty(1, theta1) + (1 - lam) * table.penalty(2, theta2)


def lagrangian(cost: CostBreakdown, loss: float, lambda1: float) -> float:
    """Scalarized objective; lambda1 carries seconds per accuracy point."""
    return cost.t_total + lambda1 * loss


def evaluate_plan(model: ModelProfile, cut: int, theta1: FusionStrategy,
                  theta2: FusionStrategy, d1: DeviceProfile, d2: DeviceProfile,
                  link: LinkProfile, table: AccuracyPenaltyTable,
                  lambda1: float) -> PartitionPlan:
    """Full evaluation of one candidate plan.  A latency, the accuracy loss
    or the objective that is not finite raises ``InvariantViolation``."""
    segments = _segments(model, cut, theta1, theta2)
    base = _latency_of(model, cut, segments, d1, d2, link)
    (c1, m1), (c2, m2) = segments
    lam_c = c1 / (c1 + c2)
    lam_m = m1 / (m1 + m2)
    loss = accuracy_loss(theta1, theta2, lam_c, table)
    cost = CostBreakdown(
        t1=base.t1, t2=base.t2, t3=base.t3, t_total=base.t_total,
        accuracy_loss=loss, lagrangian=lagrangian(base, loss, lambda1),
    )
    feasible = roofline.feasibility(c1 / m1, c2 / m2, d1, d2)
    plan = PartitionPlan(cut_index=cut, lambda_c=lam_c, lambda_m=lam_m,
                         theta1=theta1, theta2=theta2, cost=cost,
                         feasible=feasible)
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
