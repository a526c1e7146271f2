"""Plan search.

The authoritative optimizer is an exhaustive, deterministic grid over every
interior cut position and every (theta1, theta2) strategy pair.  The cost
model is additive per layer, so the grid is one sweep: per-strategy prefix
and suffix sums of FLOPs and bytes give every segment load, each segment's
time is computed once per (cut, strategy), and the 16 strategy pairs of a
cut are combined into row tuples.  That is O(n) work plus one sort of the
16(n-1) rows.  The candidates whose objective is within a relative 1e-9 of
the minimum are evaluated again by the scalar ``evaluate_plan``, so the
winner carries exactly the values ``cost`` prints and its ties are broken
on exact keys.

A gradient-descent refinement of the cut fraction on a continuous relaxation
is available as a demonstrative extra; since the true objective is
piecewise over discrete cuts, the refined fraction is snapped back to a
boundary and compared against its neighbors.  Each relaxed point costs
O(log n): binary searches over prefix sums built once per refinement.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from . import roofline
from .cost_model import CostBreakdown, PartitionPlan, _require_finite, _seconds, evaluate_plan
from .errors import DegenerateSplit, NoFeasiblePlan
from .profiles import (
    FULL_STRUCTURE,
    STRATEGY_RANK,
    AccuracyPenaltyTable,
    DeviceProfile,
    FusionStrategy,
    LinkProfile,
    ModelProfile,
)

_EPS = 1e-9

# Candidates whose swept objective lies within this relative distance of
# the minimum are re-evaluated by the scalar cost model: a suffix sum can
# differ from a left-to-right segment sum in the last bit.
_RECHECK_RTOL = 1e-9

_STRATEGIES = tuple(FusionStrategy)


def plan_sort_key(plan: PartitionPlan):
    """Canonical ranking: objective, then latency, then cut, then strategy
    declaration order.  Ties are broken identically no matter what order
    candidates were evaluated in."""
    return (plan.cost.lagrangian, plan.cost.t_total, plan.cut_index,
            STRATEGY_RANK[plan.theta1], STRATEGY_RANK[plan.theta2])


# Fields of a grid row, in order.  The first five are the canonical sort key
# (see ``plan_sort_key``), so sorting the row tuples ranks the grid.
ROW_FIELDS = ("lagrangian", "t_total", "cut", "theta1", "theta2", "t1", "t2", "t3",
              "accuracy_loss", "lambda_c", "lambda_m", "feasible1", "feasible2")


def _plan(row: tuple) -> PartitionPlan:
    objective, t_total, cut, th1, th2, t1, t2, t3, loss, lam_c, lam_m, f1, f2 = row
    return PartitionPlan(cut_index=cut, lambda_c=lam_c, lambda_m=lam_m,
                         theta1=_STRATEGIES[th1], theta2=_STRATEGIES[th2],
                         cost=CostBreakdown(t1=t1, t2=t2, t3=t3, t_total=t_total,
                                            accuracy_loss=loss, lagrangian=objective),
                         feasible=(f1, f2))


def _row(plan: PartitionPlan) -> tuple:
    c = plan.cost
    return (c.lagrangian, c.t_total, plan.cut_index, STRATEGY_RANK[plan.theta1],
            STRATEGY_RANK[plan.theta2], c.t1, c.t2, c.t3, c.accuracy_loss,
            plan.lambda_c, plan.lambda_m, *plan.feasible)


@dataclass(frozen=True)
class PlanGrid:
    """Candidates of the (cut, theta1, theta2) grid, one tuple per
    candidate laid out as ``ROW_FIELDS``.  ``theta1``/``theta2`` hold
    strategy ranks (indices into ``FusionStrategy`` declaration order).  A
    field name reads a column: ``grid.t1`` lists every row's t1."""

    rows: list[tuple]

    def __len__(self) -> int:
        return len(self.rows)

    def __getattr__(self, name: str) -> list:
        if name not in ROW_FIELDS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        index = ROW_FIELDS.index(name)
        return [row[index] for row in self.rows]

    def ranked(self) -> PlanGrid:
        """Rows in canonical order (see ``plan_sort_key``)."""
        return PlanGrid(sorted(self.rows))

    def first(self) -> PartitionPlan:
        return _plan(self.rows[0])

    def plans(self) -> list[PartitionPlan]:
        return [_plan(row) for row in self.rows]


def _segments(flops: list[float], data: list[float], device: DeviceProfile, rank: int,
              penalty: float):
    """Yield (FLOPs, bytes, seconds, feasible, rank, penalty) of each segment
    whose FLOP and byte sums are given, run on ``device`` under the strategy
    of ``rank``."""
    peak, bandwidth, utilization = device.peak_compute, device.mem_bandwidth, device.utilization
    balance = roofline.machine_balance(device)
    for c, m in zip(flops, data):
        intensity = c / m
        rate = utilization * min(peak, intensity * bandwidth)  # roofline.effective_rate
        yield c, m, _seconds(c, rate), intensity >= balance, rank, penalty


def _sweep(model: ModelProfile, d1: DeviceProfile, d2: DeviceProfile, link: LinkProfile,
           table: AccuracyPenaltyTable, lambda1: float) -> PlanGrid:
    layers = model.layers
    heads, tails = [], []
    for rank, strategy in enumerate(_STRATEGIES):
        flops = [layer.flops_by_strategy[strategy] for layer in layers]
        data = [layer.bytes_by_strategy[strategy] for layer in layers]
        # Entry k-1 is the segment of cut k.  Heads sum layers [0, k) left
        # to right, as segment_load does; tails sum layers [k, n) right to
        # left, which avoids the cancellation of total - head.  Segments
        # are generated cut by cut, so only the rows outlive the sweep.
        heads.append(_segments(list(accumulate(flops))[:-1], list(accumulate(data))[:-1],
                               d1, rank, table.penalty(1, strategy)))
        tails.append(_segments(list(accumulate(reversed(flops)))[-2::-1],
                               list(accumulate(reversed(data)))[-2::-1],
                               d2, rank, table.penalty(2, strategy)))

    rows = []
    for cut, (layer, side1, side2) in enumerate(zip(layers, zip(*heads), zip(*tails)), 1):
        t3 = layer.output_activation_bytes / link.bandwidth + link.fixed_latency
        for c1, m1, t1, f1, th1, p1 in side1:
            for c2, m2, t2, f2, th2, p2 in side2:
                t_total = t1 + t2 + t3
                lam_c = c1 / (c1 + c2)
                loss = lam_c * p1 + (1 - lam_c) * p2
                rows.append((t_total + lambda1 * loss, t_total, cut, th1, th2, t1, t2, t3,
                             loss, lam_c, m1 / (m1 + m2), f1, f2))
    return PlanGrid(rows)


def evaluate_grid(model: ModelProfile, d1: DeviceProfile, d2: DeviceProfile,
                  link: LinkProfile, table: AccuracyPenaltyTable, lambda1: float,
                  require_feasible: bool = False) -> PlanGrid:
    """Every candidate of the grid, unranked, in one sweep.

    With ``require_feasible`` only candidates whose segments both reach
    their device's balance point are kept; ``NoFeasiblePlan`` is raised if
    none does.  A latency or objective that is not finite in any candidate
    raises ``InvariantViolation``, as in ``cost_model.evaluate_plan``.
    """
    if len(model.layers) < 2:
        raise DegenerateSplit("model has no interior layer boundary to cut at")
    rows = _sweep(model, d1, d2, link, table, lambda1).rows
    objectives = [row[0] for row in rows]
    # the objective is summed from every other cost, so it is finite only
    # if they all are
    if not all(map(math.isfinite, objectives)):
        _require_finite(next(_plan(row) for row in rows if not math.isfinite(row[0])))
    if require_feasible:
        rows = [row for row in rows if row[-2] and row[-1]]
        if not rows:
            raise NoFeasiblePlan("every candidate violates an intensity requirement")
        objectives = [row[0] for row in rows]

    best = min(objectives)
    limit = best + _RECHECK_RTOL * abs(best)
    for i, objective in enumerate(objectives):
        if objective <= limit:
            cut, th1, th2 = rows[i][2:5]
            rows[i] = _row(evaluate_plan(model, cut, _STRATEGIES[th1], _STRATEGIES[th2],
                                         d1, d2, link, table, lambda1))
    return PlanGrid(rows)


def enumerate_plans(model: ModelProfile, d1: DeviceProfile, d2: DeviceProfile,
                    link: LinkProfile, table: AccuracyPenaltyTable,
                    lambda1: float) -> list[PartitionPlan]:
    """Evaluate every candidate and return them ranked best-first."""
    return evaluate_grid(model, d1, d2, link, table, lambda1).ranked().plans()


def grid_search(model: ModelProfile, d1: DeviceProfile, d2: DeviceProfile,
                link: LinkProfile, table: AccuracyPenaltyTable, lambda1: float,
                require_feasible: bool = False) -> PartitionPlan:
    """Best plan over the full grid.

    By default infeasible candidates stay in (the roofline rate cap already
    prices memory-bound segments); with ``require_feasible`` both segments
    must reach their device's balance point or the candidate is dropped.
    """
    # the smallest row tuple is the first in canonical order
    return _plan(min(evaluate_grid(model, d1, d2, link, table, lambda1,
                                   require_feasible).rows))


# ---------------------------------------------------------------------------
# Continuous relaxation of the cut position
# ---------------------------------------------------------------------------

def cumulative_flop_fractions(model: ModelProfile) -> list[float]:
    """Cumulative FLOP fraction at each boundary 1..n, measured on the full
    (all branches retained) structure.  Entry k-1 is the fraction at
    boundary k; the last entry is 1.0."""
    per_layer = [layer.flops_by_strategy[FULL_STRUCTURE] for layer in model.layers]
    total = sum(per_layer)
    fractions, acc = [], 0.0
    for flops in per_layer:
        acc += flops
        fractions.append(acc / total)
    return fractions


def snap_to_boundary(lam: float, model: ModelProfile) -> int:
    """Interior boundary whose cumulative-FLOP fraction is nearest to lam;
    ties go to the smaller index."""
    fractions = cumulative_flop_fractions(model)
    return min(model.boundaries, key=lambda k: (abs(fractions[k - 1] - lam), k))


def _prefix_sums(values: list[float]) -> list[float]:
    """Entry k is the left-to-right sum of values[:k]."""
    sums, acc = [0.0], 0.0
    for value in values:
        acc += value
        sums.append(acc)
    return sums


def _relaxed_latency_curve(model: ModelProfile, theta1: FusionStrategy,
                           theta2: FusionStrategy, d1: DeviceProfile,
                           d2: DeviceProfile, link: LinkProfile):
    """``relaxed_total_latency`` as a function of lam alone.  The fractions,
    prefix sums and boundary activations are built once, so each point costs
    two binary searches."""
    layers = model.layers
    n = len(layers)
    grid = [0.0] + cumulative_flop_fractions(model)
    flops1 = [layer.flops_by_strategy[theta1] for layer in layers]
    bytes1 = [layer.bytes_by_strategy[theta1] for layer in layers]
    flops2 = [layer.flops_by_strategy[theta2] for layer in layers]
    bytes2 = [layer.bytes_by_strategy[theta2] for layer in layers]
    head1_f, head1_b = _prefix_sums(flops1), _prefix_sums(bytes1)
    head2_f, head2_b = _prefix_sums(flops2), _prefix_sums(bytes2)
    tot2_f, tot2_b = head2_f[n], head2_b[n]
    positions = list(model.boundaries)
    acts = [layers[j - 1].output_activation_bytes for j in positions]

    def total(lam: float) -> float:
        lam = min(max(lam, _EPS), 1.0 - _EPS)
        k = min(max(bisect_right(grid, lam) - 1, 0), n - 1)
        t = (lam - grid[k]) / (grid[k + 1] - grid[k])

        # segment sums interpolated inside layer k
        c1 = head1_f[k] + t * flops1[k]
        m1 = head1_b[k] + t * bytes1[k]
        c2 = tot2_f - (head2_f[k] + t * flops2[k])
        m2 = tot2_b - (head2_b[k] + t * bytes2[k])

        # activation bytes at the fractional position k + t, clamped to the
        # interior boundary values at the ends
        s = k + t
        if s <= positions[0]:
            embedding = acts[0]
        elif s >= positions[-1]:
            embedding = acts[-1]
        else:
            j = bisect_right(positions, s) - 1
            frac = (s - positions[j]) / (positions[j + 1] - positions[j])
            embedding = acts[j] + frac * (acts[j + 1] - acts[j])

        t1 = c1 / roofline.effective_rate(d1, c1 / m1)
        t2 = c2 / roofline.effective_rate(d2, c2 / m2)
        return t1 + t2 + embedding / link.bandwidth + link.fixed_latency

    return total


def relaxed_total_latency(model: ModelProfile, lam: float,
                          theta1: FusionStrategy, theta2: FusionStrategy,
                          d1: DeviceProfile, d2: DeviceProfile,
                          link: LinkProfile) -> float:
    """Latency of a fractional cut.

    lam lives in cumulative-FLOP-fraction space (full structure).  Segment
    FLOP/byte sums are linearly interpolated inside the layer the fraction
    falls in; the shipped activation interpolates between boundary values.
    """
    return _relaxed_latency_curve(model, theta1, theta2, d1, d2, link)(lam)


def refine_lambda(model: ModelProfile, start: PartitionPlan, d1: DeviceProfile,
                  d2: DeviceProfile, link: LinkProfile, step: float,
                  iters: int = 500) -> tuple[float, list[tuple[float, float]]]:
    """Gradient descent on the relaxed latency curve from a discrete plan's
    cut.  Returns the final fraction (clamped to (0, 1)) and the
    (lambda, T_total) trace; divergence shows up in the trace rather than
    as an exception."""
    h = 1e-6
    fractions = cumulative_flop_fractions(model)
    lam = fractions[start.cut_index - 1]
    total = _relaxed_latency_curve(model, start.theta1, start.theta2, d1, d2, link)

    trace = [(lam, total(lam))]
    for _ in range(iters):
        grad = (total(min(lam + h, 1.0 - _EPS)) - total(max(lam - h, _EPS))) / (2 * h)
        lam = min(max(lam - step * grad, _EPS), 1.0 - _EPS)
        trace.append((lam, total(lam)))
    return lam, trace


def refine_and_snap(model: ModelProfile, start: PartitionPlan, d1: DeviceProfile,
                    d2: DeviceProfile, link: LinkProfile,
                    table: AccuracyPenaltyTable, lambda1: float,
                    step: float = 1e-3, iters: int = 500,
                    ) -> tuple[PartitionPlan, float, list[tuple[float, float]]]:
    """Refine the cut fraction, snap it back to a boundary, and keep the
    best discrete plan among the snapped boundary and its neighbors."""
    lam_star, trace = refine_lambda(model, start, d1, d2, link, step, iters)
    snapped = snap_to_boundary(lam_star, model)
    candidates = {snapped}
    for neighbor in (snapped - 1, snapped + 1):
        if neighbor in model.boundaries:
            candidates.add(neighbor)
    plans = [evaluate_plan(model, cut, start.theta1, start.theta2, d1, d2,
                           link, table, lambda1) for cut in sorted(candidates)]
    return min(plans, key=plan_sort_key), lam_star, trace
