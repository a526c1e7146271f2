"""Plan search.

The authoritative optimizer is an exhaustive, deterministic grid over every
interior cut position and every (theta1, theta2) strategy pair.  The cost
model is additive per layer, so the grid is one sweep: per-strategy running
sums give every segment load, each segment is priced once per (cut,
strategy), and ``cost_model`` pairs the segments of a cut into its 16 rows,
the same way it costs a single plan.  That is O(n) work plus one sort of the
16(n-1) rows; every row, the winner included, carries exactly the values
``cost`` prints, and ties are broken on exact keys.

``refine_lambda`` is gradient descent from the grid winner on a continuous
relaxation of the cut fraction, reported as its (lambda, T_total) trace.
Each relaxed point costs O(log n): binary searches over prefix sums built
once per descent, with segments priced by ``cost_model``.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .cost_model import (PartitionPlan, _cut_rows, _price, _priced_segments, _require_finite,
                         _transfer, row_plan)
from .errors import DegenerateSplit, NoFeasiblePlan
from .profiles import (
    FULL_STRUCTURE,
    AccuracyPenaltyTable,
    DeviceProfile,
    FusionStrategy,
    LinkProfile,
    ModelProfile,
    running_load,
)

_EPS = 1e-9


def _sweep(model: ModelProfile, d1: DeviceProfile, d2: DeviceProfile, link: LinkProfile,
           table: AccuracyPenaltyTable, lambda1: float) -> list[tuple]:
    layers = model.layers
    heads, tails = [], []
    for strategy in FusionStrategy:
        # Entry k-1 is the segment of cut k: heads from layer 0 up, tails
        # from the last layer down, as in cost_model (which also avoids the
        # cancellation of total - head).
        flops, data = running_load(layers, strategy)
        heads.append(_priced_segments(flops[:-1], data[:-1], d1, strategy,
                                      table.penalty(1, strategy)))
        flops, data = running_load(layers[::-1], strategy)
        tails.append(_priced_segments(flops[-2::-1], data[-2::-1], d2, strategy,
                                      table.penalty(2, strategy)))

    rows = []
    for cut, (layer, side1, side2) in enumerate(zip(layers, zip(*heads), zip(*tails)), 1):
        rows += _cut_rows(cut, _transfer(layer.output_activation_bytes, link), side1, side2,
                          lambda1)
    return rows


def evaluate_grid(model: ModelProfile, d1: DeviceProfile, d2: DeviceProfile,
                  link: LinkProfile, table: AccuracyPenaltyTable, lambda1: float,
                  require_feasible: bool = False) -> list[tuple]:
    """Every candidate of the grid, unranked, in one sweep: one tuple per
    candidate laid out as ``cost_model.ROW_FIELDS``.  ``sorted`` ranks the
    rows (the order ``ROW_FIELDS`` states) and ``row_plan`` turns one into a
    plan.

    With ``require_feasible`` only candidates whose segments both reach
    their device's balance point are kept; ``NoFeasiblePlan`` is raised if
    none does.  A latency or objective that is not finite in any candidate
    raises ``InvariantViolation``, as in ``cost_model.evaluate_plan``.
    """
    if len(model.layers) < 2:
        raise DegenerateSplit("model has no interior layer boundary to cut at")
    rows = _sweep(model, d1, d2, link, table, lambda1)
    # the objective is summed from every other cost, so it is finite only
    # if they all are
    if not all(map(math.isfinite, [row[0] for row in rows])):
        _require_finite(next(row_plan(row) for row in rows if not math.isfinite(row[0])))
    if require_feasible:
        rows = [row for row in rows if row[-2] and row[-1]]
        if not rows:
            raise NoFeasiblePlan("every candidate violates an intensity requirement")
    return rows


def grid_search(model: ModelProfile, d1: DeviceProfile, d2: DeviceProfile,
                link: LinkProfile, table: AccuracyPenaltyTable, lambda1: float,
                require_feasible: bool = False) -> PartitionPlan:
    """Best plan over the full grid.

    By default infeasible candidates stay in (the roofline rate cap already
    prices memory-bound segments); with ``require_feasible`` both segments
    must reach their device's balance point or the candidate is dropped.
    """
    # the smallest row tuple is the first in canonical order
    return row_plan(min(evaluate_grid(model, d1, d2, link, table, lambda1, require_feasible)))


# ---------------------------------------------------------------------------
# Continuous relaxation of the cut position
# ---------------------------------------------------------------------------

def cumulative_flop_fractions(model: ModelProfile) -> list[float]:
    """Cumulative FLOP fraction at each boundary 1..n, measured on the full
    (all branches retained) structure.  Entry k-1 is the fraction at
    boundary k; the last entry is 1.0."""
    sums = running_load(model.layers, FULL_STRUCTURE)[0]
    return [acc / sums[-1] for acc in sums]


def relaxed_latency_curve(model: ModelProfile, theta1: FusionStrategy,
                          theta2: FusionStrategy, d1: DeviceProfile,
                          d2: DeviceProfile, link: LinkProfile):
    """Latency of a fractional cut, as a function of the fraction lam.

    lam lives in cumulative-FLOP-fraction space (full structure).  Segment
    FLOP/byte sums are linearly interpolated inside the layer the fraction
    falls in; the shipped activation interpolates between boundary values.
    The fractions, prefix sums and boundary activations are built once, so
    each point costs two binary searches.
    """
    layers = model.layers
    n = len(layers)
    grid = [0.0] + cumulative_flop_fractions(model)
    flops1 = [layer.flops_by_strategy[theta1] for layer in layers]
    bytes1 = [layer.bytes_by_strategy[theta1] for layer in layers]
    flops2 = [layer.flops_by_strategy[theta2] for layer in layers]
    bytes2 = [layer.bytes_by_strategy[theta2] for layer in layers]
    # entry k of a head is the left-to-right sum of layers [0, k)
    head1_f, head1_b, head2_f, head2_b = (
        [0.0] + sums for sums in (*running_load(layers, theta1), *running_load(layers, theta2)))
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

        # not ``_transfer``: regrouping the link's two terms would move a
        # trace's last bits on a link with a fixed latency
        return (_price(c1, m1, d1)[0] + _price(c2, m2, d2)[0] + embedding / link.bandwidth
                + link.fixed_latency)

    return total


def refine_lambda(model: ModelProfile, start: PartitionPlan, d1: DeviceProfile,
                  d2: DeviceProfile, link: LinkProfile, step: float = 1e-3,
                  iters: int = 500) -> tuple[float, list[tuple[float, float]]]:
    """Gradient descent on the relaxed latency curve from a discrete plan's
    cut.  Returns the final fraction (clamped to (0, 1)) and the
    (lambda, T_total) trace; divergence shows up in the trace rather than
    as an exception."""
    h = 1e-6
    fractions = cumulative_flop_fractions(model)
    lam = fractions[start.cut_index - 1]
    total = relaxed_latency_curve(model, start.theta1, start.theta2, d1, d2, link)

    trace = [(lam, total(lam))]
    for _ in range(iters):
        grad = (total(min(lam + h, 1.0 - _EPS)) - total(max(lam - h, _EPS))) / (2 * h)
        lam = min(max(lam - step * grad, _EPS), 1.0 - _EPS)
        trace.append((lam, total(lam)))
    return lam, trace

