"""Continuous refinement of the grid winner's cut.

``refine_lambda`` is gradient descent from the grid winner (the first row
``cost_model.ranked`` returns) on a continuous relaxation of the cut fraction,
reported as its (lambda, T_total) trace.  Each relaxed point costs O(log n):
a binary search over prefix sums built once per descent, with segments
priced by ``cost_model._price``.
"""

from __future__ import annotations

from bisect import bisect_right

from .cost_model import PartitionPlan, _price
from .profiles import (
    FULL_STRUCTURE,
    DeviceProfile,
    FusionStrategy,
    LinkProfile,
    ModelProfile,
    running_load,
)

_EPS = 1e-9


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
    each point costs one binary search.
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
    # entry i-1 is the activation shipped at boundary i
    acts = [layer.output_activation_bytes for layer in layers[:-1]]

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
        if s <= 1:
            embedding = acts[0]
        elif s >= n - 1:
            embedding = acts[-1]
        else:
            i = int(s)
            embedding = acts[i - 1] + (s - i) * (acts[i] - acts[i - 1])

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
        # total clamps its argument to (0, 1), so the probes need no clamp
        grad = (total(lam + h) - total(lam - h)) / (2 * h)
        lam = min(max(lam - step * grad, _EPS), 1.0 - _EPS)
        trace.append((lam, total(lam)))
    return lam, trace

