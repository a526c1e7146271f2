"""Split-versus-unsplit gradient descent checks on strongly convex quadratics.

Running a model across two devices splits the parameter vector into two
blocks that are updated independently.  On quadratics the strong-convexity
and gradient-smoothness constants are the eigenvalue extremes, the optimum
is available in closed form, and block updates can be compared against the
whole-vector update exactly.
"""

from __future__ import annotations

import random
from collections import namedtuple

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, StepSizeOutOfRange

# Below this relative size the loss gap is float noise, not signal.
_GAP_FLOOR_REL = 1e-12


class QuadraticObjective(namedtuple("QuadraticObjective", "matrix linear split_index")):
    """0.5 * w'Aw - b'w with A (``matrix``) symmetric positive definite and
    b = ``linear``; parameters split into w[:split_index] (device 1) and
    w[split_index:] (device 2)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        a = self.matrix
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"matrix must be square, got {a.shape}")
        if self.linear.shape != (a.shape[0],):
            raise DimensionMismatch(
                f"linear term has shape {self.linear.shape}, expected ({a.shape[0]},)")
        if not 1 <= self.split_index <= a.shape[0] - 1:
            raise DimensionMismatch(
                f"split_index={self.split_index} must leave both blocks non-empty")
        if not np.allclose(a, a.T):
            raise InvariantViolation("matrix must be symmetric")
        try:  # a Cholesky factor exists exactly when a is positive definite
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise InvariantViolation("matrix must be positive definite") from None
        return self

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def loss(self, w: np.ndarray) -> float:
        return 0.5 * float(w @ self.matrix @ w) - float(self.linear @ w)

    def gap(self, w: np.ndarray, minimizer: np.ndarray) -> float:
        """loss(w) - loss(w*) for w* = ``minimizer``, computed as 0.5 * e'Ae
        with e = w - w*: the difference of the two losses cancels to
        rounding noise once the gap is small against the losses."""
        e = w - minimizer
        return 0.5 * float(e @ self.matrix @ e)

    def minimizer(self) -> np.ndarray:
        return np.linalg.solve(self.matrix, self.linear)

    def curvature_bounds(self) -> tuple[float, float]:
        """(strong-convexity constant, gradient Lipschitz constant): the
        extreme eigenvalues."""
        eigenvalues = np.linalg.eigvalsh(self.matrix)
        return float(eigenvalues[0]), float(eigenvalues[-1])


def split_gradient(obj: QuadraticObjective, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-block gradients, each computed on its own device's rows;
    concatenated they equal the full gradient bit-for-bit (same per-row
    summation order)."""
    if w.shape != (obj.dim,):
        raise DimensionMismatch(f"w has shape {w.shape}, expected ({obj.dim},)")
    k = obj.split_index
    g1 = (obj.matrix[:k] * w).sum(axis=1) - obj.linear[:k]
    g2 = (obj.matrix[k:] * w).sum(axis=1) - obj.linear[k:]
    return g1, g2


def split_step(obj: QuadraticObjective, w: np.ndarray, eta: float) -> np.ndarray:
    """One independent gradient step on each block; equals the whole-vector
    step when summation order matches."""
    g1, g2 = split_gradient(obj, w)
    k = obj.split_index
    return np.concatenate([w[:k] - eta * g1, w[k:] - eta * g2])


def contraction_factor(mu: float, lip: float, eta: float) -> float:
    """Exact per-step factor rho of the loss gap under gradient descent with
    step ``eta``: gap_{k+1} <= rho * gap_k, with equality when the error
    lies on the limiting eigenvector.

    With e = w - w* the gap is loss(w) - loss(w*) = 0.5 * e'Ae, and one step
    maps e to (I - eta*A) e.  In A's eigenbasis, with eigenvalues l in
    [mu, L], the gap is 0.5 * sum(l * e_l^2) and each term shrinks by
    (1 - eta*l)^2 per step.  That square is convex in l, so its largest
    value on [mu, L] is at an end:

        rho = max((1 - eta*mu)^2, (1 - eta*L)^2),

    below 1 for every eta in (0, 2/L) and equal to 1 at eta = 2/L.  The
    split step is the whole-vector step, so the same factor holds for it.
    """
    return max((1.0 - eta * mu) ** 2, (1.0 - eta * lip) ** 2)


def rate_check(obj: QuadraticObjective, curvature: tuple[float, float], w0: np.ndarray,
               eta: float, steps: int, log) -> int | None:
    """Run split gradient descent and test the geometric contraction of the
    loss gap: gap_k <= rho^k * gap_0, with rho the exact per-step factor
    ``contraction_factor(mu, lip, eta)`` for ``curvature`` = (mu, lip) from
    ``obj.curvature_bounds()``, and each gap from ``obj.gap``.

    Calls ``log((k, gap, bound, ratio, within))`` once per step k = 1..steps,
    as the step is taken: the measured gap_k, the bound gap_0 * rho^k, the
    ratio gap_k/gap_{k-1} and whether this step meets its bound.  Once the
    previous gap is below float noise the ratio is 0, and a gap below it
    meets any bound; the gaps are always as measured.  Returns the first
    step that misses its bound, or None.  No row is kept.
    """
    mu, lip = curvature
    # The smoothness bound 2/L; the loss-decrease bound 2/mu is never
    # smaller, since mu <= L.
    limit = 2.0 / lip
    if not 0 < eta <= limit:
        raise StepSizeOutOfRange(f"eta={eta} outside (0, {limit}]")

    minimizer = obj.minimizer()
    gap0 = obj.gap(w0, minimizer)
    floor = _GAP_FLOOR_REL * max(abs(gap0), abs(obj.loss(minimizer)), 1.0)
    factor = contraction_factor(mu, lip, eta)

    w = w0
    previous_gap = gap0
    violated_at = None
    for k in range(1, steps + 1):
        w = split_step(obj, w, eta)
        gap = obj.gap(w, minimizer)
        bound = gap0 * factor ** k
        within = gap <= floor or gap <= bound * (1.0 + 1e-9)
        log((k, gap, bound, gap / previous_gap if previous_gap > floor else 0.0, within))
        if violated_at is None and not within:
            violated_at = k
        previous_gap = gap
    return violated_at


EIGENVALUE_RANGE = (0.5, 5.0)


def _uniform(rng: random.Random, n: int) -> np.ndarray:
    """``n`` floats uniform on [-1, 1) from one draw of ``rng``: its 4-byte
    little-endian words w map exactly to w/2**31 - 1, the same on every
    platform."""
    return np.frombuffer(rng.randbytes(4 * n), "<u4") * 2.0 ** -31 - 1.0


def random_objective(rng: random.Random, dim: int) -> QuadraticObjective:
    """Random SPD quadratic from ``_uniform`` draws of ``rng``: the QR
    input (dim x dim), then eigenvalues spread uniformly over
    ``EIGENVALUE_RANGE`` (its midpoint plus its half-width times u), then
    the linear term; the blocks are split evenly.  Each draw is freed once
    used: a view of one draw of all three would hold the dim x dim input
    as long as the linear term."""
    lo, hi = EIGENVALUE_RANGE
    q, _ = np.linalg.qr(_uniform(rng, dim * dim).reshape(dim, dim))
    eigenvalues = (lo + hi) / 2 + (hi - lo) / 2 * _uniform(rng, dim)
    a = (q * eigenvalues) @ q.T
    a = (a + a.T) / 2.0
    return QuadraticObjective(matrix=a, linear=_uniform(rng, dim), split_index=dim // 2)


def run_lab(seed: int, dim: int, steps: int, log) -> dict:
    """One seeded lab run: random quadratic, learning rate at 90% of the
    admissible limit 2/L, geometric-bound check over the trajectory, each
    step's row handed to ``log`` as ``rate_check`` computes it (see
    ``contraction_factor`` for the bound).  ``random.Random(seed)`` draws
    the quadratic, then the start w0 (``_uniform``).  Returns ``mu``,
    ``lip``, ``eta`` and ``violated_at``."""
    rng = random.Random(seed)
    obj = random_objective(rng, dim)
    mu, lip = obj.curvature_bounds()
    eta = 0.9 * (2.0 / lip)
    w0 = _uniform(rng, dim)
    return {"mu": mu, "lip": lip, "eta": eta,
            "violated_at": rate_check(obj, (mu, lip), w0, eta, steps, log)}
