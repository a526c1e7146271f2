"""Split-versus-unsplit gradient descent checks on strongly convex quadratics.

Running a model across two devices splits the parameter vector into two
blocks that are updated independently.  On quadratics the strong-convexity
and gradient-smoothness constants are the eigenvalue extremes, the optimum
is available in closed form, and block updates can be compared against the
whole-vector update exactly.
"""

from __future__ import annotations

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
               eta: float, steps: int) -> tuple[int | None, list[float], list[float], list[float]]:
    """Run split gradient descent and test the geometric contraction of the
    loss gap: gap_k <= rho^k * gap_0, with rho the exact per-step factor
    ``contraction_factor(mu, lip, eta)`` for ``curvature`` = (mu, lip) from
    ``obj.curvature_bounds()``, and each gap from ``obj.gap``.

    Returns the first step at which the bound fails (None if it never does),
    the per-step gap ratios gap_{k+1}/gap_k, the measured gaps gap_k and the
    bounds gap_0 * rho^k for k = 1..steps.  Once the gap falls below float
    noise the bound check stops and ratios are reported as 0; the gaps are
    always as measured.
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
    ratios, gaps, bounds = [], [], []
    for k in range(1, steps + 1):
        w = split_step(obj, w, eta)
        gap = obj.gap(w, minimizer)
        gaps.append(gap)
        ratios.append(gap / previous_gap if previous_gap > floor else 0.0)
        bound = gap0 * factor ** k
        bounds.append(bound)
        if violated_at is None and gap > floor and gap > bound * (1.0 + 1e-9):
            violated_at = k
        previous_gap = gap
    return violated_at, ratios, gaps, bounds


EIGENVALUE_RANGE = (0.5, 5.0)


def random_objective(rng: np.random.Generator, dim: int) -> QuadraticObjective:
    """Random SPD quadratic with eigenvalues drawn uniformly from
    ``EIGENVALUE_RANGE`` and an even block split."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigenvalues = rng.uniform(*EIGENVALUE_RANGE, dim)
    a = (q * eigenvalues) @ q.T
    a = (a + a.T) / 2.0
    return QuadraticObjective(matrix=a, linear=rng.standard_normal(dim),
                              split_index=dim // 2)


def run_lab(seed: int, dim: int, steps: int) -> dict:
    """One seeded lab run: random quadratic, learning rate at 90% of the
    admissible limit 2/L, geometric-bound check over the trajectory.  Each row's
    ``bound`` is the gap_0 * rho^k that ``rate_check`` tested (see
    ``contraction_factor``)."""
    rng = np.random.default_rng(seed)
    obj = random_objective(rng, dim)
    mu, lip = obj.curvature_bounds()
    eta = 0.9 * (2.0 / lip)
    w0 = rng.standard_normal(dim)

    violated_at, ratios, gaps, bounds = rate_check(obj, (mu, lip), w0, eta, steps)

    rows = [{
        "step": k,
        "gap": gap,
        "bound": bound,
        "ratio": ratio,
        "within_bound": violated_at is None or k < violated_at,
    } for k, (gap, bound, ratio) in enumerate(zip(gaps, bounds, ratios), start=1)]
    return {
        "mu": mu,
        "lip": lip,
        "eta": eta,
        "violated_at": violated_at,
        "rows": rows,
    }
