import numpy as np
import pytest

from codesign import convergence
from codesign.convergence import QuadraticObjective
from codesign.errors import DimensionMismatch, StepSizeOutOfRange


def diag_objective(values, b=None, split=None):
    values = np.asarray(values, dtype=float)
    dim = len(values)
    return QuadraticObjective(
        matrix=np.diag(values),
        linear=np.zeros(dim) if b is None else np.asarray(b, dtype=float),
        split_index=split or dim // 2,
    )


def test_identity_quadratic_gradient_blocks():
    obj = diag_objective([1.0, 1.0, 1.0, 1.0])
    w = np.array([3.0, -1.0, 2.0, 0.5])
    g1, g2 = convergence.split_gradient(obj, w)
    assert np.array_equal(g1, w[:2])
    assert np.array_equal(g2, w[2:])


def test_block_gradients_concatenate_to_full():
    rng = np.random.default_rng(41)
    for _ in range(50):
        obj = convergence.random_objective(rng, 16)
        w = rng.standard_normal(16)
        g1, g2 = convergence.split_gradient(obj, w)
        # dense matvec reference
        full = obj.matrix @ w - obj.linear
        assert np.max(np.abs(np.concatenate([g1, g2]) - full)) < 1e-12


def test_gradient_vanishes_at_minimizer():
    rng = np.random.default_rng(42)
    obj = convergence.random_objective(rng, 8)
    g1, g2 = convergence.split_gradient(obj, obj.minimizer())
    assert np.max(np.abs(g1)) < 1e-9
    assert np.max(np.abs(g2)) < 1e-9


def test_dimension_mismatch():
    obj = diag_objective([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DimensionMismatch):
        convergence.split_gradient(obj, np.zeros(5))


def test_step_fixed_point_at_zero_gradient():
    obj = diag_objective([2.0, 2.0])
    w_star = obj.minimizer()
    assert np.array_equal(convergence.split_step(obj, w_star, 0.3), w_star)


def test_scalar_recursion_contraction():
    mu = 0.8
    obj = diag_objective([mu, mu], split=1)
    w0 = np.array([1.0, -2.0])
    eta = 0.5
    w1 = convergence.split_step(obj, w0, eta)
    assert np.allclose(w1, (1 - eta * mu) * w0)


def test_split_trajectory_bit_for_bit_equals_unsplit():
    # the unsplit reference uses the same per-row summation order, which is
    # what makes bitwise equality a fair requirement
    rng = np.random.default_rng(43)
    for _ in range(10):
        dim = int(rng.choice([10, 12, 16, 20]))
        obj = convergence.random_objective(rng, dim)
        eta = 0.5 * convergence.admissible_step_limit(obj)
        w_split = rng.standard_normal(dim)
        w_full = w_split.copy()
        for _step in range(100):
            w_split = convergence.split_step(obj, w_split, eta)
            w_full = w_full - eta * ((obj.matrix * w_full).sum(axis=1) - obj.linear)
            assert np.array_equal(w_split, w_full)


def test_rate_check_scalar_closed_form():
    mu = 1.5
    obj = diag_objective([mu, mu])
    eta = 0.4  # well inside (0, 2/mu)
    violated, ratios, _ = convergence.rate_check(obj, np.array([2.0, -1.0]), eta, 50)
    assert violated is None
    # gap contracts by exactly (1 - eta*mu)^2 per step until it hits noise
    expected = (1 - eta * mu) ** 2
    for ratio in ratios:
        if ratio == 0.0:
            break
        assert ratio == pytest.approx(expected, rel=1e-9)
        assert ratio <= 1 - eta * mu / 2


def test_step_size_guard():
    lip = 4.0
    obj = diag_objective([lip, lip])
    with pytest.raises(StepSizeOutOfRange):
        convergence.rate_check(obj, np.ones(2), 2.0 / lip + 1e-9, 10)
    with pytest.raises(StepSizeOutOfRange):
        convergence.rate_check(obj, np.ones(2), 0.0, 10)


def test_rate_check_random_spd_no_violation():
    rng = np.random.default_rng(44)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    eigenvalues = np.array([0.5, 0.8, 1.1, 1.4, 1.7, 2.0])
    a = (q * eigenvalues) @ q.T
    obj = QuadraticObjective(matrix=(a + a.T) / 2, linear=rng.standard_normal(6),
                             split_index=3)
    mu, lip = obj.curvature_bounds()
    assert mu == pytest.approx(0.5, rel=1e-9)
    assert lip == pytest.approx(2.0, rel=1e-9)
    violated, _, _ = convergence.rate_check(obj, rng.standard_normal(6), 0.5, 200)
    assert violated is None


def test_gap_non_increasing_and_geometric():
    rng = np.random.default_rng(45)
    for _ in range(10):
        obj = convergence.random_objective(rng, 10)
        mu, _ = obj.curvature_bounds()
        eta = 0.9 * convergence.admissible_step_limit(obj)
        w0 = rng.standard_normal(10)
        violated, ratios, _ = convergence.rate_check(obj, w0, eta, 300)
        assert violated is None
        assert all(r <= 1.0 + 1e-12 for r in ratios)


def test_loss_decrease_condition_for_admissible_steps():
    # -eta + (mu/2) eta^2 < 0 across the admissible range
    rng = np.random.default_rng(46)
    for _ in range(100):
        mu = float(rng.uniform(0.1, 10.0))
        limit = 2.0 / mu
        eta = float(rng.uniform(1e-9, limit * (1 - 1e-9)))
        assert -eta + 0.5 * mu * eta * eta < 0


def test_admissible_limit_is_intersection():
    obj = diag_objective([0.5, 2.0], split=1)
    assert convergence.admissible_step_limit(obj) == 1.0  # min(2/0.5, 2/2.0)


def test_run_lab_report_shape():
    result = convergence.run_lab(seed=5, dim=8, steps=20)
    assert result["violated_at"] is None
    assert len(result["rows"]) == 20
    assert result["rows"][0]["within_bound"]
    assert 0 < result["eta"] <= 2.0 / result["lip"]
