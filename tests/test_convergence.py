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
        _, lip = obj.curvature_bounds()
        eta = 0.5 * (2.0 / lip)
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
    violated, ratios, _, _ = convergence.rate_check(obj, (mu, mu), np.array([2.0, -1.0]),
                                                    eta, 50)
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
        convergence.rate_check(obj, (lip, lip), np.ones(2), 2.0 / lip + 1e-9, 10)
    with pytest.raises(StepSizeOutOfRange):
        convergence.rate_check(obj, (lip, lip), np.ones(2), 0.0, 10)


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
    violated, _, _, _ = convergence.rate_check(obj, (mu, lip), rng.standard_normal(6), 0.5, 200)
    assert violated is None


def test_gap_non_increasing_and_geometric():
    rng = np.random.default_rng(45)
    for _ in range(10):
        obj = convergence.random_objective(rng, 10)
        mu, lip = obj.curvature_bounds()
        eta = 0.9 * (2.0 / lip)
        w0 = rng.standard_normal(10)
        violated, ratios, _, _ = convergence.rate_check(obj, (mu, lip), w0, eta, 300)
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


def test_step_limit_is_the_smoothness_bound():
    # min(2/mu, 2/L) = min(2/0.5, 2/2.0) = 1.0: the guard admits 1.0 itself
    # and nothing above it
    obj = diag_objective([0.5, 2.0], split=1)
    curvature = obj.curvature_bounds()
    violated, _, _, _ = convergence.rate_check(obj, curvature, np.ones(2), 1.0, 10)
    assert violated is None
    with pytest.raises(StepSizeOutOfRange, match=r"outside \(0, 1\.0\]"):
        convergence.rate_check(obj, curvature, np.ones(2), np.nextafter(1.0, 2.0), 10)


def test_run_lab_report_shape():
    result = convergence.run_lab(seed=5, dim=8, steps=20)
    assert result["violated_at"] is None
    assert len(result["rows"]) == 20
    assert result["rows"][0]["within_bound"]
    assert 0 < result["eta"] <= 2.0 / result["lip"]


def test_contraction_factor_is_the_larger_end_of_the_spectrum():
    # spectrum [0.5, 2.0]
    # eta = 0.3: (1 - 0.15)^2 = 0.7225 at mu beats (1 - 0.6)^2 = 0.16 at L
    assert convergence.contraction_factor(0.5, 2.0, 0.3) == pytest.approx(0.7225, rel=1e-15)
    # eta = 0.9: (1 - 1.8)^2 = 0.64 at L beats (1 - 0.45)^2 = 0.3025 at mu
    assert convergence.contraction_factor(0.5, 2.0, 0.9) == pytest.approx(0.64, rel=1e-15)
    assert convergence.contraction_factor(0.5, 2.0, 1.0) == 1.0  # eta = 2/L


def test_lab_seed_whose_gap_beat_the_old_bound():
    # the gap ratio here is ~0.637 per step, above the old factor
    # 1 - eta*mu/2 ~ 0.619 but below the exact rho
    result = convergence.run_lab(seed=1028020543, dim=16, steps=200)
    assert result["violated_at"] is None
    assert all(row["within_bound"] for row in result["rows"])


@pytest.mark.parametrize("dim", [4, 8, 16])
def test_lab_bound_holds_over_a_seed_range(dim):
    violated = [seed for seed in range(150)
                if convergence.run_lab(seed, dim, 200)["violated_at"] is not None]
    assert violated == []


def test_lab_bound_holds_at_dim_2_over_a_seed_range():
    # Measured as loss(w) - optimum, seed 189's gap near 2e-10 cancelled to
    # noise that exceeded the bound by 1.1e-6 relative (violated_at=47).
    assert convergence.run_lab(189, 2, 200)["violated_at"] is None
    violated = [seed for seed in range(300)
                if convergence.run_lab(seed, 2, 200)["violated_at"] is not None]
    assert violated == []


def test_gap_equals_the_loss_difference():
    rng = np.random.default_rng(48)
    for dim in (2, 5, 16):
        obj = convergence.random_objective(rng, dim)
        minimizer = obj.minimizer()
        for scale in (1.0, 1e-2, 1e-4):
            w = minimizer + scale * rng.standard_normal(dim)
            assert obj.gap(w, minimizer) == pytest.approx(
                obj.loss(w) - obj.loss(minimizer), rel=1e-6)
        assert obj.gap(minimizer, minimizer) == 0.0


def test_lab_bound_column_is_gap0_times_rho_to_the_k():
    result = convergence.run_lab(seed=3, dim=8, steps=30)
    rng = np.random.default_rng(3)
    obj = convergence.random_objective(rng, 8)
    gap0 = obj.gap(rng.standard_normal(8), obj.minimizer())
    mu, lip = obj.curvature_bounds()
    assert (result["mu"], result["lip"]) == (mu, lip)
    assert result["eta"] == 0.9 * (2.0 / lip)
    rho = convergence.contraction_factor(mu, lip, result["eta"])
    assert [row["bound"] for row in result["rows"]] == [gap0 * rho ** k for k in range(1, 31)]


def test_lab_takes_the_spectrum_once(monkeypatch):
    # one eigvalsh, for the (mu, L) pair that sets eta, the step guard and
    # rho; QuadraticObjective checks positive definiteness by Cholesky
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    convergence.run_lab(seed=3, dim=8, steps=30)
    assert calls == [(8, 8)]


@pytest.mark.parametrize("fraction", [0.3, 0.9, 1.0])
def test_rate_is_tight_on_the_limiting_eigenvector(fraction):
    # With b = 0 the minimizer w* is exactly 0, so the gap 0.5 * w'Aw carries
    # no error from w* and its ratio is exact at every step above the
    # floor.  Starting on the eigenvector of the eigenvalue that sets rho
    # (mu at small steps, L at large ones), the gap shrinks by exactly rho.
    rng = np.random.default_rng(47)
    for _ in range(20):
        dim = int(rng.choice([4, 8, 16]))
        matrix = convergence.random_objective(rng, dim).matrix
        obj = QuadraticObjective(matrix=matrix, linear=np.zeros(dim), split_index=dim // 2)
        mu, lip = obj.curvature_bounds()
        eta = fraction * (2.0 / lip)
        rho = convergence.contraction_factor(mu, lip, eta)
        eigenvalues, vectors = np.linalg.eigh(matrix)
        limiting = 0 if (1 - eta * mu) ** 2 >= (1 - eta * lip) ** 2 else -1
        violated, ratios, _, _ = convergence.rate_check(obj, (mu, lip), vectors[:, limiting],
                                                        eta, 200)
        assert violated is None
        checked = [ratio for ratio in ratios if ratio != 0.0]
        assert len(checked) >= 10
        for ratio in checked:
            assert ratio == pytest.approx(rho, rel=1e-9)
