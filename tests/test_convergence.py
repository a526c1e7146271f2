import random

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


def uniform(rng, n):
    """``n`` floats uniform on [-1, 1) from ``rng``, drawn as ``run_lab``
    draws its start w0: 4-byte little-endian words w, each w/2**31 - 1."""
    return np.frombuffer(rng.randbytes(4 * n), "<u4") * 2.0 ** -31 - 1.0


def drop(row):
    """A sink for a caller that wants only ``violated_at``."""


def rate_rows(obj, curvature, w0, eta, steps):
    """(``violated_at``, the rows ``rate_check`` logged)."""
    rows = []
    return convergence.rate_check(obj, curvature, w0, eta, steps, rows.append), rows


def lab_rows(seed, dim, steps):
    """(``run_lab``'s result, the rows it logged)."""
    rows = []
    return convergence.run_lab(seed, dim, steps, rows.append), rows


def test_identity_quadratic_gradient_blocks():
    obj = diag_objective([1.0, 1.0, 1.0, 1.0])
    w = np.array([3.0, -1.0, 2.0, 0.5])
    g1, g2 = convergence.split_gradient(obj, w)
    assert np.array_equal(g1, w[:2])
    assert np.array_equal(g2, w[2:])


def test_block_gradients_concatenate_to_full():
    rng = random.Random(41)
    for _ in range(50):
        obj = convergence.random_objective(rng, 16)
        w = uniform(rng, 16)
        g1, g2 = convergence.split_gradient(obj, w)
        # dense matvec reference
        full = obj.matrix @ w - obj.linear
        assert np.max(np.abs(np.concatenate([g1, g2]) - full)) < 1e-12


def test_random_objective_maps_its_draws_in_order():
    # the QR input, then the eigenvalues 2.75 + 2.25u (EIGENVALUE_RANGE's
    # midpoint and half-width), then the linear term
    obj = convergence.random_objective(random.Random(5), 6)
    rng = random.Random(5)
    q_input, u, linear = uniform(rng, 36), uniform(rng, 6), uniform(rng, 6)
    q, _ = np.linalg.qr(q_input.reshape(6, 6))
    assert np.allclose(obj.matrix @ q, q * (2.75 + 2.25 * u), rtol=0, atol=1e-12)
    assert np.array_equal(obj.linear, linear)
    assert obj.split_index == 3


def test_gradient_vanishes_at_minimizer():
    obj = convergence.random_objective(random.Random(42), 8)
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
    rng = random.Random(43)
    for _ in range(10):
        dim = rng.choice([10, 12, 16, 20])
        obj = convergence.random_objective(rng, dim)
        _, lip = obj.curvature_bounds()
        eta = 0.5 * (2.0 / lip)
        w_split = uniform(rng, dim)
        w_full = w_split.copy()
        for _step in range(100):
            w_split = convergence.split_step(obj, w_split, eta)
            w_full = w_full - eta * ((obj.matrix * w_full).sum(axis=1) - obj.linear)
            assert np.array_equal(w_split, w_full)


def test_rate_check_scalar_closed_form():
    mu = 1.5
    obj = diag_objective([mu, mu])
    eta = 0.4  # well inside (0, 2/mu)
    violated, rows = rate_rows(obj, (mu, mu), np.array([2.0, -1.0]), eta, 50)
    assert violated is None
    ratios = [ratio for _, _, _, ratio, _ in rows]
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
        convergence.rate_check(obj, (lip, lip), np.ones(2), 2.0 / lip + 1e-9, 10, drop)
    with pytest.raises(StepSizeOutOfRange):
        convergence.rate_check(obj, (lip, lip), np.ones(2), 0.0, 10, drop)


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
    assert convergence.rate_check(obj, (mu, lip), rng.standard_normal(6), 0.5, 200, drop) is None


def test_gap_non_increasing_and_geometric():
    rng = random.Random(45)
    for _ in range(10):
        obj = convergence.random_objective(rng, 10)
        mu, lip = obj.curvature_bounds()
        eta = 0.9 * (2.0 / lip)
        w0 = uniform(rng, 10)
        violated, rows = rate_rows(obj, (mu, lip), w0, eta, 300)
        assert violated is None
        assert all(ratio <= 1.0 + 1e-12 for _, _, _, ratio, _ in rows)


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
    assert convergence.rate_check(obj, curvature, np.ones(2), 1.0, 10, drop) is None
    with pytest.raises(StepSizeOutOfRange, match=r"outside \(0, 1\.0\]"):
        convergence.rate_check(obj, curvature, np.ones(2), np.nextafter(1.0, 2.0), 10, drop)


def test_run_lab_report_shape():
    result, rows = lab_rows(seed=5, dim=8, steps=20)
    assert result.keys() == {"mu", "lip", "eta", "violated_at"}
    assert result["violated_at"] is None
    assert [row[0] for row in rows] == list(range(1, 21))
    assert rows[0][4] is True
    assert 0 < result["eta"] <= 2.0 / result["lip"]


def test_contraction_factor_is_the_larger_end_of_the_spectrum():
    # spectrum [0.5, 2.0]
    # eta = 0.3: (1 - 0.15)^2 = 0.7225 at mu beats (1 - 0.6)^2 = 0.16 at L
    assert convergence.contraction_factor(0.5, 2.0, 0.3) == pytest.approx(0.7225, rel=1e-15)
    # eta = 0.9: (1 - 1.8)^2 = 0.64 at L beats (1 - 0.45)^2 = 0.3025 at mu
    assert convergence.contraction_factor(0.5, 2.0, 0.9) == pytest.approx(0.64, rel=1e-15)
    assert convergence.contraction_factor(0.5, 2.0, 1.0) == 1.0  # eta = 2/L


def test_lab_seed_whose_gap_beat_the_old_bound():
    # on the numpy stream the lab once drew from, this seed's gap ratio was
    # ~0.637 per step, above the old factor 1 - eta*mu/2 ~ 0.619 but below
    # the exact rho
    result, rows = lab_rows(seed=1028020543, dim=16, steps=200)
    assert result["violated_at"] is None
    assert all(within for *_, within in rows)


@pytest.mark.parametrize("dim", [4, 8, 16])
def test_lab_bound_holds_over_a_seed_range(dim):
    violated = [seed for seed in range(150)
                if convergence.run_lab(seed, dim, 200, drop)["violated_at"] is not None]
    assert violated == []


def test_lab_bound_holds_at_dim_2_over_a_seed_range():
    # On the numpy stream the lab once drew from, seed 189's gap near 2e-10,
    # measured as loss(w) - optimum, cancelled to noise that exceeded the
    # bound by 1.1e-6 relative (violated_at=47).
    assert convergence.run_lab(189, 2, 200, drop)["violated_at"] is None
    violated = [seed for seed in range(300)
                if convergence.run_lab(seed, 2, 200, drop)["violated_at"] is not None]
    assert violated == []


@pytest.mark.parametrize("seed, dim, step, below", [(7450, 2, 57, 2e-9), (6048, 16, 1, 0.14)])
def test_lab_tightest_seed_of_its_dim_holds(seed, dim, step, below):
    # Over seeds 0-9999 these come closest to their bound: the smallest
    # margin (bound * (1 + 1e-9) - gap) / bound of a step above the noise
    # floor is 9.6e-10 (seed 7450, --dim 2, step 57: only the 1e-9 slack
    # holds it) and 0.136 (seed 6048, --dim 16, step 1).
    result, rows = lab_rows(seed, dim, 200)
    assert result["violated_at"] is None
    assert all(within for *_, within in rows)
    _, gap, bound, _, _ = rows[step - 1]
    assert 0 <= (bound * (1 + 1e-9) - gap) / bound < below


def test_gap_equals_the_loss_difference():
    rng = random.Random(48)
    for dim in (2, 5, 16):
        obj = convergence.random_objective(rng, dim)
        minimizer = obj.minimizer()
        for scale in (1.0, 1e-2, 1e-4):
            w = minimizer + scale * uniform(rng, dim)
            assert obj.gap(w, minimizer) == pytest.approx(
                obj.loss(w) - obj.loss(minimizer), rel=1e-6)
        assert obj.gap(minimizer, minimizer) == 0.0


def test_lab_bound_column_is_gap0_times_rho_to_the_k():
    result, rows = lab_rows(seed=3, dim=8, steps=30)
    rng = random.Random(3)
    obj = convergence.random_objective(rng, 8)
    gap0 = obj.gap(uniform(rng, 8), obj.minimizer())
    mu, lip = obj.curvature_bounds()
    assert (result["mu"], result["lip"]) == (mu, lip)
    assert result["eta"] == 0.9 * (2.0 / lip)
    rho = convergence.contraction_factor(mu, lip, result["eta"])
    assert [row[2] for row in rows] == [gap0 * rho ** k for k in range(1, 31)]


def test_lab_takes_the_spectrum_once(monkeypatch):
    # one eigvalsh, for the (mu, L) pair that sets eta, the step guard and
    # rho; QuadraticObjective checks positive definiteness by Cholesky
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    convergence.run_lab(seed=3, dim=8, steps=30, log=drop)
    assert calls == [(8, 8)]


@pytest.mark.parametrize("fraction", [0.3, 0.9, 1.0])
def test_rate_is_tight_on_the_limiting_eigenvector(fraction):
    # With b = 0 the minimizer w* is exactly 0, so the gap 0.5 * w'Aw carries
    # no error from w* and its ratio is exact at every step above the
    # floor.  Starting on the eigenvector of the eigenvalue that sets rho
    # (mu at small steps, L at large ones), the gap shrinks by exactly rho.
    rng = random.Random(47)
    for _ in range(20):
        dim = rng.choice([4, 8, 16])
        matrix = convergence.random_objective(rng, dim).matrix
        obj = QuadraticObjective(matrix=matrix, linear=np.zeros(dim), split_index=dim // 2)
        mu, lip = obj.curvature_bounds()
        eta = fraction * (2.0 / lip)
        rho = convergence.contraction_factor(mu, lip, eta)
        eigenvalues, vectors = np.linalg.eigh(matrix)
        limiting = 0 if (1 - eta * mu) ** 2 >= (1 - eta * lip) ** 2 else -1
        violated, rows = rate_rows(obj, (mu, lip), vectors[:, limiting], eta, 200)
        assert violated is None
        checked = [ratio for _, _, _, ratio, _ in rows if ratio != 0.0]
        assert len(checked) >= 10
        for ratio in checked:
            assert ratio == pytest.approx(rho, rel=1e-9)


def test_each_row_is_checked_against_its_own_bound():
    # mu is overstated (the spectrum is [1, 2]), so rho = (1 - 0.4 * 1.5)^2
    # = 0.16 is smaller than the gap's true factor (1 - 0.4)^2 = 0.36: the
    # bound fails from step 2 (gap 0.22 against 0.24 at step 1), and once
    # the gap sinks under the noise floor the rows meet it again
    obj = diag_objective([1.0, 2.0], split=1)
    w0 = np.ones(2)
    violated, rows = rate_rows(obj, (1.5, 2.0), w0, 0.4, 40)
    gap0 = obj.gap(w0, obj.minimizer())
    floor = convergence._GAP_FLOOR_REL * max(gap0, 1.0)
    rho = convergence.contraction_factor(1.5, 2.0, 0.4)
    assert rho == pytest.approx(0.16, rel=1e-15)
    assert [row[0] for row in rows] == list(range(1, 41))
    w = w0
    for k, gap, bound, _, within in rows:
        w = convergence.split_step(obj, w, 0.4)
        assert gap == obj.gap(w, obj.minimizer())
        assert bound == gap0 * rho ** k
        assert within is (gap <= floor or gap <= bound * (1 + 1e-9))
    flags = [within for *_, within in rows]
    assert violated == flags.index(False) + 1 == 2
    assert any(flags[violated:])
