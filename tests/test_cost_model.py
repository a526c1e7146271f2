import math

import numpy as np
import pytest

from codesign import cost_model, optimizer
from codesign.errors import DegenerateSplit
from codesign.profiles import AccuracyPenaltyTable, DeviceProfile, ModelProfile, total_load

from conftest import (
    FULL,
    S3,
    S3_1X1,
    S3_SKIP,
    nano,
    nx,
    random_device,
    random_model,
    random_table,
    simple_link,
    uniform_layer,
    uniform_model,
    zero_table,
)


def two_layer_model(c1, m1, c2, m2, activation=1e6):
    return ModelProfile("two", (uniform_layer(0, c1, m1, activation),
                                uniform_layer(1, c2, m2, activation)))


def test_compute_bound_segment_latency():
    # segment 1: 256e9 FLOPs at intensity 20 (above nano's 18.4375 balance),
    # so it runs at the compute roof: 256e9 / 472e9 s
    model = two_layer_model(256e9, 12.8e9, 1e9, 1e9)
    cost = cost_model.latency(model, 1, S3, S3, nano(), nx(), simple_link())
    assert math.isclose(cost.t1, 0.5423728813559322, rel_tol=1e-12)


def test_link_latency_one_megabyte_at_100mbps():
    model = two_layer_model(1e9, 1e8, 1e9, 1e8, activation=1e6)
    cost = cost_model.latency(model, 1, S3, S3, nano(), nx(), simple_link(12.5e6))
    assert cost.t3 == 0.08


def test_zero_size_embedding_leaves_fixed_latency():
    model = two_layer_model(1e9, 1e8, 1e9, 1e8, activation=0.0)
    link = simple_link(12.5e6, fixed=0.013)
    cost = cost_model.latency(model, 1, S3, S3, nano(), nx(), link)
    assert cost.t3 == 0.013


def test_every_segment_sum_adds_layers_in_one_order():
    # 1e16 + 1 rounds back to 1e16, so adding the layers one at a time from
    # layer 0 gives 1e16, while a compensated sum (``sum`` from Python 3.12)
    # keeps the ones: 1e16 + 2 over the first three layers.  total_load, the
    # head of evaluate_plan at the last cut and the grid's head there must
    # all add them one at a time.
    model = ModelProfile("ulp", tuple(uniform_layer(i, flops, 1.0, 1.0)
                                      for i, flops in enumerate((1e16, 1.0, 1.0, 1.0))))
    # compute-bound at a rate of 1 FLOP/s, so t1 is the head's FLOP sum
    unit = DeviceProfile("unit", peak_compute=1.0, mem_bandwidth=1.0)
    assert total_load(ModelProfile("ulp3", model.layers[:3]), S3) == (1e16, 3.0)
    assert total_load(model, S3) == (1e16, 4.0)
    plan = cost_model.evaluate_plan(model, 3, S3, S3, unit, unit, simple_link(),
                                    zero_table(), 0.0)
    assert plan.cost.t1 == 1e16
    plans = optimizer.enumerate_plans(model, unit, unit, simple_link(), zero_table(), 0.0)
    assert {plan.cost.t1 for plan in plans if plan.cut_index == 3} == {1e16}


def test_degenerate_cut_rejected():
    model = uniform_model(3)
    with pytest.raises(DegenerateSplit):
        cost_model.latency(model, 0, S3, S3, nano(), nx(), simple_link())
    with pytest.raises(DegenerateSplit):
        cost_model.latency(model, 3, S3, S3, nano(), nx(), simple_link())


def test_total_is_exact_sum_of_parts():
    rng = np.random.default_rng(2)
    for _ in range(50):
        model = random_model(rng, int(rng.integers(2, 9)))
        cut = int(rng.integers(1, len(model.layers)))
        cost = cost_model.latency(model, cut, S3_1X1, FULL,
                                  random_device(rng, "a"), random_device(rng, "b"),
                                  simple_link())
        assert cost.t_total == cost.t1 + cost.t2 + cost.t3


def penalty_table(p1_s3=2.0, p2_s3=4.0):
    return AccuracyPenaltyTable({
        1: {S3: p1_s3, S3_SKIP: 1.0, S3_1X1: 1.0, FULL: 0.0},
        2: {S3: p2_s3, S3_SKIP: 2.0, S3_1X1: 2.0, FULL: 0.0},
    })


def test_accuracy_loss_full_structure_is_free():
    table = penalty_table()
    for lam in (0.1, 0.5, 0.9):
        assert cost_model.accuracy_loss(FULL, FULL, lam, table) == 0.0


def test_accuracy_loss_even_split():
    assert cost_model.accuracy_loss(S3, S3, 0.5, penalty_table()) == 3.0


def test_accuracy_loss_weighted():
    table = AccuracyPenaltyTable({
        1: {S3: 2.0, S3_SKIP: 1.5, S3_1X1: 1.0, FULL: 0.0},
        2: {S3: 3.0, S3_SKIP: 2.0, S3_1X1: 2.0, FULL: 0.0},
    })
    loss = cost_model.accuracy_loss(S3_1X1, S3_SKIP, 0.25, table)
    assert loss == 0.25 * 1.0 + 0.75 * 2.0  # 1.75


def test_accuracy_loss_linear_in_lambda():
    table = penalty_table()
    rng = np.random.default_rng(3)
    for _ in range(100):
        la, lb, alpha = rng.uniform(0.01, 0.99, 3)
        mixed = cost_model.accuracy_loss(S3, S3_SKIP, alpha * la + (1 - alpha) * lb, table)
        combo = (alpha * cost_model.accuracy_loss(S3, S3_SKIP, la, table)
                 + (1 - alpha) * cost_model.accuracy_loss(S3, S3_SKIP, lb, table))
        assert math.isclose(mixed, combo, rel_tol=1e-12, abs_tol=1e-15)


def test_lagrangian_zero_weight_is_pure_latency():
    cost = cost_model.CostBreakdown(0.1, 0.2, 0.2, 0.5, 0.0, 0.5)
    assert cost_model.lagrangian(cost, 2.0, 0.0) == 0.5


def test_lagrangian_arithmetic():
    cost = cost_model.CostBreakdown(0.1, 0.2, 0.2, 0.5, 0.0, 0.5)
    assert cost_model.lagrangian(cost, 2.0, 0.1) == pytest.approx(0.7, rel=1e-15)


def test_lagrangian_crossover_flips_ranking():
    # plan A is faster but penalized; plan B is slower and clean.  The
    # ranking must flip exactly once, past lambda1 = dt / d(dA).
    cost_a = cost_model.CostBreakdown(0.2, 0.2, 0.1, 0.5, 1.0, 0.0)
    cost_b = cost_model.CostBreakdown(0.3, 0.3, 0.1, 0.7, 0.0, 0.0)
    threshold = (0.7 - 0.5) / (1.0 - 0.0)
    # brute force over a weight sweep
    for lam1 in np.linspace(0.0, 1.0, 101):
        a = cost_model.lagrangian(cost_a, 1.0, float(lam1))
        b = cost_model.lagrangian(cost_b, 0.0, float(lam1))
        if lam1 < threshold - 1e-9:
            assert a < b
        elif lam1 > threshold + 1e-9:
            assert b < a


SUPERSET_PAIRS = [(S3, S3_SKIP), (S3, S3_1X1), (S3_SKIP, FULL), (S3_1X1, FULL), (S3, FULL)]


def test_retaining_more_branches_never_speeds_up_a_segment():
    rng = np.random.default_rng(17)
    link = simple_link()
    for _ in range(30):
        model = random_model(rng, int(rng.integers(2, 10)))
        d1, d2 = random_device(rng, "a"), random_device(rng, "b")
        table = random_table(rng)
        cut = int(rng.integers(1, len(model.layers)))
        for small, big in SUPERSET_PAIRS:
            lo = cost_model.evaluate_plan(model, cut, small, small, d1, d2, link, table, 0.0)
            hi1 = cost_model.evaluate_plan(model, cut, big, small, d1, d2, link, table, 0.0)
            hi2 = cost_model.evaluate_plan(model, cut, small, big, d1, d2, link, table, 0.0)
            assert hi1.cost.t1 >= lo.cost.t1 * (1 - 1e-12)
            assert hi2.cost.t2 >= lo.cost.t2 * (1 - 1e-12)
            # the penalty term never grows when branches are added back
            assert table.penalty(1, big) <= table.penalty(1, small)
            assert table.penalty(2, big) <= table.penalty(2, small)


def test_evaluate_plan_lambda_fractions_consistent():
    rng = np.random.default_rng(23)
    link = simple_link()
    for _ in range(30):
        model = random_model(rng, int(rng.integers(2, 10)))
        cut = int(rng.integers(1, len(model.layers)))
        plan = cost_model.evaluate_plan(model, cut, S3_SKIP, S3_1X1,
                                        random_device(rng, "a"), random_device(rng, "b"),
                                        link, zero_table(), 0.0)
        c1 = sum(l.flops_by_strategy[S3_SKIP] for l in model.layers[:cut])
        c2 = sum(l.flops_by_strategy[S3_1X1] for l in model.layers[cut:])
        m1 = sum(l.bytes_by_strategy[S3_SKIP] for l in model.layers[:cut])
        m2 = sum(l.bytes_by_strategy[S3_1X1] for l in model.layers[cut:])
        assert plan.lambda_c == c1 / (c1 + c2)
        assert plan.lambda_m == m1 / (m1 + m2)
        assert 0 < plan.lambda_c < 1
