import math

import numpy as np
import pytest

from codesign import cost_model
from codesign.errors import DegenerateSplit
from codesign.profiles import (
    AccuracyPenaltyTable,
    DeviceProfile,
    FusionStrategy,
    LayerProfile,
    ModelProfile,
    total_load,
)

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
    cost = cost_model.evaluate_plan(model, 1, S3, S3, nano(), nx(), simple_link(),
                                    zero_table(), 0.0).cost
    assert math.isclose(cost.t1, 0.5423728813559322, rel_tol=1e-12)


def test_link_latency_one_megabyte_at_100mbps():
    model = two_layer_model(1e9, 1e8, 1e9, 1e8, activation=1e6)
    cost = cost_model.evaluate_plan(model, 1, S3, S3, nano(), nx(), simple_link(12.5e6),
                                    zero_table(), 0.0).cost
    assert cost.t3 == 0.08


def test_zero_size_embedding_leaves_fixed_latency():
    model = two_layer_model(1e9, 1e8, 1e9, 1e8, activation=0.0)
    link = simple_link(12.5e6, fixed=0.013)
    cost = cost_model.evaluate_plan(model, 1, S3, S3, nano(), nx(), link, zero_table(),
                                    0.0).cost
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
    plans = map(cost_model.row_plan,
                cost_model.evaluate_grid(model, unit, unit, simple_link(), zero_table(), 0.0))
    assert {plan.cost.t1 for plan in plans if plan.cut_index == 3} == {1e16}


def test_degenerate_cut_rejected():
    model = uniform_model(3)
    with pytest.raises(DegenerateSplit):
        cost_model.evaluate_plan(model, 0, S3, S3, nano(), nx(), simple_link(), zero_table(),
                                 0.0)
    with pytest.raises(DegenerateSplit):
        cost_model.evaluate_plan(model, 3, S3, S3, nano(), nx(), simple_link(), zero_table(),
                                 0.0)


def test_grid_of_a_one_layer_model_rejected():
    with pytest.raises(DegenerateSplit) as err:
        cost_model.evaluate_grid(uniform_model(1), nano(), nx(), simple_link(), zero_table(),
                                 0.0)
    assert str(err.value) == "model has no interior layer boundary to cut at"


def test_total_is_exact_sum_of_parts():
    rng = np.random.default_rng(2)
    for _ in range(50):
        model = random_model(rng, int(rng.integers(2, 9)))
        cut = int(rng.integers(1, len(model.layers)))
        cost = cost_model.evaluate_plan(model, cut, S3_1X1, FULL,
                                        random_device(rng, "a"), random_device(rng, "b"),
                                        simple_link(), zero_table(), 0.0).cost
        assert cost.t_total == cost.t1 + cost.t2 + cost.t3


def penalty_table(p1_s3=2.0, p2_s3=4.0):
    return AccuracyPenaltyTable({
        1: {S3: p1_s3, S3_SKIP: 1.0, S3_1X1: 1.0, FULL: 0.0},
        2: {S3: p2_s3, S3_SKIP: 2.0, S3_1X1: 2.0, FULL: 0.0},
    })


def test_accuracy_loss_full_structure_is_free():
    model = uniform_model(5)
    for cut in range(1, len(model.layers)):
        plan = cost_model.evaluate_plan(model, cut, FULL, FULL, nano(), nx(), simple_link(),
                                        penalty_table(), 0.0)
        assert plan.cost.accuracy_loss == 0.0


def test_accuracy_loss_even_split():
    plan = cost_model.evaluate_plan(two_layer_model(1e9, 1e8, 1e9, 1e8), 1, S3, S3, nano(),
                                    nx(), simple_link(), penalty_table(), 0.0)
    assert plan.lambda_c == 0.5
    assert plan.cost.accuracy_loss == 3.0


def test_accuracy_loss_weighted():
    table = AccuracyPenaltyTable({
        1: {S3: 2.0, S3_SKIP: 1.5, S3_1X1: 1.0, FULL: 0.0},
        2: {S3: 3.0, S3_SKIP: 2.0, S3_1X1: 2.0, FULL: 0.0},
    })
    # a quarter of the FLOPs on device 1
    plan = cost_model.evaluate_plan(two_layer_model(1e9, 1e8, 3e9, 1e8), 1, S3_1X1, S3_SKIP,
                                    nano(), nx(), simple_link(), table, 0.0)
    assert plan.lambda_c == 0.25
    assert plan.cost.accuracy_loss == 0.25 * 1.0 + 0.75 * 2.0  # 1.75


def random_plans(seed, count=100):
    """(table, lambda1, plan) of random candidates on random models."""
    rng = np.random.default_rng(seed)
    strategies = list(FusionStrategy)
    for _ in range(count):
        model = random_model(rng, int(rng.integers(2, 10)))
        cut = int(rng.integers(1, len(model.layers)))
        theta1, theta2 = (strategies[i] for i in rng.integers(0, 4, 2))
        table = random_table(rng)
        lambda1 = float(rng.choice([0.0, 1e-4, 0.01, 1.0, rng.uniform(0, 10)]))
        yield table, lambda1, cost_model.evaluate_plan(
            model, cut, theta1, theta2, random_device(rng, "a"), random_device(rng, "b"),
            simple_link(), table, lambda1)


def test_accuracy_loss_linear_in_lambda():
    # the penalties weighted by the plan's FLOP split, as the row builder
    # computes them, to the last bit
    for table, _, plan in random_plans(3):
        p1, p2 = table.penalty(1, plan.theta1), table.penalty(2, plan.theta2)
        assert plan.cost.accuracy_loss == plan.lambda_c * p1 + (1 - plan.lambda_c) * p2


def test_lagrangian_zero_weight_is_pure_latency():
    rng = np.random.default_rng(4)
    for _ in range(50):
        model = random_model(rng, int(rng.integers(2, 10)))
        cut = int(rng.integers(1, len(model.layers)))
        plan = cost_model.evaluate_plan(model, cut, S3, S3_SKIP, random_device(rng, "a"),
                                        random_device(rng, "b"), simple_link(),
                                        random_table(rng), 0.0)
        assert plan.cost.accuracy_loss > 0.0
        assert plan.cost.lagrangian == plan.cost.t_total


def test_lagrangian_arithmetic():
    for _, lambda1, plan in random_plans(5):
        cost = plan.cost
        assert cost.lagrangian == cost.t_total + lambda1 * cost.accuracy_loss


def test_lagrangian_crossover_flips_ranking():
    # Device 1's layer costs half the FLOPs fused to conv3, but conv3 loses
    # accuracy there; device 2's layer is the same under every strategy and
    # loses nothing.  So the grid has two candidates worth winning, conv3
    # (faster, penalized) and the full structure (slower, clean) on device
    # 1, and the winner must flip exactly once, at lambda1 = dt / d(dA).
    fused = {S3: 1e9, S3_SKIP: 2e9, S3_1X1: 2e9, FULL: 2e9}
    head = LayerProfile(index=0, flops_by_strategy=fused,
                        bytes_by_strategy={s: 1e6 for s in FusionStrategy},
                        output_activation_bytes=1e6, fusible=True)
    model = ModelProfile("flip", (head, uniform_layer(1, 1e9, 1e6, 1e6)))
    device = DeviceProfile("fast", peak_compute=1e12, mem_bandwidth=1e12)  # compute-bound
    table = AccuracyPenaltyTable({1: {S3: 2.0, S3_SKIP: 2.0, S3_1X1: 2.0, FULL: 0.0},
                                  2: {s: 0.0 for s in FusionStrategy}})
    link = simple_link()
    fast = cost_model.evaluate_plan(model, 1, S3, S3, device, device, link, table, 0.0).cost
    clean = cost_model.evaluate_plan(model, 1, FULL, S3, device, device, link, table, 0.0).cost
    threshold = (clean.t_total - fast.t_total) / (fast.accuracy_loss - clean.accuracy_loss)
    assert threshold == pytest.approx(1e-3 / 1.0, rel=1e-12)  # 1 ms per 1.0 point
    winners = []
    for lam1 in np.linspace(0.0, 2 * threshold, 201).tolist():
        winner = cost_model.grid_search(model, device, device, link, table, lam1)
        if lam1 < threshold * (1 - 1e-9):
            assert winner.theta1 is S3
        elif lam1 > threshold * (1 + 1e-9):
            assert winner.theta1 is FULL
        winners.append(winner.theta1)
    assert sum(a is not b for a, b in zip(winners, winners[1:])) == 1


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
