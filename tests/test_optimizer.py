from bisect import bisect_right

import numpy as np
import pytest

from codesign import cost_model, optimizer, reparam, roofline
from codesign.cost_model import evaluate_plan
from codesign.errors import NoFeasiblePlan
from codesign.profiles import (
    STRATEGY_RANK,
    DeviceProfile,
    FusionStrategy,
    LayerProfile,
    ModelProfile,
    load_config,
)

from conftest import (
    CONFIG,
    FULL,
    S3,
    S3_1X1,
    S3_SKIP,
    brute_force_argmin,
    random_device,
    random_model,
    nano,
    nx,
    random_table,
    simple_link,
    uniform_layer,
    uniform_model,
    zero_table,
)


def ranked_plans(model, d1, d2, link, table, lambda1):
    """Every candidate of the grid as a plan, ranked best-first."""
    return [cost_model.row_plan(row)
            for row in sorted(cost_model.evaluate_grid(model, d1, d2, link, table, lambda1))]


def ranking_key(plan):
    """The canonical ranking of a plan, coded apart from ``ROW_FIELDS``:
    objective, then latency, then cut, then strategy declaration order."""
    return (plan.cost.lagrangian, plan.cost.t_total, plan.cut_index,
            STRATEGY_RANK[plan.theta1], STRATEGY_RANK[plan.theta2])


def test_grid_search_matches_brute_force_small():
    rng = np.random.default_rng(55)
    model = random_model(rng, 3)  # two interior cuts
    d1, d2 = random_device(rng, "a"), random_device(rng, "b")
    link = simple_link()
    plan = cost_model.grid_search(model, d1, d2, link, zero_table(), 0.0)
    assert (plan.cut_index, plan.theta1, plan.theta2) == \
        brute_force_argmin(model, d1, d2, link, zero_table(), 0.0)


def test_huge_weight_forces_full_structure():
    rng = np.random.default_rng(56)
    model = random_model(rng, 6)
    d1, d2 = random_device(rng, "a"), random_device(rng, "b")
    table = random_table(rng)  # zero only at the full structure
    plan = cost_model.grid_search(model, d1, d2, simple_link(), table, 1e9)
    assert plan.theta1 is FULL and plan.theta2 is FULL
    assert plan.cost.accuracy_loss == 0.0


def test_exhaustiveness_on_random_instances():
    rng = np.random.default_rng(57)
    for _ in range(20):
        model = random_model(rng, int(rng.integers(2, 10)))
        d1, d2 = random_device(rng, "a"), random_device(rng, "b")
        link = simple_link(float(rng.uniform(1e6, 1e9)))
        table = random_table(rng)
        lambda1 = float(rng.choice([0.0, 0.01, 1.0]))
        plans = ranked_plans(model, d1, d2, link, table, lambda1)
        assert len(plans) == (len(model.layers) - 1) * 16
        best = plans[0]
        assert all(best.cost.lagrangian <= p.cost.lagrangian for p in plans)
        assert (best.cut_index, best.theta1, best.theta2) == \
            brute_force_argmin(model, d1, d2, link, table, lambda1)


def test_deterministic_under_exact_ties():
    # all layers identical and non-fusible, symmetric devices: every
    # candidate ties, so the winner must be the canonical first key
    model = uniform_model(5, flops=1e9, data=1e8, activation=1e5)
    d = DeviceProfile("d", 1e12, 1e10)
    plan = cost_model.grid_search(model, d, d, simple_link(), zero_table(), 0.0)
    assert (plan.cut_index, plan.theta1, plan.theta2) == (1, S3, S3)
    assert (plan.cut_index, plan.theta1, plan.theta2) == \
        brute_force_argmin(model, d, d, simple_link(), zero_table(), 0.0)


def test_zero_weight_reduces_to_pure_latency_ranking():
    rng = np.random.default_rng(62)
    for _ in range(10):
        model = random_model(rng, int(rng.integers(3, 9)))
        d1, d2 = random_device(rng, "a"), random_device(rng, "b")
        table = random_table(rng)
        plans = ranked_plans(model, d1, d2, simple_link(), table, 0.0)
        by_latency = min(plans, key=lambda p: (p.cost.t_total, p.cut_index,
                                               STRATEGY_RANK[p.theta1],
                                               STRATEGY_RANK[p.theta2]))
        assert plans[0] == by_latency


def test_strict_mode_raises_when_nothing_feasible():
    # tiny intensities on devices with sky-high balance points
    model = uniform_model(3, flops=1e6, data=1e8)
    d = DeviceProfile("d", 1e13, 1e9)  # balance 10000
    with pytest.raises(NoFeasiblePlan):
        cost_model.ranked(cost_model.evaluate_grid(model, d, d, simple_link(), zero_table(), 0.0),
                          strict=True)


def test_strict_mode_picks_best_feasible():
    # balance points of 0.1-5 FLOP/byte fall among the segment intensities of
    # random models, so strict mode often drops some candidates but not all
    rng = np.random.default_rng(59)
    link, table = simple_link(), zero_table()
    partial = moved = 0
    for _ in range(20):
        model = random_model(rng, 6)
        d1, d2 = (DeviceProfile(name, float(rng.uniform(0.1, 5)) * 1e9, 1e9) for name in "ab")
        plans = ranked_plans(model, d1, d2, link, table, 0.0)
        feasible = [plan for plan in plans if all(plan.feasible)]
        rows = cost_model.evaluate_grid(model, d1, d2, link, table, 0.0)
        if not feasible:
            with pytest.raises(NoFeasiblePlan):
                cost_model.ranked(rows, strict=True)
            continue
        strict = cost_model.ranked(rows, strict=True)
        assert [cost_model.row_plan(row) for row in strict] == feasible
        if len(feasible) < len(plans):
            partial += 1
            moved += feasible[0] != plans[0]
    # the draws that check the filter: some rows dropped, and the winner moved
    assert partial >= 3
    assert moved >= 1


def flat_model(rng, n_layers):
    """Non-fusible layers of random costs: the 16 candidates of a cut tie
    exactly under a zero table, while intensities still differ by cut."""
    return ModelProfile("flat", tuple(
        uniform_layer(i, float(rng.integers(10**6, 10**9)), float(rng.integers(10**5, 10**8)),
                      float(rng.integers(10**3, 10**7)))
        for i in range(n_layers)))


@pytest.mark.parametrize("strict", [False, True])
def test_ranked_is_filter_then_sort_with_brute_force_winner(strict):
    # ranked (the one selection plan and grid_search share) against a
    # filter and a sort coded apart, and its winner against the brute-force
    # argmin over the kept candidates, exact ties included
    fields = cost_model.ROW_FIELDS
    key = [fields.index(name) for name in ("lagrangian", "t_total", "cut", "theta1", "theta2")]
    feasible = [fields.index("feasible1"), fields.index("feasible2")]
    rng = np.random.default_rng(32)
    partial = raised = 0
    for case in range(40):
        tied = case % 4 == 3
        n_layers = int(rng.integers(2, 10))
        model = flat_model(rng, n_layers) if tied else random_model(rng, n_layers)
        if case % 2:
            d1, d2 = (DeviceProfile(name, float(rng.uniform(0.1, 5)) * 1e9, 1e9) for name in "ab")
        else:
            d1, d2 = random_device(rng, "a"), random_device(rng, "b")
        link = simple_link(float(rng.uniform(1e6, 1e9)))
        table = zero_table() if tied else random_table(rng)
        lambda1 = 0.0 if tied else float(rng.choice([0.0, 0.01, 1.0]))
        # shuffled: exact ties must break the same whatever the row order
        rows = cost_model.evaluate_grid(model, d1, d2, link, table, lambda1)
        rows = [rows[i] for i in rng.permutation(len(rows))]
        kept = [row for row in rows if not strict or all(row[i] for i in feasible)]
        expected = sorted(kept, key=lambda row: [row[i] for i in key])
        best = brute_force_argmin(model, d1, d2, link, table, lambda1, strict=strict)
        if not kept:
            assert best is None
            with pytest.raises(NoFeasiblePlan, match="^every candidate violates an intensity "
                                                     "requirement$"):
                cost_model.ranked(rows, strict)
            with pytest.raises(NoFeasiblePlan):
                cost_model.grid_search(model, d1, d2, link, table, lambda1, strict)
            raised += 1
            continue
        partial += len(kept) < len(rows)
        assert cost_model.ranked(rows, strict) == expected
        plan = cost_model.row_plan(expected[0])
        assert (plan.cut_index, plan.theta1, plan.theta2) == best, f"case {case}"
        assert cost_model.grid_search(model, d1, d2, link, table, lambda1, strict) == plan
    if strict:
        # the draws that check the filter: some drop rows, some drop them all
        assert partial >= 3 and raised >= 1
    else:
        assert partial == raised == 0


# --- the grid sweep vs the scalar cost model -----------------------------------

def scaled_model(model, factor):
    """The same model with every cost multiplied by a non-integer factor, so
    segment sums round and a suffix sum can differ from a left-to-right one."""
    return ModelProfile(model.name, tuple(
        LayerProfile(index=layer.index,
                     flops_by_strategy={s: v * factor for s, v in layer.flops_by_strategy.items()},
                     bytes_by_strategy={s: v * factor for s, v in layer.bytes_by_strategy.items()},
                     output_activation_bytes=layer.output_activation_bytes * factor,
                     fusible=layer.fusible)
        for layer in model.layers))


def assert_grid_agrees_with_scalar(model, d1, d2, link, table, lambda1):
    plans = ranked_plans(model, d1, d2, link, table, lambda1)
    assert len(plans) == 16 * (len(model.layers) - 1)
    keys = [ranking_key(p) for p in plans]
    assert keys == sorted(keys)
    assert len({(p.cut_index, p.theta1, p.theta2) for p in plans}) == len(plans)
    for plan in plans:
        assert plan == evaluate_plan(model, plan.cut_index, plan.theta1, plan.theta2,
                                     d1, d2, link, table, lambda1)
    best = plans[0]
    assert (best.cut_index, best.theta1, best.theta2) == \
        brute_force_argmin(model, d1, d2, link, table, lambda1)
    assert cost_model.grid_search(model, d1, d2, link, table, lambda1) == best


def random_grid_cases():
    """24 seeded (model, d1, d2, link, table, lambda1) cases of 2-40 layers;
    every third model's costs are scaled by a non-integer factor."""
    rng = np.random.default_rng(63)
    for case in range(24):
        model = random_model(rng, int(rng.integers(2, 41)))
        if case % 3 == 2:
            model = scaled_model(model, float(rng.uniform(0.1, 3.0)))
        d1, d2 = random_device(rng, "a"), random_device(rng, "b")
        link = simple_link(float(rng.uniform(1e6, 1e9)), float(rng.choice([0.0, 1e-3])))
        table = random_table(rng) if case % 2 else zero_table()
        yield model, d1, d2, link, table, float(rng.choice([0.0, 0.01, 1.0]))


def test_grid_rows_equal_evaluate_plan_on_random_models():
    for case in random_grid_cases():
        assert_grid_agrees_with_scalar(*case)


def test_grid_rows_equal_evaluate_plan_under_ties():
    rng = np.random.default_rng(64)
    d = DeviceProfile("d", 1e12, 1e10)
    for n_layers in (2, 3, 7, 12):
        for model in (uniform_model(n_layers),
                      scaled_model(uniform_model(n_layers, 1e9 / 3, 1e8 / 7, 1e5 / 3), 0.3)):
            assert_grid_agrees_with_scalar(model, d, d, simple_link(), zero_table(), 0.0)
            assert_grid_agrees_with_scalar(model, d, d, simple_link(), random_table(rng), 0.01)


def test_grid_rows_equal_evaluate_plan_on_paper_config():
    config = load_config(CONFIG)
    assert_grid_agrees_with_scalar(config.model, config.device1, config.device2,
                                   config.link, config.penalties, config.lambda1)


# --- the pure-Python sweep vs the numpy sweep it replaced ----------------------

def numpy_sweep(model, d1, d2, link, table, lambda1):
    """The grid columns as the numpy sweep computed them (prefix sums by
    np.cumsum, every candidate elementwise), kept as the reference the row
    sweep must match bit for bit."""
    strategies = tuple(FusionStrategy)
    layers = model.layers
    ranks = np.arange(len(strategies))
    flops = np.array([[layer.flops_by_strategy[s] for s in strategies] for layer in layers])
    data = np.array([[layer.bytes_by_strategy[s] for s in strategies] for layer in layers])

    def heads(per_layer):
        return np.cumsum(per_layer, axis=0)[:-1][:, :, None]

    def tails(per_layer):
        return np.cumsum(per_layer[::-1], axis=0)[::-1][1:][:, None, :]

    def roof_rate(device, intensity):
        return device.utilization * np.minimum(device.peak_compute,
                                               intensity * device.mem_bandwidth)

    c1, m1, c2, m2 = heads(flops), heads(data), tails(flops), tails(data)
    t1 = c1 / roof_rate(d1, c1 / m1)
    t2 = c2 / roof_rate(d2, c2 / m2)
    embedding = np.array([layer.output_activation_bytes for layer in layers[:-1]])
    t3 = (embedding / link.bandwidth + link.fixed_latency)[:, None, None]
    t_total = t1 + t2 + t3
    lam_c = c1 / (c1 + c2)
    penalty1 = np.array([table.penalty(1, s) for s in strategies])[None, :, None]
    penalty2 = np.array([table.penalty(2, s) for s in strategies])[None, None, :]
    loss = lam_c * penalty1 + (1 - lam_c) * penalty2
    feasible1 = roofline.reaches_balance(c1 / m1, d1)
    feasible2 = roofline.reaches_balance(c2 / m2, d2)
    columns = {
        "cut": np.arange(1, len(layers))[:, None, None],
        "theta1": ranks[None, :, None], "theta2": ranks[None, None, :],
        "lambda_c": lam_c, "lambda_m": m1 / (m1 + m2), "t1": t1, "t2": t2, "t3": t3,
        "t_total": t_total, "accuracy_loss": loss, "lagrangian": t_total + lambda1 * loss,
        "feasible1": feasible1, "feasible2": feasible2,
    }
    return {name: np.broadcast_to(value, t_total.shape).flatten().tolist()
            for name, value in columns.items()}


def sweep_cases():
    config = load_config(CONFIG)
    yield (config.model, config.device1, config.device2, config.link, config.penalties,
           config.lambda1)
    yield from random_grid_cases()
    yield rep_stack(224, 66), nano(), nx(), simple_link(), random_table(
        np.random.default_rng(66)), 1e-4


def test_sweep_bit_identical_to_numpy_sweep():
    cases = list(sweep_cases())
    assert len(cases) == 26
    for case in cases:
        rows = cost_model._sweep(*case)
        reference = numpy_sweep(*case)
        assert len(rows) == 16 * (len(case[0].layers) - 1)
        for index, name in enumerate(cost_model.ROW_FIELDS):
            assert [row[index] for row in rows] == reference[name], name


def test_grid_columns_and_rows_agree():
    config = load_config(CONFIG)
    rows = sorted(cost_model.evaluate_grid(config.model, config.device1, config.device2,
                                           config.link, config.penalties, config.lambda1))
    assert len(rows) == 13 * 16
    for row in rows:
        assert ranking_key(cost_model.row_plan(row)) == row[:5]


# --- continuous refinement ---------------------------------------------------

def v_shaped_model():
    """10 equal-FLOP layers, compute-bound on both devices, so compute time
    is constant in the cut; activations dip at boundary 3 making the total
    latency a V with its minimum at fraction 0.3."""
    layers = []
    for i in range(10):
        # activation at boundary j = i+1 rises with distance from 0.3
        boundary = (i + 1) / 10.0
        act = 5e5 * (0.1 + abs(boundary - 0.3))
        layers.append(uniform_layer(i, flops=1e9, data=1e6, activation=act))
    return ModelProfile("vee", tuple(layers))


def v_devices():
    d = DeviceProfile("fast", 1e12, 1e9)  # balance 1000 == segment intensity
    return d, d


def test_refine_descends_to_interior_minimum():
    model = v_shaped_model()
    d1, d2 = v_devices()
    link = simple_link(1e6)
    start = evaluate_plan(model, 5, FULL, FULL, d1, d2, link, zero_table(), 0.0)
    lam_star, trace = optimizer.refine_lambda(model, start, d1, d2, link,
                                              step=1e-3, iters=500)
    assert abs(lam_star - 0.3) < 1e-3
    # dense grid scan oracle over the same relaxed curve
    grid = np.arange(1e-4, 1.0, 1e-4)
    curve = optimizer.relaxed_latency_curve(model, FULL, FULL, d1, d2, link)
    values = [curve(float(x)) for x in grid]
    assert abs(float(grid[int(np.argmin(values))]) - 0.3) < 2e-4


def test_refine_stays_at_minimizer():
    model = v_shaped_model()
    d1, d2 = v_devices()
    link = simple_link(1e6)
    start = evaluate_plan(model, 3, FULL, FULL, d1, d2, link, zero_table(), 0.0)
    lam_star, _ = optimizer.refine_lambda(model, start, d1, d2, link,
                                          step=1e-3, iters=100)
    assert abs(lam_star - 0.3) <= 1e-3  # never drifts more than one step away


def test_refine_zero_step_is_noop():
    model = v_shaped_model()
    d1, d2 = v_devices()
    link = simple_link(1e6)
    start = evaluate_plan(model, 5, FULL, FULL, d1, d2, link, zero_table(), 0.0)
    lam_star, trace = optimizer.refine_lambda(model, start, d1, d2, link,
                                              step=0.0, iters=50)
    assert lam_star == trace[0][0] == 0.5


def test_refine_descent_is_monotone_below_stability_threshold():
    model = v_shaped_model()
    d1, d2 = v_devices()
    link = simple_link(1e6)
    start = evaluate_plan(model, 7, FULL, FULL, d1, d2, link, zero_table(), 0.0)
    _, trace = optimizer.refine_lambda(model, start, d1, d2, link, step=1e-3, iters=500)
    values = [t for _, t in trace]
    slack = 1e-3  # one oscillation step across the kink
    assert all(b <= a + slack for a, b in zip(values, values[1:]))


# --- prefix-sum relaxation vs the O(n) reference ------------------------------

def reference_relaxed_latency(model, lam, theta1, theta2, d1, d2, link):
    """The relaxed latency re-summing every segment per call, kept as the
    reference the prefix-sum version must match bit for bit."""
    eps = 1e-9
    layers = model.layers
    n = len(layers)
    lam = min(max(lam, eps), 1.0 - eps)

    grid = [0.0] + optimizer.cumulative_flop_fractions(model)
    k = min(max(bisect_right(grid, lam) - 1, 0), n - 1)
    t = (lam - grid[k]) / (grid[k + 1] - grid[k])

    def partial(strategy):
        head_f = sum(l.flops_by_strategy[strategy] for l in layers[:k])
        head_b = sum(l.bytes_by_strategy[strategy] for l in layers[:k])
        return (head_f + t * layers[k].flops_by_strategy[strategy],
                head_b + t * layers[k].bytes_by_strategy[strategy])

    c1, m1 = partial(theta1)
    tot2_f, tot2_b = (sum(l.flops_by_strategy[theta2] for l in layers),
                      sum(l.bytes_by_strategy[theta2] for l in layers))
    head2_f, head2_b = partial(theta2)
    c2, m2 = tot2_f - head2_f, tot2_b - head2_b

    positions = list(range(1, n))
    acts = [layers[j - 1].output_activation_bytes for j in positions]
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


def reference_trace(model, start, d1, d2, link, step, iters):
    eps, h = 1e-9, 1e-6
    lam = optimizer.cumulative_flop_fractions(model)[start.cut_index - 1]

    def total(x):
        return reference_relaxed_latency(model, x, start.theta1, start.theta2, d1, d2, link)

    trace = [(lam, total(lam))]
    for _ in range(iters):
        grad = (total(min(lam + h, 1.0 - eps)) - total(max(lam - h, eps))) / (2 * h)
        lam = min(max(lam - step * grad, eps), 1.0 - eps)
        trace.append((lam, total(lam)))
    return trace


def rep_stack(n_layers, seed):
    rng = np.random.default_rng(seed)
    return ModelProfile("rep-stack", tuple(
        reparam.rep_block_layer(i, int(rng.choice([16, 32, 64])),
                                int(rng.choice([8, 16, 32])), int(rng.choice([8, 16, 32])))
        for i in range(n_layers)))


@pytest.mark.parametrize("case", ["paper", "rep224"])
def test_refine_trace_bit_identical_to_reference(case):
    if case == "paper":
        config = load_config(CONFIG)
        model, d1, d2, link = config.model, config.device1, config.device2, config.link
        table, lambda1 = config.penalties, config.lambda1
    else:
        model, d1, d2, link = rep_stack(224, 66), nano(), nx(), simple_link()
        table, lambda1 = random_table(np.random.default_rng(66)), 1e-4
    winner = cost_model.grid_search(model, d1, d2, link, table, lambda1)
    mixed = evaluate_plan(model, len(model.layers) // 3, S3, S3_1X1, d1, d2, link,
                          table, lambda1)
    for start, step in ((winner, 1e-3), (mixed, 1e-3), (mixed, 50.0)):
        _, trace = optimizer.refine_lambda(model, start, d1, d2, link, step, 500)
        assert trace == reference_trace(model, start, d1, d2, link, step, 500)
    curve = optimizer.relaxed_latency_curve(model, S3_SKIP, FULL, d1, d2, link)
    for lam in np.linspace(0.0, 1.0, 97).tolist():
        assert curve(lam) == reference_relaxed_latency(model, lam, S3_SKIP, FULL, d1, d2, link)
