"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line and enforcing its runtime budget.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from codesign import convergence, cost_model, fusion, reparam, simulator
from codesign.profiles import (
    AccuracyPenaltyTable,
    FusionStrategy,
    ModelProfile,
    load_device,
)
from codesign.roofline import Bottleneck, classify
from codesign.simulator import SimConfig

from conftest import (
    FIXTURES,
    FULL,
    S3,
    S3_1X1,
    S3_SKIP,
    brute_force_argmin,
    random_device,
    random_model,
    saturated_throughput,
    simple_link,
    zero_table,
)
from test_reparam import oracle_branch


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number}] {label}: PASS ({elapsed:.2f}s < {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


# --- 1. roofline matrix ------------------------------------------------------

def test_c1_roofline_matrix():
    with criterion(1, "roofline CC/MC matrix", 1.0):
        devices = {name: load_device(FIXTURES / f"jetson_{name}.json")
                   for name in ("nano", "tx1", "tx2", "nx")}
        table = json.loads((FIXTURES / "model_intensities.json").read_text())
        intensity = {row["name"]: row["original_intensity"] for row in table["models"]}

        cc, mc = Bottleneck.COMPUTE, Bottleneck.MEMORY
        assert classify(intensity["RepVGG"], devices["nano"]) is cc
        assert classify(intensity["RepVGG"], devices["tx2"]) is mc
        assert classify(intensity["Rep-ResNet-50"], devices["nano"]) is cc
        assert classify(intensity["Rep-GoogLeNet"], devices["nano"]) is cc
        for name in ("RepVGG", "Rep-ResNet-50", "Rep-GoogLeNet"):
            assert classify(intensity[name], devices["nx"]) is mc

        # Cells NOT asserted: RepVGG/tx1, Rep-ResNet-50/tx2 and
        # Rep-GoogLeNet/tx2 carry published labels that contradict the
        # published device specs (e.g. 19.81 < 1e12/25.6e9 = 39.06 yet the
        # label claims compute-bound), so there is no self-consistent
        # expected value to pin them to.


# --- 2. fusion equivalence ---------------------------------------------------

def test_c2_fusion_equivalence():
    with criterion(2, "fused kernel == branch sum (4 x 100 trials)", 30.0):
        for idx, strategy in enumerate(FusionStrategy):
            rng = random.Random(1000 + idx)
            worst = 0.0
            for _ in range(100):
                ch = rng.choice([1, 4, 16])
                branches, x = fusion.random_branches(rng, ch, rng.choice([5, 8, 16]))
                fused = fusion.fuse(branches, strategy)
                got = fusion.conv2d(x, fused.weights, fused.bias)
                want = sum(oracle_branch(x, b) for b in branches
                           if b.kind in reparam.ACTIVE_BRANCHES[strategy])
                worst = max(worst, fusion.max_rel_error(got, want))
            assert worst <= 1e-5, f"{strategy.value}: max rel error {worst}"


# --- 3. optimizer exhaustiveness ----------------------------------------------

def test_c3_optimizer_matches_brute_force():
    with criterion(3, "grid search == brute-force argmin on 50 profiles", 10.0):
        rng = np.random.default_rng(2024)
        from conftest import random_table, uniform_model
        for case in range(50):
            if case % 10 == 9:
                # tie-rich instance: identical non-fusible layers make every
                # candidate of a given cut (and often every cut) tie exactly
                model = uniform_model(int(rng.integers(4, 13)))
            else:
                model = random_model(rng, int(rng.integers(4, 13)))
            d1 = random_device(rng, "terminal")
            d2 = random_device(rng, "edge")
            link = simple_link(float(rng.uniform(1e6, 1e9)))
            table = random_table(rng) if rng.random() < 0.7 else zero_table()
            lambda1 = float(rng.choice([0.0, 0.0, 0.01, 1.0]))
            plan = cost_model.grid_search(model, d1, d2, link, table, lambda1)
            assert (plan.cut_index, plan.theta1, plan.theta2) == \
                brute_force_argmin(model, d1, d2, link, table, lambda1), f"case {case}"


# --- 4. latency/accuracy trade-off --------------------------------------------

def test_c4_tradeoff_switch_is_monotone():
    with criterion(4, "weight sweep switches plans monotonically", 10.0):
        rng = np.random.default_rng(7)
        model = ModelProfile("blocks", tuple(
            reparam.rep_block_layer(i, 16, 8, 8) for i in range(6)))
        d1, d2 = random_device(rng, "a"), random_device(rng, "b")
        link = simple_link(1e8)
        # dropping branches is fast but costly in accuracy
        table = AccuracyPenaltyTable({
            1: {S3: 3.0, S3_SKIP: 1.5, S3_1X1: 1.2, FULL: 0.0},
            2: {S3: 3.5, S3_SKIP: 1.8, S3_1X1: 1.4, FULL: 0.0},
        })

        weights = [0.0] + list(np.logspace(-6, 2, 25))
        losses = []
        for lam1 in weights:
            plan = cost_model.grid_search(model, d1, d2, link, table, float(lam1))
            losses.append(plan.cost.accuracy_loss)

        zero_weight = cost_model.grid_search(model, d1, d2, link, table, 0.0)
        pure_latency = cost_model.grid_search(model, d1, d2, link, zero_table(), 0.0)
        assert (zero_weight.cut_index, zero_weight.theta1, zero_weight.theta2) == \
            (pure_latency.cut_index, pure_latency.theta1, pure_latency.theta2)
        assert zero_weight.theta1 is S3 and zero_weight.theta2 is S3  # fastest, most penalized

        # the accuracy loss of the winner never increases as the weight grows
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        final = cost_model.grid_search(model, d1, d2, link, table, float(weights[-1]))
        assert final.theta1 is FULL and final.theta2 is FULL


# --- 5. convergence lab ---------------------------------------------------------

def test_c5_geometric_bound_and_split_consistency():
    with criterion(5, "geometric bound + bitwise split/unsplit equality", 5.0):
        rng = random.Random(99)
        for _ in range(20):
            obj = convergence.random_objective(rng, 16)
            curvature = obj.curvature_bounds()
            eta = 0.9 * (2.0 / curvature[1])  # < 2/L by construction
            w0 = np.array([rng.uniform(-1.0, 1.0) for _ in range(16)])

            rows = []
            assert convergence.rate_check(obj, curvature, w0, eta, 500, rows.append) is None
            assert len(rows) == 500 and all(within for *_, within in rows)

            w_split, w_full = w0.copy(), w0.copy()
            for _step in range(500):
                w_split = convergence.split_step(obj, w_split, eta)
                w_full = w_full - eta * ((obj.matrix * w_full).sum(axis=1) - obj.linear)
            assert np.array_equal(w_split, w_full)


# --- 6. simulator vs analytical model -------------------------------------------

def test_c6_simulated_throughput_matches_bottleneck():
    with criterion(6, "saturated throughput within 5% + stationary balance", 20.0):
        rng = np.random.default_rng(31)
        for trial in range(10):
            # (t1, t3, t2): device 1, link, device 2
            times = tuple(float(t) for t in rng.uniform(0.005, 0.05, 3))
            analytic, simulated, rel_err = saturated_throughput(
                times, target_completions=10000, seed=trial)
            assert analytic == pytest.approx(1.0 / max(times))
            assert rel_err < 0.05, f"trial {trial}: {rel_err:.3%}"

            # the number-in-system identity needs a stationary system, and a
            # queue driven at 3x its service rate has none (the backlog grows
            # without bound), so it is checked at a stable 75% load
            stable = SimConfig(arrival_rate=0.75 * analytic, service_times=times,
                               horizon=1.2 * 10000 / (0.75 * analytic), seed=trial)
            report = simulator.run(stable)
            in_system = sum(report.queue_occupancy.values())
            predicted = report.throughput * report.response_time["mean"]
            assert abs(in_system - predicted) / in_system < 0.03, f"trial {trial}"


# --- 7. scope -------------------------------------------------------------------

def test_c7_hardware_numbers_declared_out_of_scope():
    with criterion(7, "hardware-measured figures documented as out of scope", 1.0):
        readme = Path(__file__).parent.parent / "README.md"
        text = readme.read_text().lower()
        assert "out of scope" in text
        # the analytical/simulation criteria above are the substitute for
        # device-measured throughput and trained-model accuracy figures
        assert "accuracy" in text and "throughput" in text
