"""Tests of the benchmark's own code: input generator, output checks and the
reference models they rely on.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import random
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from codesign import cli, simulator  # noqa: E402
from codesign.cost_model import evaluate_plan  # noqa: E402
from codesign.profiles import config_from_dict, parse_strategy  # noqa: E402

PAPER = ROOT / workloads.PAPER


@pytest.fixture(scope="module")
def mu():
    return workloads.paper_bottleneck_rate(ROOT)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload, mu):
    seen = []
    for copy in ("a", "b", "other-seed"):
        work = ROOT / "perfbench" / "out" / f"test-{workload}-{copy}"
        seed = 11 if copy != "other-seed" else 12
        try:
            ops = [workloads.make_op(workload, ROOT, work / f"op{i}", seed, i, mu)
                   for i in range(4)]
            argv = [[a.replace(f"test-{workload}-{copy}", "W") for c in op.commands
                     for a in c.argv] for op in ops]
            files = sorted((p.relative_to(work).as_posix(), p.read_bytes())
                           for p in work.rglob("*") if p.is_file())
        finally:
            shutil.rmtree(work, ignore_errors=True)
        seen.append((argv, files))
    assert seen[0] == seen[1]
    assert seen[0] != seen[2]


def test_generated_models_are_valid_and_span_the_depth_cycle():
    depths = []
    for index in range(6):
        text, meta = workloads.plan_deep_config(ROOT, 3, index)
        config = config_from_dict(json.loads(text))
        assert len(config.model.layers) == meta["depth"]
        assert config.device1.name != config.device2.name
        assert meta["bandwidth"] in workloads.BANDWIDTHS
        assert workloads.LAMBDA1_RANGE[0] <= config.lambda1 <= workloads.LAMBDA1_RANGE[1]
        depths.append(meta["depth"])
    assert depths == list(workloads.DEPTHS) * 2


def test_reference_cost_model_matches_the_program_bit_for_bit():
    text, _ = workloads.plan_deep_config(ROOT, 5, 0)
    raw = json.loads(text)
    config = config_from_dict(raw)
    problem = checks.Problem(raw)
    rng = random.Random(0)
    for _ in range(50):
        cut = rng.randrange(1, problem.n)
        a, b = rng.choice(checks.STRATEGIES), rng.choice(checks.STRATEGIES)
        want = evaluate_plan(config.model, cut, parse_strategy(a), parse_strategy(b),
                             config.device1, config.device2, config.link,
                             config.penalties, config.lambda1)
        got = problem.evaluate(cut, a, b)
        assert (got.t1, got.t2, got.t3, got.dA, got.L) == (
            want.cost.t1, want.cost.t2, want.cost.t3, want.cost.accuracy_loss,
            want.cost.lagrangian)


@pytest.fixture(scope="module")
def plan_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("plan")
    text, _ = workloads.plan_deep_config(ROOT, 7, 0)
    (tmp / "config.json").write_text(text)
    assert cli.main(["plan", "--config", str(tmp / "config.json"),
                     "--out", str(tmp / "plan.csv")]) == 0
    return (tmp / "plan.csv").read_text(), checks.Problem(json.loads(text))


def test_plan_check_accepts_the_program_output(plan_case):
    text, problem = plan_case
    assert checks.check_plan_csv(text, problem) == []


def test_plan_check_rejects_swapped_first_rows(plan_case):
    text, problem = plan_case
    lines = text.splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    assert checks.check_plan_csv("".join(lines), problem)


def test_plan_check_rejects_perturbed_winner_L(plan_case):
    text, problem = plan_case
    lines = text.splitlines(keepends=True)
    fields = lines[1].rstrip("\n").split(",")
    col = checks.PLAN_COLUMNS.index("L")
    fields[col] = repr(float(fields[col]) * (1 + 1e-6))
    lines[1] = ",".join(fields) + "\n"
    assert checks.check_plan_csv("".join(lines), problem)


def test_simulate_check_rejects_completed_off_by_one(tmp_path, mu):
    rate, horizon, seed = 0.9 * mu, 3000 / (0.9 * mu), 4
    out = tmp_path / "sim.json"
    assert cli.main(["simulate", "--config", str(PAPER), "--rate", repr(rate),
                     "--horizon", repr(horizon), "--seed", str(seed), "--out", str(out)]) == 0
    problem = checks.Problem.from_file(PAPER)
    text = out.read_text()
    assert checks.check_simulate_json(text, problem, rate, horizon, seed) == []
    doc = json.loads(text)
    doc["completed"] += 1
    assert checks.check_simulate_json(json.dumps(doc), problem, rate, horizon, seed)


@pytest.mark.parametrize("rho", workloads.RHOS)
def test_reference_tandem_matches_simulator(rho, mu):
    best = checks.Problem.from_file(PAPER).best()
    service = (best.t1, best.t3, best.t2)
    rate = rho * mu
    horizon = 2000 / rate
    for seed in range(7):                      # 7 seeds x 3 loads = 21 configurations
        report = simulator.run(simulator.SimConfig(arrival_rate=rate, service_times=service,
                                                   horizon=horizon, seed=seed))
        ref = checks.reference_tandem(rate, service, horizon, seed)
        for key in ("arrivals", "completed", "completed_total", "in_system_at_end"):
            assert getattr(report, key) == ref[key], (seed, key)
        for key, value in ref["response_time"].items():
            assert checks.close(report.response_time[key], value), (seed, key)
        for stage, value in ref["queue_occupancy"].items():
            assert checks.close(report.queue_occupancy[stage], value), (seed, stage)


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(33)]
    percentile, value = run.tail(values)
    assert sum(v > value for v in values) == run.TAIL_BEYOND
    assert percentile == pytest.approx(100 * 23 / 33)
    assert run.tail([1.0, 2.0]) == (100.0, 2.0)


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
