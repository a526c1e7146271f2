import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from codesign import cli, convergence
from conftest import FIXTURES

CONFIG = str(FIXTURES / "paper.json")
GOLDEN = Path(__file__).parent / "golden"


def codesign(*args, env=None, timeout=None):
    return subprocess.run([sys.executable, "-m", "codesign", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_plan_happy_path():
    result = codesign("plan", "--config", CONFIG)
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "model,cut,theta1,theta2,t1,t2,t3,t_total,dA,L,feasible1,feasible2"
    assert len(lines) == 1 + 13 * 16  # 13 interior boundaries x 16 strategy pairs
    assert lines[1].startswith("repvgg-mini,")


def test_plan_missing_config_is_usage_error():
    result = codesign("plan")
    assert result.returncode == 2


def test_unknown_subcommand_is_usage_error():
    result = codesign("frobnicate")
    assert result.returncode == 2


def test_domain_error_exit_code_and_name(tmp_path):
    raw = json.loads((FIXTURES / "paper.json").read_text())
    raw["link"]["bandwidth"] = -5.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    result = codesign("plan", "--config", str(bad))
    assert result.returncode == 1
    assert result.stderr.startswith("NonPositiveQuantity: link.bandwidth")


def test_outputs_are_byte_identical_across_runs():
    first = codesign("plan", "--config", CONFIG)
    second = codesign("plan", "--config", CONFIG)
    assert first.stdout == second.stdout
    sim1 = codesign("simulate", "--config", CONFIG, "--rate", "100",
                    "--horizon", "20", "--seed", "3")
    sim2 = codesign("simulate", "--config", CONFIG, "--rate", "100",
                    "--horizon", "20", "--seed", "3")
    assert sim1.stdout == sim2.stdout


def test_roofline_csv():
    result = codesign("roofline", "--config", CONFIG)
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "model,device,intensity,balance,class"
    assert len(lines) == 3  # two devices in the fixture
    assert lines[1].split(",")[1] == "jetson-nano"
    assert lines[1].split(",")[4] in ("CC", "MC")


def test_cost_json():
    result = codesign("cost", "--config", CONFIG, "--cut", "5",
                      "--theta1", "conv3", "--theta2", "conv3+skip+conv1")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["schema_version"] == 1
    assert payload["t_total"] == pytest.approx(
        payload["t1"] + payload["t2"] + payload["t3"])
    assert payload["L"] == pytest.approx(
        payload["t_total"] + 0.01 * payload["dA"])  # lambda1 = 0.01 in the fixture


def test_cost_rejects_bad_cut():
    result = codesign("cost", "--config", CONFIG, "--cut", "99",
                      "--theta1", "conv3", "--theta2", "conv3")
    assert result.returncode == 1
    assert result.stderr.startswith("DegenerateSplit")


def test_simulate_json_and_csv(tmp_path):
    log = tmp_path / "requests.csv"
    result = codesign("simulate", "--config", CONFIG, "--rate", "200",
                      "--horizon", "10", "--seed", "1", "--csv", str(log))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["schema_version"] == 1
    assert payload["model"] == "repvgg-mini"
    assert payload["completed"] > 0
    header = log.read_text().splitlines()[0]
    assert header == "id,arrival,start1,end1,end_link,end2"


def test_simulate_rejects_infinite_horizon():
    result = codesign("simulate", "--config", CONFIG, "--rate", "100",
                      "--horizon", "inf", timeout=60)
    assert result.returncode == 1
    assert result.stderr.startswith("InvariantViolation:")


def test_simulate_rejects_unbounded_arrival_count():
    result = codesign("simulate", "--config", CONFIG, "--rate", "1e20",
                      "--horizon", "1", timeout=60)
    assert result.returncode == 1
    assert result.stderr.startswith("InvariantViolation: arrival_rate * horizon")


def _config_with(tmp_path, *changes):
    """paper.json with each (key path, value) of ``changes`` set."""
    raw = json.loads((FIXTURES / "paper.json").read_text())
    for path, value in changes:
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    return str(config)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("path, value, named", [
    (["devices", 0, "peak_compute"], NAN, "devices[0].peak_compute"),
    (["devices", 0, "peak_compute"], "abc", "devices[0].peak_compute"),
    (["lambda1"], NAN, "lambda1"),
    (["link", "bandwidth"], INF, "link.bandwidth"),
    (["devices"], 5, "devices"),
    (["model", "layers"], 5, "model.layers"),
    (["model", "layers", 0, "fusible"], "false", "model.layers[0].fusible"),
    (["model", "layers", 0, "index"], 0.7, "model.layers[0].index"),
    (["penalties", "1", "conv3"], NAN, "penalties.1.conv3"),
    (["penalties", "3"], {"conv3": 1.0}, "penalties"),
])
def test_bad_config_value_is_named(tmp_path, path, value, named):
    result = codesign("plan", "--config", _config_with(tmp_path, (path, value)))
    assert result.returncode == 1
    assert result.stderr.startswith(f"InvalidConfig: {named} ")
    assert result.stdout == ""


@pytest.mark.parametrize("changes, quantity", [
    ([(["link", "bandwidth"], 1e-320)], "t3"),
    ([(["devices", 0, "peak_compute"], 1e-320)], "t1"),
    ([(["lambda1"], 1e308)], "lagrangian"),
    # utilization * peak_compute underflows to a rate of 0
    ([(["devices", 0, "peak_compute"], 5e-324), (["devices", 0, "utilization"], 0.5)], "t1"),
])
@pytest.mark.parametrize("command", [
    ["plan"],
    ["cost", "--cut", "3", "--theta1", "conv3", "--theta2", "conv3"],
    ["simulate", "--rate", "10", "--horizon", "1"],
])
def test_overflowing_cost_is_named(tmp_path, changes, quantity, command):
    config = _config_with(tmp_path, *changes)
    result = codesign(*command, "--config", config)
    assert result.returncode == 1
    assert result.stdout == ""
    # one line: the named error, and no numpy overflow warning
    assert result.stderr.startswith(f"InvariantViolation: {quantity} is inf at cut ")
    assert result.stderr.count("\n") == 1


def _every_layer_cost(*keys, value=1e308):
    """Changes that set each of ``keys`` to ``value`` for every strategy of
    each of paper.json's 14 layers."""
    return [(["model", "layers", i, key, s], value) for i in range(14) for key in keys
            for s in ("conv3", "conv3+skip", "conv3+conv1", "conv3+skip+conv1")]


def test_overflowed_intensity_is_named_alike_by_every_command(tmp_path):
    # every FLOP and byte sum of two or more layers is inf, so the segment
    # intensities are inf/inf
    config = _config_with(tmp_path, *_every_layer_cost("flops_by_strategy",
                                                       "bytes_by_strategy"))
    for command in (["plan"], ["cost", "--cut", "1", "--theta1", "conv3", "--theta2", "conv3"],
                    ["simulate", "--rate", "10", "--horizon", "1"]):
        result = codesign(*command, "--config", config)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith(
            "InvariantViolation: t2 is inf at cut 1, theta1 conv3, theta2 conv3; ")


@pytest.mark.parametrize("changes, quantity", [
    (_every_layer_cost("flops_by_strategy"), "intensity"),
    (_every_layer_cost("bytes_by_strategy"), "bytes"),
    ([(["devices", 0, "peak_compute"], 1e308), (["devices", 0, "mem_bandwidth"], 1e-10)],
     "balance"),
])
def test_roofline_overflow_is_named(tmp_path, changes, quantity):
    result = codesign("roofline", "--config", _config_with(tmp_path, *changes))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith(f"InvariantViolation: {quantity} is inf on jetson-nano; ")
    assert result.stderr.count("\n") == 1


def test_plan_quotes_the_model_name_once(tmp_path):
    config = _config_with(tmp_path, (["model", "name"], 'a,"b'))
    plan = tmp_path / "plan.csv"
    assert codesign("plan", "--config", config, "--out", str(plan)).returncode == 0
    golden = (GOLDEN / "paper_plan.csv").read_text().splitlines(keepends=True)
    assert plan.read_text() == golden[0] + "".join(
        line.replace("repvgg-mini,", '"a,""b",', 1) for line in golden[1:])
    assert cli.read_plan_csv(plan)[0] == 'a,"b'


def test_float_reprs_keep_the_sign_of_zero():
    text = cli._FloatReprs()
    assert [text[x] for x in (0.0, -0.0, 1.5, -0.0, 1.5)] == ["0.0", "-0.0", "1.5", "-0.0", "1.5"]


def test_report_merges_plan_and_sim(tmp_path):
    plan_csv = tmp_path / "plan.csv"
    sim_json = tmp_path / "sim.json"
    assert codesign("plan", "--config", CONFIG, "--out", str(plan_csv)).returncode == 0
    assert codesign("simulate", "--config", CONFIG, "--rate", "100", "--horizon", "20",
                    "--seed", "2", "--out", str(sim_json)).returncode == 0
    result = codesign("report", "--plan", str(plan_csv), "--sim", str(sim_json))
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["schema_version"] == 1
    assert doc["model"] == "repvgg-mini"
    assert doc["analytical_only"] is False
    assert doc["simulation"]["throughput"] > 0


def test_report_without_sim_is_analytical_only(tmp_path):
    plan_csv = tmp_path / "plan.csv"
    codesign("plan", "--config", CONFIG, "--out", str(plan_csv))
    result = codesign("report", "--plan", str(plan_csv))
    doc = json.loads(result.stdout)
    assert doc["analytical_only"] is True
    assert doc["simulation"] is None


def test_report_empty_sim_is_analytical_only(tmp_path):
    plan_csv = tmp_path / "plan.csv"
    codesign("plan", "--config", CONFIG, "--out", str(plan_csv))
    empty = tmp_path / "sim.json"
    empty.write_text("{}")
    result = codesign("report", "--plan", str(plan_csv), "--sim", str(empty))
    assert result.returncode == 0
    assert json.loads(result.stdout)["analytical_only"] is True


def test_report_model_mismatch(tmp_path):
    plan_csv = tmp_path / "plan.csv"
    codesign("plan", "--config", CONFIG, "--out", str(plan_csv))
    sim_json = tmp_path / "sim.json"
    sim_json.write_text(json.dumps({"model": "someone-else", "throughput": 1.0}))
    result = codesign("report", "--plan", str(plan_csv), "--sim", str(sim_json))
    assert result.returncode == 1
    assert result.stderr.startswith("SchemaMismatch")


def test_report_rejects_sim_that_is_not_an_object(tmp_path):
    plan_csv = tmp_path / "plan.csv"
    codesign("plan", "--config", CONFIG, "--out", str(plan_csv))
    sim_json = tmp_path / "sim.json"
    sim_json.write_text("5")
    result = codesign("report", "--plan", str(plan_csv), "--sim", str(sim_json))
    assert result.returncode == 1
    assert result.stderr.startswith("SchemaMismatch")


def test_plan_strict_and_refine_flags(tmp_path):
    trace = tmp_path / "trace.csv"
    result = codesign("plan", "--config", CONFIG, "--refine", "--trace-out", str(trace))
    assert result.returncode == 0
    assert trace.read_text().splitlines()[0] == "iteration,lambda,t_total"
    # strict mode on this fixture: the nx-side segment never reaches its
    # balance point, so everything is filtered out
    result = codesign("plan", "--config", CONFIG, "--strict")
    assert result.returncode == 1
    assert result.stderr.startswith("NoFeasiblePlan")


def test_fuse_check_output():
    result = codesign("fuse-check", "--seed", "9", "--trials", "5")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "strategy,trials,max_rel_error"
    assert len(lines) == 5
    for line in lines[1:]:
        assert float(line.split(",")[2]) <= 1e-5


def test_convergence_lab_output():
    result = codesign("convergence-lab", "--seed", "4", "--dim", "8", "--steps", "12")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "step,gap,bound,ratio,within_bound"
    assert len(lines) == 13
    assert "violated_at=None" in result.stderr


def test_convergence_lab_prints_measured_gaps():
    result = codesign("convergence-lab", "--seed", "7")
    assert result.returncode == 0
    printed = [row.split(",")[1] for row in result.stdout.splitlines()[1:]]
    assert len(printed) == 200

    rng = np.random.default_rng(7)
    obj = convergence.random_objective(rng, 16)
    eta = 0.9 * convergence.admissible_step_limit(obj)
    w = rng.standard_normal(16)
    optimum = obj.optimum()
    for gap in printed:
        w = convergence.split_step(obj, w, eta)
        assert gap == repr(obj.loss(w) - optimum)
    # the measured gaps stay informative below the noise floor
    assert sum(float(gap) != 0.0 for gap in printed) > 100


def test_plan_and_trace_match_golden_files(tmp_path):
    # golden files written by the per-candidate scalar planner, which the
    # vectorized grid and the prefix-sum refinement replaced
    plan, trace = tmp_path / "plan.csv", tmp_path / "trace.csv"
    assert cli.main(["plan", "--config", CONFIG, "--refine", "--trace-out", str(trace),
                     "--out", str(plan)]) == 0
    assert plan.read_bytes() == (GOLDEN / "paper_plan.csv").read_bytes()
    assert trace.read_bytes() == (GOLDEN / "paper_trace.csv").read_bytes()


def test_trace_env_var_prints_stages_and_leaves_stdout_alone():
    plain = codesign("plan", "--config", CONFIG, "--refine")
    traced = codesign("plan", "--config", CONFIG, "--refine",
                      env=dict(os.environ, CODESIGN_TRACE="1"))
    assert plain.returncode == traced.returncode == 0
    assert traced.stdout == plain.stdout
    assert plain.stderr == ""
    lines = [json.loads(line) for line in traced.stderr.splitlines()]
    assert [line["stage"] for line in lines] == ["load", "evaluate", "rank", "refine", "emit"]
    assert [line["items"] for line in lines] == [14, 13 * 16, 13 * 16, 501, 13 * 16]
    assert all(line["seconds"] >= 0 for line in lines)


HELP_FLAGS = {
    "roofline": ["--config"],
    "cost": ["--config", "--cut", "--theta1", "--theta2"],
    "plan": ["--config", "--strict", "--refine"],
    "fuse-check": ["--seed"],
    "convergence-lab": ["--seed", "--dim", "--steps"],
    "simulate": ["--config", "--rate", "--horizon", "--seed"],
    "report": ["--plan", "--sim"],
}


@pytest.mark.parametrize("command,flags", HELP_FLAGS.items())
def test_help_documents_flags(command, flags):
    result = codesign(command, "--help")
    assert result.returncode == 0
    for flag in flags:
        assert flag in result.stdout
