import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from codesign import cli
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
