import argparse
import io
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from codesign import cli, commands, convergence, fusion
from codesign.errors import InvalidConfig
from codesign.profiles import FusionStrategy, load_device
from codesign.strategy import FULL_STRUCTURE
from conftest import FIXTURES, FULL

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


# run as `python -S` with the codesign arguments: starts them as a child
# and prints its exit code and peak RSS in KB
_PEAK_RSS = """
import os, sys
argv = [sys.executable, "-S", "-m", "codesign", *sys.argv[1:]]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_mb(*argv) -> float:
    # a child's peak RSS starts at its parent's, so the parent is a small
    # `python -S`, not pytest with numpy loaded; numpy's directory is on the
    # path for the commands that load it
    path = os.pathsep.join(str(Path(module.__file__).parent.parent) for module in (cli, np))
    result = subprocess.run([sys.executable, "-S", "-c", _PEAK_RSS, *argv], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=path), check=True)
    code, kilobytes = map(int, result.stdout.split())
    assert code == 0, argv
    return kilobytes / 1024


def test_simulate_csv_peak_rss_grows_as_an_unlogged_run_does(tmp_path):
    # 2e4 and 2e5 expected arrivals on paper.json's winner, which keeps up:
    # an unlogged run grows 8.0 MB, a run that kept its log grew 75.8 MB
    def growth(*extra):
        small, large = (_peak_rss_mb("simulate", "--config", CONFIG, "--rate", "2000",
                                     "--horizon", horizon, "--out", os.devnull, *extra)
                        for horizon in ("10", "100"))
        return large - small

    assert growth("--csv", str(tmp_path / "requests.csv")) <= growth() + 4.0


def test_report_peak_rss_does_not_hold_the_rows_it_counts(tmp_path):
    # the golden table and one with its body 70 times (14,560 rows, 2.24 MB):
    # holding a dict per row grew 27.7 MB, holding the file's text 10.5 MB,
    # reading it row by row 0.0 MB
    header, *body = (GOLDEN / "paper_plan.csv").read_text().splitlines(keepends=True)
    large = tmp_path / "plan.csv"
    large.write_text(header + "".join(body) * 70)
    small, big = (_peak_rss_mb("report", "--plan", str(plan), "--out", os.devnull)
                  for plan in (GOLDEN / "paper_plan.csv", large))
    assert big - small < 3.0
    assert commands.build_report(large)["candidates"] == 70 * len(body)


def test_convergence_lab_peak_rss_does_not_grow_with_its_steps():
    # each step's row is written as it is checked: keeping them grew 29.6 MB
    # from 1,000 to 50,000 steps, writing them 0.0 MB
    small, large = (_peak_rss_mb("convergence-lab", "--dim", "2", "--steps", steps,
                                 "--out", os.devnull) for steps in ("1000", "50000"))
    assert large - small < 3.0


def test_simulate_csv_past_the_old_log_bound_then_unwritable_out(tmp_path):
    # 1e7 * 0.1000001 expected arrivals is past the 1e6 a logged run was
    # once refused at; at rho ~3300 all but ~300 stay queued, so the run
    # is short.  The log is written, then --out fails and takes it with it.
    log = tmp_path / "requests.csv"
    result = codesign("simulate", "--config", CONFIG, "--rate", "1e7", "--horizon", "0.1000001",
                      "--csv", str(log), "--out", str(tmp_path), timeout=60)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"UnwritableOutput: {tmp_path}: Is a directory\n"
    assert not log.exists()


def test_simulate_interrupted_inside_the_run_leaves_no_log(tmp_path, monkeypatch):
    from codesign import simulator

    made = []

    class Record(simulator.RequestRecord):
        def __new__(cls, *fields):
            if len(made) == 100:
                raise KeyboardInterrupt
            made.append(fields)
            return super().__new__(cls, *fields)

    monkeypatch.setattr(simulator, "RequestRecord", Record)
    log = tmp_path / "requests.csv"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["simulate", "--config", CONFIG, "--rate", "100", "--horizon", "10",
                  "--csv", str(log)])
    assert len(made) == 100
    assert not log.exists()


def test_emit_removes_its_files_and_passes_other_exceptions_on(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"

    def interrupted(handle):
        handle.write("partial\n")
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        cli._emit((str(first), "done\n"), (str(second), interrupted))
    assert not first.exists() and not second.exists()


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


@pytest.mark.parametrize("command", ["plan", "roofline"])
def test_third_device_is_named(tmp_path, command):
    # a plan splits the model across two devices: plan would ignore a third
    # device and roofline would print a row for it, so the config is refused
    devices = [json.loads((FIXTURES / f"jetson_{name}.json").read_text())
               for name in ("nano", "nx", "tx2")]
    config = _config_with(tmp_path, (["devices"], devices))
    result = codesign(command, "--config", config)
    assert result.returncode == 1
    assert result.stderr == ("InvariantViolation: devices lists 3 devices; "
                             "a plan splits the model across exactly 2\n")
    assert result.stdout == ""


def test_misspelt_key_is_named(tmp_path):
    # each would fall back to its default (1.0 and 0.0) if it were ignored
    config = _config_with(tmp_path, (["devices", 0, "utilisation"], 0.25),
                          (["link", "fixed_latancy"], 0.5))
    result = codesign("cost", "--config", config, "--cut", "5", "--theta1", "conv3",
                      "--theta2", "conv3")
    assert result.returncode == 1
    assert result.stderr == "InvalidConfig: devices[0].utilisation is not a config key\n"
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


def _two_layers(flops, data):
    """paper.json's first two layers, not fusible, at ``flops`` FLOPs and
    ``data`` bytes each under every strategy."""
    layers = json.loads((FIXTURES / "paper.json").read_text())["model"]["layers"][:2]
    return [(["model", "layers"], [
        dict(layer, fusible=False,
             flops_by_strategy=dict.fromkeys(layer["flops_by_strategy"], flops),
             bytes_by_strategy=dict.fromkeys(layer["bytes_by_strategy"], data))
        for layer in layers])]


@pytest.mark.parametrize("flops, data, split, unit", [
    (1e308, 1e300, "lambda_c", "FLOP"),
    (1e6, 1e308, "lambda_m", "byte"),
])
@pytest.mark.parametrize("command", [
    ["plan"],
    ["cost", "--cut", "1", "--theta1", "conv3", "--theta2", "conv3"],
    ["cost", "--cut", "1", "--theta1", "conv3", "--theta2", "conv3+skip+conv1"],
])
def test_overflowing_split_is_named(tmp_path, flops, data, split, unit, command):
    # each sum is finite but head + tail is inf, so c1 / (c1 + c2) would
    # print 0.0 for a split of 0.5, and an accuracy loss from one side only
    config = _config_with(tmp_path, *_two_layers(flops, data))
    result = codesign(*command, "--config", config)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == (f"InvariantViolation: {split} divides by an inf {unit} total at "
                             "cut 1; the config's magnitudes overflow float arithmetic\n")


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
    assert commands.read_plan_csv(plan)[0]["model"] == 'a,"b'


CR, NUL, SURROGATE = "a carriage return", "a NUL", "a lone surrogate"


@pytest.mark.parametrize("key,name,refused", [
    (["model", "name"], "a\r\nb", f"model.name must not contain {CR}"),
    (["model", "name"], "a\nb", None),
    (["model", "name"], "a\u2028b", None),
    (["model", "name"], "a\x0cb", None),
    (["model", "name"], "a\rb", f"model.name must not contain {CR}"),
    (["devices", 0, "name"], "jetson\rnano", f"devices[0].name must not contain {CR}"),
    (["model", "name"], "a\x00b", f"model.name must not contain {NUL}"),
    (["devices", 0, "name"], "jetson\x00nano", f"devices[0].name must not contain {NUL}"),
    (["model", "name"], "a\ud800b", f"model.name must not contain {SURROGATE}"),
    (["devices", 0, "name"], "jetson\udfffnano",
     f"devices[0].name must not contain {SURROGATE}"),
], ids=["crlf", "lf", "line-separator", "form-feed", "cr", "device-cr", "nul", "device-nul",
        "surrogate", "device-surrogate"])
def test_a_line_break_in_the_model_name_reads_back(tmp_path, capsys, key, name, refused):
    # csv quotes the name, and the table is read with newline="", so only
    # an unquoted \r or \n ends a row.  csv.writer quotes a lone \r on
    # Python 3.13 only and cannot write a NUL on 3.10, and UTF-8 cannot
    # encode a lone surrogate, so a name holding one is refused at load.
    config = _config_with(tmp_path, (key, name))
    plan = tmp_path / "plan.csv"
    if refused is None:
        assert cli.main(["plan", "--config", config, "--out", str(plan)]) == 0
        winner, count = commands.read_plan_csv(plan)
        assert (winner["model"], count) == (name, 13 * 16)
        return
    for command in ("plan", "roofline"):
        assert cli.main([command, "--config", config, "--out", str(plan)]) == 1
        assert capsys.readouterr() == ("", f"InvalidConfig: {refused}\n")
        assert not plan.exists()


# a locale whose preferred encoding is ASCII
C_LOCALE = dict(os.environ, PYTHONCOERCECLOCALE="0", LC_ALL="C", PYTHONUTF8="0")


@pytest.mark.parametrize("ensure_ascii", [False, True], ids=["utf-8", "escaped"])
def test_every_file_and_stdout_is_utf8_in_any_locale(tmp_path, ensure_ascii):
    raw = json.loads(Path(CONFIG).read_text())
    raw["model"]["name"] = "repvgg-mini-\u00e9"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw, ensure_ascii=ensure_ascii), encoding="utf-8")

    def expected(golden):
        return (GOLDEN / golden).read_text().replace(
            "repvgg-mini,", "repvgg-mini-\u00e9,").encode()

    plan = tmp_path / "plan.csv"
    for env in (None, C_LOCALE):
        for command, golden in (("plan", "paper_plan.csv"), ("roofline", "paper_roofline.csv")):
            result = subprocess.run([sys.executable, "-m", "codesign", command, "--config",
                                     str(config)], capture_output=True, env=env)
            assert (result.returncode, result.stderr, result.stdout) == (0, b"", expected(golden))
        result = subprocess.run([sys.executable, "-m", "codesign", "plan", "--config",
                                 str(config), "--out", str(plan)], capture_output=True, env=env)
        assert (result.returncode, result.stderr, result.stdout) == (0, b"", b"")
        assert plan.read_bytes() == expected("paper_plan.csv")


def test_stderr_is_utf8_in_any_locale(tmp_path):
    raw = json.loads(Path(CONFIG).read_text())
    raw["model"]["name"] = "repvgg-mini-\u00e9"
    config, plan = tmp_path / "config.json", tmp_path / "plan.csv"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert cli.main(["plan", "--config", str(config), "--out", str(plan)]) == 0
    for env in (None, C_LOCALE):
        result = subprocess.run([sys.executable, "-m", "codesign", "report", "--plan", str(plan),
                                 "--sim", str(GOLDEN / "paper_simulate.json")],
                                capture_output=True, env=env)
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr == ("SchemaMismatch: plan is for model 'repvgg-mini-\u00e9' but "
                                 "simulation is for 'repvgg-mini'\n").encode()


# each command writing an output to the empty path, which names no file
EMPTY_PATHS = {
    "plan --out": ["plan", "--config", CONFIG, "--out", ""],
    "plan --trace-out": ["plan", "--refine", "--config", CONFIG, "--trace-out", ""],
    "simulate --csv": ["simulate", "--config", CONFIG, "--rate", "100", "--horizon", "1",
                       "--csv", ""],
    "simulate --out": ["simulate", "--config", CONFIG, "--rate", "100", "--horizon", "1",
                       "--out", ""],
    "roofline --out": ["roofline", "--config", CONFIG, "--out", ""],
    "cost --out": ["cost", "--config", CONFIG, "--cut", "5", "--theta1", "conv3",
                   "--theta2", "conv3", "--out", ""],
    "report --out": ["report", "--plan", str(GOLDEN / "paper_plan.csv"), "--out", ""],
}


@pytest.mark.parametrize("argv", EMPTY_PATHS.values(), ids=EMPTY_PATHS)
def test_an_empty_output_path_is_a_path(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "UnwritableOutput: : No such file or directory\n")
    assert list(tmp_path.iterdir()) == []


def test_float_reprs_keep_the_sign_of_zero():
    text = commands._FloatReprs()
    assert [text[x] for x in (0.0, -0.0, 1.5, -0.0, 1.5)] == ["0.0", "-0.0", "1.5", "-0.0", "1.5"]


def test_csv_writes_each_float_as_its_repr():
    # every table but plan's hands its floats to csv.writer as they are
    values = [5e-324, 1e-320, -0.0, 0.1, 1e16, float(2**53 + 1), 1 / 3]
    table = io.StringIO()
    commands._table(["x"], [[v] for v in values])(table)
    assert table.getvalue() == "x\n" + "".join(f"{v!r}\n" for v in values)


def test_zero_time_link_plans_simulates_and_reports(tmp_path):
    # zero-byte activations cost the link nothing: its stage takes no time
    raw = json.loads((FIXTURES / "paper.json").read_text())
    for layer in raw["model"]["layers"]:
        layer["output_activation_bytes"] = 0.0
    config = tmp_path / "zero_link.json"
    config.write_text(json.dumps(raw))
    plan_csv, sim_json = tmp_path / "plan.csv", tmp_path / "sim.json"
    assert codesign("plan", "--config", str(config), "--out", str(plan_csv)).returncode == 0
    assert commands.read_plan_csv(plan_csv)[0]["t3"] == "0.0"
    for cut in (["--cut", "5"], []):    # the winner's simulation last, for report
        result = codesign("simulate", "--config", str(config), "--rate", "100",
                          "--horizon", "1", *cut, "--out", str(sim_json))
        assert result.returncode == 0, result.stderr
        assert json.loads(sim_json.read_text())["service_times"]["t3"] == 0.0
    result = codesign("report", "--plan", str(plan_csv), "--sim", str(sim_json))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["simulation"]["completed"] > 0


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


def test_report_rejects_an_empty_sim(tmp_path):
    # leaving out --sim is the one way to ask for an analytical-only report
    empty = tmp_path / "sim.json"
    empty.write_text("{}")
    result = codesign("report", "--plan", str(GOLDEN / "paper_plan.csv"), "--sim", str(empty))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"SchemaMismatch: {empty} is not a simulation report\n"


def test_report_model_mismatch(tmp_path):
    plan_csv = tmp_path / "plan.csv"
    codesign("plan", "--config", CONFIG, "--out", str(plan_csv))
    sim_json = tmp_path / "sim.json"
    sim = json.loads((GOLDEN / "paper_simulate.json").read_text())
    sim_json.write_text(json.dumps(dict(sim, model="someone-else")))
    result = codesign("report", "--plan", str(plan_csv), "--sim", str(sim_json))
    assert result.returncode == 1
    assert result.stderr.startswith("SchemaMismatch: plan is for model 'repvgg-mini'")


def test_report_rejects_a_simulation_of_another_plan(tmp_path, capsys):
    # paper.json's winner is cut 10 with the full structure on both sides
    sim_json = tmp_path / "sim.json"
    assert cli.main(["simulate", "--config", CONFIG, "--rate", "100", "--horizon", "1",
                     "--cut", "3", "--theta1", "conv3", "--out", str(sim_json)]) == 0
    assert cli.main(["report", "--plan", str(GOLDEN / "paper_plan.csv"),
                     "--sim", str(sim_json)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"SchemaMismatch: {sim_json}: simulation is of plan "
        '{"cut": 3, "theta1": "conv3", "theta2": "conv3+skip+conv1"} but the winning plan is '
        '{"cut": 10, "theta1": "conv3+skip+conv1", "theta2": "conv3+skip+conv1"}\n')


def test_report_rejects_a_simulation_without_its_plan(tmp_path, capsys):
    sim = json.loads((GOLDEN / "paper_simulate.json").read_text())
    del sim["plan"]
    sim_json = tmp_path / "sim.json"
    sim_json.write_text(json.dumps(sim))
    assert cli.main(["report", "--plan", str(GOLDEN / "paper_plan.csv"),
                     "--sim", str(sim_json)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"SchemaMismatch: {sim_json} is not a simulation report\n"


def test_report_rejects_sim_that_is_not_an_object(tmp_path):
    plan_csv = tmp_path / "plan.csv"
    codesign("plan", "--config", CONFIG, "--out", str(plan_csv))
    sim_json = tmp_path / "sim.json"
    sim_json.write_text("5")
    result = codesign("report", "--plan", str(plan_csv), "--sim", str(sim_json))
    assert result.returncode == 1
    assert result.stderr.startswith("SchemaMismatch")


@pytest.mark.parametrize("document", ["0", "null", "[]", '""', "false"])
def test_report_rejects_falsy_sim_that_is_not_an_object(tmp_path, capsys, document):
    sim_json = tmp_path / "sim.json"
    sim_json.write_text(document)
    assert cli.main(["report", "--plan", str(GOLDEN / "paper_plan.csv"),
                     "--sim", str(sim_json)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"SchemaMismatch: {sim_json} is not a simulation report\n"


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_report_rejects_a_sim_number_that_is_not_finite(tmp_path, capsys, number):
    # json reads each of these (1e400 as inf), but printed back none is a
    # finite number
    sim_json = tmp_path / "sim.json"
    sim_json.write_text(f'{{"model": "repvgg-mini", "throughput": {number}}}')
    assert cli.main(["report", "--plan", str(GOLDEN / "paper_plan.csv"),
                     "--sim", str(sim_json)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"SchemaMismatch: {sim_json}: {number} is not a finite number\n"


@pytest.mark.parametrize("argv, source, key", [
    (["plan", "--config"], FIXTURES / "paper.json", "lambda1"),
    (["report", "--plan", str(GOLDEN / "paper_plan.csv"), "--sim"],
     GOLDEN / "paper_simulate.json", "horizon"),
], ids=["config", "sim"])
def test_a_repeated_key_is_named(tmp_path, capsys, argv, source, key):
    # json keeps the last of a repeated key, so the first value would be
    # dropped as silently as a misspelt key's
    path = tmp_path / "dup.json"
    path.write_text(source.read_text().replace(f'"{key}": ', f'"{key}": 5.0, "{key}": ', 1))
    assert cli.main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"InvalidConfig: {path}: duplicate key '{key}'\n"


@pytest.mark.parametrize("argv", [["fuse-check", "--trials", "2"],
                                  ["convergence-lab", "--steps", "2"]], ids=lambda a: a[0])
def test_a_missing_numpy_is_named(tmp_path, argv):
    shadow = tmp_path / "shadow" / "numpy"
    shadow.mkdir(parents=True)
    (shadow / "__init__.py").write_text('raise ImportError("no numpy here")\n')
    src = Path(cli.__file__).parent.parent
    path = os.pathsep.join(filter(None, [str(shadow.parent), str(src),
                                         os.environ.get("PYTHONPATH")]))
    result = codesign(*argv, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == (f"MissingDependency: {argv[0]} needs numpy "
                             "(pip install 'codesign[lab]')\n")


def _clear_blas_threads(monkeypatch):
    # set, then delete, so monkeypatch restores each variable's absence too
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(name, "")
        monkeypatch.delenv(name)


def test_lab_commands_ask_for_one_blas_thread(monkeypatch):
    _clear_blas_threads(monkeypatch)
    commands._require_numpy("fuse-check")
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert "GOTO_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ


@pytest.mark.parametrize("name,value", [("OMP_NUM_THREADS", "4"),
                                        ("OPENBLAS_NUM_THREADS", "2")])
def test_a_blas_thread_count_the_user_set_stands(monkeypatch, name, value):
    _clear_blas_threads(monkeypatch)
    monkeypatch.setenv(name, value)
    before = dict(os.environ)
    commands._require_numpy("convergence-lab")
    assert dict(os.environ) == before


NOT_UTF8 = b"\xff\xfe{"

# every command that reads a file, ending with the option that names it
INPUT_FILE_COMMANDS = [
    ["plan", "--config"],
    ["cost", "--cut", "3", "--theta1", "conv3", "--theta2", "conv3", "--config"],
    ["simulate", "--rate", "10", "--horizon", "1", "--config"],
    ["roofline", "--config"],
    ["report", "--plan", str(GOLDEN / "paper_plan.csv"), "--sim"],
    ["report", "--plan"],
]


@pytest.mark.parametrize("command", INPUT_FILE_COMMANDS)
def test_undecodable_input_file_is_named(tmp_path, command):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(NOT_UTF8)
    result = codesign(*command, str(bad))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith(f"InvalidConfig: {bad}: 'utf-8' codec can't decode")
    assert result.stderr.count("\n") == 1


def test_report_names_a_plan_that_stops_decoding_after_its_first_read(tmp_path, capsys):
    # the table is decoded as its rows are read: a bad byte in its last row,
    # past the first read of the file, is named as one in its first is
    header, *body = (GOLDEN / "paper_plan.csv").read_bytes().splitlines(keepends=True)
    plan = tmp_path / "plan.csv"
    plan.write_bytes(header + b"".join(body) * 70 + NOT_UTF8 + b"\n")
    assert cli.main(["report", "--plan", str(plan)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"InvalidConfig: {re.escape(str(plan))}: 'utf-8' codec can't decode "
                        f"byte 0xff in position [0-9]+: invalid start byte\n", captured.err)


@pytest.mark.parametrize("command", INPUT_FILE_COMMANDS,
                         ids=lambda command: f"{command[0]} {command[-1]}")
@pytest.mark.parametrize("content, reason", [
    (None, "No such file or directory"),
    (NOT_UTF8, "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["missing", "undecodable"])
def test_input_file_error_names_the_path_as_typed(tmp_path, monkeypatch, capsys, command,
                                                  content, reason):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inputs").mkdir()
    if content is not None:
        (tmp_path / "inputs" / "file.json").write_bytes(content)
    assert cli.main([*command, "./inputs//file.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"InvalidConfig: ./inputs//file.json: {reason}\n"


@pytest.mark.parametrize("option, document, message", [
    ("--config", "[", "InvalidConfig: {}: Expecting value: line 1 column 2 (char 1)"),
    ("--sim", "[", "InvalidConfig: {}: Expecting value: line 1 column 2 (char 1)"),
    ("--sim", '{"throughput": NaN}', "SchemaMismatch: {}: NaN is not a finite number"),
    ("--plan", "x\n", "SchemaMismatch: {} is not a plan table (expected columns "
                      f"{commands.PLAN_COLUMNS})"),
], ids=["config-not-json", "sim-not-json", "sim-nan", "plan-not-a-table"])
def test_every_error_about_a_file_names_it_as_typed(tmp_path, monkeypatch, capsys, option,
                                                    document, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inputs").mkdir()
    (tmp_path / "inputs" / "file.json").write_text(document)
    command = {"--config": ["plan", "--config"],
               "--sim": ["report", "--plan", str(GOLDEN / "paper_plan.csv"), "--sim"],
               "--plan": ["report", "--plan"]}[option]
    assert cli.main([*command, "./inputs//file.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message.format("./inputs//file.json") + "\n"


def test_undecodable_device_file_is_named(tmp_path):
    bad = tmp_path / "device.json"
    bad.write_bytes(NOT_UTF8)
    with pytest.raises(InvalidConfig, match=f"^{re.escape(str(bad))}: 'utf-8' codec"):
        load_device(bad)


@pytest.mark.parametrize("column, edit", [
    ("t1", lambda fields: fields[:4] + ["abc"] + fields[5:]),
    ("t2", lambda fields: fields[:5]),  # too few fields: t2 and later read as None
    ("cut", lambda fields: fields[:1] + ["5.5"] + fields[2:]),
    ("L", lambda fields: fields[:9] + ["nan"] + fields[10:]),
    ("feasible2", lambda fields: fields[:11] + ["yes"]),
    ("theta1", lambda fields: fields[:2] + ["bogus"] + fields[3:]),
    ("theta2", lambda fields: fields[:3]),  # too few fields: theta2 reads as None
])
def test_report_names_a_malformed_winner_field(tmp_path, column, edit):
    header, winner, *rest = (GOLDEN / "paper_plan.csv").read_text().splitlines()
    plan_csv = tmp_path / "plan.csv"
    plan_csv.write_text("\n".join([header, ",".join(edit(winner.split(","))), *rest]) + "\n")
    result = codesign("report", "--plan", str(plan_csv))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith(f"SchemaMismatch: {plan_csv}: the winning row's {column} is ")
    assert result.stderr.count("\n") == 1


def test_report_names_a_missing_model_under_a_reordered_header(tmp_path):
    # with the model column last, a short winner lacks the model first
    _, *rest = (GOLDEN / "paper_plan.csv").read_text().splitlines()[1].split(",")
    plan_csv = tmp_path / "plan.csv"
    plan_csv.write_text(f"{','.join(commands.PLAN_COLUMNS[1:])},model\n{','.join(rest)}\n")
    result = codesign("report", "--plan", str(plan_csv))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"SchemaMismatch: {plan_csv}: the winning row's model is None\n"


@pytest.mark.parametrize("edit, line", [
    (lambda rows: rows + ["junk"], 210),                     # a short later row
    (lambda rows: rows[:-1] + [rows[-1] + ",extra"], 209),   # a long later row
    (lambda rows: [rows[0] + ",extra", *rows[1:]], 2),       # a long winner
], ids=["short-row", "long-row", "long-winner"])
def test_report_names_a_row_that_does_not_hold_the_headers_fields(tmp_path, edit, line):
    header, *rows = (GOLDEN / "paper_plan.csv").read_text().splitlines()
    plan_csv = tmp_path / "plan.csv"
    plan_csv.write_text("\n".join([header, *edit(rows)]) + "\n")
    result = codesign("report", "--plan", str(plan_csv))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == (
        f"SchemaMismatch: {plan_csv}: line {line} does not hold the header's 12 fields\n")


def test_report_names_an_oversized_plan_field(tmp_path):
    header, *rows = (GOLDEN / "paper_plan.csv").read_text().splitlines()
    plan_csv = tmp_path / "plan.csv"
    model = "m" * 200_000  # beyond the csv module's field size limit
    for row in (0, -1):     # the winner, and a row that is only counted
        oversized = rows.copy()
        oversized[row] = ",".join([model, *rows[row].split(",")[1:]])
        plan_csv.write_text("\n".join([header, *oversized]) + "\n")
        result = codesign("report", "--plan", str(plan_csv))
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith(f"SchemaMismatch: {plan_csv}: field larger than")
        assert result.stderr.count("\n") == 1


def test_the_parser_takes_the_strategies_from_their_one_definition():
    parser = cli.build_parser()
    [commands_action] = [action for action in parser._actions
                         if isinstance(action, argparse._SubParsersAction)]
    found = {}
    for name, sub in commands_action.choices.items():
        for action in sub._actions:
            if action.dest.startswith("theta"):
                assert action.choices == [s.value for s in FusionStrategy], (name, action.dest)
                found.setdefault(name, []).append(action.dest)
    assert found == {"roofline": ["theta"], "cost": ["theta1", "theta2"],
                     "simulate": ["theta1", "theta2"]}
    assert parser.parse_args(["roofline", "--config", CONFIG]).theta == FULL_STRUCTURE.value


@pytest.mark.parametrize("flags", [["--theta1", "conv3"], ["--theta2", "conv3+skip"]])
def test_simulate_strategy_without_cut_is_usage_error(flags):
    result = codesign("simulate", "--config", CONFIG, "--rate", "10", "--horizon", "1",
                      *flags)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "--theta1 and --theta2 need --cut" in result.stderr


def test_simulate_cut_defaults_to_full_structure():
    result = codesign("simulate", "--config", CONFIG, "--rate", "10", "--horizon", "1",
                      "--cut", "3", "--theta1", "conv3")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["plan"] == {
        "cut": 3, "theta1": "conv3", "theta2": "conv3+skip+conv1"}


def test_simulate_strict_with_cut_is_usage_error():
    result = codesign("simulate", "--config", CONFIG, "--rate", "10", "--horizon", "1",
                      "--strict", "--cut", "3")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "simulate: --strict chooses among the grid's candidates; --cut names one" in (
        result.stderr)


def test_simulate_strict_fails_where_plan_strict_does():
    # no candidate on paper.json is feasible on both devices
    result = codesign("simulate", "--config", CONFIG, "--rate", "10", "--horizon", "1",
                      "--strict")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "NoFeasiblePlan: every candidate violates an intensity requirement\n"


def paper_variant(index: int) -> dict:
    """Draw ``index`` (from 0) of paper.json's variants under
    ``random.Random(0)``: each device's peak (1e9-1e13 FLOP/s) and memory
    bandwidth (1e9-1e12 B/s), then the link bandwidth (1e5-1e9 B/s) and
    lambda1 (1e-6-1), all log-uniform.  Of the first 3,000, 1,319 have a
    plan feasible on both devices, and in 390 of them it is not the
    unrestricted winner."""
    rng = random.Random(0)
    raw = json.loads((FIXTURES / "paper.json").read_text())

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    for _ in range(index + 1):  # each draw sets every field it varies
        for device in raw["devices"]:
            device["peak_compute"] = log_uniform(1e9, 1e13)
            device["mem_bandwidth"] = log_uniform(1e9, 1e12)
        raw["link"]["bandwidth"] = log_uniform(1e5, 1e9)
        raw["lambda1"] = log_uniform(1e-6, 1.0)
    return raw


# the first five variants whose strict winner differs from the unrestricted
# one: in the cut, and in three of them in a strategy too
@pytest.mark.parametrize("index", [0, 13, 17, 27, 61])
def test_strict_plan_then_strict_simulate_then_report(tmp_path, capsys, index):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(paper_variant(index)))
    plan, sim, loose = tmp_path / "plan.csv", tmp_path / "sim.json", tmp_path / "loose.json"
    run = ["simulate", "--config", str(config), "--rate", "100", "--horizon", "1"]
    assert cli.main(["plan", "--strict", "--config", str(config), "--out", str(plan)]) == 0
    assert cli.main([*run, "--strict", "--out", str(sim)]) == 0
    assert cli.main([*run, "--out", str(loose)]) == 0
    assert json.loads(sim.read_text())["plan"] != json.loads(loose.read_text())["plan"]
    assert cli.main(["report", "--plan", str(plan), "--sim", str(sim)]) == 0
    assert json.loads(capsys.readouterr().out)["analytical_only"] is False
    # the unrestricted winner is another plan, which report names
    assert cli.main(["report", "--plan", str(plan), "--sim", str(loose)]) == 1
    assert capsys.readouterr().err.startswith(f"SchemaMismatch: {loose}: simulation is of plan")


def _main_json(capsys, *argv):
    assert cli.main(list(argv)) == 0, capsys.readouterr().err
    return json.loads(capsys.readouterr().out)


def test_simulate_cut_runs_the_candidate_cost_prices(capsys):
    # every candidate of paper.json, under each way to name it: a strategy
    # left out is the full structure
    names = [s.value for s in FusionStrategy]
    for cut in range(1, 14):
        for theta1 in names:
            for theta2 in names:
                cost = _main_json(capsys, "cost", "--config", CONFIG, "--cut", str(cut),
                                  "--theta1", theta1, "--theta2", theta2)
                ways1 = [["--theta1", theta1]] + [[]] * (theta1 == FULL.value)
                ways2 = [["--theta2", theta2]] + [[]] * (theta2 == FULL.value)
                for flags in (a + b for a in ways1 for b in ways2):
                    sim = _main_json(capsys, "simulate", "--config", CONFIG, "--rate", "10",
                                     "--horizon", "0.5", "--cut", str(cut), *flags)
                    assert sim["plan"] == {"cut": cut, "theta1": theta1, "theta2": theta2}
                    assert sim["service_times"] == {"t1": cost["t1"], "t3": cost["t3"],
                                                    "t2": cost["t2"]}


def test_trace_out_without_refine_is_usage_error(tmp_path):
    trace = tmp_path / "trace.csv"
    result = codesign("plan", "--config", CONFIG, "--trace-out", str(trace))
    assert result.returncode == 2
    assert result.stdout == ""
    assert "--trace-out needs --refine" in result.stderr
    assert not trace.exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--config", CONFIG, "--rate", "100", "--horizon", "1",
      "--csv", "same.json", "--out", "same.json"], "simulate: --csv and --out name one file"),
    (["plan", "--config", CONFIG, "--refine", "--trace-out", "same.csv", "--out", "./same.csv"],
     "plan: --trace-out and --out name one file"),
], ids=["simulate", "plan"])
def test_two_outputs_naming_one_file_is_usage_error(argv, message, tmp_path, monkeypatch,
                                                    capsys):
    # the second output would overwrite the first; a device may take both
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as raised:
        cli.main(argv)
    assert raised.value.code == 2
    output = capsys.readouterr()
    assert output.out == ""
    assert message in output.err
    assert list(tmp_path.iterdir()) == []
    devnull = [os.devnull if arg.endswith(("same.json", "same.csv")) else arg for arg in argv]
    assert cli.main(devnull) == 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--config", CONFIG, "--rate", "100", "--horizon", "1",
      "--csv", "first", "--out", "second"], "simulate: --csv and --out name one file"),
    (["plan", "--config", CONFIG, "--refine", "--trace-out", "first", "--out", "second"],
     "plan: --trace-out and --out name one file"),
], ids=["simulate", "plan"])
@pytest.mark.parametrize("link, target", [("first", "second"), ("second", "first")])
def test_an_output_through_a_dangling_symlink_to_the_other_is_usage_error(
        argv, message, link, target, tmp_path, monkeypatch, capsys):
    # the link does not resolve yet, but the first write would create its
    # target, and the second write overwrite it
    monkeypatch.chdir(tmp_path)
    os.symlink(target, link)
    with pytest.raises(SystemExit) as raised:
        cli.main(argv)
    assert raised.value.code == 2
    output = capsys.readouterr()
    assert output.out == ""
    assert message in output.err
    assert list(tmp_path.iterdir()) == [tmp_path / link]


# the file each input option of a command reads
INPUTS = {"--config": FIXTURES / "paper.json", "--plan": GOLDEN / "paper_plan.csv",
          "--sim": GOLDEN / "paper_simulate.json"}


# every output option of a command that reads a file, with each input option
@pytest.mark.parametrize("argv, output, source", [
    (["plan"], "--out", "--config"),
    (["plan", "--refine"], "--trace-out", "--config"),
    (["cost", "--cut", "5", "--theta1", "conv3", "--theta2", "conv3"], "--out", "--config"),
    (["roofline"], "--out", "--config"),
    (["simulate", "--rate", "100", "--horizon", "1"], "--out", "--config"),
    (["simulate", "--rate", "100", "--horizon", "1"], "--csv", "--config"),
    (["report", "--sim", str(INPUTS["--sim"])], "--out", "--plan"),
    (["report", "--plan", str(INPUTS["--plan"])], "--out", "--sim"),
], ids=["plan-out", "plan-trace-out", "cost-out", "roofline-out", "simulate-out",
        "simulate-csv", "report-out-plan", "report-out-sim"])
@pytest.mark.parametrize("naming", ["one-path", "hard-link", "symlink"])
def test_an_output_naming_an_input_file_is_usage_error(argv, output, source, naming,
                                                       tmp_path, monkeypatch, capsys):
    # the write would replace the file the command reads
    monkeypatch.chdir(tmp_path)
    original = INPUTS[source].read_bytes()
    Path("input").write_bytes(original)
    target = "input" if naming == "one-path" else "output"
    if naming == "hard-link":
        os.link("input", target)
    elif naming == "symlink":
        os.symlink("input", target)
    with pytest.raises(SystemExit) as raised:
        cli.main([*argv, source, "input", output, target])
    assert raised.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[0]}: {output} and {source} name one file" in captured.err
    assert Path("input").read_bytes() == original
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted({"input", target})


def test_a_stdout_appending_to_the_config_is_usage_error(tmp_path):
    config = tmp_path / "config.json"
    original = INPUTS["--config"].read_bytes()
    config.write_bytes(original)
    with open(config, "a") as handle:
        result = subprocess.run([sys.executable, "-m", "codesign", "plan", "--config",
                                 str(config)], stdout=handle, stderr=subprocess.PIPE, text=True)
    assert result.returncode == 2
    assert "plan: stdout and --config name one file" in result.stderr
    assert config.read_bytes() == original


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", CONFIG, "--rate", "100", "--horizon", "1", "--csv"],
    ["plan", "--config", CONFIG, "--refine", "--trace-out"],
], ids=["simulate", "plan"])
def test_an_output_naming_the_redirected_stdout_is_usage_error(argv, tmp_path):
    # the command's stdout would overwrite the output before it, however
    # the file is named: /dev/stdout, or a hard link to it
    stdout = tmp_path / "stdout.txt"
    link = tmp_path / "link.txt"
    stdout.touch()
    os.link(stdout, link)
    for path in ("/dev/stdout", str(stdout), str(link)):
        with open(stdout, "w") as handle:
            result = subprocess.run([sys.executable, "-m", "codesign", *argv, path],
                                    stdout=handle, stderr=subprocess.PIPE, text=True)
        assert result.returncode == 2, path
        assert f"{argv[0]}: {argv[-1]} and stdout name one file" in result.stderr
        assert stdout.read_text() == ""
    result = codesign(*argv, str(stdout), "--out", str(link))
    assert result.returncode == 2
    assert f"{argv[0]}: {argv[-1]} and --out name one file" in result.stderr
    assert sorted(tmp_path.iterdir()) == [link, stdout]
    assert stdout.read_text() == ""
    # without the option, stdout alone is written
    with open(stdout, "w") as handle:
        assert subprocess.run([sys.executable, "-m", "codesign", *argv[:-1]],
                              stdout=handle).returncode == 0
    assert stdout.read_text() != ""
    # a stdout that is not a regular file may take both: a pipe, /dev/null
    assert codesign(*argv, "/dev/stdout").returncode == 0
    with open(os.devnull, "w") as handle:
        assert subprocess.run([sys.executable, "-m", "codesign", *argv, "/dev/stdout"],
                              stdout=handle).returncode == 0

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

    # run_lab's draws: the quadratic, then w0 as 4-byte little-endian words
    # w, each w/2**31 - 1
    rng = random.Random(7)
    obj = convergence.random_objective(rng, 16)
    eta = 0.9 * (2.0 / obj.curvature_bounds()[1])
    w = np.frombuffer(rng.randbytes(4 * 16), "<u4") * 2.0 ** -31 - 1.0
    minimizer = obj.minimizer()
    for gap in printed:
        w = convergence.split_step(obj, w, eta)
        assert gap == repr(obj.gap(w, minimizer))
    # the measured gaps stay informative below the noise floor
    assert sum(float(gap) != 0.0 for gap in printed) > 100


@pytest.mark.parametrize("seed", [0, 5, 189])
def test_fuse_check_and_lab_tables_print_the_reprs_of_their_results(tmp_path, seed):
    fuse, lab = tmp_path / "fuse.csv", tmp_path / "lab.csv"
    assert cli.main(["fuse-check", "--seed", str(seed), "--trials", "7",
                     "--out", str(fuse)]) == 0
    worst = fusion.run_equivalence_suite(seed, trials=7)
    assert fuse.read_text() == "strategy,trials,max_rel_error\n" + "".join(
        f"{strategy.value},7,{repr(err)}\n" for strategy, err in worst.items())
    assert cli.main(["convergence-lab", "--seed", str(seed), "--dim", "8", "--steps", "40",
                     "--out", str(lab)]) == 0
    rows = []
    convergence.run_lab(seed, 8, 40, rows.append)
    assert lab.read_text() == "step,gap,bound,ratio,within_bound\n" + "".join(
        f"{step},{repr(gap)},{repr(bound)},{repr(ratio)},{str(within).lower()}\n"
        for step, gap, bound, ratio, within in rows)


def test_plan_and_trace_match_golden_files(tmp_path):
    # golden files written by the per-candidate scalar planner, which the
    # vectorized grid and the prefix-sum refinement replaced
    plan, trace = tmp_path / "plan.csv", tmp_path / "trace.csv"
    assert cli.main(["plan", "--config", CONFIG, "--refine", "--trace-out", str(trace),
                     "--out", str(plan)]) == 0
    assert plan.read_bytes() == (GOLDEN / "paper_plan.csv").read_bytes()
    assert trace.read_bytes() == (GOLDEN / "paper_trace.csv").read_bytes()


def test_trace_env_var_prints_stages_and_leaves_stdout_alone(tmp_path):
    argv = ["plan", "--config", CONFIG, "--refine", "--trace-out", str(tmp_path / "trace.csv")]
    plain = codesign(*argv)
    traced = codesign(*argv, env=dict(os.environ, CODESIGN_TRACE="1"))
    assert plain.returncode == traced.returncode == 0
    assert traced.stdout == plain.stdout
    assert plain.stderr == ""
    lines = [json.loads(line) for line in traced.stderr.splitlines()]
    assert [line["stage"] for line in lines] == ["load", "evaluate", "rank", "refine", "emit"]
    assert [line["items"] for line in lines] == [14, 13 * 16, 13 * 16, 501, 13 * 16]
    assert all(line["seconds"] >= 0 for line in lines)


def test_refine_without_trace_out_skips_the_descent():
    # the descent only yields its trace, so with nowhere to write it, it
    # does not run and the table is the plain plan's
    traced = codesign("plan", "--config", CONFIG, "--refine",
                      env=dict(os.environ, CODESIGN_TRACE="1"))
    assert traced.returncode == 0
    assert traced.stdout == (GOLDEN / "paper_plan.csv").read_text()
    lines = [json.loads(line) for line in traced.stderr.splitlines()]
    assert [line["stage"] for line in lines] == ["load", "evaluate", "rank", "emit"]


def test_simulate_matches_golden_files(tmp_path):
    # golden files written by the max/min Lindley loop that the call-free
    # body replaced; at rho ~3 the backlog grows, and requests are clipped
    # at both the warmup and the horizon
    report, log = tmp_path / "sim.json", tmp_path / "requests.csv"
    assert cli.main(["simulate", "--config", CONFIG, "--rate", "9000", "--horizon", "0.03",
                     "--csv", str(log), "--out", str(report)]) == 0
    assert report.read_bytes() == (GOLDEN / "paper_simulate.json").read_bytes()
    assert log.read_bytes() == (GOLDEN / "paper_requests.csv").read_bytes()


def test_report_matches_golden_file(tmp_path):
    merged = tmp_path / "report.json"
    assert cli.main(["report", "--plan", str(GOLDEN / "paper_plan.csv"),
                     "--sim", str(GOLDEN / "paper_simulate.json"), "--out", str(merged)]) == 0
    assert merged.read_bytes() == (GOLDEN / "paper_report.json").read_bytes()


HELP_FLAGS = {
    "roofline": ["--config"],
    "cost": ["--config", "--cut", "--theta1", "--theta2"],
    "plan": ["--config", "--strict", "--refine"],
    "fuse-check": ["--seed"],
    "convergence-lab": ["--seed", "--dim", "--steps"],
    "simulate": ["--config", "--rate", "--horizon", "--seed", "--strict"],
    "report": ["--plan", "--sim"],
}


@pytest.mark.parametrize("command,flags", HELP_FLAGS.items())
def test_help_documents_flags(command, flags):
    result = codesign(command, "--help")
    assert result.returncode == 0
    for flag in flags:
        assert flag in result.stdout


UNWRITABLE_OUTPUTS = {
    "plan --out": ["plan", "--config", CONFIG, "--out", "/nonexistent/x.csv"],
    "plan --trace-out": ["plan", "--refine", "--config", CONFIG,
                         "--trace-out", "/nonexistent/t.csv"],
    "simulate --csv": ["simulate", "--config", CONFIG, "--rate", "100", "--horizon", "1",
                       "--csv", "{dir}"],
    "roofline --out": ["roofline", "--config", CONFIG, "--out", "{dir}"],
    "cost --out": ["cost", "--config", CONFIG, "--cut", "5", "--theta1", "conv3",
                   "--theta2", "conv3", "--out", "{dir}"],
    "report --out": ["report", "--plan", str(GOLDEN / "paper_plan.csv"), "--out", "{dir}"],
}


@pytest.mark.parametrize("argv", UNWRITABLE_OUTPUTS.values(), ids=UNWRITABLE_OUTPUTS)
def test_unwritable_output_is_named(tmp_path, argv):
    result = codesign(*[arg.format(dir=tmp_path) for arg in argv])
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert re.match(r"^[A-Za-z]+: ", result.stderr)
    assert result.stderr.startswith("UnwritableOutput: ")


# commands that write two files, the second path a directory
PARTIAL_OUTPUTS = {
    "plan --trace-out --out": ["plan", "--refine", "--config", CONFIG,
                               "--trace-out", "{first}", "--out", "{dir}"],
    "simulate --csv --out": ["simulate", "--config", CONFIG, "--rate", "100", "--horizon", "1",
                             "--csv", "{first}", "--out", "{dir}"],
}


@pytest.mark.parametrize("argv", PARTIAL_OUTPUTS.values(), ids=PARTIAL_OUTPUTS)
def test_failed_second_write_leaves_no_first_file(tmp_path, argv):
    first = tmp_path / "first.csv"
    result = codesign(*[arg.format(first=first, dir=tmp_path) for arg in argv])
    assert result.returncode == 1
    assert re.match(r"^[A-Za-z]+: ", result.stderr)
    assert result.stderr.startswith(f"UnwritableOutput: {tmp_path}: ")
    assert not first.exists()


def _limit_file_size():
    # CPython ignores SIGXFSZ, so a write past the limit fails with EFBIG
    resource.setrlimit(resource.RLIMIT_FSIZE,
                       (4096, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))


# commands whose one output file outgrows a 4096-byte file size limit
OVERSIZED_OUTPUTS = {
    "plan --out": ["plan", "--config", CONFIG, "--out", "{file}"],
    "simulate --csv": ["simulate", "--config", CONFIG, "--rate", "9000", "--horizon", "0.03",
                       "--csv", "{file}"],
}


@pytest.mark.parametrize("argv", OVERSIZED_OUTPUTS.values(), ids=OVERSIZED_OUTPUTS)
def test_write_that_fails_partway_leaves_no_file(tmp_path, argv):
    big = tmp_path / "big.csv"
    result = subprocess.run([sys.executable, "-m", "codesign",
                             *[arg.format(file=big) for arg in argv]],
                            capture_output=True, text=True, preexec_fn=_limit_file_size)
    assert result.returncode == 1
    assert result.stderr == f"UnwritableOutput: {big}: File too large\n"
    assert result.stdout == ""
    assert not big.exists()


@pytest.mark.parametrize("argv", [
    ["fuse-check", "--trials", "0"],
    ["fuse-check", "--trials", "-1"],
    ["fuse-check", "--seed", "-1"],
    ["convergence-lab", "--steps", "0"],
    ["convergence-lab", "--steps", "-3"],
    ["convergence-lab", "--seed", "-1"],
    ["convergence-lab", "--dim", "-1"],
    ["convergence-lab", "--dim", "1"],
    # random.Random seeds with abs(), so -1 would silently run as seed 1
    ["simulate", "--config", CONFIG, "--rate", "100", "--horizon", "1", "--seed", "-1"],
    # past these the lab's memory, not its checks, would end the run
    ["convergence-lab", "--dim", "1025"],
    ["convergence-lab", "--steps", "100001"],
])
def test_vacuous_counts_and_negative_seeds_are_usage_errors(argv):
    result = codesign(*argv)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert f"argument {argv[-2]}: expected an integer >= " in result.stderr
