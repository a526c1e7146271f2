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
from conftest import (
    COMMANDS, CONFIG, FIXTURES, FULL, GOLDEN, PLAN_CSV, SIM_JSON, argv_of, codesign, config_file,
    main_stdout, paper, run_main,
)


def test_unknown_subcommand_is_usage_error():
    assert run_main("frobnicate")[0] == 2


def test_outputs_are_byte_identical_across_runs():
    # two interpreters, each with its own hash seed
    for argv in (COMMANDS["plan"], argv_of("simulate", "--horizon", "20", "--seed", "3")):
        first, second = (codesign(*argv, env=dict(os.environ, PYTHONHASHSEED=seed))
                         for seed in ("0", "1"))
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
    # the mean is math.fsum's, correctly rounded: 3.10 and 3.11's sum
    # printed 2.3296791956657037
    long = main_stdout(*argv_of("simulate", "--rate", "20000", "--horizon", "5", "--seed", "3"))
    assert '"mean": 2.3296791956656926,' in long


def test_roofline_csv():
    result = main_stdout(*COMMANDS["roofline"])
    assert result.encode() == (GOLDEN / "paper_roofline.csv").read_bytes()
    lines = result.splitlines()
    assert lines[0] == "model,device,intensity,balance,class"
    assert len(lines) == 3  # two devices in the fixture
    assert lines[1].split(",")[1] == "jetson-nano"
    assert lines[1].split(",")[4] in ("CC", "MC")


def test_cost_json():
    result = main_stdout(*argv_of("cost", "--theta2", "conv3+skip+conv1"))
    assert result.encode() == (GOLDEN / "paper_cost.json").read_bytes()
    payload = json.loads(result)
    assert payload["schema_version"] == 1
    assert payload["t_total"] == pytest.approx(
        payload["t1"] + payload["t2"] + payload["t3"])
    assert payload["L"] == pytest.approx(
        payload["t_total"] + 0.01 * payload["dA"])  # lambda1 = 0.01 in the fixture


def test_cost_rejects_bad_cut():
    code, out, err = run_main(*argv_of("cost", "--cut", "99"))
    assert code == 1
    assert err.startswith("DegenerateSplit")


def test_simulate_rejects_infinite_horizon():
    result = codesign(*argv_of("simulate", "--horizon", "inf"), timeout=60)
    assert result.returncode == 1
    assert result.stderr.startswith("InvariantViolation:")


def test_simulate_rejects_unbounded_arrival_count():
    result = codesign(*argv_of("simulate", "--rate", "1e20"), timeout=60)
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
        small, large = (_peak_rss_mb(*argv_of("simulate", "--rate", "2000", "--horizon", horizon,
                                              "--out", os.devnull, *extra))
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
                  for plan in (PLAN_CSV, large))
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
    result = codesign(*argv_of("simulate", "--rate", "1e7", "--horizon", "0.1000001",
                               "--csv", str(log), "--out", str(tmp_path)), timeout=60)
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
        run_main(*argv_of("simulate", "--horizon", "10", "--csv", str(log)))
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
    code, out, err = run_main("plan", "--config", config_file(tmp_path, (path, value)))
    assert (code, out) == (1, "")
    assert err.startswith(f"InvalidConfig: {named} ")


@pytest.mark.parametrize("command", ["plan", "roofline"])
def test_third_device_is_named(tmp_path, command):
    # a plan splits the model across two devices: plan would ignore a third
    # device and roofline would print a row for it, so the config is refused
    devices = [json.loads((FIXTURES / f"jetson_{name}.json").read_text())
               for name in ("nano", "nx", "tx2")]
    config = config_file(tmp_path, (["devices"], devices))
    assert run_main(command, "--config", config) == (
        1, "", "InvariantViolation: devices lists 3 devices; "
        "a plan splits the model across exactly 2\n")


@pytest.mark.parametrize("command, document, message", [
    ("plan", {"devices": []}, "MissingField: link"),
    ("roofline", dict(paper(), devices=paper()["devices"][:1]),
     "MissingField: devices (need at least a terminal and an edge device)"),
], ids=["no-link", "one-device"])
def test_a_config_missing_a_part_is_named(tmp_path, command, document, message):
    # every key is read before the devices are counted
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    assert run_main(command, "--config", str(config)) == (1, "", message + "\n")


def test_misspelt_key_is_named(tmp_path):
    # each would fall back to its default (1.0 and 0.0) if it were ignored
    config = config_file(tmp_path, (["devices", 0, "utilisation"], 0.25),
                         (["link", "fixed_latancy"], 0.5))
    assert run_main(*argv_of("cost", "--config", config)) == (
        1, "", "InvalidConfig: devices[0].utilisation is not a config key\n")


@pytest.mark.parametrize("changes, quantity", [
    ([(["link", "bandwidth"], 1e-320)], "t3"),
    ([(["devices", 0, "peak_compute"], 1e-320)], "t1"),
    ([(["lambda1"], 1e308)], "lagrangian"),
    # utilization * peak_compute underflows to a rate of 0
    ([(["devices", 0, "peak_compute"], 5e-324), (["devices", 0, "utilization"], 0.5)], "t1"),
])
# each row: a command and the changes argv_of makes to its argv
@pytest.mark.parametrize("command", [["plan"], ["cost"], ["simulate"]])
def test_overflowing_cost_is_named(tmp_path, changes, quantity, command):
    config = config_file(tmp_path, *changes)
    code, out, err = run_main(*argv_of(*command, "--config", config))
    assert (code, out) == (1, "")
    # one line: the named error (a numpy overflow warning fails the test)
    assert err.startswith(f"InvariantViolation: {quantity} is inf at cut ")
    assert err.count("\n") == 1


def _every_layer_cost(*keys, value=1e308):
    """Changes that set each of ``keys`` to ``value`` for every strategy of
    each of paper.json's 14 layers."""
    return [(["model", "layers", i, key, s], value) for i in range(14) for key in keys
            for s in ("conv3", "conv3+skip", "conv3+conv1", "conv3+skip+conv1")]


def test_overflowed_intensity_is_named_alike_by_every_command(tmp_path):
    # every FLOP and byte sum of two or more layers is inf, so the segment
    # intensities are inf/inf
    config = config_file(tmp_path, *_every_layer_cost("flops_by_strategy",
                                                      "bytes_by_strategy"))
    for command in (["plan"], ["cost", "--cut", "1"], ["simulate"]):
        code, out, err = run_main(*argv_of(*command, "--config", config))
        assert (code, out) == (1, "")
        assert err.startswith(
            "InvariantViolation: t2 is inf at cut 1, theta1 conv3, theta2 conv3; ")


def _two_layers(flops, data):
    """paper.json's first two layers, not fusible, at ``flops`` FLOPs and
    ``data`` bytes each under every strategy."""
    layers = paper()["model"]["layers"][:2]
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
    ["plan"], ["cost", "--cut", "1"], ["cost", "--cut", "1", "--theta2", "conv3+skip+conv1"],
])
def test_overflowing_split_is_named(tmp_path, flops, data, split, unit, command):
    # each sum is finite but head + tail is inf, so c1 / (c1 + c2) would
    # print 0.0 for a split of 0.5, and an accuracy loss from one side only
    config = config_file(tmp_path, *_two_layers(flops, data))
    assert run_main(*argv_of(*command, "--config", config)) == (
        1, "", f"InvariantViolation: {split} divides by an inf {unit} total at "
        "cut 1; the config's magnitudes overflow float arithmetic\n")


@pytest.mark.parametrize("changes, quantity", [
    (_every_layer_cost("flops_by_strategy"), "intensity"),
    (_every_layer_cost("bytes_by_strategy"), "bytes"),
    ([(["devices", 0, "peak_compute"], 1e308), (["devices", 0, "mem_bandwidth"], 1e-10)],
     "balance"),
])
def test_roofline_overflow_is_named(tmp_path, changes, quantity):
    code, out, err = run_main("roofline", "--config", config_file(tmp_path, *changes))
    assert (code, out) == (1, "")
    assert err.startswith(f"InvariantViolation: {quantity} is inf on jetson-nano; ")
    assert err.count("\n") == 1


def test_plan_quotes_the_model_name_once(tmp_path):
    config = config_file(tmp_path, (["model", "name"], 'a,"b'))
    plan = tmp_path / "plan.csv"
    assert run_main("plan", "--config", config, "--out", str(plan)) == (0, "", "")
    golden = Path(PLAN_CSV).read_text().splitlines(keepends=True)
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
def test_a_line_break_in_the_model_name_reads_back(tmp_path, key, name, refused):
    # csv quotes the name, and the table is read with newline="", so only
    # an unquoted \r or \n ends a row.  csv.writer quotes a lone \r on
    # Python 3.13 only and cannot write a NUL on 3.10, and UTF-8 cannot
    # encode a lone surrogate, so a name holding one is refused at load.
    config = config_file(tmp_path, (key, name))
    plan = tmp_path / "plan.csv"
    if refused is None:
        assert run_main("plan", "--config", config, "--out", str(plan)) == (0, "", "")
        winner, count = commands.read_plan_csv(plan)
        assert (winner["model"], count) == (name, 13 * 16)
        return
    for command in ("plan", "roofline"):
        assert run_main(command, "--config", config, "--out", str(plan)) == (
            1, "", f"InvalidConfig: {refused}\n")
        assert not plan.exists()


# a locale whose preferred encoding is ASCII
C_LOCALE = dict(os.environ, PYTHONCOERCECLOCALE="0", LC_ALL="C", PYTHONUTF8="0")


@pytest.mark.parametrize("ensure_ascii", [False, True], ids=["utf-8", "escaped"])
def test_every_file_and_stdout_is_utf8_in_any_locale(tmp_path, ensure_ascii):
    raw = paper()
    raw["model"]["name"] = "repvgg-mini-\u00e9"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw, ensure_ascii=ensure_ascii), encoding="utf-8")

    def expected(golden):
        return (GOLDEN / golden).read_text().replace(
            "repvgg-mini,", "repvgg-mini-\u00e9,").encode()

    plan = tmp_path / "plan.csv"
    for env in (None, C_LOCALE):
        for command, golden in (("plan", "paper_plan.csv"), ("roofline", "paper_roofline.csv")):
            result = codesign(command, "--config", str(config), env=env, text=False)
            assert (result.returncode, result.stderr, result.stdout) == (0, b"", expected(golden))
        result = codesign("plan", "--config", str(config), "--out", str(plan), env=env, text=False)
        assert (result.returncode, result.stderr, result.stdout) == (0, b"", b"")
        assert plan.read_bytes() == expected("paper_plan.csv")


def test_stderr_is_utf8_in_any_locale(tmp_path):
    config = config_file(tmp_path, (["model", "name"], "repvgg-mini-\u00e9"))
    plan = tmp_path / "plan.csv"
    assert run_main("plan", "--config", config, "--out", str(plan)) == (0, "", "")
    for env in (None, C_LOCALE):
        result = codesign("report", "--plan", str(plan), "--sim", SIM_JSON, env=env, text=False)
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr == ("SchemaMismatch: plan is for model 'repvgg-mini-\u00e9' but "
                                 "simulation is for 'repvgg-mini'\n").encode()


# every output option of a command that reads a file, by "command option":
# the command and any flag the option needs, as argv_of reads them
OUTPUTS = {"plan --out": ["plan"], "plan --trace-out": ["plan", "--refine"],
           "simulate --csv": ["simulate"], "simulate --out": ["simulate"],
           "roofline --out": ["roofline"], "cost --out": ["cost"], "report --out": ["report"]}


def _writing(output: str, path: str, *changes: str) -> list[str]:
    """The argv of ``OUTPUTS[output]`` writing that output to ``path``, then
    changed by ``changes`` as ``argv_of`` reads them."""
    return argv_of(*OUTPUTS[output], output.split()[1], path, *changes)


@pytest.mark.parametrize("output", OUTPUTS)
def test_an_empty_output_path_is_a_path(tmp_path, monkeypatch, output):
    # the empty path names no file
    monkeypatch.chdir(tmp_path)
    assert run_main(*_writing(output, "")) == (
        1, "", "UnwritableOutput: : No such file or directory\n")
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
    config = config_file(tmp_path, *[(["model", "layers", i, "output_activation_bytes"], 0.0)
                                     for i in range(14)])
    plan_csv, sim_json = tmp_path / "plan.csv", tmp_path / "sim.json"
    assert run_main("plan", "--config", config, "--out", str(plan_csv)) == (0, "", "")
    assert commands.read_plan_csv(plan_csv)[0]["t3"] == "0.0"
    for cut in (["--cut", "5"], []):    # the winner's simulation last, for report
        assert run_main(*argv_of("simulate", "--config", config, *cut,
                                 "--out", str(sim_json))) == (0, "", "")
        assert json.loads(sim_json.read_text())["service_times"]["t3"] == 0.0
    report = main_stdout("report", "--plan", str(plan_csv), "--sim", str(sim_json))
    assert json.loads(report)["simulation"]["completed"] > 0


def test_report_without_sim_is_analytical_only(tmp_path):
    plan_csv = tmp_path / "plan.csv"
    run_main(*argv_of("plan", "--out", str(plan_csv)))
    doc = json.loads(run_main("report", "--plan", str(plan_csv))[1])
    assert doc["analytical_only"] is True
    assert doc["simulation"] is None


def test_report_rejects_an_empty_sim(tmp_path):
    # leaving out --sim is the one way to ask for an analytical-only report
    empty = tmp_path / "sim.json"
    empty.write_text("{}")
    assert run_main(*argv_of("report", "--sim", str(empty))) == (
        1, "", f"SchemaMismatch: {empty} is not a simulation report\n")


def test_report_model_mismatch(tmp_path):
    plan_csv = tmp_path / "plan.csv"
    run_main(*argv_of("plan", "--out", str(plan_csv)))
    sim_json = tmp_path / "sim.json"
    sim = json.loads(Path(SIM_JSON).read_text())
    sim_json.write_text(json.dumps(dict(sim, model="someone-else")))
    code, out, err = run_main("report", "--plan", str(plan_csv), "--sim", str(sim_json))
    assert code == 1
    assert err.startswith("SchemaMismatch: plan is for model 'repvgg-mini'")


def test_report_rejects_a_simulation_of_another_plan(tmp_path):
    # paper.json's winner is cut 10 with the full structure on both sides
    sim_json = tmp_path / "sim.json"
    assert run_main(*argv_of("simulate", "--cut", "3", "--theta1", "conv3",
                             "--out", str(sim_json))) == (0, "", "")
    assert run_main(*argv_of("report", "--sim", str(sim_json))) == (
        1, "", f"SchemaMismatch: {sim_json}: simulation is of plan "
        '{"cut": 3, "theta1": "conv3", "theta2": "conv3+skip+conv1"} but the winning plan is '
        '{"cut": 10, "theta1": "conv3+skip+conv1", "theta2": "conv3+skip+conv1"}\n')


def test_report_rejects_a_simulation_without_its_plan(tmp_path):
    sim = json.loads(Path(SIM_JSON).read_text())
    del sim["plan"]
    sim_json = tmp_path / "sim.json"
    sim_json.write_text(json.dumps(sim))
    assert run_main(*argv_of("report", "--sim", str(sim_json))) == (
        1, "", f"SchemaMismatch: {sim_json} is not a simulation report\n")


def test_report_rejects_sim_that_is_not_an_object(tmp_path):
    plan_csv = tmp_path / "plan.csv"
    run_main(*argv_of("plan", "--out", str(plan_csv)))
    sim_json = tmp_path / "sim.json"
    sim_json.write_text("5")
    code, out, err = run_main("report", "--plan", str(plan_csv), "--sim", str(sim_json))
    assert code == 1
    assert err.startswith("SchemaMismatch")


@pytest.mark.parametrize("document", ["0", "null", "[]", '""', "false"])
def test_report_rejects_falsy_sim_that_is_not_an_object(tmp_path, document):
    sim_json = tmp_path / "sim.json"
    sim_json.write_text(document)
    assert run_main(*argv_of("report", "--sim", str(sim_json))) == (
        1, "", f"SchemaMismatch: {sim_json} is not a simulation report\n")


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_report_rejects_a_sim_number_that_is_not_finite(tmp_path, number):
    # json reads each of these (1e400 as inf), but printed back none is a
    # finite number
    sim_json = tmp_path / "sim.json"
    sim_json.write_text(f'{{"model": "repvgg-mini", "throughput": {number}}}')
    assert run_main(*argv_of("report", "--sim", str(sim_json))) == (
        1, "", f"SchemaMismatch: {sim_json}: {number} is not a finite number\n")


@pytest.mark.parametrize("command, option, source, key", [
    ("plan", "--config", CONFIG, "lambda1"), ("report", "--sim", SIM_JSON, "horizon"),
], ids=["config", "sim"])
def test_a_repeated_key_is_named(tmp_path, command, option, source, key):
    # json keeps the last of a repeated key, so the first value would be
    # dropped as silently as a misspelt key's
    path = tmp_path / "dup.json"
    path.write_text(Path(source).read_text().replace(f'"{key}": ', f'"{key}": 5.0, "{key}": ', 1))
    assert run_main(*argv_of(command, option, str(path))) == (
        1, "", f"InvalidConfig: {path}: duplicate key '{key}'\n")


@pytest.mark.parametrize("argv", [COMMANDS["fuse-check"], COMMANDS["convergence-lab"]],
                         ids=lambda a: a[0])
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

# every command that reads a file, with the option that names it
INPUT_FILE_COMMANDS = [("plan", "--config"), ("cost", "--config"), ("simulate", "--config"),
                       ("roofline", "--config"), ("report", "--sim"), ("report", "--plan")]


@pytest.mark.parametrize("command", INPUT_FILE_COMMANDS)
def test_undecodable_input_file_is_named(tmp_path, command):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(NOT_UTF8)
    code, out, err = run_main(*argv_of(*command, str(bad)))
    assert (code, out) == (1, "")
    assert err.startswith(f"InvalidConfig: {bad}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_report_names_a_plan_that_stops_decoding_after_its_first_read(tmp_path):
    # the table is decoded as its rows are read: a bad byte in its last row,
    # past the first read of the file, is named as one in its first is
    header, *body = (GOLDEN / "paper_plan.csv").read_bytes().splitlines(keepends=True)
    plan = tmp_path / "plan.csv"
    plan.write_bytes(header + b"".join(body) * 70 + NOT_UTF8 + b"\n")
    code, out, err = run_main("report", "--plan", str(plan))
    assert (code, out) == (1, "")
    assert re.fullmatch(f"InvalidConfig: {re.escape(str(plan))}: 'utf-8' codec can't decode "
                        f"byte 0xff in position [0-9]+: invalid start byte\n", err)


@pytest.mark.parametrize("command", INPUT_FILE_COMMANDS,
                         ids=lambda command: f"{command[0]} {command[-1]}")
@pytest.mark.parametrize("content, reason", [
    (None, "No such file or directory"),
    (NOT_UTF8, "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["missing", "undecodable"])
def test_input_file_error_names_the_path_as_typed(tmp_path, monkeypatch, command, content,
                                                  reason):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inputs").mkdir()
    if content is not None:
        (tmp_path / "inputs" / "file.json").write_bytes(content)
    assert run_main(*argv_of(*command, "./inputs//file.json")) == (
        1, "", f"InvalidConfig: ./inputs//file.json: {reason}\n")


@pytest.mark.parametrize("option, document, message", [
    ("--config", "[", "InvalidConfig: {}: Expecting value: line 1 column 2 (char 1)"),
    ("--sim", "[", "InvalidConfig: {}: Expecting value: line 1 column 2 (char 1)"),
    ("--sim", '{"throughput": NaN}', "SchemaMismatch: {}: NaN is not a finite number"),
    ("--plan", "x\n", "SchemaMismatch: {} is not a plan table (expected columns "
                      f"{commands.PLAN_COLUMNS})"),
], ids=["config-not-json", "sim-not-json", "sim-nan", "plan-not-a-table"])
def test_every_error_about_a_file_names_it_as_typed(tmp_path, monkeypatch, option, document,
                                                    message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inputs").mkdir()
    (tmp_path / "inputs" / "file.json").write_text(document)
    command = "plan" if option == "--config" else "report"
    assert run_main(*argv_of(command, option, "./inputs//file.json")) == (
        1, "", message.format("./inputs//file.json") + "\n")


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
    code, out, err = run_main("report", "--plan", str(plan_csv))
    assert (code, out) == (1, "")
    assert err.startswith(f"SchemaMismatch: {plan_csv}: the winning row's {column} is ")
    assert err.count("\n") == 1


def test_report_names_a_missing_model_under_a_reordered_header(tmp_path):
    # with the model column last, a short winner lacks the model first
    _, *rest = (GOLDEN / "paper_plan.csv").read_text().splitlines()[1].split(",")
    plan_csv = tmp_path / "plan.csv"
    plan_csv.write_text(f"{','.join(commands.PLAN_COLUMNS[1:])},model\n{','.join(rest)}\n")
    assert run_main("report", "--plan", str(plan_csv)) == (
        1, "", f"SchemaMismatch: {plan_csv}: the winning row's model is None\n")


@pytest.mark.parametrize("columns, fields, column", [
    (",cut", ",99", "cut"), (",extra,extra", ",1,2", "extra"),
], ids=["plan-column", "extra-column"])
def test_report_names_a_repeated_plan_column(tmp_path, columns, fields, column):
    # csv.DictReader keys each row by the header, so a repeated column's
    # last field would stand for the first, as a repeated JSON key's would
    header, *rows = (GOLDEN / "paper_plan.csv").read_text().splitlines()
    plan_csv = tmp_path / "plan.csv"
    plan_csv.write_text("\n".join([header + columns, *(row + fields for row in rows)]) + "\n")
    for sim in ([], ["--sim", SIM_JSON]):
        assert run_main("report", "--plan", str(plan_csv), *sim) == (
            1, "", f"SchemaMismatch: {plan_csv}: the header repeats column '{column}'\n")


@pytest.mark.parametrize("edit, line", [
    (lambda rows: rows + ["junk"], 210),                     # a short later row
    (lambda rows: rows[:-1] + [rows[-1] + ",extra"], 209),   # a long later row
    (lambda rows: [rows[0] + ",extra", *rows[1:]], 2),       # a long winner
], ids=["short-row", "long-row", "long-winner"])
def test_report_names_a_row_that_does_not_hold_the_headers_fields(tmp_path, edit, line):
    header, *rows = (GOLDEN / "paper_plan.csv").read_text().splitlines()
    plan_csv = tmp_path / "plan.csv"
    plan_csv.write_text("\n".join([header, *edit(rows)]) + "\n")
    assert run_main("report", "--plan", str(plan_csv)) == (
        1, "", f"SchemaMismatch: {plan_csv}: line {line} does not hold the header's 12 fields\n")


def test_report_names_an_oversized_plan_field(tmp_path):
    header, *rows = (GOLDEN / "paper_plan.csv").read_text().splitlines()
    plan_csv = tmp_path / "plan.csv"
    model = "m" * 200_000  # beyond the csv module's field size limit
    for row in (0, -1):     # the winner, and a row that is only counted
        oversized = rows.copy()
        oversized[row] = ",".join([model, *rows[row].split(",")[1:]])
        plan_csv.write_text("\n".join([header, *oversized]) + "\n")
        code, out, err = run_main("report", "--plan", str(plan_csv))
        assert (code, out) == (1, "")
        assert err.startswith(f"SchemaMismatch: {plan_csv}: field larger than")
        assert err.count("\n") == 1


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
    assert parser.parse_args(COMMANDS["roofline"]).theta == FULL_STRUCTURE.value


@pytest.mark.parametrize("flags", [["--theta1", "conv3"], ["--theta2", "conv3+skip"]])
def test_simulate_strategy_without_cut_is_usage_error(flags):
    code, out, err = run_main(*COMMANDS["simulate"], *flags)
    assert (code, out) == (2, "")
    assert "--theta1 and --theta2 need --cut" in err


def test_simulate_cut_defaults_to_full_structure():
    result = main_stdout(*argv_of("simulate", "--cut", "3", "--theta1", "conv3"))
    assert json.loads(result)["plan"] == {
        "cut": 3, "theta1": "conv3", "theta2": "conv3+skip+conv1"}


def test_simulate_strict_with_cut_is_usage_error():
    code, out, err = run_main(*argv_of("simulate", "--strict", "--cut", "3"))
    assert (code, out) == (2, "")
    assert "simulate: --strict chooses among the grid's candidates; --cut names one" in err


def test_simulate_strict_fails_where_plan_strict_does():
    # no candidate on paper.json is feasible on both devices
    assert run_main(*argv_of("simulate", "--strict")) == (
        1, "", "NoFeasiblePlan: every candidate violates an intensity requirement\n")


def paper_variant(index: int) -> dict:
    """Draw ``index`` (from 0) of paper.json's variants under
    ``random.Random(0)``: each device's peak (1e9-1e13 FLOP/s) and memory
    bandwidth (1e9-1e12 B/s), then the link bandwidth (1e5-1e9 B/s) and
    lambda1 (1e-6-1), all log-uniform.  Of the first 3,000, 1,319 have a
    plan feasible on both devices, and in 390 of them it is not the
    unrestricted winner."""
    rng = random.Random(0)
    raw = paper()

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
def test_strict_plan_then_strict_simulate_then_report(tmp_path, index):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(paper_variant(index)))
    plan, sim, loose = tmp_path / "plan.csv", tmp_path / "sim.json", tmp_path / "loose.json"
    assert run_main("plan", "--strict", "--config", str(config), "--out", str(plan)) == (0, "", "")
    for strict, out in ((["--strict"], sim), ([], loose)):
        assert run_main(*argv_of("simulate", "--config", str(config), *strict,
                                 "--out", str(out))) == (0, "", "")
    assert json.loads(sim.read_text())["plan"] != json.loads(loose.read_text())["plan"]
    report = main_stdout("report", "--plan", str(plan), "--sim", str(sim))
    assert json.loads(report)["analytical_only"] is False
    # the unrestricted winner is another plan, which report names
    code, out, err = run_main("report", "--plan", str(plan), "--sim", str(loose))
    assert (code, out) == (1, "")
    assert err.startswith(f"SchemaMismatch: {loose}: simulation is of plan")


def test_simulate_cut_runs_the_candidate_cost_prices():
    # every candidate of paper.json, under each way to name it: a strategy
    # left out is the full structure
    names = [s.value for s in FusionStrategy]
    for cut in range(1, 14):
        for theta1 in names:
            for theta2 in names:
                cost = json.loads(main_stdout(*argv_of("cost", "--cut", str(cut),
                                                       "--theta1", theta1, "--theta2", theta2)))
                ways1 = [["--theta1", theta1]] + [[]] * (theta1 == FULL.value)
                ways2 = [["--theta2", theta2]] + [[]] * (theta2 == FULL.value)
                for flags in (a + b for a in ways1 for b in ways2):
                    sim = json.loads(main_stdout(*argv_of("simulate", "--cut", str(cut), *flags)))
                    assert sim["plan"] == {"cut": cut, "theta1": theta1, "theta2": theta2}
                    assert sim["service_times"] == {"t1": cost["t1"], "t3": cost["t3"],
                                                    "t2": cost["t2"]}


def test_trace_out_without_refine_is_usage_error(tmp_path):
    trace = tmp_path / "trace.csv"
    code, out, err = run_main(*argv_of("plan", "--trace-out", str(trace)))
    assert (code, out) == (2, "")
    assert "--trace-out needs --refine" in err
    assert not trace.exists()


@pytest.mark.parametrize("argv, message", [
    (argv_of("simulate", "--csv", "same.json", "--out", "same.json"),
     "simulate: --csv and --out name one file"),
    (argv_of("plan", "--refine", "--trace-out", "same.csv", "--out", "./same.csv"),
     "plan: --trace-out and --out name one file"),
], ids=["simulate", "plan"])
def test_two_outputs_naming_one_file_is_usage_error(argv, message, tmp_path, monkeypatch):
    # the second output would overwrite the first; a device may take both
    monkeypatch.chdir(tmp_path)
    code, out, err = run_main(*argv)
    assert (code, out) == (2, "")
    assert message in err
    assert list(tmp_path.iterdir()) == []
    devnull = [os.devnull if arg.endswith(("same.json", "same.csv")) else arg for arg in argv]
    assert run_main(*devnull) == (0, "", "")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (argv_of("simulate", "--csv", "first", "--out", "second"),
     "simulate: --csv and --out name one file"),
    (argv_of("plan", "--refine", "--trace-out", "first", "--out", "second"),
     "plan: --trace-out and --out name one file"),
], ids=["simulate", "plan"])
@pytest.mark.parametrize("link, target", [("first", "second"), ("second", "first")])
def test_an_output_through_a_dangling_symlink_to_the_other_is_usage_error(
        argv, message, link, target, tmp_path, monkeypatch):
    # the link does not resolve yet, but the first write would create its
    # target, and the second write overwrite it
    monkeypatch.chdir(tmp_path)
    os.symlink(target, link)
    code, out, err = run_main(*argv)
    assert (code, out) == (2, "")
    assert message in err
    assert list(tmp_path.iterdir()) == [tmp_path / link]


# the file each input option of a command reads
INPUTS = {"--config": CONFIG, "--plan": PLAN_CSV, "--sim": SIM_JSON}


# every output option of a command that reads a file, with each input option
@pytest.mark.parametrize("output, source", [
    ("plan --out", "--config"), ("plan --trace-out", "--config"), ("cost --out", "--config"),
    ("roofline --out", "--config"), ("simulate --out", "--config"),
    ("simulate --csv", "--config"), ("report --out", "--plan"), ("report --out", "--sim"),
], ids=["plan-out", "plan-trace-out", "cost-out", "roofline-out", "simulate-out",
        "simulate-csv", "report-out-plan", "report-out-sim"])
@pytest.mark.parametrize("naming", ["one-path", "hard-link", "symlink"])
def test_an_output_naming_an_input_file_is_usage_error(output, source, naming, tmp_path,
                                                       monkeypatch):
    # the write would replace the file the command reads
    monkeypatch.chdir(tmp_path)
    original = Path(INPUTS[source]).read_bytes()
    Path("input").write_bytes(original)
    target = "input" if naming == "one-path" else "output"
    if naming == "hard-link":
        os.link("input", target)
    elif naming == "symlink":
        os.symlink("input", target)
    command, option = output.split()
    code, out, err = run_main(*argv_of(*OUTPUTS[output], source, "input", option, target))
    assert (code, out) == (2, "")
    assert f"{command}: {option} and {source} name one file" in err
    assert Path("input").read_bytes() == original
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted({"input", target})


def test_a_stdout_appending_to_the_config_is_usage_error(tmp_path):
    config = tmp_path / "config.json"
    original = Path(CONFIG).read_bytes()
    config.write_bytes(original)
    with open(config, "a") as handle:
        result = codesign("plan", "--config", str(config), stdout=handle)
    assert result.returncode == 2
    assert "plan: stdout and --config name one file" in result.stderr
    assert config.read_bytes() == original


@pytest.mark.parametrize("argv", [
    [*COMMANDS["simulate"], "--csv"], [*COMMANDS["plan"], "--refine", "--trace-out"],
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
            result = codesign(*argv, path, stdout=handle)
        assert result.returncode == 2, path
        assert f"{argv[0]}: {argv[-1]} and stdout name one file" in result.stderr
        assert stdout.read_text() == ""
    code, out, err = run_main(*argv, str(stdout), "--out", str(link))
    assert (code, out) == (2, "")
    assert f"{argv[0]}: {argv[-1]} and --out name one file" in err
    assert sorted(tmp_path.iterdir()) == [link, stdout]
    assert stdout.read_text() == ""
    # without the option, stdout alone is written
    with open(stdout, "w") as handle:
        assert codesign(*argv[:-1], stdout=handle).returncode == 0
    assert stdout.read_text() != ""
    # a stdout that is not a regular file may take both: a pipe, /dev/null
    assert codesign(*argv, "/dev/stdout").returncode == 0
    with open(os.devnull, "w") as handle:
        assert codesign(*argv, "/dev/stdout", stdout=handle).returncode == 0


def test_plan_strict_and_refine_flags(tmp_path):
    trace = tmp_path / "trace.csv"
    assert run_main(*argv_of("plan", "--refine", "--trace-out", str(trace)))[0] == 0
    assert trace.read_text().splitlines()[0] == "iteration,lambda,t_total"
    # strict mode on this fixture: the nx-side segment never reaches its
    # balance point, so everything is filtered out
    code, out, err = run_main(*argv_of("plan", "--strict"))
    assert code == 1
    assert err.startswith("NoFeasiblePlan")


def test_fuse_check_output():
    # over 300 seeds the worst error was 2.7e-15
    for argv in (["--seed", "9", "--trials", "5"], ["--seed", "7"]):
        lines = main_stdout("fuse-check", *argv).splitlines()
        assert lines[0] == "strategy,trials,max_rel_error"
        assert len(lines) == 5
        for line in lines[1:]:
            assert float(line.split(",")[2]) < 1e-9


def test_convergence_lab_output():
    code, out, err = run_main("convergence-lab", "--seed", "4", "--dim", "8", "--steps", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "step,gap,bound,ratio,within_bound"
    assert len(lines) == 13
    assert "violated_at=None" in err


def test_convergence_lab_prints_measured_gaps():
    code, out, err = run_main("convergence-lab", "--seed", "7")
    assert code == 0
    printed = [row.split(",")[1] for row in out.splitlines()[1:]]
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
    assert run_main("fuse-check", "--seed", str(seed), "--trials", "7",
                    "--out", str(fuse)) == (0, "", "")
    worst = fusion.run_equivalence_suite(seed, trials=7)
    assert fuse.read_text() == "strategy,trials,max_rel_error\n" + "".join(
        f"{strategy.value},7,{repr(err)}\n" for strategy, err in worst.items())
    assert run_main("convergence-lab", "--seed", str(seed), "--dim", "8", "--steps", "40",
                    "--out", str(lab))[:2] == (0, "")
    rows = []
    convergence.run_lab(seed, 8, 40, rows.append)
    assert lab.read_text() == "step,gap,bound,ratio,within_bound\n" + "".join(
        f"{step},{repr(gap)},{repr(bound)},{repr(ratio)},{str(within).lower()}\n"
        for step, gap, bound, ratio, within in rows)


def test_plan_and_trace_match_golden_files(tmp_path):
    # golden files written by the per-candidate scalar planner
    plan, trace = tmp_path / "plan.csv", tmp_path / "trace.csv"
    assert run_main(*argv_of("plan", "--refine", "--trace-out", str(trace),
                             "--out", str(plan))) == (0, "", "")
    assert plan.read_bytes() == (GOLDEN / "paper_plan.csv").read_bytes()
    assert trace.read_bytes() == (GOLDEN / "paper_trace.csv").read_bytes()


def test_trace_env_var_prints_stages_and_leaves_stdout_alone(tmp_path, monkeypatch):
    argv = argv_of("plan", "--refine", "--trace-out", str(tmp_path / "trace.csv"))
    plain = run_main(*argv)
    monkeypatch.setenv("CODESIGN_TRACE", "1")
    code, out, err = run_main(*argv)
    assert plain == (0, out, "")
    assert code == 0
    lines = [json.loads(line) for line in err.splitlines()]
    assert [line["stage"] for line in lines] == ["load", "evaluate", "rank", "refine", "emit"]
    assert [line["items"] for line in lines] == [14, 13 * 16, 13 * 16, 501, 13 * 16]
    assert all(line["seconds"] >= 0 for line in lines)


def test_refine_without_trace_out_skips_the_descent(monkeypatch):
    # the descent only yields its trace, so with nowhere to write it, it
    # does not run and the table is the plain plan's
    monkeypatch.setenv("CODESIGN_TRACE", "1")
    code, out, err = run_main(*argv_of("plan", "--refine"))
    assert code == 0
    assert out == (GOLDEN / "paper_plan.csv").read_text()
    lines = [json.loads(line) for line in err.splitlines()]
    assert [line["stage"] for line in lines] == ["load", "evaluate", "rank", "emit"]


def test_simulate_matches_golden_files(tmp_path):
    # golden files written by the max/min Lindley loop that the call-free
    # body replaced; at rho ~3 the backlog grows, and requests are clipped
    # at both the warmup and the horizon
    report, log = tmp_path / "sim.json", tmp_path / "requests.csv"
    golden = ["--rate", "9000", "--horizon", "0.03"]
    assert run_main(*argv_of("simulate", *golden, "--csv", str(log),
                             "--out", str(report))) == (0, "", "")
    assert report.read_bytes() == (GOLDEN / "paper_simulate.json").read_bytes()
    assert log.read_bytes() == (GOLDEN / "paper_requests.csv").read_bytes()
    # the winner named by its cut is the same simulation, here on stdout
    log.unlink()
    result = main_stdout(*argv_of("simulate", *golden, "--cut", "10", "--csv", str(log)))
    assert result.encode() == (GOLDEN / "paper_simulate.json").read_bytes()
    assert log.read_bytes() == (GOLDEN / "paper_requests.csv").read_bytes()


def test_report_matches_golden_file(tmp_path):
    merged = tmp_path / "report.json"
    assert run_main(*argv_of("report", "--sim", SIM_JSON, "--out", str(merged))) == (0, "", "")
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
    help_text = main_stdout(command, "--help")
    for flag in flags:
        assert flag in help_text


# outputs, each with a path it cannot be written to: a file in a missing
# directory, or a directory
UNWRITABLE_OUTPUTS = {"plan --out": "/nonexistent/x.csv",
                      "plan --trace-out": "/nonexistent/t.csv", "simulate --csv": "{dir}",
                      "roofline --out": "{dir}", "cost --out": "{dir}", "report --out": "{dir}"}


@pytest.mark.parametrize("output, path", UNWRITABLE_OUTPUTS.items(), ids=UNWRITABLE_OUTPUTS)
def test_unwritable_output_is_named(tmp_path, output, path):
    code, out, err = run_main(*_writing(output, path.format(dir=tmp_path)))
    assert code == 1
    assert re.match(r"^[A-Za-z]+: ", err)
    assert err.startswith("UnwritableOutput: ")


# commands that write two files: the first output, before --out
@pytest.mark.parametrize("output", ["plan --trace-out", "simulate --csv"],
                         ids=lambda output: f"{output} --out")
def test_failed_second_write_leaves_no_first_file(tmp_path, output):
    # the second path is a directory
    first = tmp_path / "first.csv"
    code, out, err = run_main(*_writing(output, str(first), "--out", str(tmp_path)))
    assert code == 1
    assert re.match(r"^[A-Za-z]+: ", err)
    assert err.startswith(f"UnwritableOutput: {tmp_path}: ")
    assert not first.exists()


def _limit_file_size():
    # CPython ignores SIGXFSZ, so a write past the limit fails with EFBIG
    resource.setrlimit(resource.RLIMIT_FSIZE,
                       (4096, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))


# commands whose one output file outgrows a 4096-byte file size limit: the
# request log is the golden simulation's, 8868 bytes
OVERSIZED_OUTPUTS = {"plan --out": [], "simulate --csv": ["--rate", "9000", "--horizon", "0.03"]}


@pytest.mark.parametrize("output, changes", OVERSIZED_OUTPUTS.items(), ids=OVERSIZED_OUTPUTS)
def test_write_that_fails_partway_leaves_no_file(tmp_path, output, changes):
    big = tmp_path / "big.csv"
    result = codesign(*_writing(output, str(big), *changes), preexec_fn=_limit_file_size)
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
    [*COMMANDS["simulate"], "--seed", "-1"],
    # past these the lab's memory, not its checks, would end the run
    ["convergence-lab", "--dim", "1025"],
    ["convergence-lab", "--steps", "100001"],
    ["convergence-lab", "--dim", "100000"],
])
def test_vacuous_counts_and_negative_seeds_are_usage_errors(argv):
    code, out, err = run_main(*argv)
    assert code == 2
    expected = {"--trials": ">= 1", "--seed": ">= 0", "--steps": ">= 1 and <= 100000",
                "--dim": ">= 2 and <= 1024"}[argv[-2]]
    assert f"argument {argv[-2]}: expected an integer {expected}, got '{argv[-1]}'" in err
