"""The process entry, ``cli.run``: ``codesign`` and ``python -m codesign``
run each command with the cyclic garbage collector off and end the process
without interpreter teardown, keep every exit code and output, and name a
stdout that cannot be written; a stderr that is closed or full changes
neither stdout nor the exit code.  ``cli.main`` leaves the collector as it
found it."""

import gc
import json
import os
import subprocess
import sys

import pytest

from codesign import cli
from codesign.profiles import ModelProfile, config_to_dict, load_config
from codesign.reparam import rep_block_layer
from conftest import COMMANDS, CONFIG, GOLDEN, SIM_JSON, argv_of, codesign, config_file, run_main

# `python -m codesign` with a probe that records, in the file PROBE_OUT
# names, whether the collector is on before the entry runs and while
# `cli.main` runs, and whether an atexit handler registered before the
# entry fires
PROBE = """
import atexit, gc, os, runpy
from codesign import cli

def record(event):
    with open(os.environ["PROBE_OUT"], "a") as out:
        out.write(f"{event} {gc.isenabled()}\\n")

def probed_main(main=cli.main):
    record("main")
    try:
        return main()
    finally:
        record("main-done")

cli.main = probed_main
atexit.register(record, "atexit")
record("start")
runpy.run_module("codesign", run_name="__main__", alter_sys=True)
"""


def _env(**changes) -> dict:
    env = dict(os.environ, COLUMNS="80")
    for key, value in changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


# "{bad}" is a config whose link bandwidth is negative
EXIT_PATHS = {
    "plan": (COMMANDS["plan"], 0),
    "domain error": (argv_of("plan", "--config", "{bad}"), 1),
    "usage error": (["plan"], 2),
    "--help": (["--help"], 0),
}


@pytest.mark.parametrize("argv, code", EXIT_PATHS.values(), ids=EXIT_PATHS)
def test_entry_runs_collector_off_and_skips_teardown_on_every_exit_path(tmp_path, monkeypatch,
                                                                         argv, code):
    bad = config_file(tmp_path, (["link", "bandwidth"], -5.0))
    argv = [arg.format(bad=bad) for arg in argv]
    probe = tmp_path / "probe.txt"
    plain = codesign(*argv, env=_env(), text=False)
    probed = subprocess.run([sys.executable, "-c", PROBE, *argv],
                            capture_output=True, env=_env(PROBE_OUT=str(probe)))
    assert plain.returncode == probed.returncode == code
    assert plain.stdout == probed.stdout
    assert plain.stderr == probed.stderr
    # on before the entry, off while the command runs, no atexit handler
    assert probe.read_text().splitlines() == ["start True", "main False", "main-done False"]
    if code == 1:
        assert plain.stdout == b""
        assert plain.stderr.decode().startswith("NonPositiveQuantity: link.bandwidth")
    elif code == 2:
        assert plain.stdout == b""
        assert "the following arguments are required: --config" in plain.stderr.decode()
    elif argv == ["--help"]:
        monkeypatch.setenv("COLUMNS", "80")
        assert plain.stdout.decode() == cli.build_parser().format_help()
    else:
        assert plain.stdout == (GOLDEN / "paper_plan.csv").read_bytes()


def test_main_leaves_the_collector_as_it_was(tmp_path):
    bad = config_file(tmp_path, (["link", "bandwidth"], -5.0))
    argvs = [COMMANDS["plan"], argv_of("plan", "--config", bad), ["plan"], ["--help"]]
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    for argv in argvs:
        run_main(*argv)
        assert gc.isenabled() == enabled, argv
        assert gc.get_freeze_count() == frozen, argv


def _rep_config(tmp_path, depth: int) -> str:
    config = load_config(CONFIG)
    widths = (16, 32, 64)
    model = ModelProfile(f"rep-d{depth}", tuple(
        rep_block_layer(i, widths[i * 3 // depth], 8, 8) for i in range(depth)))
    path = tmp_path / f"rep{depth}.json"
    path.write_text(json.dumps(config_to_dict(config._replace(model=model))))
    return str(path)


# each command at a small and a large amount of work
WORK_SIZES = {
    "fuse-check": lambda tmp: [["fuse-check", "--trials", n] for n in ("2", "50")],
    "convergence-lab": lambda tmp: [["convergence-lab", "--steps", n] for n in ("10", "2000")],
    "simulate --csv": lambda tmp: [
        argv_of("simulate", "--rate", "2000", "--horizon", h, "--csv", str(tmp / "requests.csv"))
        for h in ("0.05", "5")],
    "plan": lambda tmp: [["plan", "--refine", "--config", _rep_config(tmp, depth),
                          "--trace-out", str(tmp / "trace.csv")] for depth in (56, 224)],
}


@pytest.mark.parametrize("sizes", WORK_SIZES.values(), ids=WORK_SIZES)
def test_cyclic_garbage_does_not_grow_with_work(tmp_path, sizes):
    # with the collector off, what a command leaves for it must not depend
    # on how much work the command did
    small, large = sizes(tmp_path)

    def garbage(argv) -> int:
        assert run_main(*argv)[0] == 0, argv
        return gc.collect()

    enabled = gc.isenabled()
    gc.disable()
    try:
        garbage(small)      # imports and first-use caches
        counts = [garbage(small), garbage(large)]
    finally:
        if enabled:
            gc.enable()
    assert counts[0] == counts[1], counts


# ---------------------------------------------------------------------------
# A stdout that cannot be written
# ---------------------------------------------------------------------------

needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
BUFFERING = {"buffered": None, "unbuffered": "1"}


def _assert_named_stdout_error(result, reason="No space left on device"):
    assert result.returncode == 1
    assert result.stderr.decode() == f"UnwritableOutput: <stdout>: {reason}\n"


@needs_dev_full
@pytest.mark.parametrize("unbuffered", BUFFERING.values(), ids=BUFFERING)
@pytest.mark.parametrize("argv", [
    COMMANDS["roofline"],
    COMMANDS["plan"],
    ["--help"],
    ["plan", "--help"],
    # a table written row by row, which passes the 8 KB buffer partway
    ["convergence-lab", "--steps", "2000"],
])
def test_full_stdout_is_named(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        result = codesign(*argv, stdout=full, env=_env(PYTHONUNBUFFERED=unbuffered), text=False)
    _assert_named_stdout_error(result)


@needs_dev_full
def test_help_that_stays_in_the_buffer_is_named():
    # the help goes through ``cli._emit``, whose flush fails here; argparse's
    # own write would drop the error
    with open("/dev/full", "wb") as full:
        result = codesign("--help", stdout=full, env=_env(PYTHONUNBUFFERED=None), text=False)
    _assert_named_stdout_error(result)


@pytest.mark.parametrize("unbuffered", BUFFERING.values(), ids=BUFFERING)
def test_broken_pipe_is_named(tmp_path, unbuffered):
    # a pipe whose reader has gone, as after `codesign plan ... | head -c 100`
    config = _rep_config(tmp_path, 224)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = codesign("plan", "--config", config, stdout=write_end,
                          env=_env(PYTHONUNBUFFERED=unbuffered), text=False)
    finally:
        os.close(write_end)
    _assert_named_stdout_error(result, "Broken pipe")


@needs_dev_full
@pytest.mark.parametrize("unbuffered", BUFFERING.values(), ids=BUFFERING)
def test_failed_stdout_removes_the_files_already_written(tmp_path, unbuffered):
    log = tmp_path / "requests.csv"
    with open("/dev/full", "wb") as full:
        result = codesign(*argv_of("simulate", "--csv", str(log)), stdout=full,
                          env=_env(PYTHONUNBUFFERED=unbuffered), text=False)
    _assert_named_stdout_error(result)
    assert not log.exists()


def _close_stdout():
    os.close(1)


# commands that write stdout; the simulate --csv log goes with the failure
STDOUT_WRITERS = {
    "plan": COMMANDS["plan"],
    "roofline": COMMANDS["roofline"],
    "simulate --csv": argv_of("simulate", "--csv", "{dir}/requests.csv"),
    "report": COMMANDS["report"],
    "--help": ["--help"],
}


@pytest.mark.parametrize("argv", STDOUT_WRITERS.values(), ids=STDOUT_WRITERS)
def test_closed_stdout_is_named(tmp_path, argv):
    # as `codesign ... >&-`: the process starts without a stdout
    result = codesign(*[arg.format(dir=tmp_path) for arg in argv], preexec_fn=_close_stdout,
                      env=_env(), text=False)
    assert result.returncode == 1
    assert result.stderr == b"UnwritableOutput: <stdout>: Bad file descriptor\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, golden", [
    (argv_of("plan", "--out", "{out}"), "paper_plan.csv"),
    (argv_of("report", "--sim", SIM_JSON, "--out", "{out}"), "paper_report.json"),
], ids=["plan", "report"])
def test_closed_stdout_is_not_needed_by_out(tmp_path, argv, golden):
    out = tmp_path / "out"
    result = codesign(*[arg.format(out=out) for arg in argv], preexec_fn=_close_stdout,
                      env=_env(), text=False)
    assert (result.returncode, result.stderr) == (0, b"")
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


# ---------------------------------------------------------------------------
# A stderr that is closed or full
# ---------------------------------------------------------------------------

def _close_stderr():
    os.close(2)


def test_closed_stderr_is_not_needed_by_out(tmp_path):
    # as `codesign plan --out ... 2>&-`: the process starts without a stderr
    out = tmp_path / "plan.csv"
    result = codesign(*argv_of("plan", "--out", str(out)), preexec_fn=_close_stderr, env=_env(),
                      text=False)
    assert (result.returncode, result.stdout) == (0, b"")
    assert out.read_bytes() == (GOLDEN / "paper_plan.csv").read_bytes()


# (argv, environment changes, exit code, stdout: a golden file, "" for none,
# or None for what the command prints with stderr open)
WITHOUT_STDERR = {
    "plan traced": (COMMANDS["plan"], {"CODESIGN_TRACE": "1"}, 0, "paper_plan.csv"),
    "missing config": (argv_of("plan", "--config", "missing.json"), {}, 1, ""),
    "usage error": (["plan"], {}, 2, ""),
    "convergence-lab": (COMMANDS["convergence-lab"], {}, 0, None),
}


def _assert_stdout_and_code_unchanged(result, argv, changes, code, stdout):
    if stdout is None:
        stdout = codesign(*argv, stderr=subprocess.DEVNULL, env=_env(**changes),
                          text=False).stdout
        assert stdout.startswith(b"step,gap,bound,ratio,within_bound\n")
    else:
        stdout = (GOLDEN / stdout).read_bytes() if stdout else b""
    assert (result.returncode, result.stdout) == (code, stdout)


@pytest.mark.parametrize("argv, changes, code, stdout", WITHOUT_STDERR.values(),
                         ids=WITHOUT_STDERR)
def test_closed_stderr_changes_no_stdout_or_exit_code(argv, changes, code, stdout):
    # diagnostics go nowhere, not to stdout
    result = codesign(*argv, preexec_fn=_close_stderr, env=_env(**changes), text=False)
    _assert_stdout_and_code_unchanged(result, argv, changes, code, stdout)


@needs_dev_full
@pytest.mark.parametrize("argv, changes, code, stdout", WITHOUT_STDERR.values(),
                         ids=WITHOUT_STDERR)
def test_full_stderr_changes_no_stdout_or_exit_code(argv, changes, code, stdout):
    with open("/dev/full", "wb") as full:
        result = codesign(*argv, stderr=full, env=_env(**changes), text=False)
    _assert_stdout_and_code_unchanged(result, argv, changes, code, stdout)
