"""The process entry, ``cli.run``: ``codesign`` and ``python -m codesign``
run each command with the cyclic garbage collector off and end the process
without interpreter teardown, keep every exit code and output, and name a
stdout that cannot be written; a stderr that is closed or full changes
neither stdout nor the exit code.  ``cli.main`` leaves the collector as it
found it."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from codesign import cli
from codesign.profiles import ModelProfile, config_to_dict, load_config
from codesign.reparam import rep_block_layer
from conftest import FIXTURES

CONFIG = str(FIXTURES / "paper.json")
GOLDEN = Path(__file__).parent / "golden"

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


def _bad_config(tmp_path) -> str:
    raw = json.loads(Path(CONFIG).read_text())
    raw["link"]["bandwidth"] = -5.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    return str(bad)


def _env(**changes) -> dict:
    env = dict(os.environ, COLUMNS="80")
    for key, value in changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


EXIT_PATHS = {
    "plan": (["plan", "--config", CONFIG], 0),
    "domain error": (["plan", "--config", "{bad}"], 1),
    "usage error": (["plan"], 2),
    "--help": (["--help"], 0),
}


@pytest.mark.parametrize("argv, code", EXIT_PATHS.values(), ids=EXIT_PATHS)
def test_entry_runs_collector_off_and_skips_teardown_on_every_exit_path(tmp_path, monkeypatch,
                                                                         argv, code):
    argv = [arg.format(bad=_bad_config(tmp_path)) for arg in argv]
    probe = tmp_path / "probe.txt"
    plain = subprocess.run([sys.executable, "-m", "codesign", *argv],
                           capture_output=True, env=_env())
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
    argvs = [["plan", "--config", CONFIG], ["plan", "--config", _bad_config(tmp_path)],
             ["plan"], ["--help"]]
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(argv)
            except SystemExit:
                pass
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
        ["simulate", "--config", CONFIG, "--rate", "2000", "--horizon", h,
         "--csv", str(tmp / "requests.csv")] for h in ("0.05", "5")],
    "plan": lambda tmp: [["plan", "--refine", "--config", _rep_config(tmp, depth),
                          "--trace-out", str(tmp / "trace.csv")] for depth in (56, 224)],
}


@pytest.mark.parametrize("sizes", WORK_SIZES.values(), ids=WORK_SIZES)
def test_cyclic_garbage_does_not_grow_with_work(tmp_path, sizes):
    # with the collector off, what a command leaves for it must not depend
    # on how much work the command did
    small, large = sizes(tmp_path)

    def garbage(argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0, argv
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
    ["roofline", "--config", CONFIG],
    ["plan", "--config", CONFIG],
    ["--help"],
    ["plan", "--help"],
    # a table written row by row, which passes the 8 KB buffer partway
    ["convergence-lab", "--steps", "2000"],
])
def test_full_stdout_is_named(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        result = subprocess.run([sys.executable, "-m", "codesign", *argv], stdout=full,
                                stderr=subprocess.PIPE, env=_env(PYTHONUNBUFFERED=unbuffered))
    _assert_named_stdout_error(result)


@needs_dev_full
def test_help_that_stays_in_the_buffer_is_named():
    # the help goes through ``cli._emit``, whose flush fails here; argparse's
    # own write would drop the error
    with open("/dev/full", "wb") as full:
        result = subprocess.run([sys.executable, "-m", "codesign", "--help"], stdout=full,
                                stderr=subprocess.PIPE, env=_env(PYTHONUNBUFFERED=None))
    _assert_named_stdout_error(result)


@pytest.mark.parametrize("unbuffered", BUFFERING.values(), ids=BUFFERING)
def test_broken_pipe_is_named(tmp_path, unbuffered):
    # a pipe whose reader has gone, as after `codesign plan ... | head -c 100`
    config = _rep_config(tmp_path, 224)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "codesign", "plan", "--config", config],
                                stdout=write_end, stderr=subprocess.PIPE,
                                env=_env(PYTHONUNBUFFERED=unbuffered))
    finally:
        os.close(write_end)
    _assert_named_stdout_error(result, "Broken pipe")


@needs_dev_full
@pytest.mark.parametrize("unbuffered", BUFFERING.values(), ids=BUFFERING)
def test_failed_stdout_removes_the_files_already_written(tmp_path, unbuffered):
    log = tmp_path / "requests.csv"
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "codesign", "simulate", "--config", CONFIG, "--rate", "100",
             "--horizon", "1", "--csv", str(log)],
            stdout=full, stderr=subprocess.PIPE, env=_env(PYTHONUNBUFFERED=unbuffered))
    _assert_named_stdout_error(result)
    assert not log.exists()


def _close_stdout():
    os.close(1)


# commands that write stdout; the simulate --csv log goes with the failure
STDOUT_WRITERS = {
    "plan": ["plan", "--config", CONFIG],
    "roofline": ["roofline", "--config", CONFIG],
    "simulate --csv": ["simulate", "--config", CONFIG, "--rate", "100", "--horizon", "1",
                       "--csv", "{dir}/requests.csv"],
    "report": ["report", "--plan", str(GOLDEN / "paper_plan.csv")],
    "--help": ["--help"],
}


@pytest.mark.parametrize("argv", STDOUT_WRITERS.values(), ids=STDOUT_WRITERS)
def test_closed_stdout_is_named(tmp_path, argv):
    # as `codesign ... >&-`: the process starts without a stdout
    result = subprocess.run([sys.executable, "-m", "codesign",
                             *[arg.format(dir=tmp_path) for arg in argv]],
                            stderr=subprocess.PIPE, preexec_fn=_close_stdout, env=_env())
    assert result.returncode == 1
    assert result.stderr == b"UnwritableOutput: <stdout>: Bad file descriptor\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, golden", [
    (["plan", "--config", CONFIG, "--out", "{out}"], "paper_plan.csv"),
    (["report", "--plan", str(GOLDEN / "paper_plan.csv"), "--sim",
      str(GOLDEN / "paper_simulate.json"), "--out", "{out}"], "paper_report.json"),
], ids=["plan", "report"])
def test_closed_stdout_is_not_needed_by_out(tmp_path, argv, golden):
    out = tmp_path / "out"
    result = subprocess.run([sys.executable, "-m", "codesign",
                             *[arg.format(out=out) for arg in argv]],
                            stderr=subprocess.PIPE, preexec_fn=_close_stdout, env=_env())
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
    result = subprocess.run([sys.executable, "-m", "codesign", "plan", "--config", CONFIG,
                             "--out", str(out)], stdout=subprocess.PIPE,
                            preexec_fn=_close_stderr, env=_env())
    assert (result.returncode, result.stdout) == (0, b"")
    assert out.read_bytes() == (GOLDEN / "paper_plan.csv").read_bytes()


# (argv, environment changes, exit code, stdout: a golden file, "" for none,
# or None for what the command prints with stderr open)
WITHOUT_STDERR = {
    "plan traced": (["plan", "--config", CONFIG], {"CODESIGN_TRACE": "1"}, 0, "paper_plan.csv"),
    "missing config": (["plan", "--config", "missing.json"], {}, 1, ""),
    "usage error": (["plan"], {}, 2, ""),
    "convergence-lab": (["convergence-lab", "--steps", "40"], {}, 0, None),
}


def _run(argv, changes, **stderr):
    return subprocess.run([sys.executable, "-m", "codesign", *argv], stdout=subprocess.PIPE,
                          env=_env(**changes), **stderr)


def _assert_stdout_and_code_unchanged(result, argv, changes, code, stdout):
    if stdout is None:
        stdout = _run(argv, changes, stderr=subprocess.DEVNULL).stdout
        assert stdout.startswith(b"step,gap,bound,ratio,within_bound\n")
    else:
        stdout = (GOLDEN / stdout).read_bytes() if stdout else b""
    assert (result.returncode, result.stdout) == (code, stdout)


@pytest.mark.parametrize("argv, changes, code, stdout", WITHOUT_STDERR.values(),
                         ids=WITHOUT_STDERR)
def test_closed_stderr_changes_no_stdout_or_exit_code(argv, changes, code, stdout):
    # diagnostics go nowhere, not to stdout
    result = _run(argv, changes, preexec_fn=_close_stderr)
    _assert_stdout_and_code_unchanged(result, argv, changes, code, stdout)


@needs_dev_full
@pytest.mark.parametrize("argv, changes, code, stdout", WITHOUT_STDERR.values(),
                         ids=WITHOUT_STDERR)
def test_full_stderr_changes_no_stdout_or_exit_code(argv, changes, code, stdout):
    with open("/dev/full", "wb") as full:
        result = _run(argv, changes, stderr=full)
    _assert_stdout_and_code_unchanged(result, argv, changes, code, stdout)
