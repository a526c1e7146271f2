"""The package's import surface: the modules are the only API, and
commands that never need numpy never load it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import codesign
from conftest import FIXTURES

GOLDEN = Path(__file__).parent / "golden"

# Names `codesign/__init__.py` once re-exported, with the submodule that
# defines each; they are imported from that submodule now.
EXPORTS = {
    "cost_model": ["CostBreakdown", "PartitionPlan", "evaluate_plan", "grid_search"],
    "errors": ["CodesignError"],
    "optimizer": ["refine_lambda"],
    "profiles": ["AccuracyPenaltyTable", "Config", "DeviceProfile", "FusionStrategy",
                 "LayerProfile", "LinkProfile", "ModelProfile", "load_config", "load_device",
                 "total_load"],
    "reparam": ["Kernel3x3", "fold_bn", "fuse", "pad_1x1_to_3x3", "strategy_costs"],
    "roofline": ["Bottleneck", "classify", "effective_rate", "machine_balance"],
    "simulator": ["SimConfig", "SimReport", "run"],
}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_every_export_resolves_and_is_listed(module, name):
    # resolves from the module that defines it, is listed there, and is not
    # a second name on the package
    submodule = __import__(f"codesign.{module}", fromlist=[name])
    assert getattr(submodule, name).__module__ == f"codesign.{module}"
    assert name in dir(submodule)
    assert not hasattr(codesign, name)


def test_version_and_unknown_names():
    assert codesign.__version__ == "0.1.0"
    assert "__version__" in dir(codesign)
    with pytest.raises(AttributeError, match="no_such_name"):
        codesign.no_such_name  # noqa: B018


def _run(script: str, *options: str, env=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *options, "-c", script], capture_output=True,
                          text=True, env=env)


def test_import_codesign_loads_no_submodule():
    result = _run("import sys, codesign\n"
                  "print(sorted(m for m in sys.modules if m.startswith('codesign')))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["['codesign']"]


def _light_commands(tmp_path) -> list[list[str]]:
    """Every command but fuse-check and convergence-lab, on paper.json."""
    config = str(FIXTURES / "paper.json")
    sim = GOLDEN / "paper_simulate.json"
    return [
        ["--help"],
        ["report", "--plan", str(GOLDEN / "paper_plan.csv"), "--sim", str(sim)],
        ["roofline", "--config", config],
        ["cost", "--config", config, "--cut", "5", "--theta1", "conv3",
         "--theta2", "conv3+skip+conv1"],
        ["plan", "--config", config],
        ["plan", "--refine", "--config", config, "--trace-out", str(tmp_path / "trace.csv")],
        ["simulate", "--config", config, "--rate", "100", "--horizon", "1"],
        ["simulate", "--config", config, "--rate", "100", "--horizon", "1", "--cut", "5"],
    ]


def test_light_commands_do_not_import_numpy(tmp_path):
    script = f"""
import contextlib, io, sys
from codesign import cli
assert "numpy" not in sys.modules, "import codesign.cli"
for argv in {_light_commands(tmp_path)!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 0, (argv, code)
    assert "numpy" not in sys.modules, argv
print("ok")
"""
    result = _run(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_light_commands_load_neither_pathlib_nor_numbers(tmp_path):
    # no command needs either; run without site, whose .pth files may
    # import pathlib themselves
    src = str(Path(codesign.__file__).parent.parent)
    script = f"""
import contextlib, io, sys
banned = ("pathlib", "numbers")
assert not [name for name in banned if name in sys.modules], "python -S"
from codesign import cli
for argv in {_light_commands(tmp_path)!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 0, (argv, code)
    loaded = [name for name in banned if name in sys.modules]
    assert not loaded, (argv, loaded)
print("ok")
"""
    result = _run(script, "-S", env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_only_the_refine_trace_imports_the_optimizer(tmp_path):
    # the grid is costed in cost_model; optimizer holds only the descent
    # that `plan --trace-out` reports
    config = str(FIXTURES / "paper.json")
    commands = [
        ["--help"],
        ["plan", "--config", config],
        ["simulate", "--config", config, "--rate", "100", "--horizon", "1"],
        ["simulate", "--config", config, "--rate", "100", "--horizon", "1", "--cut", "5"],
        ["cost", "--config", config, "--cut", "5", "--theta1", "conv3",
         "--theta2", "conv3+skip+conv1"],
        ["roofline", "--config", config],
        ["report", "--plan", str(GOLDEN / "paper_plan.csv"),
         "--sim", str(GOLDEN / "paper_simulate.json")],
        ["plan", "--refine", "--config", config, "--trace-out", str(tmp_path / "trace.csv")],
    ]
    script = f"""
import contextlib, io, sys
from codesign import cli
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 0, (argv, code)
    loaded = "codesign.optimizer" in sys.modules
    assert loaded == ("--trace-out" in argv), (argv, loaded)
print("ok")
"""
    result = _run(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_commands_do_not_import_dataclasses_or_inspect(tmp_path):
    # both cost ~10 ms of start-up; the records are namedtuples instead
    config = str(FIXTURES / "paper.json")
    light = [
        ["--help"],
        ["plan", "--config", config],
        ["plan", "--refine", "--config", config, "--trace-out", str(tmp_path / "trace.csv")],
        ["cost", "--config", config, "--cut", "5", "--theta1", "conv3",
         "--theta2", "conv3+skip+conv1"],
        ["roofline", "--config", config],
        ["report", "--plan", str(GOLDEN / "paper_plan.csv")],
        ["simulate", "--config", config, "--rate", "100", "--horizon", "1"],
    ]
    numeric = [["fuse-check", "--trials", "2"],
               ["convergence-lab", "--dim", "4", "--steps", "5"]]
    script = f"""
import contextlib, io, sys
from codesign import cli
for argv, banned in [(argv, ("dataclasses", "inspect")) for argv in {light!r}] + \\
        [(argv, ("dataclasses",)) for argv in {numeric!r}]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 0, (argv, code)
    loaded = [name for name in banned if name in sys.modules]
    assert not loaded, (argv, loaded)
print("ok")
"""
    result = _run(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"
