"""The package's import surface: the modules are the only API, and
commands that never need numpy never load it."""

import json
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
    "cost_model": ["CostBreakdown", "PartitionPlan", "evaluate_plan"],
    "errors": ["CodesignError"],
    "optimizer": ["grid_search", "refine_lambda"],
    "profiles": ["AccuracyPenaltyTable", "Config", "DeviceProfile", "FusionStrategy",
                 "LayerProfile", "LinkProfile", "ModelProfile", "load_config", "load_device",
                 "total_load"],
    "reparam": ["Kernel3x3", "fold_bn", "fuse", "pad_1x1_to_3x3", "strategy_costs"],
    "roofline": ["Bottleneck", "classify", "effective_rate", "machine_balance",
                 "model_intensity"],
    "simulator": ["SimConfig", "SimReport", "run", "validate_against_model"],
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


def _run(script: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)


def test_import_codesign_loads_no_submodule():
    result = _run("import sys, codesign\n"
                  "print(sorted(m for m in sys.modules if m.startswith('codesign')))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["['codesign']"]


def test_light_commands_do_not_import_numpy(tmp_path):
    config = str(FIXTURES / "paper.json")
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({"model": "repvgg-mini", "throughput": 1.0}))
    commands = [
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
    script = f"""
import contextlib, io, sys
from codesign import cli
assert "numpy" not in sys.modules, "import codesign.cli"
for argv in {commands!r}:
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
