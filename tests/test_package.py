"""The package's import surface: lazily resolved exports, and commands that
never need numpy never load it."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import codesign
from conftest import FIXTURES

GOLDEN = Path(__file__).parent / "golden"

# Every name `codesign/__init__.py` exported when it imported its submodules
# eagerly, with the submodule that defines it.
EXPORTS = {
    "cost_model": ["CostBreakdown", "PartitionPlan", "accuracy_loss", "evaluate_plan",
                   "lagrangian", "latency"],
    "errors": ["CodesignError"],
    "optimizer": ["grid_search", "refine_lambda", "snap_to_boundary"],
    "profiles": ["AccuracyPenaltyTable", "Config", "DeviceProfile", "FusionStrategy",
                 "LayerProfile", "LinkProfile", "ModelProfile", "load_config", "load_device",
                 "total_load"],
    "reparam": ["Kernel3x3", "fold_bn", "fuse", "pad_1x1_to_3x3", "strategy_costs"],
    "roofline": ["Bottleneck", "classify", "effective_rate", "feasibility", "machine_balance",
                 "model_intensity", "sub_intensities"],
    "simulator": ["SimConfig", "SimReport", "run", "validate_against_model"],
}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_every_export_resolves_and_is_listed(module, name):
    submodule = __import__(f"codesign.{module}", fromlist=[name])
    assert getattr(codesign, name) is getattr(submodule, name)
    assert name in dir(codesign)


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
