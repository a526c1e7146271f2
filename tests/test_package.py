"""The package's import surface: the modules are the only API, and
commands that never need numpy never load it."""

import os
import subprocess
import sys

import pytest

import codesign
from conftest import COMMANDS, SIM_JSON, argv_of

# Names `codesign/__init__.py` once re-exported, with the submodule that
# defines each; they are imported from that submodule now.
EXPORTS = {
    "cost_model": ["CostBreakdown", "PartitionPlan", "evaluate_plan", "grid_search",
                   "ranked"],
    "errors": ["CodesignError"],
    "fusion": ["Kernel3x3", "fold_bn", "fuse", "pad_1x1_to_3x3"],
    "optimizer": ["refine_lambda"],
    "profiles": ["AccuracyPenaltyTable", "Config", "DeviceProfile", "LayerProfile",
                 "LinkProfile", "ModelProfile", "load_config", "load_device", "total_load"],
    "reparam": ["strategy_costs"],
    "roofline": ["Bottleneck", "classify", "effective_rate", "machine_balance"],
    "simulator": ["SimConfig", "SimReport", "run"],
    "strategy": ["FusionStrategy"],
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


# What no light command loads: numpy and the fusion algebra, which only the
# lab commands run; the descent, which only `plan --trace-out` reports; and
# pathlib, numbers, dataclasses and inspect, which no command needs (the
# last two cost ~10 ms of start-up; the records are namedtuples instead).
LIGHT = ("numpy", "codesign.fusion", "codesign.optimizer", "pathlib", "numbers",
         "dataclasses", "inspect")
# argparse picks the command before its body, and the formats and modules
# it runs, are imported: `--help` and usage errors compile none of them
PARSER_ONLY = LIGHT + ("codesign.profiles", "codesign.cost_model", "codesign.commands",
                       "json", "csv")
# The lab commands draw from random.Random: numpy.random (nine extension
# modules) and the secrets, hashlib and OpenSSL its bit generator loads
# cost them ~6 MB of peak RSS.
LAB = ("dataclasses", "numpy.random", "secrets", "json")

# id: (a module to import, or the argv `cli.main` runs; its exit code, None
# for an import; the modules it must not load; the modules it must load)
LOADS = {
    "import": ("codesign.cli", None, PARSER_ONLY, ()),
    # the layer constructors that fixtures and benchmark inputs are built
    # with are plain float arithmetic; the fusion algebra is in `fusion`
    "reparam": ("codesign.reparam", None, ("numpy", "codesign.fusion", "pathlib", "numbers"),
                ()),
    "help": (["--help"], 0, PARSER_ONLY, ()),
    "usage-error": (["plan"], 2, PARSER_ONLY, ()),
    "plan": (COMMANDS["plan"], 0, LIGHT, ()),
    "plan-trace": (argv_of("plan", "--refine", "--trace-out", "{tmp}/trace.csv"), 0,
                   tuple(name for name in LIGHT if name != "codesign.optimizer"),
                   ("codesign.optimizer",)),
    "cost": (COMMANDS["cost"], 0, LIGHT + ("csv",), ()),
    "roofline": (COMMANDS["roofline"], 0, LIGHT, ()),
    "simulate": (COMMANDS["simulate"], 0, LIGHT + ("csv",), ()),
    "simulate-cut": (argv_of("simulate", "--cut", "5"), 0, LIGHT + ("csv",), ()),
    "report": (argv_of("report", "--sim", SIM_JSON), 0, LIGHT, ()),
    "report-analytical": (COMMANDS["report"], 0, LIGHT, ()),
    "convergence-lab": (COMMANDS["convergence-lab"], 0, LAB + ("codesign.profiles",),
                        ("codesign.convergence",)),
    "fuse-check": (COMMANDS["fuse-check"], 0, LAB, ("codesign.fusion",)),
}

LOAD_SCRIPT = """
import sys
run, banned, required = {run!r}, {banned!r}, {required!r}
preloaded = [name for name in banned if name in sys.modules]
assert not preloaded, ("loaded before codesign", preloaded)
code = None
if isinstance(run, str):
    __import__(run)
else:
    import contextlib, io
    from codesign import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(run)
        except SystemExit as exc:
            code = exc.code
print(code, [name for name in banned if name in sys.modules],
      [name for name in required if name not in sys.modules])
"""


@pytest.mark.parametrize("run, code, banned, required", LOADS.values(), ids=LOADS)
def test_the_parser_loads_no_command_and_a_command_only_what_it_runs(tmp_path, run, code,
                                                                    banned, required):
    # `python -S`, with this process's sys.path: numpy is importable, but no
    # site .pth file loads anything, so no banned module is exempt
    if not isinstance(run, str):
        run = [arg.format(tmp=tmp_path) for arg in run]
    script = LOAD_SCRIPT.format(run=run, banned=banned, required=required)
    result = _run(script, "-S", env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{code} [] []\n"
