"""Property test of the command line: whatever the argument values, every
subcommand run through ``cli.main`` exits 0, 1 or 2, raises nothing else,
names its error on exit 1 and prints only finite numbers on exit 0."""

import contextlib
import io
import math
import re
from pathlib import Path

import pytest

from codesign import cli
from codesign.profiles import FusionStrategy
from conftest import FIXTURES

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

GOLDEN = Path(__file__).parent / "golden"

INTS = st.integers(-3, 4).map(str)
# a dim the lab cannot allocate; no oversized --steps is drawn, because it
# would run, with memory growing per step
DIMS = st.one_of(INTS, st.just("100000"))
# 100 * 100 arrivals at most, unless rate * horizon is over the loader's cap
FLOATS = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "0", "-0.0",
                          "-1", "0.5", "1", "100"])
CUTS = st.one_of(st.integers(-3, 16), st.just(10**30)).map(str)
STRATEGIES = st.sampled_from([s.value for s in FusionStrategy] + ["conv5"])

# a path is drawn by name and resolved against each test's directory; an
# input is the real file half of the time
PATHS = ["dir", "missing/parent", "/dev/null", "out"]
NAN_SIM = "nan-sim.json"    # a simulation report whose throughput is NaN
OUTS = st.sampled_from(PATHS)


def _inputs(real: Path, *others: str):
    return st.sampled_from([str(real)] * len(PATHS) + PATHS + list(others))


CONFIGS = _inputs(FIXTURES / "paper.json")
PLANS = _inputs(GOLDEN / "paper_plan.csv")
SIMS = _inputs(GOLDEN / "paper_simulate.json", NAN_SIM)

FLAGS = {
    "roofline": {"--config": CONFIGS, "--out": OUTS, "--theta": STRATEGIES},
    "cost": {"--config": CONFIGS, "--cut": CUTS, "--theta1": STRATEGIES,
             "--theta2": STRATEGIES, "--out": OUTS},
    "plan": {"--config": CONFIGS, "--out": OUTS, "--strict": st.just(None),
             "--refine": st.just(None), "--trace-out": OUTS},
    "fuse-check": {"--seed": INTS, "--trials": INTS, "--out": OUTS},
    "convergence-lab": {"--seed": INTS, "--dim": DIMS, "--steps": INTS, "--out": OUTS},
    "simulate": {"--config": CONFIGS, "--rate": FLOATS, "--horizon": FLOATS,
                 "--seed": INTS, "--warmup": FLOATS, "--strict": st.just(None), "--cut": CUTS,
                 "--theta1": STRATEGIES, "--theta2": STRATEGIES, "--csv": OUTS, "--out": OUTS},
    "report": {"--plan": PLANS, "--sim": SIMS, "--out": OUTS},
}
# drawn every time, so that most draws get past argparse
REQUIRED = {"--config", "--plan", "--rate", "--horizon"}
REQUIRED_BY = {"cost": {"--cut", "--theta1", "--theta2"}}

# a number as any command prints it, and the words float() reads as nan or inf
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
NON_FINITE = re.compile(r"\b(?:nan|inf|infinity)\b", re.IGNORECASE)


@st.composite
def argvs(draw, command):
    """The command, its required flags and a random subset of the others,
    each with a drawn value (a switch has none).  A value is joined to its
    flag with "=", so argparse reads "-inf" as a value, not a flag."""
    required = REQUIRED | REQUIRED_BY.get(command, set())
    argv = [command]
    for flag, values in FLAGS[command].items():
        if flag in required or draw(st.booleans()):
            value = draw(values)
            argv.append(flag if value is None else f"{flag}={value}")
    return argv


def _resolve(argv, workdir: Path):
    resolved = []
    for arg in argv:
        flag, _, value = arg.partition("=")
        resolved.append(f"{flag}={workdir / value}"
                        if value in PATHS[:2] + PATHS[3:] + [NAN_SIM] else arg)
    return resolved


def _assert_finite(text: str, argv):
    assert not NON_FINITE.search(text), (argv, text)
    for number in NUMBER.findall(text):
        assert math.isfinite(float(number)), (argv, number)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("argv")
    (root / "dir").mkdir()
    (root / NAN_SIM).write_text('{"model": "repvgg-mini", "throughput": NaN}')
    return root


@pytest.mark.parametrize("command", FLAGS)
def test_any_argv_exits_0_1_or_2_with_a_named_error(workdir, command):
    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(argvs(command))
    def check(argv):
        out = workdir / "out"
        out.unlink(missing_ok=True)
        argv = _resolve(argv, workdir)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:       # argparse: usage errors
                code = exc.code
        assert code in (0, 1, 2), (argv, code, stderr.getvalue())
        if code == 1:
            assert re.match(r"^[A-Za-z]+: ", stderr.getvalue()), (argv, stderr.getvalue())
        if code == 0:
            _assert_finite(stdout.getvalue(), argv)
            if out.is_file():
                _assert_finite(out.read_text(), argv)

    check()
