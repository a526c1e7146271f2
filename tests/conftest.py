"""What the tests share: the paper's inputs and goldens, the one way to run
a command (``codesign`` as a process, ``run_main`` in this one), each
command's smallest argv on those inputs, and the synthetic profiles.

A test runs a command in this process by default: ``run_main`` returns
its exit code, stdout and stderr, and the files it writes are read from
disk.  It starts a process only where what it checks lies outside
``cli.main``: the process entry ``cli.run`` itself, two interpreters
compared, a hang bounded by a timeout, the locale, an environment read at
import, the stdout file descriptor, or a resource limit.

It imports no numpy: CI runs the numpy-free modules with a ``numpy`` that
raises ``ImportError``."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

from codesign import cli, simulator
from codesign.profiles import (
    STRATEGY_RANK,
    AccuracyPenaltyTable,
    DeviceProfile,
    FusionStrategy,
    LayerProfile,
    LinkProfile,
    ModelProfile,
    load_device,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
CONFIG = str(FIXTURES / "paper.json")
PLAN_CSV = str(GOLDEN / "paper_plan.csv")
SIM_JSON = str(GOLDEN / "paper_simulate.json")

S3 = FusionStrategy.CONV3
S3_SKIP = FusionStrategy.CONV3_SKIP
S3_1X1 = FusionStrategy.CONV3_CONV1
FULL = FusionStrategy.CONV3_SKIP_CONV1

# each command's smallest argv on the paper's inputs
COMMANDS = {
    "roofline": ["roofline", "--config", CONFIG],
    "cost": ["cost", "--config", CONFIG, "--cut", "5", "--theta1", "conv3", "--theta2", "conv3"],
    "plan": ["plan", "--config", CONFIG],
    "fuse-check": ["fuse-check", "--trials", "2"],
    "convergence-lab": ["convergence-lab", "--steps", "2"],
    "simulate": ["simulate", "--config", CONFIG, "--rate", "100", "--horizon", "1"],
    "report": ["report", "--plan", PLAN_CSV],
}


def argv_of(command: str, *changes: str) -> list[str]:
    """``COMMANDS[command]`` changed by ``changes``, read as a command line:
    an option the argv already holds takes the value after it, and every
    other item is appended in order."""
    argv, extra = list(COMMANDS[command]), []
    items = iter(changes)
    for item in items:
        if item.startswith("--") and item in argv:
            argv[argv.index(item) + 1] = next(items)
        else:
            extra.append(item)
    return argv + extra


def paper() -> dict:
    """A fresh dict of ``fixtures/paper.json``, for a test to change."""
    return json.loads(Path(CONFIG).read_text())


def config_file(tmp_path: Path, *changes) -> str:
    """paper.json with each (key path, value) of ``changes`` set, written to
    ``config.json`` in ``tmp_path``."""
    raw = paper()
    for path, value in changes:
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    return str(config)


def codesign(*argv: str, **popen) -> subprocess.CompletedProcess:
    """Run ``python -m codesign`` on ``argv`` to its end.  stdout and stderr
    are captured as text unless ``popen`` says otherwise; its keywords
    (``stdout``, ``stderr``, ``text``, ``env``, ``preexec_fn``, ``timeout``)
    go to ``subprocess.run``.  Only for a check that needs the process (see
    the module docstring); anything else calls ``run_main``."""
    return subprocess.run([sys.executable, "-m", "codesign", *argv],
                          **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True,
                             **popen})


def run_main(*argv: str) -> tuple[int, str, str]:
    """Run ``cli.main`` on ``argv`` in this process: its exit code, with
    argparse's exits (``--help``, usage errors) read as theirs, and what it
    wrote to stdout and to stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def main_stdout(*argv: str) -> str:
    """What ``run_main(*argv)`` wrote to stdout; it must exit 0 and write no
    stderr."""
    code, out, err = run_main(*argv)
    assert (code, err) == (0, ""), argv
    return out


def nano() -> DeviceProfile:
    return load_device(FIXTURES / "jetson_nano.json")


def nx() -> DeviceProfile:
    return load_device(FIXTURES / "jetson_nx.json")


def uniform_layer(index: int, flops: float, data: float, activation: float) -> LayerProfile:
    """Non-fusible layer: identical costs under every strategy."""
    return LayerProfile(
        index=index,
        flops_by_strategy={s: flops for s in FusionStrategy},
        bytes_by_strategy={s: data for s in FusionStrategy},
        output_activation_bytes=activation,
        fusible=False,
    )


def uniform_model(n_layers: int, flops: float = 1e9, data: float = 1e8,
                  activation: float = 1e6, name: str = "uniform") -> ModelProfile:
    return ModelProfile(name, tuple(
        uniform_layer(i, flops, data, activation) for i in range(n_layers)))


def fusible_layer(index: int, rng: np.random.Generator) -> LayerProfile:
    """Random fusible layer with integer-valued costs, monotone in branch
    count for both FLOPs and bytes."""
    base_f = float(rng.integers(10**6, 10**9))
    add_skip_f = float(rng.integers(0, 10**7))
    add_1x1_f = float(rng.integers(0, 10**8))
    base_b = float(rng.integers(10**5, 10**8))
    add_skip_b = float(rng.integers(0, 10**5))
    add_1x1_b = float(rng.integers(0, 10**7))
    return LayerProfile(
        index=index,
        flops_by_strategy={
            S3: base_f,
            S3_SKIP: base_f + add_skip_f,
            S3_1X1: base_f + add_1x1_f,
            FULL: base_f + add_skip_f + add_1x1_f,
        },
        bytes_by_strategy={
            S3: base_b,
            S3_SKIP: base_b + add_skip_b,
            S3_1X1: base_b + add_1x1_b,
            FULL: base_b + add_skip_b + add_1x1_b,
        },
        output_activation_bytes=float(rng.integers(10**3, 10**7)),
        fusible=True,
    )


def random_model(rng: np.random.Generator, n_layers: int, name: str = "synthetic") -> ModelProfile:
    layers = []
    for i in range(n_layers):
        if rng.random() < 0.3:
            layers.append(uniform_layer(
                i, float(rng.integers(10**6, 10**9)),
                float(rng.integers(10**5, 10**8)),
                float(rng.integers(10**3, 10**7))))
        else:
            layers.append(fusible_layer(i, rng))
    return ModelProfile(name, tuple(layers))


def random_device(rng: np.random.Generator, name: str) -> DeviceProfile:
    return DeviceProfile(
        name,
        peak_compute=float(rng.uniform(1e9, 1e13)),
        mem_bandwidth=float(rng.uniform(1e9, 1e11)),
        utilization=float(rng.uniform(0.5, 1.0)),
    )


def random_table(rng: np.random.Generator) -> AccuracyPenaltyTable:
    def one_side():
        skip = float(rng.uniform(0, 2))
        one = float(rng.uniform(0, 2))
        return {
            S3: max(skip, one) + float(rng.uniform(0, 2)),
            S3_SKIP: skip,
            S3_1X1: one,
            FULL: 0.0,
        }

    return AccuracyPenaltyTable({1: one_side(), 2: one_side()})


def zero_table() -> AccuracyPenaltyTable:
    return AccuracyPenaltyTable({
        1: {s: 0.0 for s in FusionStrategy},
        2: {s: 0.0 for s in FusionStrategy},
    })


def brute_force_argmin(model, d1, d2, link, table, lambda1, strict=False):
    """Independently coded exhaustive enumeration; returns
    (cut, theta1, theta2) of the objective argmin under the same tie-break.
    With ``strict`` only candidates whose segments both reach their device's
    balance point (peak FLOP/s over bandwidth) compete; None if none does."""
    best_key, best = None, None
    for cut in range(1, len(model.layers)):
        for th1 in FusionStrategy:
            for th2 in FusionStrategy:
                c1 = sum(l.flops_by_strategy[th1] for l in model.layers[:cut])
                m1 = sum(l.bytes_by_strategy[th1] for l in model.layers[:cut])
                c2 = sum(l.flops_by_strategy[th2] for l in model.layers[cut:])
                m2 = sum(l.bytes_by_strategy[th2] for l in model.layers[cut:])
                if strict and (c1 / m1 < d1.peak_compute / d1.mem_bandwidth
                               or c2 / m2 < d2.peak_compute / d2.mem_bandwidth):
                    continue
                r1 = d1.utilization * min(d1.peak_compute, (c1 / m1) * d1.mem_bandwidth)
                r2 = d2.utilization * min(d2.peak_compute, (c2 / m2) * d2.mem_bandwidth)
                t1 = c1 / r1
                t2 = c2 / r2
                t3 = model.layers[cut - 1].output_activation_bytes / link.bandwidth \
                    + link.fixed_latency
                t_total = t1 + t2 + t3
                lam_c = c1 / (c1 + c2)
                loss = lam_c * table.penalty(1, th1) + (1 - lam_c) * table.penalty(2, th2)
                objective = t_total + lambda1 * loss
                key = (objective, t_total, cut, STRATEGY_RANK[th1], STRATEGY_RANK[th2])
                if best_key is None or key < best_key:
                    best_key, best = key, (cut, th1, th2)
    return best


def simple_link(bandwidth: float = 12.5e6, fixed: float = 0.0) -> LinkProfile:
    return LinkProfile(bandwidth=bandwidth, fixed_latency=fixed)


def saturated_throughput(service_times, target_completions, seed):
    """Drive the pipeline, whose (device 1, link, device 2) stages take
    ``service_times`` seconds, at 3x its bottleneck rate 1/max(service_times)
    for about ``target_completions`` completions.  Returns (bottleneck rate,
    simulated throughput, relative error)."""
    bottleneck = 1.0 / max(service_times)
    report = simulator.run(simulator.SimConfig(
        arrival_rate=3.0 * bottleneck, service_times=service_times,
        horizon=1.25 * target_completions / bottleneck, seed=seed))
    return bottleneck, report.throughput, abs(report.throughput - bottleneck) / bottleneck
