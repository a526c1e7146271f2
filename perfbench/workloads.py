"""Seeded inputs for the three benchmark workloads.

Every op is an argv list for the `codesign` command plus the files it reads.
The same (workload, seed, op index) always yields the same argv and
byte-identical config files.  Only the repository's fixtures and public
constructors (`reparam.rep_block_layer`, `reparam.plain_conv_layer`,
`profiles.config_from_dict`, `profiles.config_to_dict`) are used, so the
program sees nothing but generated JSON and argv.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from codesign.profiles import config_from_dict, config_to_dict
from codesign.reparam import plain_conv_layer, rep_block_layer

import checks

PAPER = "fixtures/paper.json"
JETSONS = ("jetson_nano", "jetson_tx1", "jetson_tx2", "jetson_nx")
DEPTHS = (56, 112, 224)
BANDWIDTHS = (1.25e6, 12.5e6, 125e6)          # B/s: 10 Mbit/s, 100 Mbit/s, 1 Gbit/s
LAMBDA1_RANGE = (1e-5, 1e-2)                   # log-uniform
RHOS = (0.5, 0.9, 3.0)
SIM_ARRIVALS = 30_000                          # expected arrivals per simulate-load op
SESSION_RHO = 0.9
SESSION_SIM_ARRIVALS = 2_000                   # expected arrivals of the cli-paper simulate

WORKLOADS = ("plan-deep", "simulate-load", "cli-paper")


@dataclass
class Command:
    """One `codesign` invocation.  `stdout` names the file its standard
    output is kept in; `outputs` are the files it writes itself."""

    name: str
    argv: list[str]
    stdout: str
    outputs: dict[str, str] = field(default_factory=dict)


@dataclass
class Op:
    """One closed-loop op: a command, or a session of commands run in order.
    `kind` tags ops of the same class (depth, rho or session)."""

    index: int
    kind: str
    commands: list[Command]
    meta: dict


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds are hashed with SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{index}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _layer_dict(layer) -> dict:
    return {
        "index": layer.index,
        "flops_by_strategy": {s.value: v for s, v in layer.flops_by_strategy.items()},
        "bytes_by_strategy": {s.value: v for s, v in layer.bytes_by_strategy.items()},
        "output_activation_bytes": layer.output_activation_bytes,
        "fusible": layer.fusible,
    }


def repvgg_layers(rng: random.Random, depth: int) -> list:
    """RepVGG-style stack shaped like fixtures/make_fixtures.py: a strided
    stem conv, three stages of fusible blocks at widths w, 2w, 4w with
    strided plain convs between them, and a dense head.  The seed picks the
    base width, the input size and how the blocks split over the stages."""
    width = rng.choice((16, 32))
    size = rng.choice((32, 64))
    blocks = depth - 4                    # stem, two transitions, head
    shares = [rng.uniform(0.8, 1.2) * w for w in (3, 4, 3)]
    first = round(blocks * shares[0] / sum(shares))
    second = round(blocks * shares[1] / sum(shares))
    per_stage = (first, second, blocks - first - second)

    half = size // 2
    layers = [plain_conv_layer(0, 3, width, half, half, in_height=size, in_width=size)]
    channels, spatial = width, half
    for stage, count in enumerate(per_stage):
        if stage > 0:
            layers.append(plain_conv_layer(len(layers), channels, 2 * channels,
                                           spatial // 2, spatial // 2,
                                           in_height=spatial, in_width=spatial))
            channels, spatial = 2 * channels, spatial // 2
        for _ in range(count):
            layers.append(rep_block_layer(len(layers), channels, spatial, spatial))
    layers.append(plain_conv_layer(len(layers), channels, 2 * channels, 1, 1,
                                   kernel=spatial, in_height=spatial, in_width=spatial))
    assert len(layers) == depth
    return layers


def _read_json(root: Path, rel: str) -> dict:
    return json.loads((root / rel).read_text())


def plan_deep_config(root: Path, seed: int, index: int) -> tuple[str, dict]:
    """(config JSON text, draw summary) for plan-deep op `index`."""
    rng = _rng("plan-deep", seed, index)
    depth = DEPTHS[index % len(DEPTHS)]
    pair = rng.sample(JETSONS, 2)
    bandwidth = rng.choice(BANDWIDTHS)
    lambda1 = _log_uniform(rng, *LAMBDA1_RANGE)
    layers = repvgg_layers(rng, depth)
    raw = {
        "devices": [_read_json(root, f"fixtures/{stem}.json") for stem in pair],
        "link": {"bandwidth": bandwidth, "fixed_latency": 0.0},
        "model": {"name": f"repvgg-d{depth}-s{seed}-op{index}",
                  "layers": [_layer_dict(layer) for layer in layers]},
        "penalties": _read_json(root, PAPER)["penalties"],
        "lambda1": lambda1,
    }
    config = config_from_dict(raw)            # validate before writing
    text = json.dumps(config_to_dict(config), indent=2) + "\n"
    return text, {"depth": depth, "devices": pair, "bandwidth": bandwidth,
                  "lambda1": lambda1}


def paper_bottleneck_rate(root: Path) -> float:
    """mu = 1 / max(t1, t2, t3) of the paper config's grid winner."""
    problem = checks.Problem(_read_json(root, PAPER))
    best = problem.best()
    return 1.0 / max(best.t1, best.t2, best.t3)


def make_op(workload: str, root: Path, workdir: Path, seed: int, index: int,
            mu: float) -> Op:
    """Write op `index`'s inputs under `workdir` and return its commands.
    Paths in argv are relative to the checkout root `root`."""
    rel = workdir.relative_to(root)
    workdir.mkdir(parents=True, exist_ok=True)

    def out(name):
        return str(rel / name)

    if workload == "plan-deep":
        text, meta = plan_deep_config(root, seed, index)
        (workdir / "config.json").write_text(text)
        argv = ["plan", "--refine", "--config", out("config.json"), "--out", out("plan.csv")]
        cmd = Command("plan", argv, out("stdout"), {"csv": out("plan.csv")})
        return Op(index, f"depth{meta['depth']}", [cmd], dict(meta, config=out("config.json")))

    rng = _rng(workload, seed, index)
    if workload == "simulate-load":
        rho = RHOS[index % len(RHOS)]
        rate = rho * mu
        horizon = SIM_ARRIVALS / rate
        sim_seed = rng.randrange(2**31)
        argv = ["simulate", "--config", PAPER, "--rate", repr(rate),
                "--horizon", repr(horizon), "--seed", str(sim_seed)]
        cmd = Command("simulate", argv, out("sim.json"))
        return Op(index, f"rho{rho:g}", [cmd],
                  {"rho": rho, "rate": rate, "horizon": horizon, "seed": sim_seed})

    if workload == "cli-paper":
        session_seed = rng.randrange(2**31)
        rate = SESSION_RHO * mu
        horizon = SESSION_SIM_ARRIVALS / rate
        cut = rng.randrange(1, len(_read_json(root, PAPER)["model"]["layers"]))
        names = checks.STRATEGIES
        theta1, theta2 = rng.choice(names), rng.choice(names)
        commands = [
            Command("plan", ["plan", "--config", PAPER, "--out", out("plan.csv")],
                    out("plan.stdout"), {"csv": out("plan.csv")}),
            Command("plan-refine", ["plan", "--config", PAPER, "--refine",
                                    "--trace-out", out("trace.csv")],
                    out("plan_refine.csv"), {"trace": out("trace.csv")}),
            Command("simulate", ["simulate", "--config", PAPER, "--rate", repr(rate),
                                 "--horizon", repr(horizon), "--seed", str(session_seed),
                                 "--out", out("sim.json")],
                    out("simulate.stdout"), {"json": out("sim.json")}),
            Command("report", ["report", "--plan", out("plan.csv"), "--sim", out("sim.json")],
                    out("report.json")),
            Command("roofline", ["roofline", "--config", PAPER], out("roofline.csv")),
            Command("cost", ["cost", "--config", PAPER, "--cut", str(cut),
                             "--theta1", theta1, "--theta2", theta2], out("cost.json")),
            Command("fuse-check", ["fuse-check", "--seed", str(session_seed)],
                    out("fuse.csv")),
            Command("convergence-lab", ["convergence-lab", "--seed", str(session_seed)],
                    out("convergence.csv")),
        ]
        return Op(index, "session", commands,
                  {"seed": session_seed, "rho": SESSION_RHO, "rate": rate,
                   "horizon": horizon, "cut": cut, "theta1": theta1, "theta2": theta2})

    raise ValueError(f"unknown workload {workload!r}")
