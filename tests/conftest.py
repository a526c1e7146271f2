from pathlib import Path

import numpy as np
import pytest

from codesign import simulator
from codesign.profiles import (
    STRATEGY_RANK,
    AccuracyPenaltyTable,
    DeviceProfile,
    FusionStrategy,
    LayerProfile,
    LinkProfile,
    ModelProfile,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"

S3 = FusionStrategy.CONV3
S3_SKIP = FusionStrategy.CONV3_SKIP
S3_1X1 = FusionStrategy.CONV3_CONV1
FULL = FusionStrategy.CONV3_SKIP_CONV1


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def nano() -> DeviceProfile:
    return DeviceProfile("jetson-nano", 472e9, 25.6e9)


def nx() -> DeviceProfile:
    return DeviceProfile("jetson-nx", 21e12, 51.2e9)


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


def brute_force_argmin(model, d1, d2, link, table, lambda1):
    """Independently coded exhaustive enumeration; returns
    (cut, theta1, theta2) of the objective argmin under the same tie-break."""
    best_key, best = None, None
    for cut in range(1, len(model.layers)):
        for th1 in FusionStrategy:
            for th2 in FusionStrategy:
                c1 = sum(l.flops_by_strategy[th1] for l in model.layers[:cut])
                m1 = sum(l.bytes_by_strategy[th1] for l in model.layers[:cut])
                c2 = sum(l.flops_by_strategy[th2] for l in model.layers[cut:])
                m2 = sum(l.bytes_by_strategy[th2] for l in model.layers[cut:])
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
