"""Roofline arithmetic: operational intensity, machine balance, and the
compute/memory classification of a workload running on a device."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateSplit, InvariantViolation
from .profiles import DeviceProfile


class Bottleneck(Enum):
    COMPUTE = "CC"
    MEMORY = "MC"


@dataclass(frozen=True)
class IntensityReport:
    intensity: float          # FLOP/byte
    bottleneck: Bottleneck
    attainable: float         # FLOP/s under the roofline, before utilization


def machine_balance(device: DeviceProfile) -> float:
    """FLOP/byte a workload must reach to saturate the device's compute."""
    return device.peak_compute / device.mem_bandwidth


def model_intensity(flops: float, data_bytes: float) -> float:
    return flops / data_bytes


def classify(intensity: float, device: DeviceProfile) -> Bottleneck:
    # At exactly the ridge point the bandwidth roof still binds; calling the
    # tie memory-bound keeps classification deterministic.
    if intensity > machine_balance(device):
        return Bottleneck.COMPUTE
    return Bottleneck.MEMORY


def report(flops: float, data_bytes: float, device: DeviceProfile) -> IntensityReport:
    """Intensity and class of a workload on ``device``.  An intensity,
    machine balance or byte count that is not finite raises
    ``InvariantViolation``, as a cost does in ``cost_model.evaluate_plan``
    (an infinite byte count would give a finite intensity of 0)."""
    intensity = model_intensity(flops, data_bytes)
    for name, value in (("intensity", intensity), ("balance", machine_balance(device)),
                        ("bytes", data_bytes)):
        if not math.isfinite(value):
            raise InvariantViolation(f"{name} is {value!r} on {device.name}; "
                                     f"the config's magnitudes overflow float arithmetic")
    return IntensityReport(
        intensity=intensity,
        bottleneck=classify(intensity, device),
        attainable=min(device.peak_compute, intensity * device.mem_bandwidth),
    )


def sub_intensities(lambda_c: float, lambda_m: float,
                    base_intensity: float) -> tuple[float, float]:
    """Intensities of the two segments after splitting a workload so that
    segment 1 holds a fraction lambda_c of the FLOPs and lambda_m of the
    bytes."""
    if not 0 < lambda_c < 1 or not 0 < lambda_m < 1:
        raise DegenerateSplit(f"lambda_c={lambda_c}, lambda_m={lambda_m}")
    i1 = (lambda_c / lambda_m) * base_intensity
    i2 = ((1 - lambda_c) / (1 - lambda_m)) * base_intensity
    return i1, i2


def feasibility(i1: float, i2: float, d1: DeviceProfile,
                d2: DeviceProfile) -> tuple[bool, bool]:
    """Whether each segment's intensity reaches its device's balance point,
    i.e. whether the device can run at peak on that segment."""
    return i1 >= machine_balance(d1), i2 >= machine_balance(d2)


def effective_rate(device: DeviceProfile, intensity: float) -> float:
    """Attainable FLOP/s: bandwidth-limited below the ridge point, capped at
    the (utilization-scaled) compute roof above it.  The cap matters: an
    uncapped bandwidth*intensity rate would exceed peak for intense
    workloads, which is unphysical."""
    return device.utilization * min(device.peak_compute,
                                    intensity * device.mem_bandwidth)
