"""Roofline arithmetic: operational intensity, machine balance, and the
compute/memory classification of a workload running on a device."""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .errors import InvariantViolation
from .profiles import DeviceProfile


class Bottleneck(Enum):
    COMPUTE = "CC"
    MEMORY = "MC"


# intensity in FLOP/byte; bottleneck a Bottleneck.
IntensityReport = namedtuple("IntensityReport", "intensity bottleneck")


def machine_balance(device: DeviceProfile) -> float:
    """FLOP/byte a workload must reach to saturate the device's compute."""
    return device.peak_compute / device.mem_bandwidth


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
    intensity = flops / data_bytes
    for name, value in (("intensity", intensity), ("balance", machine_balance(device)),
                        ("bytes", data_bytes)):
        if not math.isfinite(value):
            raise InvariantViolation(f"{name} is {value!r} on {device.name}; "
                                     f"the config's magnitudes overflow float arithmetic")
    return IntensityReport(intensity=intensity, bottleneck=classify(intensity, device))


def reaches_balance(intensity: float, device: DeviceProfile) -> bool:
    """Whether ``intensity`` reaches the balance point (the device runs at peak)."""
    return intensity >= machine_balance(device)


def effective_rate(device: DeviceProfile, intensity: float) -> float:
    """The roof's FLOP/s: bandwidth-limited below the ridge point, capped at
    the (utilization-scaled) compute roof above it.  The cap matters: an
    uncapped bandwidth*intensity rate would exceed peak for intense
    workloads, which is unphysical."""
    return device.utilization * min(device.peak_compute,
                                    intensity * device.mem_bandwidth)
