"""Tandem-queue simulation of the two-device inference pipeline.

Requests arrive with exponential inter-arrival times and flow through three
stages in series (device 1 compute, link transfer, device 2 compute), each
a single server with an unbounded FIFO queue and a deterministic service
time taken from the analytical cost breakdown.  Arrivals are the only
source of randomness, so queueing effects can be isolated and compared
against the analytical model.  Departures follow from the tandem-queue
recursion (Lindley 1952) in one pass over the arrivals; no event list is
needed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .cost_model import PartitionPlan
from .errors import InvariantViolation
from .profiles import is_finite_real

STAGES = ("device1", "link", "device2")

MAX_EXPECTED_ARRIVALS = 1e7  # run() keeps a response time per completion


@dataclass(frozen=True)
class SimConfig:
    arrival_rate: float                       # requests/s
    service_times: tuple[float, float, float]  # (device1, link, device2) seconds
    horizon: float                             # simulated seconds
    seed: int = 0
    warmup: float | None = None                # default: 10% of horizon

    def __post_init__(self):
        if not (is_finite_real(self.arrival_rate) and self.arrival_rate > 0):
            raise InvariantViolation("arrival_rate must be a finite number > 0")
        if len(self.service_times) != 3 or not all(
                is_finite_real(s) and s > 0 for s in self.service_times):
            raise InvariantViolation("service_times must be three finite positive stage times")
        if not (is_finite_real(self.horizon) and self.horizon > 0):
            raise InvariantViolation("horizon must be a finite number > 0")
        if self.arrival_rate * self.horizon > MAX_EXPECTED_ARRIVALS:
            raise InvariantViolation(f"arrival_rate * horizon exceeds {MAX_EXPECTED_ARRIVALS:g}")
        if self.warmup is not None and not (
                is_finite_real(self.warmup) and 0 <= self.warmup < self.horizon):
            raise InvariantViolation("warmup must be finite and satisfy 0 <= warmup < horizon")

    @property
    def effective_warmup(self) -> float:
        return 0.1 * self.horizon if self.warmup is None else self.warmup


@dataclass(frozen=True)
class RequestRecord:
    id: int
    arrival: float
    start1: float
    end1: float
    end_link: float
    end2: float


@dataclass(frozen=True)
class SimReport:
    throughput: float                 # completions/s in the measurement window
    response_time: dict | None        # mean/p50/p95/max; None when nothing completed
    queue_occupancy: dict             # stage -> time-averaged jobs present (queued + in service)
    completed: int                    # completions inside the measurement window
    arrivals: int
    completed_total: int
    in_system_at_end: int
    records: tuple[RequestRecord, ...] = field(default=(), repr=False)


def _percentile(sorted_values: list[float], q: float) -> float:
    # nearest-rank definition; deterministic and monotone
    rank = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


def run(config: SimConfig, keep_log: bool = False) -> SimReport:
    """Simulate up to the horizon; statistics cover completions (and
    occupancy) inside the [warmup, horizon] window.  Identical seeds give
    identical arrivals and reports.

    Each stage is a FIFO server with a deterministic service time, so a
    request leaves a stage at max(its arrival there, the previous request's
    departure) + service time (Lindley's recursion), and one stage's
    departures are the next stage's arrivals.  A stage's occupancy is the
    sum of each request's [enter, leave) interval clipped to the window.
    """
    expovariate = random.Random(config.seed).expovariate
    rate, horizon = config.arrival_rate, config.horizon
    warmup = config.effective_warmup
    s1, s_link, s2 = config.service_times

    d1 = d_link = d2 = 0.0              # latest departure from each stage
    occ1 = occ_link = occ2 = 0.0        # occupancy integrals over the window
    arrivals = completed_total = 0
    responses: list[float] = []
    records: list[RequestRecord] = []

    a = expovariate(rate)
    while a <= horizon:
        start1 = max(a, d1)
        d1 = start1 + s1
        d_link = max(d1, d_link) + s_link
        d2 = max(d_link, d2) + s2
        occ1 += max(0.0, min(d1, horizon) - max(a, warmup))
        occ_link += max(0.0, min(d_link, horizon) - max(d1, warmup))
        occ2 += max(0.0, min(d2, horizon) - max(d_link, warmup))
        if d2 <= horizon:
            completed_total += 1
            if d2 > warmup:
                responses.append(d2 - a)
                if keep_log:
                    records.append(RequestRecord(arrivals, a, start1, d1, d_link, d2))
        arrivals += 1
        a += expovariate(rate)

    window = horizon - warmup
    if responses:
        ordered = sorted(responses)
        response_time = {
            "mean": sum(ordered) / len(ordered),
            "p50": _percentile(ordered, 0.50),
            "p95": _percentile(ordered, 0.95),
            "max": ordered[-1],
        }
    else:
        response_time = None

    return SimReport(
        throughput=len(responses) / window,
        response_time=response_time,
        queue_occupancy=dict(zip(STAGES, (occ1 / window, occ_link / window,
                                          occ2 / window))),
        completed=len(responses),
        arrivals=arrivals,
        completed_total=completed_total,
        in_system_at_end=arrivals - completed_total,
        records=tuple(records),
    )


def validate_against_model(plan: PartitionPlan, rate_factor: float = 3.0,
                           target_completions: int = 10000, seed: int = 0,
                           ) -> tuple[float, float, float]:
    """Drive the pipeline at saturation and compare simulated throughput to
    the bottleneck rate 1/max(t1, t2, t3) implied by the analytical costs.

    Returns (analytic bottleneck rate, simulated rate, relative error).
    """
    cost = plan.cost
    bottleneck = 1.0 / max(cost.t1, cost.t2, cost.t3)
    horizon = 1.25 * target_completions / bottleneck
    config = SimConfig(
        arrival_rate=rate_factor * bottleneck,
        service_times=(cost.t1, cost.t3, cost.t2),
        horizon=horizon,
        seed=seed,
    )
    report = run(config)
    rel_err = abs(report.throughput - bottleneck) / bottleneck
    return bottleneck, report.throughput, rel_err
