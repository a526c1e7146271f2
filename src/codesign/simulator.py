"""Tandem-queue simulation of the two-device inference pipeline.

Requests arrive with exponential inter-arrival times and flow through three
stages in series (device 1 compute, link transfer, device 2 compute), each
a single server with an unbounded FIFO queue and a deterministic service
time taken from the analytical cost breakdown.  Arrivals are the only
source of randomness, so queueing effects can be isolated and compared
against the analytical model.  Departures follow from the tandem-queue
recursion (Lindley 1952) in one pass over the arrivals; no event list is
needed, and a request log is handed on as the pass computes each record,
so a logged run holds no more than an unlogged one.  That pass is the
whole cost of a run, so it calls no Python function per arrival: the
exponential draw is `Random.expovariate`'s own expression written inline,
and conditional expressions stand in for builtin max and min, which cost
several times a comparison on CPython 3.10-3.12.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from .errors import InvariantViolation
from .profiles import is_finite_real

STAGES = ("device1", "link", "device2")

# run() keeps one response time per completion, logged or not: 35.3 bytes
# each under tracemalloc (paper.json's winner at rate 2000 for 100 s, Python
# 3.10-3.13), so about 0.35 GB at this bound
MAX_EXPECTED_ARRIVALS = 1e7


class SimConfig(namedtuple("SimConfig", "arrival_rate service_times horizon seed warmup",
                            defaults=(0, None))):
    """Arrival rate (requests/s), the (device1, link, device2) service
    seconds, the simulated seconds, the seed, and the warmup seconds
    excluded from statistics (None: 10% of the horizon)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (is_finite_real(self.arrival_rate) and self.arrival_rate > 0):
            raise InvariantViolation("arrival_rate must be a finite number > 0")
        if len(self.service_times) != 3 or not all(
                is_finite_real(s) and s >= 0 for s in self.service_times):
            raise InvariantViolation("service_times must be three finite stage times >= 0")
        if not (is_finite_real(self.horizon) and self.horizon > 0):
            raise InvariantViolation("horizon must be a finite number > 0")
        if self.arrival_rate * self.horizon > MAX_EXPECTED_ARRIVALS:
            raise InvariantViolation(f"arrival_rate * horizon exceeds {MAX_EXPECTED_ARRIVALS:g}")
        if self.warmup is not None and not (
                is_finite_real(self.warmup) and 0 <= self.warmup < self.horizon):
            raise InvariantViolation("warmup must be finite and satisfy 0 <= warmup < horizon")
        return self

    @property
    def effective_warmup(self) -> float:
        return 0.1 * self.horizon if self.warmup is None else self.warmup


RequestRecord = namedtuple("RequestRecord", "id arrival start1 end1 end_link end2")

# throughput: completions/s in the measurement window; response_time:
# mean/p50/p95/max, or None when nothing completed; queue_occupancy: stage
# -> time-averaged jobs present (queued + in service); completed:
# completions inside the window.
SimReport = namedtuple("SimReport", "throughput response_time queue_occupancy completed "
                                    "arrivals completed_total in_system_at_end")


def _percentile(sorted_values: list[float], q: float) -> float:
    # nearest-rank definition; deterministic and monotone
    rank = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


def run(config: SimConfig, log=None) -> SimReport:
    """Simulate up to the horizon; statistics cover completions (and
    occupancy) inside the [warmup, horizon] window.  Identical seeds give
    identical arrivals and reports.  ``log``, when given, is called with
    each window completion's RequestRecord as the pass computes it.  The
    window's response times are the one list a run keeps; it is sorted in
    place for the percentiles.

    Each stage is a FIFO server with a deterministic service time, so a
    request leaves a stage at max(its arrival there, the previous request's
    departure) + service time (Lindley's recursion), and one stage's
    departures are the next stage's arrivals.  A stage's occupancy is the
    sum of each request's [enter, leave) interval clipped to the window.

    Arrival times increase and each stage's departures never decrease, so
    the pass runs as three consecutive loops, each with only the clipping
    its requests can need: arrivals up to the warmup (clip at both ends);
    window arrivals that leave by the horizon (no clipping: each interval
    lies inside the window, and each request completes); and the rest,
    which all leave after the horizon (clip at the horizon only, and none
    completes).  Each float, and the order of the additions into each sum,
    is what one loop clipping every interval at both ends gives;
    `tests/test_simulator.py` keeps that loop as the reference.
    """
    rate, horizon = config.arrival_rate, config.horizon
    random_ = random.Random(config.seed).random
    ln = math.log
    logged = log is not None            # so the loops test only a bool
    warmup = config.effective_warmup
    s1, s_link, s2 = config.service_times

    d1 = d_link = d2 = 0.0              # latest departure from each stage
    occ1 = occ_link = occ2 = 0.0        # occupancy integrals over the window
    arrivals = completed_total = 0
    responses: list[float] = []
    append = responses.append

    # The draw is Random.expovariate's body, the same on CPython 3.10-3.13
    # (the simulate goldens pin the stream it gives).  Times are
    # non-negative and never NaN, so each conditional expression picks the
    # float max or min would, and skipping an interval clipped to nothing, or
    # adding one of length 0.0, leaves each sum as adding max(0.0, x) would.
    a = -ln(1.0 - random_()) / rate
    while a <= warmup:                  # before the window: a < horizon
        start1 = a if a > d1 else d1
        d1 = start1 + s1
        d_link = (d1 if d1 > d_link else d_link) + s_link
        d2 = (d_link if d_link > d2 else d2) + s2
        x = (d1 if d1 < horizon else horizon) - warmup
        if x > 0.0:
            occ1 += x
        x = (d_link if d_link < horizon else horizon) - (d1 if d1 > warmup else warmup)
        if x > 0.0:
            occ_link += x
        x = (d2 if d2 < horizon else horizon) - (d_link if d_link > warmup else warmup)
        if x > 0.0:
            occ2 += x
        if d2 <= horizon:
            completed_total += 1
            if d2 > warmup:
                append(d2 - a)
                if logged:
                    log(RequestRecord(arrivals, a, start1, d1, d_link, d2))
        arrivals += 1
        a += -ln(1.0 - random_()) / rate

    # warmup < a <= start1 <= d1 <= d_link <= d2 <= horizon: every interval
    # lies in the window and every request completes, so the response list
    # counts this loop's arrivals (and numbers their records)
    before = len(responses)
    while a <= horizon:
        start1 = a if a > d1 else d1
        d1 = start1 + s1
        d_link = (d1 if d1 > d_link else d_link) + s_link
        d2 = (d_link if d_link > d2 else d2) + s2
        if d2 > horizon:
            break
        occ1 += d1 - a
        occ_link += d_link - d1
        occ2 += d2 - d_link
        append(d2 - a)
        if logged:
            log(RequestRecord(arrivals + len(responses) - before - 1, a, start1, d1, d_link, d2))
        a += -ln(1.0 - random_()) / rate
    arrivals += len(responses) - before
    completed_total += len(responses) - before

    # From here on every request leaves after the horizon (d2 never
    # decreases), so none completes, each interval starts inside the window,
    # and device 2's occupancy ends at the horizon: d2 is not needed.  The
    # loop is entered with the departures of the request that broke the one
    # above, and it computes the next arrival's at the bottom.
    while a <= horizon:
        occ1 += (d1 if d1 < horizon else horizon) - a
        x = (d_link if d_link < horizon else horizon) - d1
        if x > 0.0:
            occ_link += x
        x = horizon - d_link
        if x > 0.0:
            occ2 += x
        arrivals += 1
        a += -ln(1.0 - random_()) / rate
        d1 = (a if a > d1 else d1) + s1
        d_link = (d1 if d1 > d_link else d_link) + s_link

    window = horizon - warmup
    if responses:
        responses.sort()
        response_time = {
            "mean": math.fsum(responses) / len(responses),
            "p50": _percentile(responses, 0.50),
            "p95": _percentile(responses, 0.95),
            "max": responses[-1],
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
    )
