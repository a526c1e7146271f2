import heapq
import math
import random
import tracemalloc
from collections import deque

import numpy as np
import pytest

from codesign import simulator
from codesign.errors import InvariantViolation
from codesign.cost_model import grid_search
from codesign.profiles import load_config
from codesign.simulator import RequestRecord, SimConfig, SimReport

from conftest import CONFIG, saturated_throughput


def test_light_traffic_matches_arrival_rate():
    config = SimConfig(arrival_rate=1.0, service_times=(0.01, 0.01, 0.01),
                       horizon=12000.0, seed=11)
    report = simulator.run(config)
    assert report.throughput == pytest.approx(1.0, rel=0.02)
    assert report.response_time["mean"] == pytest.approx(0.03, rel=0.02)


def test_saturation_at_bottleneck_rate():
    config = SimConfig(arrival_rate=100.0, service_times=(0.05, 0.01, 0.02),
                       horizon=600.0, seed=5)
    report = simulator.run(config)
    assert report.throughput == pytest.approx(20.0, rel=0.02)


def test_no_arrivals_flagged_empty():
    # rate so low the first arrival lands past the horizon
    config = SimConfig(arrival_rate=1e-6, service_times=(0.01, 0.01, 0.01),
                       horizon=10.0, seed=1)
    report = simulator.run(config)
    assert report.completed == 0
    assert report.response_time is None
    assert report.arrivals == 0


def test_config_validation():
    with pytest.raises(InvariantViolation):
        SimConfig(arrival_rate=0.0, service_times=(0.1, 0.1, 0.1), horizon=1.0)
    with pytest.raises(InvariantViolation):
        SimConfig(arrival_rate=1.0, service_times=(0.1, 0.1), horizon=1.0)
    with pytest.raises(InvariantViolation):
        SimConfig(arrival_rate=1.0, service_times=(0.1, 0.1, 0.1), horizon=1.0,
                  warmup=2.0)
    nan, inf = math.nan, math.inf
    for rate, times, horizon, warmup in [
        (inf, (0.1, 0.1, 0.1), 1.0, None),
        (nan, (0.1, 0.1, 0.1), 1.0, None),
        (1.0, (0.1, 0.1, 0.1), inf, None),
        (1.0, (0.1, 0.1, 0.1), nan, None),
        (1.0, (0.1, 0.1, 0.1), 1.0, nan),
        (1.0, (nan, 0.1, 0.1), 1.0, None),
        (1.0, (0.1, inf, 0.1), 1.0, None),
        (1.0, (0.1, 0.1, nan), 1.0, None),
        (1.0, (0.1, -0.1, 0.1), 1.0, None),
        (1.0, (0.0, 0.0, 0.0, 0.0), 1.0, None),
    ]:
        with pytest.raises(InvariantViolation):
            SimConfig(arrival_rate=rate, service_times=times, horizon=horizon,
                      warmup=warmup)


def test_conservation_of_requests():
    for seed in range(5):
        config = SimConfig(arrival_rate=30.0, service_times=(0.05, 0.02, 0.03),
                           horizon=50.0, seed=seed)
        report = simulator.run(config)
        assert report.arrivals == report.completed_total + report.in_system_at_end


def test_response_time_never_below_service_sum():
    config = SimConfig(arrival_rate=10.0, service_times=(0.02, 0.01, 0.03),
                       horizon=500.0, seed=3)
    report = simulator.run(config)
    floor = 0.06
    assert report.response_time["mean"] >= floor * (1 - 1e-12)
    # counts are exact; the windowed rate estimate tracks the arrival rate
    assert report.completed_total <= report.arrivals
    assert report.throughput == pytest.approx(config.arrival_rate, rel=0.05)


def test_slower_stage_never_raises_saturated_throughput():
    base = (0.04, 0.01, 0.02)
    config = SimConfig(arrival_rate=100.0, service_times=base, horizon=400.0, seed=9)
    base_tp = simulator.run(config).throughput
    for stage in range(3):
        slower = list(base)
        slower[stage] *= 1.5
        report = simulator.run(SimConfig(arrival_rate=100.0,
                                         service_times=tuple(slower),
                                         horizon=400.0, seed=9))
        assert report.throughput <= base_tp * (1 + 1e-9)


# (device 1, link, device 2) seconds: each stage as the bottleneck, a tie,
# and the link-dominated pipeline of test_saturated_throughput_is_the_bottleneck_rate
SATURATED_TIMES = [(0.05, 0.01, 0.02), (0.0137, 0.0291, 0.0083), (0.02, 0.01, 0.04),
                   (0.03, 0.03, 0.03), (0.041, 0.041, 0.007), (0.02, 2e6 / 12.5e6, 0.04)]


@pytest.mark.parametrize("times", SATURATED_TIMES)
def test_saturated_pipeline_completes_one_request_per_bottleneck_period(times):
    # At 3x the bottleneck rate the slowest stage is busy through the whole
    # window and its deterministic departures are max(times) apart, so the
    # count is exact up to one completion.  A bottleneck 0.1% slow is 4.5
    # completions short here, which a 5% throughput bound cannot see.
    bottleneck = max(times)
    for seed in range(3):
        config = SimConfig(arrival_rate=3.0 / bottleneck, service_times=times,
                           horizon=1.25 * 4000 * bottleneck, seed=seed)
        report = simulator.run(config)
        periods = (config.horizon - config.effective_warmup) / bottleneck
        assert abs(report.completed - periods) <= 1.0, (seed, report.completed, periods)


def run_logged(config: SimConfig) -> tuple[SimReport, list[RequestRecord]]:
    records = []
    return simulator.run(config, log=records.append), records


def test_identical_seeds_identical_logs():
    config = SimConfig(arrival_rate=20.0, service_times=(0.03, 0.01, 0.02),
                       horizon=100.0, seed=77)
    a, a_records = run_logged(config)
    b, b_records = run_logged(config)
    assert a_records == b_records
    assert a == b
    c, c_records = run_logged(SimConfig(arrival_rate=20.0, service_times=(0.03, 0.01, 0.02),
                                        horizon=100.0, seed=78))
    assert c_records != a_records


def test_littles_law_at_stable_load():
    rng = np.random.default_rng(8)
    for _ in range(5):
        times = tuple(float(t) for t in rng.uniform(0.01, 0.05, 3))
        bottleneck = 1.0 / max(times)
        config = SimConfig(arrival_rate=0.7 * bottleneck, service_times=times,
                           horizon=3000.0, seed=int(rng.integers(0, 1000)))
        report = simulator.run(config)
        in_system = sum(report.queue_occupancy.values())
        predicted = report.throughput * report.response_time["mean"]
        assert in_system == pytest.approx(predicted, rel=0.03)


@pytest.mark.parametrize("times, completions, seed, rate", [
    ((0.02, 0.01, 0.04), 4000, 0, 25.0),
    ((0.03, 0.03, 0.03), 4000, 1, 1.0 / 0.03),
    # a 2 MB embedding over a 12.5e6 B/s link: 0.16 s transfer dominates
    ((0.02, 2e6 / 12.5e6, 0.04), 3000, 2, 12.5e6 / 2e6),
], ids=["bottleneck", "symmetric", "link-dominated"])
def test_saturated_throughput_is_the_bottleneck_rate(times, completions, seed, rate):
    analytic, simulated, rel_err = saturated_throughput(times, completions, seed)
    assert analytic == pytest.approx(rate)
    assert rel_err < 0.05
    assert simulated == pytest.approx(analytic, rel=0.05)


def test_record_timestamps_are_ordered():
    config = SimConfig(arrival_rate=15.0, service_times=(0.03, 0.01, 0.02),
                       horizon=200.0, seed=4)
    _, records = run_logged(config)
    assert records
    for r in records:
        assert r.arrival <= r.start1 < r.end1 < r.end_link < r.end2
        assert math.isclose(r.end1 - r.start1, 0.03, rel_tol=1e-9)


class _ReferenceStage:
    """Single FIFO server; tracks a time-weighted occupancy integral over
    the measurement window."""

    def __init__(self, service_time, window_lo, window_hi):
        self.service_time = service_time
        self.queue = deque()
        self.busy = None
        self.count = 0
        self.last_t = 0.0
        self.integral = 0.0
        self.window_lo = window_lo
        self.window_hi = window_hi

    def advance(self, t):
        lo = max(self.last_t, self.window_lo)
        hi = min(t, self.window_hi)
        if hi > lo:
            self.integral += self.count * (hi - lo)
        self.last_t = t

    def enter(self, t, req):
        self.advance(t)
        self.count += 1
        if self.busy is None:
            self.busy = req
            return t + self.service_time
        self.queue.append(req)
        return None

    def leave(self, t):
        self.advance(t)
        finished = self.busy
        self.count -= 1
        if self.queue:
            self.busy = self.queue.popleft()
            return finished, self.busy, t + self.service_time
        self.busy = None
        return finished, None, None


def reference_event_run(config: SimConfig) -> tuple[SimReport, list[RequestRecord]]:
    """Discrete-event simulation of the same pipeline: a heap of
    (time, seq, stage, request) events over three FIFO stages, with
    per-request timestamps.  The oracle for `simulator.run`; returns the
    report and the window's records."""
    rng = random.Random(config.seed)
    warmup = config.effective_warmup
    stages = [_ReferenceStage(s, warmup, config.horizon) for s in config.service_times]
    events, seq = [], 0

    def push(t, stage, req):
        nonlocal seq
        heapq.heappush(events, (t, seq, stage, req))
        seq += 1

    stamps, next_id = {}, 0  # request -> [arrival, start1, end1, end_link, end2]
    first = rng.expovariate(config.arrival_rate)
    if first <= config.horizon:
        push(first, -1, next_id)
    completed_total, responses, records = 0, [], []
    while events:
        t, _, stage_idx, req = heapq.heappop(events)
        if t > config.horizon:
            break
        if stage_idx == -1:
            stamps[req] = [t, None, None, None, None]
            done = stages[0].enter(t, req)
            if done is not None:
                stamps[req][1] = t
                push(done, 0, req)
            next_id += 1
            gap = rng.expovariate(config.arrival_rate)
            if t + gap <= config.horizon:
                push(t + gap, -1, next_id)
        else:
            finished, started, started_done = stages[stage_idx].leave(t)
            if started is not None:
                if stage_idx == 0:
                    stamps[started][1] = t
                push(started_done, stage_idx, started)
            stamps[finished][2 + stage_idx] = t
            if stage_idx < 2:
                done = stages[stage_idx + 1].enter(t, finished)
                if done is not None:
                    push(done, stage_idx + 1, finished)
            else:
                completed_total += 1
                if t > warmup:
                    responses.append(t - stamps[finished][0])
                    records.append(RequestRecord(finished, *stamps[finished]))
                del stamps[finished]
    for stage in stages:
        stage.advance(config.horizon)
    return _reference_report(config, responses, [stage.integral for stage in stages],
                             next_id, completed_total, len(stamps)), records


def _reference_report(config, responses, integrals, arrivals, completed_total,
                      in_system_at_end) -> SimReport:
    window = config.horizon - config.effective_warmup
    ordered = sorted(responses)

    def rank(q):
        return ordered[min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1]

    response_time = {"mean": math.fsum(ordered) / len(ordered), "p50": rank(0.50),
                     "p95": rank(0.95), "max": ordered[-1]} if ordered else None
    return SimReport(
        throughput=len(responses) / window,
        response_time=response_time,
        queue_occupancy={name: integral / window
                         for name, integral in zip(simulator.STAGES, integrals)},
        completed=len(responses),
        arrivals=arrivals,
        completed_total=completed_total,
        in_system_at_end=in_system_at_end,
    )


def reference_minmax_run(config: SimConfig) -> tuple[SimReport, list[RequestRecord]]:
    """The Lindley pass as first written, with builtin max/min in every
    step.  `simulator.run` replaced them with conditional expressions and
    must match this loop exactly, occupancies and records included."""
    expovariate = random.Random(config.seed).expovariate
    rate, horizon = config.arrival_rate, config.horizon
    warmup = config.effective_warmup
    s1, s_link, s2 = config.service_times

    d1 = d_link = d2 = 0.0
    occ1 = occ_link = occ2 = 0.0
    arrivals = completed_total = 0
    responses, records = [], []

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
                records.append(RequestRecord(arrivals, a, start1, d1, d_link, d2))
        arrivals += 1
        a += expovariate(rate)
    return _reference_report(config, responses, (occ1, occ_link, occ2), arrivals,
                             completed_total, arrivals - completed_total), records


def _paper_winner_times():
    config = load_config(CONFIG)
    cost = grid_search(config.model, config.device1, config.device2, config.link,
                       config.penalties, config.lambda1).cost
    return (cost.t1, cost.t3, cost.t2)


def test_run_keeps_one_response_time_per_completion():
    # paper.json's winner at rate 2000 for 100 s: the response times are
    # sorted in place, 35.3 bytes per completion; a sorted copy took 43.3
    config = SimConfig(arrival_rate=2000.0, service_times=_paper_winner_times(),
                       horizon=100.0, seed=1)
    tracemalloc.start()
    try:
        report = simulator.run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.completed == 179_584
    assert peak / report.completed < 39.0


def _assert_equals_minmax_loop(config: SimConfig):
    got, got_records = run_logged(config)
    want, want_records = reference_minmax_run(config)
    for field in SimReport._fields:
        assert getattr(got, field) == getattr(want, field), field
    assert got_records == want_records
    return got, got_records


def _assert_matches_reference(config: SimConfig):
    got, got_records = _assert_equals_minmax_loop(config)
    want, want_records = reference_event_run(config)
    assert got_records == want_records
    for name in ("arrivals", "completed", "completed_total", "in_system_at_end",
                 "throughput", "response_time"):
        assert getattr(got, name) == getattr(want, name), name
    for stage in simulator.STAGES:
        assert got.queue_occupancy[stage] == pytest.approx(
            want.queue_occupancy[stage], rel=1e-12, abs=0.0)
    return got, got_records


# a stage may take no time, as the link does for a zero-byte activation
@pytest.mark.parametrize("times", [(0.05, 0.02, 0.03), (0.01, 0.03, 0.02), (0.05, 0.0, 0.03),
                                   (0.0, 0.02, 0.0), "paper"])
def test_recursion_matches_event_simulation(times):
    if times == "paper":
        times = _paper_winner_times()
    for rho in (0.3, 0.9, 1.5, 3.0):
        rate = rho / max(times)
        for seed in range(6):
            _assert_matches_reference(SimConfig(arrival_rate=rate, service_times=times,
                                                horizon=300.0 / rate, seed=seed))


@pytest.mark.parametrize("times", [(0.05, 0.02, 0.03), (0.05, 0.0, 0.03), "paper"])
@pytest.mark.parametrize("rho", [0.3, 0.9, 1.5, 3.0])
def test_run_equals_minmax_loop_exactly(times, rho):
    # the event oracle compares occupancies to 1e-12 only; this pins every
    # float of the report, so a change in how intervals are clipped shows
    if times == "paper":
        times = _paper_winner_times()
    rate = rho / max(times)
    horizon = 2000.0 / rate
    for warmup in (0.0, None, 0.99 * horizon):
        for seed in range(6):
            config = SimConfig(arrival_rate=rate, service_times=times, horizon=horizon,
                               seed=seed, warmup=warmup)
            got, got_records = run_logged(config)
            want, want_records = reference_minmax_run(config)
            for field in SimReport._fields:
                assert getattr(got, field) == getattr(want, field), (warmup, seed, field)
            assert got_records == want_records, (warmup, seed)


def test_pipeline_of_zero_time_stages_responds_at_once():
    report, _ = _assert_matches_reference(SimConfig(arrival_rate=50.0,
                                                    service_times=(0.0, 0.0, 0.0),
                                                    horizon=20.0, seed=2))
    assert report.completed > 0
    assert report.response_time["max"] == 0.0
    assert report.in_system_at_end == 0


def test_events_exactly_at_the_horizon_count():
    # run() splits its pass where arrivals pass the warmup and where
    # departures pass the horizon; each case puts an event on such a boundary
    times = (0.03, 0.01, 0.02)
    base = SimConfig(arrival_rate=20.0, service_times=times, horizon=100.0, seed=3)
    _, records = run_logged(base)
    last = records[-1]
    # a request leaving exactly at the horizon is complete
    _, logged = _assert_matches_reference(
        SimConfig(arrival_rate=20.0, service_times=times, horizon=last.end2, seed=3))
    assert logged[-1] == last
    # a request arriving exactly at the horizon is counted, still in the system
    report, _ = _assert_matches_reference(
        SimConfig(arrival_rate=20.0, service_times=times, horizon=last.arrival, seed=3))
    assert report.arrivals == last.id + 1
    assert report.in_system_at_end >= 1
    # a request arriving exactly at the warmup is before the window, but it
    # leaves inside it, so its response counts
    middle = records[len(records) // 2]
    _, logged = _assert_matches_reference(
        SimConfig(arrival_rate=20.0, service_times=times, horizon=100.0, seed=3,
                  warmup=middle.arrival))
    assert middle in logged
    # a window that no arrival enters: it opens and closes between two arrivals
    before, after = next((r, s) for r, s in zip(records, records[1:]) if s.id == r.id + 1)
    third = (after.arrival - before.arrival) / 3
    warmup = before.arrival + third
    report, logged = _assert_matches_reference(
        SimConfig(arrival_rate=20.0, service_times=times, horizon=warmup + third,
                  seed=3, warmup=warmup))
    assert report.arrivals == before.id + 1
    assert all(r.arrival < warmup for r in logged)


def test_run_equals_minmax_loop_on_any_config():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @hypothesis.given(rho=st.floats(0.1, 5.0),
                      times=st.tuples(*[st.floats(1e-9, 1.0)] * 3),
                      expected_arrivals=st.floats(0.5, 400.0),
                      seed=st.integers(0, 2**32),
                      warmup=st.one_of(st.none(), st.just(0.0), st.floats(0.0, 1.0)))
    def check(rho, times, expected_arrivals, seed, warmup):
        rate = rho / max(times)
        horizon = expected_arrivals / rate
        if warmup:                      # a fraction of the horizon
            warmup *= horizon
            hypothesis.assume(warmup < horizon)
        _assert_equals_minmax_loop(SimConfig(arrival_rate=rate, service_times=times,
                                             horizon=horizon, seed=seed, warmup=warmup))

    check()
