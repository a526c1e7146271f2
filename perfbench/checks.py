"""Output checks for every benchmark op, built on references that share no
code with the program under test.

* `Problem` re-derives the cost model from the config JSON: per-layer FLOP
  and byte sums, the roofline rate `min(peak, I * bw) * utilization`, the
  link term and the cut-weighted accuracy penalty.
* `reference_tandem` replays the simulator's arrivals from the same
  `random.Random(seed).expovariate` draws and pushes them through three
  FIFO servers with `D = max(A, D_prev) + s` per stage.

Each `check_*` function returns a list of error strings; empty means pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

STRATEGIES = ("conv3", "conv3+skip", "conv3+conv1", "conv3+skip+conv1")
RANK = {name: i for i, name in enumerate(STRATEGIES)}
FULL = STRATEGIES[-1]
PLAN_COLUMNS = ["model", "cut", "theta1", "theta2", "t1", "t2", "t3",
                "t_total", "dA", "L", "feasible1", "feasible2"]
REL_TOL = 1e-9
FUSE_MAX_REL_ERROR = 1e-9
REFINE_ITERATIONS = 500                       # `plan --refine` default
CONVERGENCE_STEPS = 200                       # `convergence-lab` default
FUSE_TRIALS = 100                             # `fuse-check` default


def close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * max(abs(got), abs(want))


# ---------------------------------------------------------------------------
# Independent cost model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Candidate:
    cut: int
    theta1: str
    theta2: str
    t1: float
    t2: float
    t3: float
    t_total: float
    dA: float
    L: float
    lambda_c: float
    lambda_m: float

    @property
    def key(self):
        return (self.L, self.t_total, self.cut, RANK[self.theta1], RANK[self.theta2])


def _prefix(values: list[float]) -> list[float]:
    acc, sums = 0.0, [0.0]
    for value in values:
        acc += value
        sums.append(acc)
    return sums


class Problem:
    """A planning config, evaluated without the program's code."""

    def __init__(self, raw: dict):
        d1, d2 = raw["devices"][0], raw["devices"][1]
        self.devices = [(float(d["peak_compute"]), float(d["mem_bandwidth"]),
                         float(d.get("utilization", 1.0)), d["name"]) for d in (d1, d2)]
        self.bandwidth = float(raw["link"]["bandwidth"])
        self.fixed_latency = float(raw["link"].get("fixed_latency", 0.0))
        layers = raw["model"]["layers"]
        self.name = raw["model"]["name"]
        self.n = len(layers)
        self.flops = {s: [float(l["flops_by_strategy"][s]) for l in layers] for s in STRATEGIES}
        self.bytes = {s: [float(l["bytes_by_strategy"][s]) for l in layers] for s in STRATEGIES}
        self.activations = [float(l["output_activation_bytes"]) for l in layers]
        self.penalty = {sub: {s: float(raw["penalties"][str(sub)][s]) for s in STRATEGIES}
                        for sub in (1, 2)}
        self.lambda1 = float(raw["lambda1"])
        # prefix[s][k] = sum of layers[0:k], accumulated left to right
        self.prefix_flops = {s: _prefix(self.flops[s]) for s in STRATEGIES}
        self.prefix_bytes = {s: _prefix(self.bytes[s]) for s in STRATEGIES}

    @classmethod
    def from_file(cls, path) -> "Problem":
        return cls(json.loads(Path(path).read_text()))

    def _seconds(self, device: int, flops: float, data: float) -> float:
        peak, bw, utilization, _ = self.devices[device]
        return flops / (utilization * min(peak, (flops / data) * bw))

    def segment(self, start: int, stop: int, strategy: str, exact: bool) -> tuple[float, float]:
        """(FLOPs, bytes) of layers[start:stop].  `exact` sums left to right
        from `start`; otherwise prefix sums are differenced, which can be
        off by an ulp."""
        if exact:
            return (sum(self.flops[strategy][start:stop]),
                    sum(self.bytes[strategy][start:stop]))
        pf, pb = self.prefix_flops[strategy], self.prefix_bytes[strategy]
        return pf[stop] - pf[start], pb[stop] - pb[start]

    def evaluate(self, cut: int, theta1: str, theta2: str, exact: bool = True) -> Candidate:
        if not 1 <= cut <= self.n - 1:
            raise ValueError(f"cut {cut} outside 1..{self.n - 1}")
        c1, m1 = self.segment(0, cut, theta1, exact)
        c2, m2 = self.segment(cut, self.n, theta2, exact)
        t1 = self._seconds(0, c1, m1)
        t2 = self._seconds(1, c2, m2)
        t3 = self.activations[cut - 1] / self.bandwidth + self.fixed_latency
        t_total = t1 + t2 + t3
        lam_c = c1 / (c1 + c2)
        dA = lam_c * self.penalty[1][theta1] + (1 - lam_c) * self.penalty[2][theta2]
        return Candidate(cut, theta1, theta2, t1, t2, t3, t_total, dA,
                         t_total + self.lambda1 * dA, lam_c, m1 / (m1 + m2))

    def candidates(self) -> list[Candidate]:
        return [self.evaluate(cut, a, b, exact=False)
                for cut in range(1, self.n) for a in STRATEGIES for b in STRATEGIES]

    def best(self, grid: list[Candidate] | None = None) -> Candidate:
        """Grid argmin by (L, t_total, cut, theta ranks).  Candidates within
        REL_TOL of the prefix-sum minimum are re-evaluated exactly, so the
        choice among near-ties matches left-to-right summation."""
        grid = grid or self.candidates()
        low = min(c.L for c in grid)
        near = [self.evaluate(c.cut, c.theta1, c.theta2) for c in grid
                if c.L <= low * (1 + REL_TOL)]
        return min(near, key=lambda c: c.key)

    def intensity(self, strategy: str = FULL) -> float:
        return sum(self.flops[strategy]) / sum(self.bytes[strategy])


# ---------------------------------------------------------------------------
# Reference tandem queue
# ---------------------------------------------------------------------------

def reference_tandem(rate: float, service: tuple[float, float, float], horizon: float,
                     seed: int, warmup: float | None = None) -> dict:
    """Counts and response-time stats of three FIFO servers in series,
    fed by Poisson arrivals up to `horizon`; stats cover completions in
    (warmup, horizon]."""
    rng = random.Random(seed)
    warmup = 0.1 * horizon if warmup is None else warmup
    arrivals = []
    t = rng.expovariate(rate)
    while t <= horizon:
        arrivals.append(t)
        t = t + rng.expovariate(rate)

    stage_in, occupancy = arrivals, []
    for s in service:
        out, previous = [], -math.inf
        for a in stage_in:
            previous = max(a, previous) + s
            out.append(previous)
        present = 0.0
        for enter, leave in zip(stage_in, out):
            lo, hi = max(enter, warmup), min(leave, horizon)
            if hi > lo:
                present += hi - lo
        occupancy.append(present / (horizon - warmup))
        stage_in = out

    done = [d for d in stage_in if d <= horizon]
    responses = sorted(d - a for a, d in zip(arrivals, done) if d > warmup)
    if responses:
        def rank(q):
            return responses[min(len(responses), max(1, math.ceil(q * len(responses)))) - 1]
        response_time = {"mean": sum(responses) / len(responses), "p50": rank(0.50),
                         "p95": rank(0.95), "max": responses[-1]}
    else:
        response_time = None
    return {
        "arrivals": len(arrivals),
        "completed_total": len(done),
        "in_system_at_end": len(arrivals) - len(done),
        "completed": len(responses),
        "throughput": len(responses) / (horizon - warmup),
        "response_time": response_time,
        "queue_occupancy": dict(zip(("device1", "link", "device2"), occupancy)),
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _finite(value: str) -> bool:
    try:
        return math.isfinite(float(value))
    except ValueError:
        return False


def check_plan_csv(text: str, problem: Problem) -> list[str]:
    """Every grid candidate exactly once, finite, matching the reference
    costs, in ranking order, with the reference argmin first."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != PLAN_COLUMNS:
        return [f"plan header {header!r}"]
    rows = list(reader)
    want = (problem.n - 1) * len(STRATEGIES) ** 2
    if len(rows) != want:
        return [f"plan has {len(rows)} rows, expected {want}"]
    errors, seen, previous, grid = [], set(), None, []
    for line, row in enumerate(rows, start=2):
        if len(row) != len(PLAN_COLUMNS):
            return [f"plan line {line}: {len(row)} fields"]
        rec = dict(zip(PLAN_COLUMNS, row))
        if rec["model"] != problem.name:
            return [f"plan line {line}: model {rec['model']!r}"]
        if not all(_finite(rec[k]) for k in ("t1", "t2", "t3", "t_total", "dA", "L")):
            return [f"plan line {line}: non-finite value"]
        if rec["theta1"] not in RANK or rec["theta2"] not in RANK:
            return [f"plan line {line}: unknown strategy"]
        if rec["feasible1"] not in ("true", "false") or rec["feasible2"] not in ("true", "false"):
            return [f"plan line {line}: feasibility flags"]
        cut = int(rec["cut"])
        ident = (cut, rec["theta1"], rec["theta2"])
        if ident in seen or not 1 <= cut <= problem.n - 1:
            return [f"plan line {line}: candidate {ident} repeated or out of range"]
        seen.add(ident)
        key = (float(rec["L"]), float(rec["t_total"]), cut,
               RANK[rec["theta1"]], RANK[rec["theta2"]])
        if previous is not None and key < previous:
            return [f"plan line {line}: out of ranking order"]
        previous = key
        ref = problem.evaluate(*ident, exact=False)
        grid.append(ref)
        for col, value in (("t1", ref.t1), ("t2", ref.t2), ("t3", ref.t3),
                           ("t_total", ref.t_total), ("dA", ref.dA), ("L", ref.L)):
            if not close(float(rec[col]), value):
                errors.append(f"plan line {line}: {col}={rec[col]} but reference {value!r}")
        if errors:
            return errors

    first = dict(zip(PLAN_COLUMNS, rows[0]))
    ident = (int(first["cut"]), first["theta1"], first["theta2"])
    exact = problem.evaluate(*ident)
    if not close(float(first["L"]), exact.L):
        return [f"winner L={first['L']} but reference {exact.L!r}"]
    best = problem.best(grid)
    if (best.cut, best.theta1, best.theta2) != ident and not close(best.L, exact.L):
        return [f"winner {ident} but reference argmin is "
                f"{(best.cut, best.theta1, best.theta2)} with L={best.L!r}"]
    return []


def check_simulate_json(text: str, problem: Problem, rate: float, horizon: float,
                        seed: int) -> list[str]:
    """The grid winner's service times through the reference tandem queue
    must reproduce every count exactly and every statistic within REL_TOL."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"simulate output is not JSON: {exc}"]
    best = problem.best()
    errors = []
    if doc.get("model") != problem.name:
        errors.append(f"simulate model {doc.get('model')!r}")
    if doc.get("plan") != {"cut": best.cut, "theta1": best.theta1, "theta2": best.theta2}:
        errors.append(f"simulate plan {doc.get('plan')!r} is not the grid winner")
    if (doc.get("arrival_rate"), doc.get("horizon"), doc.get("seed")) != (rate, horizon, seed):
        errors.append("simulate echoes other rate/horizon/seed than requested")
    st = doc.get("service_times") or {}
    for key, want in (("t1", best.t1), ("t3", best.t3), ("t2", best.t2)):
        if not isinstance(st.get(key), float) or not close(st[key], want):
            errors.append(f"service_times.{key}={st.get(key)!r} but reference {want!r}")
    if errors:
        return errors

    ref = reference_tandem(rate, (st["t1"], st["t3"], st["t2"]), horizon, seed)
    for key in ("arrivals", "completed", "completed_total", "in_system_at_end"):
        if doc.get(key) != ref[key]:
            errors.append(f"{key}={doc.get(key)!r} but reference {ref[key]!r}")
    if not close(doc.get("throughput", math.nan), ref["throughput"]):
        errors.append(f"throughput={doc.get('throughput')!r} but reference {ref['throughput']!r}")
    got_rt, want_rt = doc.get("response_time"), ref["response_time"]
    if (got_rt is None) != (want_rt is None):
        errors.append(f"response_time={got_rt!r} but reference {want_rt!r}")
    elif want_rt is not None:
        for key, want in want_rt.items():
            if not close(got_rt.get(key, math.nan), want):
                errors.append(f"response_time.{key}={got_rt.get(key)!r} but reference {want!r}")
    occupancy = doc.get("queue_occupancy") or {}
    for stage, want in ref["queue_occupancy"].items():
        got = occupancy.get(stage, math.nan)
        if not (close(got, want) or abs(got - want) <= 1e-12):
            errors.append(f"queue_occupancy.{stage}={got!r} but reference {want!r}")
    return errors


def _csv_rows(text: str, header: list[str]) -> tuple[list[list[str]] | None, list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return None, [f"header {rows[0] if rows else None!r}, expected {header!r}"]
    return rows[1:], []


def check_trace_csv(text: str) -> list[str]:
    rows, errors = _csv_rows(text, ["iteration", "lambda", "t_total"])
    if errors:
        return errors
    if [int(r[0]) for r in rows] != list(range(REFINE_ITERATIONS + 1)):
        return [f"refine trace has {len(rows)} rows, expected {REFINE_ITERATIONS + 1}"]
    if not all(_finite(r[1]) and _finite(r[2]) for r in rows):
        return ["refine trace has a non-finite value"]
    return []


def check_report_json(text: str, problem: Problem, plan_csv: str, sim_json: str) -> list[str]:
    doc = json.loads(text)
    first = next(csv.DictReader(io.StringIO(plan_csv)))
    want_plan = {"cut": int(first["cut"]), "theta1": first["theta1"],
                 "theta2": first["theta2"],
                 "feasible1": first["feasible1"] == "true",
                 "feasible2": first["feasible2"] == "true",
                 **{k: float(first[k]) for k in ("t1", "t2", "t3", "t_total", "dA", "L")}}
    errors = []
    if doc.get("analytical_only") is not False:
        errors.append("report is analytical_only")
    if doc.get("model") != problem.name:
        errors.append(f"report model {doc.get('model')!r}")
    if doc.get("plan") != want_plan:
        errors.append("report plan differs from the plan CSV's first row")
    if doc.get("candidates") != (problem.n - 1) * len(STRATEGIES) ** 2:
        errors.append(f"report candidates {doc.get('candidates')!r}")
    if doc.get("simulation") != json.loads(sim_json):
        errors.append("report simulation differs from the simulate JSON")
    return errors


def check_roofline_csv(text: str, problem: Problem) -> list[str]:
    rows, errors = _csv_rows(text, ["model", "device", "intensity", "balance", "class"])
    if errors:
        return errors
    if len(rows) != 2:
        return [f"roofline has {len(rows)} rows, expected 2"]
    intensity = problem.intensity()
    for row, (peak, bw, _, name) in zip(rows, problem.devices):
        balance = peak / bw
        want_class = "CC" if intensity > balance else "MC"
        if (row[0], row[1], row[4]) != (problem.name, name, want_class):
            errors.append(f"roofline row {row!r}")
        if not (close(float(row[2]), intensity) and close(float(row[3]), balance)):
            errors.append(f"roofline numbers {row!r}, reference {intensity!r} {balance!r}")
    return errors


def check_cost_json(text: str, problem: Problem, cut: int, theta1: str,
                    theta2: str) -> list[str]:
    doc = json.loads(text)
    ref = problem.evaluate(cut, theta1, theta2)
    errors = []
    if (doc.get("model"), doc.get("cut"), doc.get("theta1"), doc.get("theta2")) != \
            (problem.name, cut, theta1, theta2):
        errors.append("cost echoes another candidate")
    for key, want in (("t1", ref.t1), ("t2", ref.t2), ("t3", ref.t3),
                      ("t_total", ref.t_total), ("dA", ref.dA), ("L", ref.L),
                      ("lambda_c", ref.lambda_c), ("lambda_m", ref.lambda_m)):
        if not isinstance(doc.get(key), float) or not close(doc[key], want):
            errors.append(f"cost {key}={doc.get(key)!r} but reference {want!r}")
    return errors


def check_fuse_csv(text: str) -> list[str]:
    rows, errors = _csv_rows(text, ["strategy", "trials", "max_rel_error"])
    if errors:
        return errors
    if [r[0] for r in rows] != list(STRATEGIES) or any(r[1] != str(FUSE_TRIALS) for r in rows):
        return [f"fuse-check rows {rows!r}"]
    bad = [r for r in rows if not (_finite(r[2]) and 0 <= float(r[2]) < FUSE_MAX_REL_ERROR)]
    return [f"fuse-check error too large: {bad!r}"] if bad else []


def check_convergence(text: str, stderr: str) -> list[str]:
    rows, errors = _csv_rows(text, ["step", "gap", "bound", "ratio", "within_bound"])
    if errors:
        return errors
    if "violated_at=None" not in stderr:
        errors.append(f"convergence-lab stderr: {stderr.strip()!r}")
    if len(rows) != CONVERGENCE_STEPS or any(r[4] != "true" for r in rows):
        errors.append("convergence-lab rows missing or out of bound")
    return errors
