"""Command-line interface.

Subcommands: roofline, cost, plan, fuse-check, convergence-lab, simulate,
report.  Tabular output is CSV, structured output is JSON (schema version
1); both are byte-stable for identical inputs and seeds.  Exit codes:
0 success, 1 domain error (printed as "ErrorName: detail"), 2 usage error.

Each subcommand imports the modules it runs when it runs, so only
fuse-check and convergence-lab load numpy.

``run`` is the process entry of the ``codesign`` script and of ``python -m
codesign``.  It turns the cyclic garbage collector off for the whole
command, so no pass that allocation would trigger scans the ~12-22k
objects that import leaves: a command makes no cyclic garbage that grows
with its work (argparse's parser, a few hundred objects, is the only
cycle).  After the last flush of stdout and stderr it ends the process
with ``os._exit``, so no interpreter teardown runs: no module cleanup, no
collection at exit, no atexit handler.  Profile a command through ``main``
(``python -m cProfile -m codesign`` prints nothing, as its report would be
written at exit).  ``main`` leaves the collector alone and returns, so
in-process callers keep both.

With CODESIGN_TRACE=1, ``plan`` prints one JSON line per stage to stderr:
{"stage": ..., "seconds": ..., "items": ...}.  stdout is unchanged.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import sys
from time import perf_counter

from .errors import CodesignError, SchemaMismatch, UnknownStrategyName, UnwritableOutput
from .profiles import (FULL_STRUCTURE, FusionStrategy, _read_json, _read_text, load_config,
                       parse_strategy)

SCHEMA_VERSION = 1

STDOUT = "<stdout>"   # how an error names standard output

PLAN_COLUMNS = ["model", "cut", "theta1", "theta2", "t1", "t2", "t3",
                "t_total", "dA", "L", "feasible1", "feasible2"]

_STRATEGY_NAMES = [s.value for s in FusionStrategy]
# plan CSV fields "theta1,theta2" by strategy ranks, "feasible1,feasible2" by flags
_STRATEGY_PAIRS = [[f"{a},{b}" for b in _STRATEGY_NAMES] for a in _STRATEGY_NAMES]
_FLAG_PAIRS = (("false,false", "false,true"), ("true,false", "true,true"))


def _emit(*outputs: tuple[str | None, object]):
    """Write each (path, output) in order, to stdout where the path is None;
    an output is the text or a function writing into the file it is handed.
    An output that cannot be written (``--out``, ``--trace-out``, ``--csv``
    or stdout, flushed here) raises ``UnwritableOutput`` naming its path as
    given or ``<stdout>``; any other exception passes unchanged.  Either way
    each file opened here is removed first; a path never opened is left."""
    opened = []
    try:
        for path, output in outputs:
            with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as handle:
                opened.append(path)
                if callable(output):
                    output(handle)
                else:
                    handle.write(output)
                handle.flush()
    except BaseException as exc:
        for done in opened:
            # neither stdout (None) nor a device such as /dev/null is removed
            if done and os.path.isfile(done):
                with contextlib.suppress(OSError):
                    os.remove(done)
        if isinstance(exc, OSError):
            raise UnwritableOutput(f"{path or STDOUT}: {exc.strerror or exc}") from None
        raise


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str] | tuple[str, ...], rows) -> str:
    """``csv.writer`` writes a float as its ``repr``: rows hold the values."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


class _FloatReprs(dict):
    """repr of each float, computed once per distinct value.  Zeros are not
    kept: 0.0 and -0.0 are one dict key but print differently."""

    def __missing__(self, value: float) -> str:
        text = repr(value)
        if value:
            self[value] = text
        return text


def _plan_csv(model_name: str, rows: list[tuple]) -> str:
    """The ranked grid rows (``cost_model.ROW_FIELDS`` tuples) as CSV,
    byte-identical to ``csv.writer`` output.  The model name is the only
    field that can need quoting, so only it goes through ``csv``."""
    model = _csv_text([model_name, ""], [])[:-2]
    # t1, t2 and t3 repeat across the strategy pairs of a cut, so they share
    # reprs
    pairs, flags, text = _STRATEGY_PAIRS, _FLAG_PAIRS, _FloatReprs()
    lines = [",".join(PLAN_COLUMNS)]
    lines += [f"{model},{cut},{pairs[th1][th2]},{text[t1]},{text[t2]},{text[t3]},"
              f"{t_total!r},{loss!r},{objective!r},{flags[f1][f2]}"
              for objective, t_total, cut, th1, th2, t1, t2, t3, loss, _, _, f1, f2
              in rows]
    return "\n".join(lines) + "\n"


class _StageClock:
    """Times consecutive stages of a command; with CODESIGN_TRACE=1 each
    finished stage is printed to stderr as one JSON line."""

    def __init__(self):
        self.enabled = os.environ.get("CODESIGN_TRACE") == "1"
        self.start = perf_counter()

    def lap(self, stage: str, items: int):
        if self.enabled:
            print(json.dumps({"stage": stage, "seconds": perf_counter() - self.start,
                              "items": items}), file=sys.stderr)
        self.start = perf_counter()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_roofline(args) -> int:
    from . import roofline
    from .profiles import total_load

    config = load_config(args.config)
    strategy = parse_strategy(args.theta, "--theta")
    flops, data = total_load(config.model, strategy)
    rows = []
    for device in (config.device1, config.device2):
        rep = roofline.report(flops, data, device)
        rows.append([config.model.name, device.name, rep.intensity,
                     roofline.machine_balance(device), rep.bottleneck.value])
    _emit((args.out, _csv_text(["model", "device", "intensity", "balance", "class"], rows)))
    return 0


def _config_and_plan(args):
    """The config and the plan ``cost`` and ``simulate`` run: the candidate
    that --cut, --theta1 and --theta2 name (a strategy left out is the full
    structure), or without --cut the grid winner."""
    from .cost_model import evaluate_plan, grid_search

    config = load_config(args.config)
    setting = (config.device1, config.device2, config.link, config.penalties, config.lambda1)
    if args.cut is None:
        return config, grid_search(config.model, *setting)
    return config, evaluate_plan(
        config.model, args.cut,
        parse_strategy(args.theta1 or FULL_STRUCTURE.value, "--theta1"),
        parse_strategy(args.theta2 or FULL_STRUCTURE.value, "--theta2"), *setting)


def _cmd_cost(args) -> int:
    config, plan = _config_and_plan(args)
    c = plan.cost
    _emit((args.out, _dump_json({
        "schema_version": SCHEMA_VERSION,
        "model": config.model.name,
        "cut": plan.cut_index,
        "theta1": plan.theta1.value,
        "theta2": plan.theta2.value,
        "lambda_c": plan.lambda_c,
        "lambda_m": plan.lambda_m,
        "t1": c.t1, "t2": c.t2, "t3": c.t3, "t_total": c.t_total,
        "dA": c.accuracy_loss, "L": c.lagrangian,
        "feasible1": plan.feasible[0], "feasible2": plan.feasible[1],
    })))
    return 0


def _cmd_plan(args) -> int:
    from .cost_model import evaluate_grid, row_plan

    clock = _StageClock()
    config = load_config(args.config)
    clock.lap("load", len(config.model.layers))
    rows = evaluate_grid(config.model, config.device1, config.device2, config.link,
                         config.penalties, config.lambda1, require_feasible=args.strict)
    clock.lap("evaluate", len(rows))
    rows.sort()
    clock.lap("rank", len(rows))
    outputs = []
    if args.trace_out:
        # the descent is reported only by its trace, so it runs only when
        # the trace is written
        from .optimizer import refine_lambda

        _, trace = refine_lambda(config.model, row_plan(rows[0]), config.device1,
                                 config.device2, config.link)
        outputs.append((args.trace_out, _csv_text(
            ["iteration", "lambda", "t_total"],
            [(i, *point) for i, point in enumerate(trace)])))
        clock.lap("refine", len(trace))
    # every text is built before any file is written
    _emit(*outputs, (args.out, _plan_csv(config.model.name, rows)))
    clock.lap("emit", len(rows))
    return 0


def _cmd_fuse_check(args) -> int:
    from . import reparam

    worst = reparam.run_equivalence_suite(args.seed, trials=args.trials)
    rows = [[s.value, args.trials, err] for s, err in worst.items()]
    _emit((args.out, _csv_text(["strategy", "trials", "max_rel_error"], rows)))
    return 0


def _cmd_convergence_lab(args) -> int:
    from . import convergence

    result = convergence.run_lab(args.seed, args.dim, args.steps)
    rows = [[r["step"], r["gap"], r["bound"], r["ratio"], str(r["within_bound"]).lower()]
            for r in result["rows"]]
    _emit((args.out, _csv_text(["step", "gap", "bound", "ratio", "within_bound"], rows)))
    print(f"eta={result['eta']!r} mu={result['mu']!r} lip={result['lip']!r} "
          f"violated_at={result['violated_at']}", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    from . import simulator

    config, plan = _config_and_plan(args)
    cost = plan.cost
    sim_config = simulator.SimConfig(
        arrival_rate=args.rate,
        service_times=(cost.t1, cost.t3, cost.t2),
        horizon=args.horizon,
        seed=args.seed,
        warmup=args.warmup,
    )
    reports = []

    def write_log(handle):
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(simulator.RequestRecord._fields)
        reports.append(simulator.run(sim_config, writer.writerow))

    def write_document(handle):
        report = reports[0] if reports else simulator.run(sim_config)
        handle.write(_dump_json({
            "schema_version": SCHEMA_VERSION,
            "model": config.model.name,
            "plan": {"cut": plan.cut_index, "theta1": plan.theta1.value,
                     "theta2": plan.theta2.value},
            "service_times": {"t1": cost.t1, "t3": cost.t3, "t2": cost.t2},
            "arrival_rate": args.rate,
            "horizon": args.horizon,
            "seed": args.seed,
            **report._asdict(),
        }))

    _emit(*([(args.csv, write_log)] if args.csv else []), (args.out, write_document))
    return 0


def read_plan_csv(path) -> tuple[str, dict, int]:
    """(model name, winning row, candidate count) from a plan CSV."""
    # newline="" as csv asks: a quoted line break is part of its field
    text = _read_text(path, newline="")
    try:
        rows = list(csv.DictReader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise SchemaMismatch(f"{path}: {exc}") from None
    if not rows or any(col not in rows[0] for col in PLAN_COLUMNS):
        raise SchemaMismatch(f"{path} is not a plan table (expected columns {PLAN_COLUMNS})")
    return rows[0]["model"], rows[0], len(rows)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


def build_report(plan_path, sim_path=None) -> dict:
    """Merge a plan table and a simulation report of its winner into one
    document; without ``sim_path`` the document is analytical only."""
    model, winner, candidates = read_plan_csv(plan_path)

    def field(column: str, parse):
        try:
            return parse(winner[column])
        except (TypeError, ValueError, UnknownStrategyName):
            raise SchemaMismatch(f"{plan_path}: the winning row's {column} is "
                                 f"{winner[column]!r}") from None

    document = {
        "schema_version": SCHEMA_VERSION,
        "model": model,
        "plan": {
            "cut": field("cut", int),
            "theta1": field("theta1", parse_strategy).value,
            "theta2": field("theta2", parse_strategy).value,
            "t1": field("t1", _finite), "t2": field("t2", _finite),
            "t3": field("t3", _finite), "t_total": field("t_total", _finite),
            "dA": field("dA", _finite), "L": field("L", _finite),
            "feasible1": field("feasible1", _flag),
            "feasible2": field("feasible2", _flag),
        },
        "candidates": candidates,
        "simulation": None,
        "analytical_only": True,
    }
    if sim_path is not None:
        try:
            sim = _read_json(sim_path, number=_finite)
        except ValueError as exc:       # from _finite: NaN, Infinity or 1e400
            raise SchemaMismatch(f"{sim_path}: {exc} is not a finite number") from None
        if not isinstance(sim, dict) or not {"model", "plan", "throughput"} <= sim.keys():
            raise SchemaMismatch(f"{sim_path} is not a simulation report")
        if sim["model"] != model:
            raise SchemaMismatch(
                f"plan is for model {model!r} but simulation is for {sim['model']!r}")
        winner_plan = {key: document["plan"][key] for key in ("cut", "theta1", "theta2")}
        if sim["plan"] != winner_plan:
            raise SchemaMismatch(
                f"{sim_path}: simulation is of plan {json.dumps(sim['plan'])} but the "
                f"winning plan is {json.dumps(winner_plan)}")
        document["simulation"] = sim
        document["analytical_only"] = False
    return document


def _cmd_report(args) -> int:
    _emit((args.out, _dump_json(build_report(args.plan, args.sim))))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# convergence-lab holds dim x dim matrices and about 0.9 KB per step: at
# these limits each takes about 0.1 GB
MAX_LAB_DIM = 1024
MAX_LAB_STEPS = 100_000


def _int_at_least(minimum: int, maximum: int | None = None):
    """argparse type: an integer >= ``minimum`` (and <= ``maximum``, if
    given); anything else is a usage error.  So a count of 0 cannot pass a
    check that never ran, numpy never sees a negative seed or a size it
    cannot allocate, and ``random.Random``, which seeds with the
    absolute value, never makes ``--seed -5`` a silent ``--seed 5``."""
    expected = f"an integer >= {minimum}" + (
        "" if maximum is None else f" and <= {maximum}")

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum or (maximum is not None and value > maximum):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


class _Parser(argparse.ArgumentParser):
    """Help for stdout goes through ``_emit``, so a stdout that cannot take
    it is named: argparse's own write drops the error (Python 3.11+) or
    raises it as a traceback (3.10)."""

    def print_help(self, file=None):
        if file is None:
            _emit((None, self.format_help()))
        else:
            super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="codesign",
        description="Joint cut-point / branch-fusion planner for a two-device "
                    "edge inference pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", required=True, help="planning config JSON")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("roofline", help="per-device compute/memory classification as CSV")
    add_config(p)
    p.add_argument("--theta", default=FULL_STRUCTURE.value, choices=_STRATEGY_NAMES,
                   help="strategy used for the model's intensity (default: full structure)")
    p.set_defaults(func=_cmd_roofline)

    p = sub.add_parser("cost", help="cost breakdown of one candidate plan as JSON")
    add_config(p)
    p.add_argument("--cut", type=int, required=True, help="layer boundary index (1-based)")
    p.add_argument("--theta1", required=True, choices=_STRATEGY_NAMES)
    p.add_argument("--theta2", required=True, choices=_STRATEGY_NAMES)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("plan", help="grid-search the best plan; CSV of ranked candidates")
    add_config(p)
    p.add_argument("--strict", action="store_true",
                   help="drop candidates whose segments miss their device's balance point")
    p.add_argument("--refine", action="store_true",
                   help="run the cut refinement from the grid winner and write its "
                        "descent trace to --trace-out (skipped without --trace-out: "
                        "the table never changes)")
    p.add_argument("--trace-out", help="with --refine: write the descent trace CSV here")
    p.set_defaults(func=_cmd_plan)

    seed, count = _int_at_least(0), _int_at_least(1)

    p = sub.add_parser("fuse-check", help="randomized fused-vs-branch-sum equivalence suite")
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--trials", type=count, default=100)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fuse_check)

    p = sub.add_parser("convergence-lab",
                       help="split-update geometric convergence check on a random quadratic")
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--dim", type=_int_at_least(2, MAX_LAB_DIM), default=16)
    p.add_argument("--steps", type=_int_at_least(1, MAX_LAB_STEPS), default=200)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_convergence_lab)

    p = sub.add_parser("simulate",
                       help="tandem-queue simulation of a plan (Lindley recursion); report as JSON")
    add_config(p)
    p.add_argument("--rate", type=float, required=True, help="arrival rate, requests/s")
    p.add_argument("--horizon", type=float, required=True, help="simulated seconds")
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--warmup", type=float, help="seconds excluded from stats (default 10%% of horizon)")
    p.add_argument("--cut", type=int, help="simulate this cut instead of the grid winner")
    p.add_argument("--theta1", choices=_STRATEGY_NAMES, help="with --cut (default: full structure)")
    p.add_argument("--theta2", choices=_STRATEGY_NAMES, help="with --cut (default: full structure)")
    p.add_argument("--csv", help="also write a per-request completion CSV here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="merge a plan CSV and a simulate JSON into one document")
    p.add_argument("--plan", required=True, help="CSV produced by `codesign plan`")
    p.add_argument("--sim", help="JSON produced by `codesign simulate`")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # inside the try: --help on a stdout that cannot take it is named
        args = parser.parse_args(argv)
        if args.command == "plan" and args.trace_out is not None and not args.refine:
            parser.error("plan: --trace-out needs --refine")
        if args.command == "simulate" and args.cut is None and (args.theta1 or args.theta2):
            parser.error("simulate: --theta1 and --theta2 need --cut")
        return args.func(args)
    except CodesignError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1


def run():
    """Run ``main`` as the whole process and end it with ``main``'s code.
    The collector is off while the command runs (numpy's lazy import
    included).  Once stdout and stderr are flushed the process ends with
    ``os._exit`` on every way out, ``--help`` and argparse's exits included:
    the command has nothing left to finish, since every file it writes is
    closed in ``_emit``, so the interpreter's teardown (module cleanup, its
    collections, atexit handlers, the BLAS threads' shutdown) is skipped."""
    gc.disable()
    try:
        code = main()
    except SystemExit as exc:           # argparse: --help and usage errors
        code = exc.code
    code = _settle_stdout(code)
    with contextlib.suppress(OSError):
        sys.stderr.flush()
    os._exit(code)


def _settle_stdout(code):
    """``code``, after a last flush of stdout.  If stdout cannot take what
    is left in its buffer, a command that had not failed yet fails with a
    named error; ``os._exit`` drops what is left unwritten."""
    try:
        sys.stdout.flush()
    except OSError as exc:
        if not code:
            print(f"UnwritableOutput: {STDOUT}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    return code


if __name__ == "__main__":
    run()
