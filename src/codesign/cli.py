"""Command-line interface.

Subcommands: roofline, cost, plan, fuse-check, convergence-lab, simulate,
report.  Tabular output is CSV, structured output is JSON (schema version
1); both are byte-stable for identical inputs and seeds.  Exit codes:
0 success, 1 domain error (printed as "ErrorName: detail"), 2 usage error.

Each subcommand imports the modules it runs when it runs, so only
fuse-check and convergence-lab load numpy, and without it only they fail,
with ``MissingDependency``.

``run`` is the process entry of the ``codesign`` script and of ``python -m
codesign``.  It turns the cyclic garbage collector off for the whole
command, so no pass that allocation would trigger scans the ~12-22k
objects that import leaves: a command makes no cyclic garbage that grows
with its work (argparse's parser, a few hundred objects, is the only
cycle).  Each output is flushed as it is written, and after a flush of
stderr it ends the process with ``os._exit``, so no interpreter teardown
runs: no module cleanup, no collection at exit, no atexit handler.
Profile a command through ``main`` (``python -m cProfile -m codesign``
prints nothing, as its report would be written at exit).  ``main`` leaves
the collector alone and returns, so in-process callers keep both.

With CODESIGN_TRACE=1, ``plan`` prints one JSON line per stage to stderr:
{"stage": ..., "seconds": ..., "items": ...}.  stdout is unchanged.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import gc
import io
import json
import math
import os
import stat
import sys
from time import perf_counter

from .errors import (CodesignError, MissingDependency, SchemaMismatch, UnknownStrategyName,
                     UnwritableOutput)
from .profiles import (FULL_STRUCTURE, FusionStrategy, _opened, _read_json, load_config,
                       parse_strategy)

SCHEMA_VERSION = 1

STDOUT = "<stdout>"   # how an error names standard output

PLAN_COLUMNS = ["model", "cut", "theta1", "theta2", "t1", "t2", "t3",
                "t_total", "dA", "L", "feasible1", "feasible2"]

_STRATEGY_NAMES = [s.value for s in FusionStrategy]
# plan CSV fields "theta1,theta2" by strategy ranks, "feasible1,feasible2" by flags
_STRATEGY_PAIRS = [[f"{a},{b}" for b in _STRATEGY_NAMES] for a in _STRATEGY_NAMES]
_FLAG_PAIRS = (("false,false", "false,true"), ("true,false", "true,true"))


def _emit(*outputs: tuple[str | None, object]) -> list:
    """Write and flush each (path, output) in order, as UTF-8, to stdout
    where the path is None (an empty path is a path): every stdout byte of
    ``cli`` leaves here.  An output is the text or a function writing into
    the file it is handed; returns what each write returned.  An output that
    cannot be written (``--out``, ``--trace-out``, ``--csv``, or stdout:
    flushed here, or closed when the process started) raises
    ``UnwritableOutput`` naming its path as given or ``<stdout>``; any other
    exception passes unchanged.  Either way each file opened here is removed
    first; a path never opened is left."""
    opened, results = [], []
    try:
        for path, output in outputs:
            if path is None and sys.stdout is None:     # the process started without one
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            with (open(path, "w", encoding="utf-8") if path is not None
                  else contextlib.nullcontext(sys.stdout)) as handle:
                opened.append(path)
                results.append(output(handle) if callable(output) else handle.write(output))
                handle.flush()
    except BaseException as exc:
        for done in opened:
            # neither stdout (None) nor a device such as /dev/null is removed
            if done is not None and os.path.isfile(done):
                with contextlib.suppress(OSError):
                    os.remove(done)
        if isinstance(exc, OSError):
            raise UnwritableOutput(
                f"{STDOUT if path is None else path}: {exc.strerror or exc}") from None
        raise
    return results


def _print_err(text: str, end: str = "\n"):
    """Print ``text`` to stderr.  A stderr that cannot take it (full, or a
    pipe without a reader) drops it: a diagnostic never changes stdout or
    the exit code."""
    with contextlib.suppress(OSError):
        print(text, end=end, file=sys.stderr)


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _table(header, rows=()):
    """An output for ``_emit``: CSV of ``header`` and ``rows``, returning its
    ``csv.writer`` for rows streamed after them.  ``csv.writer`` writes a
    float as its ``repr``: rows hold the values."""
    def write(handle):
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return writer
    return write


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
    field = io.StringIO()
    _table([model_name, ""])(field)
    model = field.getvalue()[:-2]
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
            _print_err(json.dumps({"stage": stage, "seconds": perf_counter() - self.start,
                                   "items": items}))
        self.start = perf_counter()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_roofline(args):
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
    _emit((args.out, _table(["model", "device", "intensity", "balance", "class"], rows)))


def _config_and_plan(args):
    """The config and the plan ``cost`` and ``simulate`` run: the candidate
    that --cut, --theta1 and --theta2 name (a strategy left out is the full
    structure), or without --cut the first row ``plan`` prints for the same
    selection (``simulate --strict``)."""
    from .cost_model import evaluate_plan, grid_search

    config = load_config(args.config)
    setting = (config.device1, config.device2, config.link, config.penalties, config.lambda1)
    if args.cut is None:
        return config, grid_search(config.model, *setting, args.strict)
    return config, evaluate_plan(
        config.model, args.cut,
        parse_strategy(args.theta1 or FULL_STRUCTURE.value, "--theta1"),
        parse_strategy(args.theta2 or FULL_STRUCTURE.value, "--theta2"), *setting)


def _cmd_cost(args):
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


def _cmd_plan(args):
    from .cost_model import evaluate_grid, ranked, row_plan

    clock = _StageClock()
    config = load_config(args.config)
    clock.lap("load", len(config.model.layers))
    rows = evaluate_grid(config.model, config.device1, config.device2, config.link,
                         config.penalties, config.lambda1)
    clock.lap("evaluate", len(rows))
    rows = ranked(rows, args.strict)
    clock.lap("rank", len(rows))
    outputs = []
    if args.trace_out is not None:
        # the descent is reported only by its trace, so it runs only when
        # the trace is written
        from .optimizer import refine_lambda

        _, trace = refine_lambda(config.model, row_plan(rows[0]), config.device1,
                                 config.device2, config.link)
        outputs.append((args.trace_out, _table(
            ["iteration", "lambda", "t_total"],
            [(i, *point) for i, point in enumerate(trace)])))
        clock.lap("refine", len(trace))
    # every text is built before any file is written
    _emit(*outputs, (args.out, _plan_csv(config.model.name, rows)))
    clock.lap("emit", len(rows))


# Variables through which a user sets OpenBLAS's thread count.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _require_numpy(command: str):
    """Import numpy, which only fuse-check and convergence-lab need.  Only
    numpy's own ImportError becomes ``MissingDependency``: one raised inside
    ``codesign.fusion`` or ``codesign.convergence`` surfaces unchanged.

    Unless the user set one of ``_BLAS_THREAD_VARIABLES``, OpenBLAS is asked
    for one thread (read when numpy is first imported): these commands'
    matrices are small enough that a worker thread buys nothing, and one
    thread makes their output the same on every machine."""
    if not any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    except ImportError:
        raise MissingDependency(f"{command} needs numpy (pip install 'codesign[lab]')") from None


def _cmd_fuse_check(args):
    _require_numpy("fuse-check")
    from . import fusion

    worst = fusion.run_equivalence_suite(args.seed, trials=args.trials)
    rows = [[s.value, args.trials, err] for s, err in worst.items()]
    _emit((args.out, _table(["strategy", "trials", "max_rel_error"], rows)))


def _cmd_convergence_lab(args):
    _require_numpy("convergence-lab")
    from . import convergence

    def write_table(handle):
        writer = _table(["step", "gap", "bound", "ratio", "within_bound"])(handle)
        return convergence.run_lab(args.seed, args.dim, args.steps, lambda row: (
            writer.writerow((*row[:4], "true" if row[4] else "false"))))

    [result] = _emit((args.out, write_table))
    _print_err(f"eta={result['eta']!r} mu={result['mu']!r} lip={result['lip']!r} "
               f"violated_at={result['violated_at']}")


def _cmd_simulate(args):
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
        writer = _table(simulator.RequestRecord._fields)(handle)
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

    _emit(*([(args.csv, write_log)] if args.csv is not None else []),
          (args.out, write_document))


def read_plan_csv(path) -> tuple[dict, int]:
    """(winning row, candidate count) from a plan CSV, read row by row.  Only
    the winner is kept, and every later row is parsed and counted.  A row
    must hold exactly the header's fields: one that does not is named by
    its line, but for a short winner, which ``build_report`` names by its
    first missing column."""
    # newline="" as csv asks: a quoted line break is part of its field, and
    # lines end only at \r and \n, so a name holding U+2028 reads back
    with _opened(path, newline="") as handle:
        try:
            rows = csv.DictReader(handle)
            winner = next(rows, None)
            if winner is None or any(col not in winner for col in PLAN_COLUMNS):
                raise SchemaMismatch(
                    f"{path} is not a plan table (expected columns {PLAN_COLUMNS})")
            # DictReader keys the fields past the header's by None, and reads
            # the ones a row lacks as None
            count = 1
            if None not in winner:
                for count, row in enumerate(rows, 2):
                    if None in row or None in row.values():
                        break
                else:
                    return winner, count
        except csv.Error as exc:
            raise SchemaMismatch(f"{path}: {exc}") from None
    raise SchemaMismatch(f"{path}: line {rows.line_num} does not hold the header's "
                         f"{len(rows.fieldnames)} fields")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


# how build_report reads each column of the winning row; a field a short
# row lacks reads as None, which str.__str__, unlike str, refuses
_PLAN_READERS = dict(zip(PLAN_COLUMNS, (str.__str__, int,
                                        *[lambda name: parse_strategy(name).value] * 2,
                                        *[_finite] * 6, _flag, _flag), strict=True))


def build_report(plan_path, sim_path=None) -> dict:
    """Merge a plan table and a simulation report of its winner into one
    document; without ``sim_path`` the document is analytical only."""
    winner, candidates = read_plan_csv(plan_path)
    plan = {}
    for column, read in _PLAN_READERS.items():
        try:
            plan[column] = read(winner[column])
        except (TypeError, ValueError, UnknownStrategyName):
            raise SchemaMismatch(f"{plan_path}: the winning row's {column} is "
                                 f"{winner[column]!r}") from None
    model = plan.pop("model")

    document = {
        "schema_version": SCHEMA_VERSION,
        "model": model,
        "plan": plan,
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


def _cmd_report(args):
    _emit((args.out, _dump_json(build_report(args.plan, args.sim))))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# convergence-lab holds a few dim x dim matrices (75 MB peak RSS at dim
# 1024) and nothing per step, so the step limit bounds its time and table:
# at both limits 118 s (1.2 ms a step) and a 4.2 MB table
MAX_LAB_DIM = 1024
MAX_LAB_STEPS = 100_000


def _int_at_least(minimum: int, maximum: int | None = None):
    """argparse type: an integer >= ``minimum`` (and <= ``maximum``, if
    given); anything else is a usage error.  So a count of 0 cannot pass a
    check that never ran, numpy never sees a size it cannot allocate, and
    ``random.Random``, which every command with ``--seed`` draws from and
    which seeds with the absolute value, never makes ``--seed -5`` a silent
    ``--seed 5``."""
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
    """argparse writes help, usage and errors through ``_print_message``: a
    stdout that cannot take them is named by ``_emit``, a stderr is dropped
    by ``_print_err``.  argparse's own write drops both (Python 3.11+) or
    raises them as a traceback (3.10)."""

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            _emit((None, message))
        else:
            _print_err(message, end="")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="codesign",
        description="Joint cut-point / branch-fusion planner for a two-device "
                    "edge inference pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", required=True, help="planning config JSON")
        p.add_argument("--out", help="write output to this path instead of stdout")

    def add_selection(p):
        """The options that choose among the grid's candidates: ``simulate``
        runs the plan ``plan`` ranks first under the same ones."""
        p.add_argument("--strict", action="store_true",
                       help="drop candidates whose segments miss their device's balance point")

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
    add_selection(p)
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
    add_selection(p)
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


def _file_identity(path: str | None) -> tuple[int, int] | str | None:
    """What two outputs naming one file share, None standing for stdout: a
    regular file's (st_dev, st_ino), so a hard link or a redirected
    ``/dev/stdout`` shares it; a path's ``realpath`` while no file is there,
    so a dangling symlink shares its target's; else None, which clashes with
    nothing: ``/dev/null``, a pipe, or a stdout with no file behind it."""
    if path is not None and not os.path.exists(path):
        return os.path.realpath(path)
    try:
        st = os.stat(sys.stdout.fileno() if path is None else path)
    except (AttributeError, OSError, ValueError):
        return None
    return (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else None


def _one_file(first: str | None, second: str | None) -> bool:
    """Whether an optional output ``first`` (None: not written) and the
    output ``second`` (None: stdout) name one file, which the second write
    would overwrite."""
    identity = None if first is None else _file_identity(first)
    return identity is not None and identity == _file_identity(second)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # inside the try: --help on a stdout that cannot take it is named
        args = parser.parse_args(argv)
        if args.command == "plan" and args.trace_out is not None and not args.refine:
            parser.error("plan: --trace-out needs --refine")
        out = "stdout" if args.out is None else "--out"
        if args.command == "plan" and _one_file(args.trace_out, args.out):
            parser.error(f"plan: --trace-out and {out} name one file")
        if args.command == "simulate" and _one_file(args.csv, args.out):
            parser.error(f"simulate: --csv and {out} name one file")
        if args.command == "simulate" and args.cut is None and (args.theta1 or args.theta2):
            parser.error("simulate: --theta1 and --theta2 need --cut")
        if args.command == "simulate" and args.cut is not None and args.strict:
            parser.error("simulate: --strict chooses among the grid's candidates; --cut names one")
        args.func(args)
    except CodesignError as err:
        _print_err(f"{type(err).__name__}: {err}")
        return 1
    return 0


def run():
    """Run ``main`` as the whole process and end it with ``main``'s code.
    The collector is off while the command runs (numpy's lazy import
    included).  Once stderr is flushed the process ends with ``os._exit``
    on every way out, ``--help`` and argparse's exits included: the command
    has nothing left to finish, since ``_emit`` closes every file it writes
    and flushes stdout, so the interpreter's teardown (module cleanup, its
    collections, atexit handlers, the BLAS threads' shutdown) is skipped.
    stdout, if the process has one, and stderr write UTF-8 whatever the
    locale, as every file does; a process started without a stderr (``2>&-``)
    writes its diagnostics to ``os.devnull``, never to stdout."""
    gc.disable()
    if sys.stdout is not None:
        sys.stdout.reconfigure(encoding="utf-8")
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w", encoding="utf-8")
    else:
        # both arguments: an encoding alone resets errors to "strict"
        sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    try:
        code = main()
    except SystemExit as exc:           # argparse: --help and usage errors
        code = exc.code
    with contextlib.suppress(OSError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
