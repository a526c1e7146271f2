"""The command bodies behind ``codesign.cli`` and the code that writes and
reads their outputs.

``cli.main`` imports this module only once argparse has picked a command,
so ``--help`` and usage errors load none of it.  Each function imports
``json``, ``csv`` and ``codesign.profiles`` where it uses them, so a command
loads only what it runs: ``convergence-lab`` loads neither ``profiles`` nor
``json``, ``fuse-check`` no ``json``, and ``cost`` and ``simulate`` without
``--csv`` no ``csv``.
"""

from __future__ import annotations

import io
import math
import os
from time import perf_counter

from .cli import _emit, _print_err
from .errors import MissingDependency, SchemaMismatch, UnknownStrategyName
from .strategy import FULL_STRUCTURE, FusionStrategy, parse_strategy

SCHEMA_VERSION = 1

PLAN_COLUMNS = ["model", "cut", "theta1", "theta2", "t1", "t2", "t3",
                "t_total", "dA", "L", "feasible1", "feasible2"]

# plan CSV fields "theta1,theta2" by strategy ranks, "feasible1,feasible2" by flags
_STRATEGY_PAIRS = [[f"{a.value},{b.value}" for b in FusionStrategy] for a in FusionStrategy]
_FLAG_PAIRS = (("false,false", "false,true"), ("true,false", "true,true"))


def _dump_json(payload: dict) -> str:
    import json

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _table(header, rows=()):
    """An output for ``_emit``: CSV of ``header`` and ``rows``, returning its
    ``csv.writer`` for rows streamed after them.  ``csv.writer`` writes a
    float as its ``repr``: rows hold the values."""
    import csv

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
            import json

            _print_err(json.dumps({"stage": stage, "seconds": perf_counter() - self.start,
                                   "items": items}))
        self.start = perf_counter()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_roofline(args):
    from . import roofline
    from .profiles import load_config, total_load

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
    from .profiles import load_config

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
    from .profiles import load_config

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
    import csv

    from .profiles import _opened

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
        import json

        from .profiles import _read_json

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
