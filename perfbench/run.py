"""Repository benchmark for the `codesign` command.

    python3 perfbench/run.py --workload plan-deep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; it works on the checkout that holds
this file.  With `--trace 0` it runs `codesign` the way users do: one
subprocess per command, one closed-loop client issuing the next op only
after the previous one exited, so at most one child runs beside this
process.  It reports end-to-end metrics.  With `--trace 1` it calls the same
argv in process through `codesign.cli.main`, alternating untraced and
traced passes over a fixed op list, and reports per-layer metrics from
spans recorded around every public `codesign` function.

Every op's output is checked against references in `checks.py`.  The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The tail is the highest percentile with >= 10 samples beyond it.  Runs end
# on a whole cycle of op classes and hold at least 12 ops of each class, so
# the tail falls inside the slowest class instead of flipping between classes
# as the op count drifts, and is not that class's single fastest op.
TAIL_BEYOND = 10
MIN_PER_CLASS = TAIL_BEYOND + 2
SETUP_EVERY = 2               # cycles between `codesign --help` probes
LOOP_CAP_S = 120.0            # stop issuing ops after this, floor or not
COMMAND_TIMEOUT_S = 60.0

# The machine this was tuned on (2 shared CPUs) changes speed by up to ~30%
# from second to second and from minute to minute, for every process alike.
# A reference process that runs no repository code is timed before every op
# and after the last; times are scaled by REFERENCE_NOMINAL_S over the
# reference time around them, so they read as times at the speed where that
# process takes REFERENCE_NOMINAL_S.
REFERENCE = ["-c", "pass"]
REFERENCE_NOMINAL_S = 0.075
IMPORTTIME_SAMPLES = 5
MIN_TRACE_PASSES = 3

END_TO_END = [                # name, unit
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [                 # name, unit
    ("cli.import_ms", "ms"),
    ("cli.import_numpy_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.out_bytes", "count"),
    ("profiles.load_config_ms", "ms"),
    ("profiles.segment_load_calls", "count"),
    ("profiles.segment_load_ms", "ms"),
    ("roofline.effective_rate_calls", "count"),
    ("cost_model.evaluate_plan_calls", "count"),
    ("cost_model.evaluate_plan_self_us", "us"),
    ("optimizer.enumerate_plans_ms", "ms"),
    ("optimizer.enumerate_plans_self_ms", "ms"),
    ("optimizer.candidates_per_s", "1/s"),
    ("optimizer.refine_and_snap_ms", "ms"),
    ("optimizer.relaxed_latency_calls", "count"),
    ("simulator.run_ms", "ms"),
    ("simulator.arrivals", "count"),
    ("simulator.arrivals_per_s.rho0.5", "1/s"),
    ("simulator.arrivals_per_s.rho0.9", "1/s"),
    ("simulator.arrivals_per_s.rho3", "1/s"),
    ("simulator.backlog_at_end", "count"),
    ("reparam.run_equivalence_suite_ms", "ms"),
    ("reparam.trials_per_s", "1/s"),
    ("reparam.conv2d_calls", "count"),
    ("reparam.conv2d_ms", "ms"),
    ("reparam.fuse_ms", "ms"),
    ("convergence.run_lab_ms", "ms"),
    ("convergence.rate_check_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
]


def _die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "codesign" / "__init__.py").is_file() or \
        not (ROOT / "fixtures" / "paper.json").is_file():
    if __name__ == "__main__":
        _die(f"{ROOT} has no src/codesign package or fixtures/paper.json to benchmark")
sys.path.insert(0, str(ROOT / "src"))

import checks       # noqa: E402
import spans        # noqa: E402
import workloads    # noqa: E402


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

@dataclass
class Result:
    wall_s: float
    returncode: int
    maxrss_kb: int
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: list[str], stdout_path: Path, env: dict) -> Result:
    """Run `python <args>` with cwd at the checkout root, keep its stdout in
    `stdout_path`, and reap it with wait4 for its rusage."""
    stderr_path = stdout_path.with_name(stdout_path.name + ".stderr")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            maxrss = usage.ru_maxrss
        except ChildProcessError:     # reaped by the timeout's kill
            proc.returncode, maxrss = -9, 0
        finally:
            timer.cancel()
            timer.join()
        wall = perf_counter() - start
    return Result(wall, proc.returncode, maxrss, stderr_path.read_text())


def _read(rel: str) -> str:
    return (ROOT / rel).read_text()


def output_bytes(op: workloads.Op) -> int:
    return sum((ROOT / path).stat().st_size
               for cmd in op.commands for path in (cmd.stdout, *cmd.outputs.values())
               if (ROOT / path).exists())


def check_op(workload: str, op: workloads.Op, results: list[Result],
             paper: checks.Problem) -> list[str]:
    """Exit codes first, then each command's output against the references."""
    if len(results) != len(op.commands):
        return [f"session stopped after {len(results)} commands"]
    for cmd, result in zip(op.commands, results):
        if result.returncode != 0:
            return [f"{cmd.name} exited {result.returncode}: {result.stderr.strip()[-300:]}"]
    try:
        return _check_outputs(workload, op, results, paper)
    except (OSError, ValueError, LookupError, TypeError, StopIteration, csv.Error) as exc:
        return [f"output does not parse: {exc!r}"]


def _check_outputs(workload: str, op: workloads.Op, results: list[Result],
                   paper: checks.Problem) -> list[str]:
    meta = op.meta
    if workload == "plan-deep":
        problem = checks.Problem.from_file(ROOT / meta["config"])
        return checks.check_plan_csv(_read(op.commands[0].outputs["csv"]), problem)
    if workload == "simulate-load":
        return checks.check_simulate_json(_read(op.commands[0].stdout), paper,
                                          meta["rate"], meta["horizon"], meta["seed"])
    cmds = {cmd.name: cmd for cmd in op.commands}
    plan_csv = _read(cmds["plan"].outputs["csv"])
    sim_json = _read(cmds["simulate"].outputs["json"])
    errors = checks.check_plan_csv(plan_csv, paper)
    if _read(cmds["plan-refine"].stdout) != plan_csv:
        errors.append("plan --refine ranks differently from plan")
    errors += checks.check_trace_csv(_read(cmds["plan-refine"].outputs["trace"]))
    errors += checks.check_simulate_json(sim_json, paper, meta["rate"], meta["horizon"],
                                         meta["seed"])
    errors += checks.check_report_json(_read(cmds["report"].stdout), paper, plan_csv, sim_json)
    errors += checks.check_roofline_csv(_read(cmds["roofline"].stdout), paper)
    errors += checks.check_cost_json(_read(cmds["cost"].stdout), paper, meta["cut"],
                                     meta["theta1"], meta["theta2"])
    errors += checks.check_fuse_csv(_read(cmds["fuse-check"].stdout))
    stderr = results[op.commands.index(cmds["convergence-lab"])].stderr
    errors += checks.check_convergence(_read(cmds["convergence-lab"].stdout), stderr)
    return errors


def cycle_length(workload: str) -> int:
    return {"plan-deep": len(workloads.DEPTHS),
            "simulate-load": len(workloads.RHOS)}.get(workload, 1)


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0)
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """(highest percentile with TAIL_BEYOND samples beyond it, its value);
    the maximum when there are too few samples."""
    ordered = sorted(values)
    index = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def run_end_to_end(workload: str, seed: int, seconds: float, work: Path) -> dict:
    env = child_env()
    work.mkdir(parents=True)
    probe = work / "probe.txt"
    spawn(["-m", "codesign", "--help"], probe, env)   # fill the bytecode cache first
    # setup and op_before hold (wall, index of the reference run just before)
    setup, op_before, reference = [], [], []

    def time_reference():
        reference.append(spawn(REFERENCE, probe, os.environ).wall_s)

    mu = workloads.paper_bottleneck_rate(ROOT)
    paper = checks.Problem.from_file(ROOT / workloads.PAPER)
    cycle = cycle_length(workload)
    runs: list[tuple[workloads.Op, list[Result]]] = []
    start = perf_counter()
    time_reference()
    while True:
        elapsed = perf_counter() - start
        i = len(runs)
        if elapsed >= LOOP_CAP_S or (i % cycle == 0 and elapsed >= seconds
                                     and i // cycle >= MIN_PER_CLASS):
            break
        if i % (cycle * SETUP_EVERY) == 0:
            setup.append((spawn(["-m", "codesign", "--help"], probe, env).wall_s,
                          len(reference) - 1))
            time_reference()
        op = workloads.make_op(workload, ROOT, work / f"op{i}", seed, i, mu)
        results = []
        for cmd in op.commands:
            results.append(spawn(["-m", "codesign", *cmd.argv], ROOT / cmd.stdout, env))
            if results[-1].returncode != 0:
                break
        runs.append((op, results))
        op_before.append(len(reference) - 1)
        time_reference()
    loop_s = perf_counter() - start - sum(w for w, _ in setup) - sum(reference)

    failures = []
    for op, results in runs:
        errors = check_op(workload, op, results, paper)
        if errors:
            failures.append(op.index)
            print(f"op {op.index} ({op.kind}) FAILED: {'; '.join(errors)[:2000]}")

    # Each op and set-up probe is scaled by the reference runs just before and
    # after it; the loop time by the ops' wall-weighted mean scale.
    def scale(wall, before):
        return wall * 2 * REFERENCE_NOMINAL_S / (reference[before] + reference[before + 1])

    walls = [sum(r.wall_s for r in results) for _, results in runs]
    scaled = [scale(w, before) for w, before in zip(walls, op_before)]
    speed = sum(scaled) / sum(walls)
    completed = len(runs) - len(failures)
    tail_pct, tail_raw = tail(walls)
    raw = {
        "setup_s": statistics.median(w for w, _ in setup),
        "op_ms_p50": 1e3 * statistics.median(walls),
        "op_ms_tail": 1e3 * tail_raw,
        "ops_per_s": completed / loop_s,
    }
    metrics = {
        "setup_s": statistics.median(scale(*probe) for probe in setup),
        "op_ms_p50": 1e3 * statistics.median(scaled),
        "op_ms_tail": 1e3 * tail(scaled)[1],
        "ops_per_s": raw["ops_per_s"] / speed,
        "peak_rss_mb": max(r.maxrss_kb for _, results in runs for r in results) / 1024,
    }

    # Workload-specific figures, printed but not reported: each is undefined
    # or zero on some workload.  Raw wall time.
    plan_walls = [(op, r) for op, results in runs
                  for cmd, r in zip(op.commands, results) if cmd.name == "plan"]
    sim_walls = [(cmd, r) for op, results in runs
                 for cmd, r in zip(op.commands, results) if cmd.name == "simulate"]
    extra = {"failed_ratio": (len(failures) / len(runs), "")}
    if plan_walls:
        candidates = sum((op.meta.get("depth", paper.n) - 1) * len(checks.STRATEGIES) ** 2
                         for op, _ in plan_walls)
        extra["candidates_per_s"] = (candidates / sum(r.wall_s for _, r in plan_walls), "1/s")
    if sim_walls:
        arrivals = sum(json.loads(_read(cmd.outputs.get("json", cmd.stdout)))["arrivals"]
                       for cmd, r in sim_walls if r.returncode == 0)
        extra["sim_arrivals_per_s"] = (arrivals / sum(r.wall_s for _, r in sim_walls), "1/s")

    print(f"workload {workload} seed {seed}: {len(runs)} ops in {loop_s:.2f} s, "
          f"{len(failures)} failed; one closed-loop client, one subprocess per command")
    print(f"  reference `python -c pass` median {1e3 * statistics.median(reference):.2f} ms "
          f"over {len(reference)} runs; ops scaled by {speed:.4f} on average")
    print(f"  {'metric':20s} {'reported':>14s} {'raw wall':>14s}")
    for name, unit in END_TO_END:
        print(f"  {name:20s} {metrics[name]:14.6g} {raw.get(name, metrics[name]):14.6g} {unit}")
    print(f"  {'':20s} op_ms_tail is p{tail_pct:.1f} of {len(walls)} ops "
          f"({len(walls) - round(tail_pct * len(walls) / 100)} beyond)")
    for name, (value, unit) in extra.items():
        print(f"  {name:20s} {'':14s} {value:14.6g} {unit}")
    for kind in sorted({op.kind for op, _ in runs}):
        kind_walls = [w for (op, _), w in zip(runs, walls) if op.kind == kind]
        print(f"  p50 {kind:16s} {'':14s} {1e3 * statistics.median(kind_walls):14.6g} ms "
              f"({len(kind_walls)} ops)")
    if workload == "cli-paper":
        for j, cmd in enumerate(runs[0][0].commands):
            cmd_walls = [results[j].wall_s for _, results in runs if len(results) > j]
            print(f"  p50 {cmd.name:16s} {'':14s} {1e3 * statistics.median(cmd_walls):14.6g} ms")
    return {"correct": not failures, "attempted": len(runs), "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END}}


# ---------------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------------

def import_times(env: dict) -> tuple[float, float]:
    """Median cumulative ms of `import codesign.cli` and of numpy within it,
    from `python -X importtime`."""
    cli_ms, numpy_ms = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import codesign.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) / 1e3
        cli_ms.append(cumulative["codesign.cli"])
        numpy_ms.append(cumulative.get("numpy", 0.0))
    return statistics.median(cli_ms), statistics.median(numpy_ms)


def run_in_process(cmd: workloads.Command) -> Result:
    from codesign import cli

    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(cmd.argv)     # looked up per call, so tracing applies
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    (ROOT / cmd.stdout).write_text(out.getvalue())
    return Result(perf_counter() - start, code, 0, err.getvalue())


# Spans printed per op after a traced run, to compare with single-op timings.
OP_BREAKDOWN = ("cli.main", "profiles.load_config", "optimizer.enumerate_plans",
                "optimizer.refine_and_snap", "simulator.run",
                "reparam.run_equivalence_suite", "convergence.run_lab")


def layer_metrics(tracer: spans.Tracer, ops: list[workloads.Op]) -> dict[str, float]:
    summary = tracer.summary()

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def ms(name, kind="total"):
        return 1e3 * summary.get(name, {}).get(kind, 0.0)

    def per_second(count, millis):
        return 1e3 * count / millis if millis > 0 else 0.0

    items: dict[str, int] = {}
    rho_work: dict[float, list[float]] = {}
    backlog = 0
    for span in tracer.spans:
        if span[spans.ITEMS] is None:
            continue
        for key, value in span[spans.ITEMS].items():
            items[key] = items.get(key, 0) + value
        if span[spans.NAME] == "simulator.run":
            backlog = max(backlog, span[spans.ITEMS]["backlog"])
            rho = ops[span[spans.OP]].meta["rho"]
            work = rho_work.setdefault(rho, [0, 0.0])
            work[0] += span[spans.ITEMS]["arrivals"]
            work[1] += span[spans.END] - span[spans.START]

    def arrivals_per_s(rho):
        count, seconds = rho_work.get(rho, (0, 0.0))
        return count / seconds if seconds > 0 else 0.0

    evaluate_calls = calls("cost_model.evaluate_plan")
    return {
        "cli.self_ms": sum(1e3 * v["self"] for k, v in summary.items() if k.startswith("cli.")),
        "profiles.load_config_ms": ms("profiles.load_config"),
        "profiles.segment_load_calls": calls("profiles.segment_load"),
        "profiles.segment_load_ms": ms("profiles.segment_load"),
        "roofline.effective_rate_calls": calls("roofline.effective_rate"),
        "cost_model.evaluate_plan_calls": evaluate_calls,
        "cost_model.evaluate_plan_self_us": (
            1e3 * ms("cost_model.evaluate_plan", "self") / evaluate_calls
            if evaluate_calls else 0.0),
        "optimizer.enumerate_plans_ms": ms("optimizer.enumerate_plans"),
        "optimizer.enumerate_plans_self_ms": ms("optimizer.enumerate_plans", "self"),
        "optimizer.candidates_per_s": per_second(items.get("candidates", 0),
                                                 ms("optimizer.enumerate_plans")),
        "optimizer.refine_and_snap_ms": ms("optimizer.refine_and_snap"),
        "optimizer.relaxed_latency_calls": calls("optimizer.relaxed_total_latency"),
        "simulator.run_ms": ms("simulator.run"),
        "simulator.arrivals": items.get("arrivals", 0),
        "simulator.arrivals_per_s.rho0.5": arrivals_per_s(0.5),
        "simulator.arrivals_per_s.rho0.9": arrivals_per_s(0.9),
        "simulator.arrivals_per_s.rho3": arrivals_per_s(3.0),
        "simulator.backlog_at_end": backlog,
        "reparam.run_equivalence_suite_ms": ms("reparam.run_equivalence_suite"),
        "reparam.trials_per_s": per_second(items.get("trials", 0),
                                           ms("reparam.run_equivalence_suite")),
        "reparam.conv2d_calls": calls("reparam.conv2d"),
        "reparam.conv2d_ms": ms("reparam.conv2d"),
        "reparam.fuse_ms": ms("reparam.fuse"),
        "convergence.run_lab_ms": ms("convergence.run_lab"),
        "convergence.rate_check_ms": ms("convergence.rate_check"),
    }


def run_traced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    env = child_env()
    import_ms, numpy_ms = import_times(env)
    import codesign.cli  # noqa: F401  (imported before any pass is timed)

    mu = workloads.paper_bottleneck_rate(ROOT)
    paper = checks.Problem.from_file(ROOT / workloads.PAPER)
    ops = [workloads.make_op(workload, ROOT, work / f"op{i}", seed, i, mu)
           for i in range(cycle_length(workload))]
    tracer = spans.Tracer()
    passes, untraced, attempted, failed = [], [], 0, 0

    def run_pass(traced: bool) -> tuple[float, int]:
        nonlocal attempted, failed
        total, out_bytes = 0.0, 0
        for op in ops:
            tracer.op = op.index
            results = []
            for cmd in op.commands:
                result = run_in_process(cmd)
                total += result.wall_s
                results.append(result)
                if result.returncode != 0:
                    break
            attempted += 1
            out_bytes += output_bytes(op)
            errors = check_op(workload, op, results, paper)
            if errors:
                failed += 1
                print(f"op {op.index} ({op.kind}, traced={traced}) FAILED: "
                      f"{'; '.join(errors)[:2000]}")
        return total, out_bytes

    start = perf_counter()
    while len(passes) < MIN_TRACE_PASSES or perf_counter() - start < seconds:
        untraced.append(run_pass(traced=False)[0])
        tracer.install()
        try:
            traced_s, out_bytes = run_pass(traced=True)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, ops)
        metrics["cli.out_bytes"] = out_bytes
        metrics["trace.overhead_ratio"] = traced_s / untraced[-1]
        if not passes:
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{workload}-seed{seed}.csv")
            per_op = {op.index: tracer.summary(op.index) for op in ops}
        tracer.clear()
        passes.append(metrics)

    units = dict(PER_LAYER)
    result = {"cli.import_ms": import_ms, "cli.import_numpy_ms": numpy_ms}
    unsteady = []
    for name in units:
        if name in result:
            continue
        values = [p[name] for p in passes]
        if units[name] != "count":
            result[name] = statistics.median(values)
            continue
        result[name] = values[0]
        if len(set(values)) != 1:
            unsteady.append(name)
            print(f"count {name} differs between passes: {values}")

    print(f"workload {workload} seed {seed}: {len(passes)} passes of {len(ops)} ops in process, "
          f"untraced then traced; spans of the first traced pass in "
          f"{(OUT / f'spans-{workload}-seed{seed}.csv').relative_to(ROOT)}")
    print(f"  untraced pass p50 {1e3 * statistics.median(untraced):.6g} ms")
    for name, unit in PER_LAYER:
        print(f"  {name:36s} {result[name]:14.6g} {unit}")
    print("  first traced pass, inclusive ms per op:")
    for op in ops:
        times = ", ".join(f"{name} {1e3 * entry['total']:.1f}"
                          for name, entry in per_op[op.index].items() if name in OP_BREAKDOWN)
        print(f"    op {op.index} {op.kind}: {times}")
    return {"correct": not failed and not unsteady, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": result[name], "unit": unit} for name, unit in PER_LAYER}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = run_traced if args.trace else run_end_to_end
        document = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
