"""Command-line interface.

Subcommands: roofline, cost, plan, fuse-check, convergence-lab, simulate,
report.  Tabular output is CSV, structured output is JSON (schema version
1); both are byte-stable for identical inputs and seeds.  Exit codes:
0 success, 1 domain error (printed as "ErrorName: detail"), 2 usage error.

Parse, then load: this module holds only the parser, the usage checks and
the process entry, and loads nothing of the package but ``errors`` and
``strategy``.  ``main`` imports the command bodies, ``codesign.commands``,
once argparse has picked a command and the usage checks have passed, so
``--help`` and usage errors load none of them.  Each command imports the
modules it runs when it runs, so only fuse-check and convergence-lab load
numpy, and without it only they fail, with ``MissingDependency``.  An
output naming another output of the command, or one of its input files,
is a usage error, and nothing is written.

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
import errno
import gc
import os
import stat
import sys

from .errors import CodesignError, UnwritableOutput
from .strategy import FULL_STRUCTURE, FusionStrategy

STDOUT = "<stdout>"   # how an error names standard output

_STRATEGY_NAMES = [s.value for s in FusionStrategy]


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

    p = sub.add_parser("cost", help="cost breakdown of one candidate plan as JSON")
    add_config(p)
    p.add_argument("--cut", type=int, required=True, help="layer boundary index (1-based)")
    p.add_argument("--theta1", required=True, choices=_STRATEGY_NAMES)
    p.add_argument("--theta2", required=True, choices=_STRATEGY_NAMES)

    p = sub.add_parser("plan", help="grid-search the best plan; CSV of ranked candidates")
    add_config(p)
    add_selection(p)
    p.add_argument("--refine", action="store_true",
                   help="run the cut refinement from the grid winner and write its "
                        "descent trace to --trace-out (skipped without --trace-out: "
                        "the table never changes)")
    p.add_argument("--trace-out", help="with --refine: write the descent trace CSV here")

    seed, count = _int_at_least(0), _int_at_least(1)

    p = sub.add_parser("fuse-check", help="randomized fused-vs-branch-sum equivalence suite")
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--trials", type=count, default=100)
    p.add_argument("--out")

    p = sub.add_parser("convergence-lab",
                       help="split-update geometric convergence check on a random quadratic")
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--dim", type=_int_at_least(2, MAX_LAB_DIM), default=16)
    p.add_argument("--steps", type=_int_at_least(1, MAX_LAB_STEPS), default=200)
    p.add_argument("--out")

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

    p = sub.add_parser("report", help="merge a plan CSV and a simulate JSON into one document")
    p.add_argument("--plan", required=True, help="CSV produced by `codesign plan`")
    p.add_argument("--sim", help="JSON produced by `codesign simulate`")
    p.add_argument("--out")

    return parser


def _file_identity(path: str | None) -> tuple[int, int] | str | None:
    """What two paths naming one file share, None standing for stdout: a
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
    """Whether an optional input or output ``first`` (None: not given) and
    the output ``second`` (None: stdout) name one file, which the write of
    ``second`` would overwrite."""
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
        given = vars(args)
        outputs = [(f"--{name.replace('_', '-')}", given[name])
                   for name in ("trace_out", "csv") if given.get(name) is not None]
        for label, path in outputs:
            if _one_file(path, args.out):
                parser.error(f"{args.command}: {label} and {out} name one file")
        for label, path in [*outputs, (out, args.out)]:
            for source in ("config", "plan", "sim"):
                if _one_file(given.get(source), path):
                    parser.error(f"{args.command}: {label} and --{source} name one file")
        if args.command == "simulate" and args.cut is None and (args.theta1 or args.theta2):
            parser.error("simulate: --theta1 and --theta2 need --cut")
        if args.command == "simulate" and args.cut is not None and args.strict:
            parser.error("simulate: --strict chooses among the grid's candidates; --cut names one")
        from . import commands

        # the command's body is commands._cmd_<command>, "-" read as "_"
        getattr(commands, "_cmd_" + args.command.replace("-", "_"))(args)
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
