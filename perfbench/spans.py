"""In-process span tracing around the public functions of `codesign`.

`Tracer.install` replaces every public module-level function of the loaded
`codesign` modules, under every name that refers to it (so
`cost_model.segment_load`, which is `profiles.segment_load` imported by
name, is traced too), with a wrapper that records a span.  A span is
(name, start, end, parent span, op id, items); spans stay in memory and are
written out once the run ends.  `uninstall` puts the original functions
back, so untraced and traced passes alternate in one process.
"""

from __future__ import annotations

import csv
import functools
import inspect
import sys
from pathlib import Path
from time import perf_counter
from types import FunctionType

NAME, START, END, PARENT, OP, ITEMS = range(6)


def _equivalence_trials(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"trials": bound.arguments["trials"] * len(result)}


# Work items some layers report per call, read from their results after the
# span closes.
ITEM_COUNTERS = {
    "optimizer.enumerate_plans": lambda fn, a, k, r: {"candidates": len(r)},
    "simulator.run": lambda fn, a, k, r: {"arrivals": r.arrivals,
                                          "backlog": r.in_system_at_end},
    "reparam.run_equivalence_suite": _equivalence_trials,
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "codesign" or name.startswith("codesign."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack = [-1]
        self._patched: list[tuple] = []

    def _wrap(self, label: str, fn):
        spans, stack = self.spans, self._stack
        items = ITEM_COUNTERS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label, 0.0, 0.0, stack[-1], self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if items is not None:
                span[ITEMS] = items(fn, args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = _package_modules()
        labels = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for name, obj in vars(module).items():
                if (isinstance(obj, FunctionType) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    labels[obj] = f"{short}.{name}"
        wrappers = {fn: self._wrap(label, fn) for fn, label in labels.items()}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if isinstance(obj, FunctionType) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    self._patched.append((module, name, obj))

    def uninstall(self):
        for module, name, original in self._patched:
            setattr(module, name, original)
        self._patched.clear()

    def clear(self):
        self.spans.clear()

    def summary(self, op: int | None = None) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds (duration
        minus the time its direct children cover), over all spans or those
        of one op."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict] = {}
        for i, span in enumerate(self.spans):
            if op is not None and span[OP] != op:
                continue
            entry = out.setdefault(span[NAME], {"calls": 0, "total": 0.0, "self": 0.0})
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["total"] += duration
            entry["self"] += duration - child[i]
        return out

    def write(self, path: Path):
        """Spans as CSV, times in seconds relative to the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "op", "items"])
            for i, span in enumerate(self.spans):
                writer.writerow([i, span[NAME], repr(span[START] - origin),
                                 repr(span[END] - origin), span[PARENT], span[OP],
                                 "" if span[ITEMS] is None else
                                 ";".join(f"{k}={v}" for k, v in span[ITEMS].items())])
