"""Spans and counters around the public functions of each `als` layer.

The wrappers live here, in the benchmark, and are installed into a fresh
child process only for traced passes; untraced passes run the library
unchanged.  A wrapper replaces the function on its defining module and on
every `als` module (or module-level dict) that imported the same object, so
calls through any imported name are recorded.

Each span is (run id, span id, parent span id, name, start ns, end ns).
Spans stay in memory and are written out once, when the pass ends.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from functools import wraps

# Functions that get a span: (module, function).
SPANNED = (
    ("gstate", "inner_product"),
    ("gstate", "apply"),
    ("gstate", "density_grid"),
    ("modes", "hlg_state"),
    ("operators", "rotate"),
    ("operators", "expectation"),
    ("operators", "eigen_residual"),
    ("berry", "berry_phase"),
    ("berry", "solid_angle"),
    ("verify", "suite_algebra"),
    ("verify", "suite_spectra"),
    ("verify", "suite_observables"),
    ("verify", "suite_fields"),
    ("verify", "suite_wigner"),
    ("verify", "suite_berry"),
    ("output", "write_grid_csv"),
    ("output", "write_json"),
    ("output", "write_table_csv"),
    ("cli", "classify_pattern"),
)

# Functions whose calls are only counted: they are called tens of thousands
# of times from inside spanned functions, and their time shows as the
# caller's self time.
COUNTED = (
    ("specfun", "hermite"),
    ("specfun", "wigner_D"),
)

# Name of the root span around each CLI invocation (argument parsing and
# the command body).
ROOT = "cli.command"


def _work(name, args, result):
    """Extra work counts of one call, as (counter name, amount) pairs."""
    if name == "gstate.inner_product":
        return (("gstate.inner_product.term_pairs", len(args[0].terms) * len(args[1].terms)),)
    if name == "gstate.density_grid":
        return (("gstate.density_grid.term_cells", len(args[0].terms) * args[5] * args[6]),)
    if name == "modes.hlg_state":
        return (("modes.hlg_state.terms_out", len(result.terms)),)
    if name == "berry.berry_phase":
        return (("berry.segments", len(args[0].vertices) - 1),)
    if name == "output.write_grid_csv":
        return (("output.write_grid_csv.bytes", os.path.getsize(args[0])),)
    return ()


class Tracer:
    """In-memory span recorder for one pass in one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self._stack = [0]
        self._next = 1

    def _wrap(self, name, fn):
        @wraps(fn)
        def spanned(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end))
            self.counts[f"{name}.calls"] += 1
            for counter, amount in _work(name, args, result):
                self.counts[counter] += amount
            return result

        return spanned

    def _count(self, name, fn):
        @wraps(fn)
        def counted(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Replace every target function in all loaded `als` modules."""
        modules = [m for k, m in sys.modules.items() if k == "als" or k.startswith("als.")]
        for targets, make in ((SPANNED, self._wrap), (COUNTED, self._count)):
            for mod_name, fn_name in targets:
                original = getattr(sys.modules[f"als.{mod_name}"], fn_name)
                wrapper = make(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                        elif isinstance(value, dict):
                            for key, item in list(value.items()):
                                if item is original:
                                    value[key] = wrapper

    def root(self, fn, *args, **kwargs):
        """Call fn inside a root span named ROOT."""
        return self._wrap(ROOT, fn)(*args, **kwargs)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("run_id\tspan_id\tparent_id\tname\tstart_ns\tend_ns\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{self.run_id}\t{sid}\t{parent}\t{name}\t{start}\t{end}\n")


def read_spans(path):
    """Spans of a file written by Tracer.write, as (id, parent, name, start, end)."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            _, sid, parent, name, start, end = line.rstrip("\n").split("\t")
            spans.append((int(sid), int(parent), name, int(start), int(end)))
    return spans


def span_times(spans):
    """Per span name: (total self seconds, total inclusive seconds).

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans add up to the durations of
    the root spans.
    """
    child_ns: Counter = Counter()
    for _, parent, _, start, end in spans:
        child_ns[parent] += end - start
    self_ns: Counter = Counter()
    total_ns: Counter = Counter()
    for sid, _, name, start, end in spans:
        self_ns[name] += end - start - child_ns[sid]
        total_ns[name] += end - start
    return (
        {k: v * 1e-9 for k, v in self_ns.items()},
        {k: v * 1e-9 for k, v in total_ns.items()},
    )
