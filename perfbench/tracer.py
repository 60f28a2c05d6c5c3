"""Span tracer for the traced runs of perfbench.

Run as a script, ``python tracer.py SPANS_PATH CLI_ARG...`` imports superell,
installs a timing wrapper over every public function of the layer modules at
every import site (so names bound by ``from .x import f`` are wrapped too),
plus a few named methods, runs the superell CLI with the remaining arguments,
and writes the recorded spans and counters to SPANS_PATH (a JSON header) and
SPANS_PATH + ".bin" (the span arrays).

Imported, it provides ``aggregate``, the self-time arithmetic run.py
applies to those spans.  A span's self time is its duration minus the
durations of the spans it directly caused.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array

# Modules whose public functions are not wrapped: cyclo holds per-element
# arithmetic in Z[zeta], whose cost belongs in the caller's self time; cli is
# the entry point the traced run calls; errors and limits hold no work.
SKIP_MODULES = ("cli", "cyclo", "errors", "limits")

# Methods wrapped on their classes: (module, class, method) -> span name.
# Per-element arithmetic (Field.add/mul, Poly.__mul__, CycInt ops) stays
# unwrapped on purpose.
METHODS = {
    ("characters", "CharContext", "symbol_table"): "characters.symbol_table",
    ("families", "BinaryForm", "evaluate"): "families.evaluate",
    ("lfunction", "LCache", "__init__"): "lfunction.lcache.load",
    ("lfunction", "LCache", "get"): "lfunction.lcache.get",
    ("lfunction", "LCache", "put"): "lfunction.lcache.put",
}

# Counters the hooks below keep; each starts at 0.
COUNTERS = (
    "ffield.log_table.elements",
    "characters.evaluations",
    "curves.points_scanned",
    "families.raw_pairs",
    "families.squarefree_pairs",
    "lfunction.lcache.hits",
    "lfunction.lcache.misses",
    "lfunction.lcache.bytes_appended",
)

_NO_PARENT = -1


class Tracer:
    """Spans kept in flat typed arrays (name id, parent index, start, end in
    ns), plus counters that hooks update after a wrapped call returns."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.names = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [_NO_PARENT]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.caches: list = []  # (LCache, size in bytes right after load)
        self._tables_seen: set[int] = set()

    def wrap(self, span: str, fn, hook=None):
        nid = self._name_ids.setdefault(span, len(self.span_names))
        if nid == len(self.span_names):
            self.span_names.append(span)
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack,
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def count(self, name: str, n: int) -> None:
        self.counters[name] += n

    def finish_counters(self) -> None:
        """Counters that need the state at the end of the run."""
        appended = 0
        for cache, size_at_load in self.caches:
            size_now = os.path.getsize(cache.path) if os.path.exists(cache.path) else 0
            appended += size_now - size_at_load
        self.count("lfunction.lcache.bytes_appended", appended)

    def dump(self, path: str, header: dict, started: float) -> None:
        """Write the spans; the header records how long writing took since
        `started`, so run.py can leave it out of the traced wall time."""
        with open(path + ".bin", "wb") as fh:
            for arr in (self.names, self.parents, self.starts, self.ends):
                arr.tofile(fh)
        header = dict(header, spans=len(self.names), span_names=self.span_names,
                      counters=self.counters, dump_s=time.perf_counter() - started)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def load_spans(path: str):
    """(header, names, parents, starts, ends) as written by Tracer.dump."""
    with open(path, encoding="utf-8") as fh:
        header = json.load(fh)
    n = header["spans"]
    arrays = []
    with open(path + ".bin", "rb") as fh:
        for _ in range(4):
            arr = array("q")
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header, *arrays)


def aggregate(span_names, names, parents, starts, ends) -> tuple[dict, float]:
    """Per span name: calls, inclusive seconds and self seconds; and the summed
    duration of root spans (which equals the summed self time of all spans).

    Spans are single-threaded and properly nested, so a span's direct children
    lie inside it and their durations can simply be subtracted."""
    n = len(names)
    child_ns = [0] * n
    root_ns = 0
    for i in range(n):
        dur = ends[i] - starts[i]
        p = parents[i]
        if p == _NO_PARENT:
            root_ns += dur
        else:
            child_ns[p] += dur
    out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in span_names}
    for i in range(n):
        dur = ends[i] - starts[i]
        row = out[span_names[names[i]]]
        row["calls"] += 1
        row["incl_s"] += dur / 1e9
        row["self_s"] += (dur - child_ns[i]) / 1e9
    return out, root_ns / 1e9


# -- counter hooks: run after the wrapped call, outside its span --------------


def _log_table_hook(tracer: Tracer, args, table) -> None:
    # log_table memoises per field; count each table once, as q elements
    if id(table) not in tracer._tables_seen:
        tracer._tables_seen.add(id(table))
        tracer.count("ffield.log_table.elements", table.field.q)


def _char_value_counts_hook(tracer: Tracer, args, result) -> None:
    chi, degree = args[0], args[1]
    tracer.count("characters.evaluations", chi.field.q**degree)


def _count_points_hook(tracer: Tracer, args, result) -> None:
    model, n = args[0], args[1]
    tracer.count("curves.points_scanned", model.field.q**n)


def _generate_family_hook(tracer: Tracer, args, report) -> None:
    tracer.count("families.raw_pairs", report.raw_pairs)
    tracer.count("families.squarefree_pairs", report.squarefree_pairs)


def _lcache_load_hook(tracer: Tracer, args, result) -> None:
    cache = args[0]
    size = os.path.getsize(cache.path) if os.path.exists(cache.path) else 0
    tracer.caches.append((cache, size))


def _lcache_get_hook(tracer: Tracer, args, result) -> None:
    tracer.count("lfunction.lcache.misses" if result is None else "lfunction.lcache.hits", 1)


HOOKS = {
    "ffield.log_table": _log_table_hook,
    "characters.char_value_counts": _char_value_counts_hook,
    "curves.count_points": _count_points_hook,
    "families.generate_family": _generate_family_hook,
    "lfunction.lcache.load": _lcache_load_hook,
    "lfunction.lcache.get": _lcache_get_hook,
}


def install(tracer: Tracer, package) -> None:
    """Wrap every public, non-generator function defined in a layer module of
    `package` wherever a module of the package binds it, and the METHODS."""
    prefix = package.__name__ + "."
    modules = [m for name, m in sorted(sys.modules.items())
               if name == package.__name__ or name.startswith(prefix)]
    wrapped: dict[int, object] = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        if mod is package or short in SKIP_MODULES:
            continue
        for name, obj in vars(mod).items():
            # a generator's work happens in its consumer, so a span around the
            # call would time nothing
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and not inspect.isgeneratorfunction(obj)):
                span = f"{short}.{name}"
                wrapped[id(obj)] = tracer.wrap(span, obj, HOOKS.get(span))
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                setattr(mod, name, wrapped[id(obj)])
    for (short, cls_name, meth), span in METHODS.items():
        cls = getattr(sys.modules[prefix + short], cls_name)
        setattr(cls, meth, tracer.wrap(span, getattr(cls, meth), HOOKS.get(span)))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    package = importlib.import_module("superell")
    cli = importlib.import_module("superell.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer, package)
    rc = cli.main(cli_args)
    sys.stdout.flush()
    t1 = time.perf_counter()
    tracer.finish_counters()
    tracer.dump(spans_path, {"import_s": import_s, "exit_code": rc}, t1)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
