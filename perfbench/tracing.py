"""Span tracing around the package's public functions, from outside.

``Tracer.patched`` wraps every function named in ``__all__`` of the four
library modules, plus ``cli.main`` as each operation's root span, and
rebinds every module-global alias of those functions across the package.
The package imports with ``from .x import y``, so patching only the
defining module would miss its callers.  Spans are kept in memory, one
column per field (name, start, end, parent, operation id), and reduced at
the end; a traced ``closed_forms`` run makes over a million of them.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from operator import sub
from time import perf_counter

LIBRARY_LAYERS = ("specfun", "orthopoly", "entropy", "asymptotics")
LAYERS = LIBRARY_LAYERS + ("cli",)
ROOT = "cli.main"

# Per-layer metrics: name -> unit.  Every name is reported on every workload.
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER.update({f"{_layer}.calls": "count/op", f"{_layer}.self_s": "s/op",
                      f"{_layer}.share": "fraction"})
PER_LAYER.update({
    "orthopoly.gauss_jacobi.self_s": "s/op",
    "orthopoly.stieltjes_recurrence.self_s": "s/op",
    "orthopoly.jacobi_recurrence.self_s": "s/op",
    "orthopoly.rule_nodes_per_degree": "ratio",
    "orthopoly.eval_orthonormal.calls": "count/op",
    "orthopoly.eval_orthonormal.self_s": "s/op",
    "orthopoly.eval_redundancy": "ratio",
    "entropy.christoffel_distribution.self_s": "s/op",
    "entropy.shannon_entropy.calls": "count/op",
    "entropy.shannon_entropy.self_s": "s/op",
    "entropy.reductions_per_row": "ratio",
    "specfun.digamma.calls": "count/op",
    "specfun.entropy_correction.self_s": "s/op",
    "specfun.entropy_correction_series.self_s": "s/op",
    "asymptotics.pv_log_h_oracle.self_s": "s/op",
    "asymptotics.identity_suite.self_s": "s/op",
    "asymptotics.christoffel_limit_ratios.self_s": "s/op",
    "cli.rows": "rows/op",
    "cli.bytes_out": "B/op",
    "trace.spans": "count/op",
    "trace.overhead_ms": "ms",
})

# Arguments kept as a span's detail, for the size ratios: (position, keyword).
_DETAIL_ARGS = {
    "orthopoly.gauss_jacobi": ((2, "size"),),
    "orthopoly.stieltjes_recurrence": ((1, "n_max"),),
    "orthopoly.eval_orthonormal": ((1, "x"), (2, "n")),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # span name ids index this table
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")  # span index, -1 for a root
        self.op = array("q")
        self.details: dict[int, tuple] = {}  # span index -> kept arguments
        self.op_id = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name: str, fn):
        self.names.append(name)
        name_id = len(self.names) - 1
        names, starts, ends = self.name, self.start, self.end
        parents, ops, details, stack = self.parent, self.op, self.details, self._stack
        keep = _DETAIL_ARGS.get(name)

        def traced(*args, **kwargs):
            index = len(starts)
            if keep is not None:
                details[index] = tuple(args[pos] if pos < len(args) else kwargs[kw]
                                       for pos, kw in keep)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, package: str):
        """Rebind the traced functions in every loaded module of ``package``."""
        wrappers = {}
        for layer in LIBRARY_LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        cli = importlib.import_module(f"{package}.cli")
        wrappers[id(cli.main)] = (cli.main, self._wrap(ROOT, cli.main))
        modules = [m for key, m in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        saved = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    saved.append((module, attr, value))
                    setattr(module, attr, entry[1])
        try:
            yield
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    def write(self, path, limit: int = 200_000) -> int:
        """The first ``limit`` spans as gzipped CSV; returns how many.

        Times are microseconds from the first span.  Spans are stored in
        call order, so any prefix keeps every span's parent.
        """
        kept = min(limit, len(self))
        t0 = self.start[0] if kept else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start_us,end_us,parent,op\n")
            for i in range(kept):
                fh.write(f"{i},{self.names[self.name[i]]},{(self.start[i] - t0) * 1e6:.1f},"
                         f"{(self.end[i] - t0) * 1e6:.1f},{self.parent[i]},{self.op[i]}\n")
        return kept


def layer_metrics(tracer: Tracer, rows: int, bytes_out: int, scale: float) -> dict[str, float]:
    """Per-layer figures per operation from completed spans.

    Self time is a span's duration minus the durations of its direct
    children; a layer's self time sums its functions' self times, with
    ``cli.main`` standing for the cli layer (parsing, formatting, output).
    Self times are multiplied by ``scale``, the run's host-speed factor.
    """
    count = len(tracer)
    duration = array("d", map(sub, tracer.end, tracer.start))
    child = array("d", bytes(8 * count))
    for i, parent in enumerate(tracer.parent):
        if parent >= 0:
            child[parent] += duration[i]
    id_calls = [0] * len(tracer.names)
    id_self = [0.0] * len(tracer.names)
    for i, name_id in enumerate(tracer.name):
        id_calls[name_id] += 1
        id_self[name_id] += duration[i] - child[i]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for name, n_calls, own in zip(tracer.names, id_calls, id_self):
        for key in (name, name.split(".", 1)[0]):
            calls[key] += n_calls
            self_s[key] += own
    root = tracer.names.index(ROOT)
    root_total = sum(d for d, name_id in zip(duration, tracer.name) if name_id == root)
    ops = calls[ROOT]

    # Gauss rule nodes built per Stieltjes degree (rules built inside it only).
    stieltjes = "orthopoly.stieltjes_recurrence"
    rule_nodes = degrees = cells = 0
    max_n: dict[tuple, int] = {}
    for i, detail in tracer.details.items():
        name = tracer.names[tracer.name[i]]
        if name == "orthopoly.gauss_jacobi":
            parent = tracer.parent[i]
            if parent >= 0 and tracer.names[tracer.name[parent]] == stieltjes:
                rule_nodes += detail[0]
        elif name == stieltjes:
            degrees += detail[0]
        else:  # eval_orthonormal: (x, n)
            x, n = detail
            key = (tracer.op[i], x)
            cells += n
            max_n[key] = max(max_n.get(key, 0), n)
    distinct = sum(max_n.values())

    out: dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        key, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls[key] / ops
        elif stat == "self_s":
            out[name] = scale * self_s[key] / ops
        elif stat == "share":
            out[name] = self_s[key] / root_total
    out.update({
        "orthopoly.rule_nodes_per_degree": rule_nodes / degrees if degrees else 0.0,
        "orthopoly.eval_redundancy": cells / distinct if distinct else 0.0,
        "entropy.reductions_per_row": calls["entropy.shannon_entropy"] / rows,
        "cli.rows": rows / ops,
        "cli.bytes_out": bytes_out / ops,
        "trace.spans": count / ops,
    })
    return out
