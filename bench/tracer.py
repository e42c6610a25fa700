"""In-process span tracer for the per-layer metrics.

`Tracer` wraps the public functions of each cavityssh module at every binding
that callers look up (`from .numerics import pairwise_sum` makes a separate
name in `cavity`, in `vertex` and in `biphoton`, and each is replaced), plus
`BubbleTable.__init__` and `BubbleTable.integral`. Each wrapper records a span
(id, name, start, end, parent). Self time is a span's duration minus the part
of its interval covered by wrapped child spans.

Spans opened on a worker thread with an empty stack are parented to the span
open on the tracing thread: in cavityssh only the thread that called the CLI
starts pools (`cavity._chunked`), and it waits on them inside that span.
Exiting the context restores every original binding.
"""

from __future__ import annotations

import array
import functools
import inspect
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = (
    "lattice", "numerics", "cavity", "keldysh", "kerr", "vertex",
    "biphoton", "dressing", "config", "output", "cli",
)


def _pairwise_extra(tracer, args, kwargs):
    values = np.asarray(args[0] if args else kwargs["values"])
    tracer.count("pairwise.elements", values.size)
    tracer.count("pairwise.bytes", values.nbytes)


def _bose_extra(tracer, args, kwargs):
    omega = np.asarray(args[0] if args else kwargs["omega"], dtype=float)
    with tracer.lock:
        tracer.bose_omegas.update(omega.ravel().tolist())


def _csv_extra(tracer, args, kwargs):
    tracer.count("output.cells", sum(len(row) for row in args[2]))
    tracer.count("output.bytes", os.path.getsize(args[0]))


def _matrix_extra(tracer, args, kwargs):
    tracer.count("output.cells", int(np.size(args[2])))
    tracer.count("output.bytes", os.path.getsize(args[0]))


# per-cell helper inside write_csv / write_matrix_csv: a span per cell would cost
# more than the call, so its time stays in the writers' self time
_UNWRAPPED = {"output.format_cell"}

# span name -> recorder of computed work, run after the span has closed
_EXTRAS = {
    "numerics.pairwise_sum": _pairwise_extra,
    "keldysh.bose_occupation": _bose_extra,
    "output.write_csv": _csv_extra,
    "output.write_matrix_csv": _matrix_extra,
}


class Tracer:
    """Context manager: install wrappers on enter, restore bindings on exit."""

    def __init__(self):
        self.lock = threading.Lock()
        self.names: list[str] = []  # span name by name id
        self.ids = array.array("q")
        self.name_of = array.array("l")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("q")
        self.counters: Counter = Counter()
        self.bose_omegas: set = set()
        self._next_id = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: int) -> None:
        with self.lock:
            self.counters[key] += amount

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        extra = _EXTRAS.get(name)
        stacks, home, next_id, tracer = self._stacks, self._home, self._next_id, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ident = threading.get_ident()
            stack = stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                home_stack = stacks.get(home) if ident != home else None
                parent = home_stack[-1] if home_stack else -1
            span = next(next_id)
            stack.append(span)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer.lock:
                    tracer.ids.append(span)
                    tracer.name_of.append(name_id)
                    tracer.starts.append(start)
                    tracer.ends.append(end)
                    tracer.parents.append(parent)
                if extra is not None:
                    extra(tracer, args, kwargs)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = {layer: sys.modules[f"cavityssh.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and f"{layer}.{attr}" not in _UNWRAPPED):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        bindings = [m for n, m in sorted(sys.modules.items())
                    if n == "cavityssh" or n.startswith("cavityssh.")]
        for module in bindings:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        table = modules["cavity"].BubbleTable
        for method in ("__init__", "integral"):
            self._patch(table, method,
                        self._wrap(f"cavity.BubbleTable.{method}", getattr(table, method)))
        return self

    def __exit__(self, *exc_info):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def spans(self):
        """Closed spans as numpy columns indexed by span id:
        (name id, start, end, parent id or -1)."""
        ids = np.array(self.ids, dtype=np.int64)
        order = np.argsort(ids)
        if not np.array_equal(ids[order], np.arange(ids.size)):
            raise RuntimeError("span ids are not contiguous: a span never closed")
        return tuple(np.array(column)[order]
                     for column in (self.name_of, self.starts, self.ends, self.parents))

    def save(self, path: str) -> None:
        """Write every span to an .npz: names, and per span id its name index,
        start and end (s, from the first span) and parent id (-1 = root)."""
        name_of, starts, ends, parents = self.spans()
        origin = starts.min(initial=0.0)
        np.savez(path, names=np.array(self.names), name=name_of,
                 start=starts - origin, end=ends - origin, parent=parents)


def self_times(starts, ends, parents):
    """Duration of each span minus the union of its children's intervals.

    Children are grouped by parent and sorted by start; each adds the part of
    its interval not yet covered by an earlier sibling (siblings on different
    threads can overlap). Groups are shifted apart in time so one running
    maximum serves them all.
    """
    out = ends - starts
    kids = np.flatnonzero(parents >= 0)
    if kids.size == 0:
        return out
    kids = kids[np.lexsort((starts[kids], parents[kids]))]
    parent = parents[kids]
    first = np.r_[True, parent[1:] != parent[:-1]]
    shift = (np.cumsum(first) - 1) * (ends.max() - starts.min() + 1.0) - starts.min()
    lo = starts[kids] + shift
    hi = np.minimum(ends[kids], ends[parent]) + shift
    reach = np.maximum.accumulate(hi)
    before = np.r_[-np.inf, reach[:-1]]
    before[first] = -np.inf
    covered = np.clip(hi - np.maximum(lo, before), 0.0, None)
    return out - np.bincount(parent, weights=covered, minlength=out.size)


def _under(name_of, parents, target: int):
    """For each span, whether some ancestor is a span named `target`."""
    has_parent = parents >= 0
    up = np.where(has_parent, parents, 0)
    flags = has_parent & (name_of[up] == target)
    while True:  # one step up the tree per round; call depth bounds the rounds
        grown = flags | (has_parent & flags[up])
        if np.array_equal(grown, flags):
            return flags
        flags = grown


def layer_metrics(tracer: Tracer, kerr_rungs: int, kerr_ratios: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in s, counts exact).

    Self times are summed over threads, so with --threads 2 a layer's self
    time can exceed the pass's wall time. `kerr_rungs` and `kerr_ratios` come
    from the pass's kerr-scan configs and are the denominators of the Kerr
    ratios; they are 0 when the pass has no kerr-scan run, and the ratios
    then read 0.
    """
    name_of, starts, ends, parents = tracer.spans()
    selfs = self_times(starts, ends, parents)
    durations = ends - starts
    ids = {name: n for n, name in enumerate(tracer.names)}
    calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
    for name, n in ids.items():
        mask = name_of == n
        calls[name] = int(np.count_nonzero(mask))
        incl[name] = float(durations[mask].sum())
        self_s[name] = float(selfs[mask].sum())

    def layer(prefix: str, table, zero=0.0):
        return sum((v for k, v in table.items() if k.startswith(prefix + ".")), zero)

    def spans_under(name: str, ancestor: str) -> int:
        if name not in ids or ancestor not in ids:
            return 0
        flags = _under(name_of, parents, ids[ancestor])
        return int(np.count_nonzero(flags & (name_of == ids[name])))

    integral = "cavity.BubbleTable.integral"
    build = "cavity.BubbleTable.__init__"
    bose = "keldysh.bose_occupation"
    ladder_integrals = spans_under(integral, "numerics.complex_newton")
    kerr_tables = spans_under(build, "kerr.kerr_scan")
    distinct_omegas = len(tracer.bose_omegas)
    return {
        "numerics.pairwise_sum.calls": calls["numerics.pairwise_sum"],
        "numerics.pairwise_sum.self_s": self_s["numerics.pairwise_sum"],
        "numerics.pairwise_sum.elements": tracer.counters["pairwise.elements"],
        "numerics.pairwise_sum.bytes": tracer.counters["pairwise.bytes"],
        "numerics.complex_newton.calls": calls["numerics.complex_newton"],
        "numerics.complex_newton.self_s": self_s["numerics.complex_newton"],
        "kerr.integrals_per_rung": ladder_integrals / kerr_rungs if kerr_rungs else 0.0,
        "kerr.tables_per_ratio": kerr_tables / kerr_ratios if kerr_ratios else 0.0,
        "kerr.self_s": layer("kerr", self_s),
        "cavity.BubbleTable.builds": calls[build],
        "cavity.BubbleTable.build_s": incl[build],
        "cavity.BubbleTable.integral.calls": calls[integral],
        "cavity.BubbleTable.integral.self_s": self_s[integral],
        "cavity.self_s": layer("cavity", self_s),
        "keldysh.bose_occupation.calls": calls[bose],
        "keldysh.bose_per_omega": calls[bose] / distinct_omegas if distinct_omegas else 0.0,
        "keldysh.self_s": layer("keldysh", self_s),
        "vertex.gamma4_direct_grid.self_s": self_s["vertex.gamma4_direct_grid"],
        "numerics.svd_singular_values.calls": calls["numerics.svd_singular_values"],
        "numerics.svd_singular_values.self_s": self_s["numerics.svd_singular_values"],
        "biphoton.self_s": layer("biphoton", self_s),
        "lattice.calls": layer("lattice", calls, 0),
        "lattice.self_s": layer("lattice", self_s),
        "dressing.sigma_matrix.calls": calls["dressing.sigma_matrix"],
        "dressing.self_s": layer("dressing", self_s),
        "output.write_csv.self_s": self_s["output.write_csv"],
        "output.write_matrix_csv.self_s": self_s["output.write_matrix_csv"],
        "output.cells": tracer.counters["output.cells"],
        "output.bytes": tracer.counters["output.bytes"],
        "output.sha256_of.s": incl["output.sha256_of"],
        "config.load_config.s": incl["config.load_config"],
        "cli.self_s": layer("cli", self_s),
        "trace.spans": int(name_of.size),
    }
