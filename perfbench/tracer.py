"""In-memory span tracer for the benchmark's traced runs.

A span is (name, start, end, parent).  Spans are kept in flat arrays so
that a run with a per-point scalar ``f`` (hundreds of thousands of spans)
stays small, and are written out once when the run ends.

``patched`` wraps every public function of the library's layer modules,
plus the oracle and approximant methods, at every module binding it can
be reached through: ``approximator`` imports ``aca``, ``cheb_points`` and
``eval_series`` by name, ``tensor`` has its own ``cheb_points``, and the
package re-exports most of them.  Nothing in ``src/`` changes.
"""

import functools
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Modules whose public functions are spans; the first dotted part of a span
# name is its layer.
LAYER_MODULES = ("approximator", "chebyshev", "cross", "tensor", "serialize")
METHODS = (
    ("oracle", "InstrumentedOracle", ("eval_points", "eval_grid")),
    ("approximator", "TuckerApproximant", ("evaluate", "evaluate_many")),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")  # a per-span count, such as matrix entries scanned
        self._stack = [-1]

    def intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.work.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        i = self._open(self.intern(name))
        try:
            yield i
        finally:
            self._close(i)

    def wrap(self, name, fn, work=None):
        """Return fn recording one span per call; work(args, result) -> count."""
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if work is not None:
                self.work[i] = work(args, kwargs, result)
            return result

        return traced

    def arrays(self):
        """Spans as numpy arrays plus derived durations and self times."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        dur = end - start
        covered = np.zeros(dur.size)
        has = parent >= 0
        np.add.at(covered, parent[has], dur[has])
        return Spans(
            names=list(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32).copy(),
            parent=parent,
            start=start,
            end=end,
            dur=dur,
            self_time=dur - covered,
            work=np.frombuffer(self.work, dtype=float).copy(),
        )


class Spans:
    def __init__(self, names, name_id, parent, start, end, dur, self_time, work):
        self.names = names
        self.name_id = name_id
        self.parent = parent
        self.start = start
        self.end = end
        self.dur = dur
        self.self_time = self_time
        self.work = work
        self.layer = np.array([n.split(".")[0] for n in names] or [""])[name_id]

    def named(self, name):
        if name not in self.names:
            return np.zeros(self.name_id.size, dtype=bool)
        return self.name_id == self.names.index(name)

    def inside(self, i):
        """Mask of span i and every span nested in it."""
        return (self.start >= self.start[i]) & (self.end <= self.end[i])

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=self.name_id,
            parent=self.parent,
            start=self.start,
            end=self.end,
            work=self.work,
        )


def _aca_entries(args, kwargs, result):
    """Matrix entries full-pivot ACA scans: one full pass per pivot search."""
    m = np.asarray(args[0])
    cap = min(m.shape)
    max_rank = kwargs.get("max_rank", args[2] if len(args) > 2 else None)
    if max_rank is not None:
        cap = min(cap, max_rank)
    searches = result.rank + (1 if result.rank < cap else 0)
    return float(m.size * searches)


WORK = {"cross.aca": _aca_entries}


@contextmanager
def patched(tracer):
    """Install span wrappers into the imported library; undo them on exit."""
    pkg = sys.modules["tuckercheb"]
    mods = [m for n, m in list(sys.modules.items()) if n == "tuckercheb" or n.startswith("tuckercheb.")]
    wrappers = {}
    for short in LAYER_MODULES:
        mod = sys.modules[f"{pkg.__name__}.{short}"]
        for attr, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                name = f"{short}.{attr}"
                wrappers[fn] = tracer.wrap(name, fn, WORK.get(name))
    undo = []
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                undo.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])
    for short, cls_name, methods in METHODS:
        cls = getattr(sys.modules[f"{pkg.__name__}.{short}"], cls_name)
        for meth in methods:
            fn = vars(cls)[meth]
            undo.append((cls, meth, fn))
            setattr(cls, meth, tracer.wrap(f"{short}.{meth}", fn))
    try:
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def span_cost(samples=20000):
    """Seconds one traced call adds, measured on a no-op function."""
    t = Tracer()
    noop = t.wrap("noop", lambda: None)
    plain = lambda: None  # noqa: E731
    t0 = perf_counter()
    for _ in range(samples):
        plain()
    base = perf_counter() - t0
    t0 = perf_counter()
    for _ in range(samples):
        noop()
    return max((perf_counter() - t0 - base) / samples, 0.0)
