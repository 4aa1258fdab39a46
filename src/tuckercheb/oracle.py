"""Instrumented wrapper around the target function.

Every sample is memoized by its exact floating-point (x, y, z) triple,
so re-queried points cost nothing and the distinct-point counter is the
honest measure of evaluation work.  A running max of |f| (vscale) feeds
the relative tolerance heuristics of the constructor.

The memo is one numpy sample store.  Each coordinate value is interned
into a sorted table of distinct floats with stable integer ids, numbered
in the order values enter the table.  The two signed zeros compare
equal, so they share one id, as they share a dict key; f is called with
the coordinates as queried, so it sees the sign of the first query.
The three ids of a point are packed into one ``int64`` key, 21 bits
each, and the keys are kept sorted with the values beside them: lookup
is ``np.searchsorted``, and each call's new keys are merged in with
``np.insert`` at their sorted positions, O(N) per call and never a
re-sort.  The store therefore holds at most 2**21 distinct coordinate
values; a call that would exceed that raises OverflowError and changes
nothing.  A NaN coordinate equals no key and raises ValueError.
"""

import numpy as np

_ID_BITS = 21
_MAX_COORDS = 1 << _ID_BITS


class SamplingError(RuntimeError):
    """The target function produced a non-finite value."""

    def __init__(self, point, value):
        self.point = point
        self.value = value
        super().__init__(f"f{tuple(point)} = {value} is not finite")


def _find(table, queries):
    """Positions of queries in a sorted table, and whether each is there."""
    pos = np.searchsorted(table, queries)
    if not table.size:
        return pos, np.zeros(pos.shape, dtype=bool)
    return pos, table[np.minimum(pos, table.size - 1)] == queries


class InstrumentedOracle:
    """Wraps f: [-1,1]^3 -> R with memoization and per-phase counters.

    If ``vectorized`` is true (default), f is called once per batch with
    numpy arrays; otherwise it is called point by point.
    """

    def __init__(self, fn, vectorized=True):
        self._fn = fn
        self._vectorized = vectorized
        self._coords = np.empty(0)  # distinct coordinate values, sorted
        self._coord_ids = np.empty(0, dtype=np.int64)  # their ids
        self._keys = np.empty(0, dtype=np.int64)  # packed point keys, sorted
        self._vals = np.empty(0)  # f at each key
        self.total_calls = 0
        self.distinct_points = 0
        self.vscale = 0.0
        self.phase = "init"
        self.counts = {}

    def set_phase(self, name):
        self.phase = name

    def _bump(self, total, distinct):
        self.total_calls += total
        self.distinct_points += distinct
        t, d = self.counts.get(self.phase, (0, 0))
        self.counts[self.phase] = (t + total, d + distinct)

    def eval_points(self, xs, ys, zs):
        """Evaluate f at point triples given by parallel flat arrays."""
        xs = np.asarray(xs, dtype=float).ravel()
        ys = np.asarray(ys, dtype=float).ravel()
        zs = np.asarray(zs, dtype=float).ravel()
        n = xs.size
        coords = np.concatenate([xs, ys, zs])
        if np.isnan(coords).any():
            raise ValueError("a sample coordinate is NaN")
        cpos, known = _find(self._coords, coords)
        cid = np.empty(coords.size, dtype=np.int64)
        cid[known] = self._coord_ids[cpos[known]]
        unseen, inverse = np.unique(coords[~known], return_inverse=True)
        unseen_ids = self._coords.size + np.arange(unseen.size, dtype=np.int64)
        cid[~known] = unseen_ids[inverse]
        keys = (cid[:n] << (2 * _ID_BITS)) | (cid[n : 2 * n] << _ID_BITS) | cid[2 * n :]

        pos, hit = _find(self._keys, keys)
        out = np.empty(n)
        out[hit] = self._vals[pos[hit]]
        miss = np.flatnonzero(~hit)
        distinct = 0
        if miss.size:
            if self._coords.size + unseen.size > _MAX_COORDS:
                raise OverflowError(
                    f"the sample store holds at most {_MAX_COORDS} distinct coordinate values"
                )
            if self._vectorized:
                vals = np.asarray(self._fn(xs[miss], ys[miss], zs[miss]), dtype=float)
                vals = np.broadcast_to(vals, miss.shape).astype(float)
            else:
                vals = np.array([float(self._fn(xs[i], ys[i], zs[i])) for i in miss])
            bad = ~np.isfinite(vals)
            if np.any(bad):
                j = int(np.argmax(bad))
                k = miss[j]
                raise SamplingError((xs[k], ys[k], zs[k]), vals[j])
            out[miss] = vals
            # a key repeated within the call keeps its last value, as a dict would
            new, last = np.unique(keys[miss][::-1], return_index=True)
            at = np.searchsorted(self._keys, new)
            self._keys = np.insert(self._keys, at, new)
            self._vals = np.insert(self._vals, at, vals[::-1][last])
            at = np.searchsorted(self._coords, unseen)
            self._coords = np.insert(self._coords, at, unseen)
            self._coord_ids = np.insert(self._coord_ids, at, unseen_ids)
            distinct = new.size
            vmax = float(np.max(np.abs(vals)))
            if vmax > self.vscale:
                self.vscale = vmax
        self._bump(n, distinct)
        return out

    def eval_grid(self, xs, ys, zs):
        """Evaluate f on the outer-product grid xs x ys x zs."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        zs = np.asarray(zs, dtype=float)
        X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
        flat = self.eval_points(X.ravel(), Y.ravel(), Z.ravel())
        return flat.reshape(xs.size, ys.size, zs.size)

    def __call__(self, x, y, z):
        return float(self.eval_points([x], [y], [z])[0])
