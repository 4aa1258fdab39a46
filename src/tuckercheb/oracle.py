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
values, and a call takes at most MAX_BLOCK = 2**24 points; a call past
either limit raises OverflowError, or MemoryError before it allocates
or calls f, and changes nothing.  A NaN coordinate raises ValueError.

Point and grid calls share one routine that interns, packs the keys,
looks them up, samples the misses and inserts them.  A grid call interns
only its n1 + n2 + n3 axis values, broadcasts their ids into the n1*n2*n3
keys, and recovers the coordinates of its misses, and only those, from
their flat positions.  So a grid and the same points listed one by one
give f the same batch and leave the same store and counts.
"""

import numpy as np

_ID_BITS = 21
_MAX_COORDS = 1 << _ID_BITS
MAX_BLOCK = 2**24  # points per sampling call


class SamplingError(RuntimeError):
    """The target function produced a non-finite value."""

    def __init__(self, point, value):
        self.point = point
        self.value = value
        super().__init__(f"f{tuple(map(float, point))} = {value} is not finite")


def _find(table, queries):
    """Positions of queries in a sorted table, and whether each is there."""
    pos = np.searchsorted(table, queries)
    if not table.size:
        return pos, np.zeros(pos.shape, dtype=bool)
    # a position past the end is a miss; clip it in place to compare
    np.minimum(pos, table.size - 1, out=pos)
    return pos, table[pos] == queries


class InstrumentedOracle:
    """Wraps f: [-1,1]^3 -> R with memoization and per-phase counters.

    If ``vectorized`` is true (default), f is called once per batch with
    numpy arrays; otherwise it is called point by point, in flat order.
    """

    def __init__(self, fn, vectorized=True):
        self._fn = fn if vectorized else lambda xs, ys, zs: [float(fn(*p)) for p in zip(xs, ys, zs)]
        self._coords = np.empty(0)  # distinct coordinate values, sorted
        self._coord_ids = np.empty(0, dtype=np.int64)  # their ids
        self._keys = np.empty(0, dtype=np.int64)  # packed point keys, sorted
        self._vals = np.empty(0)  # f at each key
        self.total_calls = 0
        self.distinct_points = 0
        self.vscale = 0.0
        self.phase = "init"
        self.counts = {}

    def _intern(self, coords):
        """Coordinate ids of coords; unseen values are numbered in sorted order.

        Returns (ids, unseen values, their ids).  Nothing is stored yet.
        """
        if np.isnan(coords).any():
            raise ValueError("a sample coordinate is NaN")
        cpos, known = _find(self._coords, coords)
        cid = np.empty(coords.size, dtype=np.int64)
        cid[known] = self._coord_ids[cpos[known]]
        unseen, inverse = np.unique(coords[~known], return_inverse=True)
        unseen_ids = self._coords.size + np.arange(unseen.size, dtype=np.int64)
        cid[~known] = unseen_ids[inverse]
        return cid, unseen, unseen_ids

    def _sample(self, axes, grid):
        """f at the triples of three flat float arrays or, if grid, on
        their outer-product grid in C order: hits from the store, misses
        from f.  The store and counters change only once every miss has
        a finite value.
        """
        sizes = [a.size for a in axes]
        shape = sizes if grid else sizes[:1]
        if np.prod(shape, dtype=float) > MAX_BLOCK:  # a float product cannot wrap round
            raise MemoryError(f"a call of {' x '.join(map(str, shape))} points exceeds MAX_BLOCK = {MAX_BLOCK}")
        cid, unseen, unseen_ids = self._intern(np.concatenate(axes))
        i, j, k = np.split(cid, np.cumsum(sizes[:2]))
        if grid:
            i, j = i[:, None, None], j[:, None]
        keys = ((i << (2 * _ID_BITS)) | (j << _ID_BITS) | k).ravel()
        pos, hit = _find(self._keys, keys)
        out = np.empty(keys.size)
        if self._vals.size:
            # a miss takes a neighbour's value until f's value replaces it;
            # mode "clip" (positions are in range) keeps take from buffering
            self._vals.take(pos, out=out, mode="clip")
        del pos  # freed before f runs
        miss = np.flatnonzero(~hit)
        distinct = 0
        if miss.size:
            if self._coords.size + unseen.size > _MAX_COORDS:
                raise OverflowError(
                    f"the sample store holds at most {_MAX_COORDS} distinct coordinate values"
                )
            xs, ys, zs = map(np.take, axes, np.unravel_index(miss, sizes) if grid else (miss,) * 3)
            vals = np.asarray(self._fn(xs, ys, zs), dtype=float)
            vals = np.broadcast_to(vals, miss.shape).astype(float)
            bad = ~np.isfinite(vals)
            if np.any(bad):
                j = int(np.argmax(bad))
                raise SamplingError((xs[j], ys[j], zs[j]), vals[j])
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
        self.total_calls += keys.size
        self.distinct_points += distinct
        t, d = self.counts.get(self.phase, (0, 0))
        self.counts[self.phase] = (t + keys.size, d + distinct)
        return out

    def eval_points(self, xs, ys, zs):
        """Evaluate f at point triples given by parallel flat arrays."""
        axes = [np.asarray(a, dtype=float).ravel() for a in (xs, ys, zs)]
        if len(set(map(len, axes))) > 1:
            raise ValueError("xs, ys and zs differ in size: {}, {}, {}".format(*map(len, axes)))
        return self._sample(axes, grid=False)

    def eval_grid(self, xs, ys, zs):
        """Evaluate f on the outer-product grid xs x ys x zs.

        Points are taken in C order (xs slowest), as np.meshgrid with
        indexing="ij" would list them, but no coordinate grid is built:
        the axis values are interned once and the keys are broadcast.
        """
        axes = [np.asarray(a, dtype=float).ravel() for a in (xs, ys, zs)]
        return self._sample(axes, grid=True).reshape([a.size for a in axes])
