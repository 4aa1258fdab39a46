"""Tests for the memoizing, instrumented sampling wrapper."""

import tracemalloc

import numpy as np
import pytest

from tuckercheb import oracle as oracle_module
from tuckercheb.chebyshev import cheb_points
from tuckercheb.oracle import InstrumentedOracle, SamplingError


class TestCounting:
    def test_distinct_vs_total(self):
        oracle = InstrumentedOracle(lambda x, y, z: x + y + z)
        oracle.eval_points([0.0, 0.5, 0.0], [0.0] * 3, [0.0] * 3)
        assert oracle.total_calls == 3
        assert oracle.distinct_points == 2
        oracle.eval_points([0.5], [0.0], [0.0])
        assert oracle.total_calls == 4
        assert oracle.distinct_points == 2

    def test_memo_returns_cached_value(self):
        calls = []

        def f(x, y, z):
            calls.append(x.size)
            return x * 0 + 7.0

        oracle = InstrumentedOracle(f)
        a = oracle.eval_points([0.25], [0.5], [0.75])
        b = oracle.eval_points([0.25], [0.5], [0.75])
        assert a[0] == b[0] == 7.0
        assert calls == [1]

    def test_exact_key_no_tolerance(self):
        oracle = InstrumentedOracle(lambda x, y, z: x)
        oracle.eval_points([0.1], [0.0], [0.0])
        oracle.eval_points([0.1 + 1e-18], [0.0], [0.0])
        # 0.1 + 1e-18 rounds to 0.1 exactly in binary64: same key
        assert oracle.distinct_points == 1

    def test_per_phase_counters(self):
        oracle = InstrumentedOracle(lambda x, y, z: x * y * z)
        oracle.set_phase("phase1")
        oracle.eval_points([0.0, 0.1], [0.0] * 2, [0.0] * 2)
        oracle.set_phase("phase2")
        oracle.eval_points([0.0], [0.0], [0.0])
        assert oracle.counts["phase1"] == (2, 2)
        assert oracle.counts["phase2"] == (1, 0)

    def test_vscale_running_max(self):
        oracle = InstrumentedOracle(lambda x, y, z: 10 * x)
        oracle.eval_points([0.1], [0.0], [0.0])
        assert oracle.vscale == pytest.approx(1.0)
        oracle.eval_points([-0.9], [0.0], [0.0])
        assert oracle.vscale == pytest.approx(9.0)
        oracle.eval_points([0.0], [0.0], [0.0])
        assert oracle.vscale == pytest.approx(9.0)


class TestGridAndScalar:
    def test_grid_shape_and_order(self):
        oracle = InstrumentedOracle(lambda x, y, z: 100 * x + 10 * y + z)
        g = oracle.eval_grid([1.0, 2.0], [3.0], [4.0, 5.0, 6.0])
        assert g.shape == (2, 1, 3)
        assert g[1, 0, 2] == 100 * 2 + 10 * 3 + 6

    def test_scalar_call(self):
        oracle = InstrumentedOracle(lambda x, y, z: x - z)
        assert oracle(0.5, 0.0, 0.25) == pytest.approx(0.25)
        assert isinstance(oracle(0.0, 0.0, 0.0), float)

    def test_non_vectorized(self):
        def scalar_only(x, y, z):
            assert np.isscalar(x) or np.ndim(x) == 0
            return float(x) + float(y)

        oracle = InstrumentedOracle(scalar_only, vectorized=False)
        out = oracle.eval_points([0.1, 0.2], [1.0, 1.0], [0.0, 0.0])
        np.testing.assert_allclose(out, [1.1, 1.2])


class TestNanPolicy:
    def test_nan_raises_with_point(self):
        oracle = InstrumentedOracle(lambda x, y, z: np.where(x > 0, np.nan, 1.0))
        with pytest.raises(SamplingError) as exc:
            oracle.eval_points([-0.5, 0.5], [0.0] * 2, [0.0] * 2)
        assert exc.value.point[0] == 0.5

    def test_inf_raises(self):
        oracle = InstrumentedOracle(np.errstate(divide="ignore")(lambda x, y, z: 1.0 / x))
        with pytest.raises(SamplingError):
            oracle.eval_points([0.0], [0.0], [0.0])


class DictMemo:
    """Reference memo: a dict keyed by float triples, one point at a time.

    This is the memo the numpy sample store replaced; the differential
    test below requires the store to agree with it bit for bit.
    """

    def __init__(self, fn):
        self._fn = fn
        self._memo = {}
        self.total_calls = 0
        self.distinct_points = 0
        self.vscale = 0.0
        self.phase = "init"
        self.counts = {}

    def set_phase(self, name):
        self.phase = name

    def eval_points(self, xs, ys, zs):
        xs = np.asarray(xs, dtype=float).ravel()
        ys = np.asarray(ys, dtype=float).ravel()
        zs = np.asarray(zs, dtype=float).ravel()
        out = np.empty(xs.size)
        miss = []
        new_keys = set()
        for i in range(xs.size):
            key = (xs[i], ys[i], zs[i])
            val = self._memo.get(key)
            if val is None:
                miss.append(i)
                new_keys.add(key)
            else:
                out[i] = val
        if miss:
            vals = np.asarray(self._fn(xs[miss], ys[miss], zs[miss]), dtype=float)
            for v, i in zip(vals, miss):
                self._memo[(xs[i], ys[i], zs[i])] = v
                out[i] = v
            self.vscale = max(self.vscale, float(np.max(np.abs(vals))))
        self.total_calls += xs.size
        self.distinct_points += len(new_keys)
        t, d = self.counts.get(self.phase, (0, 0))
        self.counts[self.phase] = (t + xs.size, d + len(new_keys))
        return out

    def eval_grid(self, xs, ys, zs):
        X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
        return self.eval_points(X.ravel(), Y.ravel(), Z.ravel()).reshape(X.shape)


def _recording(log):
    """A sign-sensitive f that logs the exact bytes of every batch it gets."""

    def f(x, y, z):
        log.append(b"".join(np.asarray(a, dtype=float).tobytes() for a in (x, y, z)))
        return np.copysign(1.0, x) * (1.0 + x * y) + np.copysign(2.0, z) * y

    return f


def _state(oracle):
    return oracle.total_calls, oracle.distinct_points, dict(oracle.counts), oracle.vscale


class TestSampleStore:
    def test_signed_zero_shares_key_first_sign_wins(self):
        seen = []

        def f(x, y, z):
            seen.extend(np.signbit(x))
            return np.copysign(1.0, x)

        oracle = InstrumentedOracle(f)
        assert oracle.eval_points([-0.0], [0.0], [-0.0])[0] == -1.0
        assert oracle.eval_points([0.0], [-0.0], [0.0])[0] == -1.0
        assert seen == [True]
        assert oracle.distinct_points == 1 and oracle.total_calls == 2

    def test_repeat_within_call_counts_once(self):
        sizes = []

        def f(x, y, z):
            sizes.append(x.size)
            return x + y + z

        oracle = InstrumentedOracle(f)
        out = oracle.eval_points([0.3, 0.7, 0.3, 0.3], [0.1] * 4, [0.2] * 4)
        assert sizes == [4]  # f gets every miss, in query order
        assert oracle.distinct_points == 2 and oracle.total_calls == 4
        assert out[0] == out[2] == out[3]
        oracle.eval_points([0.3], [0.1], [0.2])
        assert sizes == [4] and oracle.distinct_points == 2

    def test_grid_then_points_all_hit(self):
        calls = []

        def f(x, y, z):
            calls.append(x.size)
            return 100 * x + 10 * y + z

        oracle = InstrumentedOracle(f)
        xs, ys, zs = [-1.0, 0.0, 0.5], [0.25, -0.75], [1.0, -0.0]
        grid = oracle.eval_grid(xs, ys, zs)
        X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
        order = np.random.default_rng(0).permutation(X.size)
        flat = oracle.eval_points(X.ravel()[order], Y.ravel()[order], Z.ravel()[order])
        np.testing.assert_array_equal(flat, grid.ravel()[order])
        assert calls == [12]
        assert oracle.distinct_points == 12 and oracle.total_calls == 24

    def test_sampling_error_changes_nothing(self):
        calls = []

        @np.errstate(divide="ignore")
        def f(x, y, z):
            calls.append(x.size)
            return 1.0 / x

        oracle = InstrumentedOracle(f)
        oracle.set_phase("a")
        oracle.eval_points([0.5, -2.0], [0.0, 0.0], [0.0, 0.0])
        before = _state(oracle)
        with pytest.raises(SamplingError) as exc:
            oracle.eval_points([0.25, 0.0, 0.5, -0.0], [0.125] * 4, [0.0] * 4)
        assert exc.value.point == (0.0, 0.125, 0.0)
        assert _state(oracle) == before
        # nothing of the failed call was stored: its finite point is a miss
        assert oracle(0.25, 0.125, 0.0) == 4.0
        assert oracle.distinct_points == before[1] + 1
        assert calls == [2, 4, 1]
        assert oracle(0.5, 0.0, 0.0) == 2.0 and calls == [2, 4, 1]

    def test_nan_coordinate_raises(self):
        oracle = InstrumentedOracle(lambda x, y, z: x)
        oracle.eval_points([0.5], [0.0], [0.0])
        before = _state(oracle)
        with pytest.raises(ValueError):
            oracle.eval_points([0.5, 0.1], [0.0, np.nan], [0.0, 0.0])
        assert _state(oracle) == before

    def test_unequal_sizes_raise_and_change_nothing(self):
        # the keys were sliced at xs.size, so a stored pair of points answered
        # for a call with three different sizes
        oracle = InstrumentedOracle(lambda x, y, z: x + 10 * y + 100 * z)
        oracle.eval_points([0.1, 0.2], [0.3, 0.4], [0.5, 0.6])
        before = _state(oracle), oracle._keys.copy(), oracle._coords.copy()
        with pytest.raises(ValueError, match="2, 3, 1"):
            oracle.eval_points([0.1, 0.2], [0.3, 0.4, 0.5], [0.6])
        assert _state(oracle) == before[0]
        np.testing.assert_array_equal(oracle._keys, before[1])
        np.testing.assert_array_equal(oracle._coords, before[2])
        with pytest.raises(ValueError, match="2, 3, 1"):
            InstrumentedOracle(lambda x, y, z: x).eval_points([0.1, 0.2], [0.3, 0.4, 0.5], [0.6])

    def test_coordinate_capacity(self):
        # 2**21 coordinate ids fill the 21-bit fields of a key; the next one
        # must raise rather than collide
        cap = 2**21
        n = (cap - 2) // 3
        vals = np.random.default_rng(1).permutation(3 * n) / cap - 0.5
        oracle = InstrumentedOracle(lambda x, y, z: x + 2 * y + 4 * z)
        oracle.eval_points(vals[:n], vals[n : 2 * n], vals[2 * n :])
        # two fresh coordinates take the last two ids, 2**21 - 2 and 2**21 - 1
        assert oracle(0.75, 0.875, vals[0]) == 0.75 + 2 * 0.875 + 4 * vals[0]
        assert oracle(0.875, 0.75, vals[0]) == 0.875 + 2 * 0.75 + 4 * vals[0]
        assert oracle(0.75, 0.875, vals[0]) == 0.75 + 2 * 0.875 + 4 * vals[0]
        before = _state(oracle)
        with pytest.raises(OverflowError):
            oracle(0.9375, 0.75, 0.875)
        assert _state(oracle) == before
        assert oracle(vals[1], vals[n + 1], vals[2 * n + 1]) == vals[1] + 2 * vals[n + 1] + 4 * vals[2 * n + 1]
        assert oracle.distinct_points == n + 2

    def test_matches_dict_reference(self):
        rng = np.random.default_rng(7)
        pool = np.concatenate([cheb_points(9), [-0.0, 0.0, -0.0], rng.uniform(-1, 1, 5)])
        log_a, log_b = [], []
        store = InstrumentedOracle(_recording(log_a))
        ref = DictMemo(_recording(log_b))
        for step in range(20):
            phase = f"p{step % 3}"
            store.set_phase(phase)
            ref.set_phase(phase)
            kind = step % 4
            if kind == 0:
                axes = [rng.choice(pool, size=rng.integers(1, 5)) for _ in range(3)]
                a, b = store.eval_grid(*axes), ref.eval_grid(*axes)
            else:
                m = int(rng.integers(1, 40))
                if kind == 1:
                    pts = rng.choice(pool, size=(3, m))
                elif kind == 2:
                    pts = rng.uniform(-1, 1, (3, m))
                else:
                    pts = rng.choice(pool, size=(3, m))
                    pts = np.concatenate([pts, pts[:, ::-1]], axis=1)
                a, b = store.eval_points(*pts), ref.eval_points(*pts)
            assert a.tobytes() == b.tobytes(), step
            assert _state(store) == _state(ref), step
        assert log_a == log_b
        assert store.distinct_points > 0 and store.total_calls > store.distinct_points


def _store(oracle):
    return tuple(a.tobytes() for a in (oracle._keys, oracle._vals, oracle._coords, oracle._coord_ids))


class TestGridPath:
    """eval_grid builds its keys per axis; it must act as eval_points on the
    meshgrid of its axes, bit for bit, and fail as cleanly."""

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_same_batches_and_counts_as_meshgrid_points(self, vectorized):
        rng = np.random.default_rng(8)
        pool = np.concatenate([cheb_points(9), [-0.0, 0.0], rng.uniform(-1, 1, 4)])
        log_a, log_b = [], []
        grid = InstrumentedOracle(_recording(log_a), vectorized=vectorized)
        points = InstrumentedOracle(_recording(log_b), vectorized=vectorized)
        for step in range(12):
            for o in (grid, points):
                o.set_phase(f"p{step % 2}")
            # repeated values within an axis and across calls, signed zeros included
            axes = [rng.choice(pool, size=rng.integers(1, 6)) for _ in range(3)]
            a = grid.eval_grid(*axes)
            X, Y, Z = np.meshgrid(*axes, indexing="ij")
            b = points.eval_points(X.ravel(), Y.ravel(), Z.ravel())
            assert a.shape == X.shape
            assert a.tobytes() == b.tobytes(), step
            assert _state(grid) == _state(points), step
            assert _store(grid) == _store(points), step
        assert log_a == log_b
        assert grid.total_calls > grid.distinct_points > 0

    def test_duplicate_axis_values(self):
        sizes = []

        def f(x, y, z):
            sizes.append(x.size)
            return x - 2 * y + 3 * z

        oracle = InstrumentedOracle(f)
        g = oracle.eval_grid([0.5, 0.5, -0.0], [0.25], [0.0, 0.0])
        assert g.shape == (3, 1, 2)
        assert np.all(g[:2] == 0.5 - 0.5) and np.all(g[2] == -0.5)
        assert sizes == [6]  # f gets every miss, repeats included, as eval_points does
        assert oracle.distinct_points == 2 and oracle.total_calls == 6
        assert oracle(0.0, 0.25, -0.0) == -0.5 and sizes == [6]

    def test_empty_axis(self):
        calls = []

        def f(x, y, z):
            calls.append(x.size)
            return x + y + z

        oracle = InstrumentedOracle(f)
        for axes in (([], [0.1], [0.2]), ([0.1], [], [0.2]), ([0.1], [0.2], []), ([], [], [])):
            g = oracle.eval_grid(*axes)
            assert g.shape == tuple(len(a) for a in axes) and g.size == 0
        assert calls == [] and oracle.total_calls == oracle.distinct_points == 0
        assert oracle.eval_grid([0.1], [0.2], [0.3])[0, 0, 0] == pytest.approx(0.6)
        assert calls == [1]

    def test_nan_on_one_axis_raises(self):
        oracle = InstrumentedOracle(lambda x, y, z: x)
        oracle.eval_grid([0.5, -0.5], [0.0], [0.25])
        before, store = _state(oracle), _store(oracle)
        with pytest.raises(ValueError):
            oracle.eval_grid([0.5, 0.75], [0.0, np.nan], [0.25])
        assert _state(oracle) == before and _store(oracle) == store

    def test_sampling_error_changes_nothing_and_names_the_point(self):
        calls = []

        @np.errstate(divide="ignore")
        def f(x, y, z):
            calls.append(x.size)
            return 1.0 / (x * y)

        oracle = InstrumentedOracle(f)
        oracle.set_phase("a")
        oracle.eval_grid([0.5, 0.25], [1.0], [0.0])
        before, store = _state(oracle), _store(oracle)
        with pytest.raises(SamplingError) as exc:
            # in C order the first non-finite value is at (0.5, 0.0, 0.0)
            oracle.eval_grid([0.5, 0.25], [1.0, 0.0], [0.0, 0.5])
        assert exc.value.point == (0.5, 0.0, 0.0)
        assert np.isinf(exc.value.value)
        assert _state(oracle) == before and _store(oracle) == store
        assert calls == [2, 6]
        assert oracle(0.25, 1.0, 0.5) == 4.0 and oracle.distinct_points == before[1] + 1

    def test_overflow_changes_nothing(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "_MAX_COORDS", 6)
        oracle = InstrumentedOracle(lambda x, y, z: x + y + z)
        oracle.eval_grid([0.1, 0.2], [0.3, 0.4], [0.5])  # five coordinate values
        before, store = _state(oracle), _store(oracle)
        with pytest.raises(OverflowError):
            oracle.eval_grid([0.1], [0.3, 0.6], [0.5, 0.7])
        assert _state(oracle) == before and _store(oracle) == store
        # a grid with one new value still fits, and so does a grid of hits
        assert oracle.eval_grid([0.1], [0.6], [0.5])[0, 0, 0] == pytest.approx(1.2)
        assert oracle.eval_grid([0.2, 0.1], [0.4, 0.3], [0.5]).shape == (2, 2, 1)

    def test_grid_builds_no_coordinate_grid(self):
        # A meshgrid holds 3*N coordinates beside the N keys of any lookup,
        # 4 * 8N bytes in all; a stored grid must be looked up in less
        n = 64
        ax = cheb_points(n)
        oracle = InstrumentedOracle(lambda x, y, z: x + y * z)
        first = oracle.eval_grid(ax, ax, ax)
        tracemalloc.start()
        try:
            again = oracle.eval_grid(ax, ax, ax)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again.tobytes() == first.tobytes()
        assert peak < 4 * 8 * n**3
