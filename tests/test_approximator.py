"""Tests for the three-phase constructor on cheap target functions."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from tuckercheb import approximator, catalog, chebyshev
from tuckercheb.approximator import (
    COARSE_SIZE,
    EVAL_BLOCK,
    HALTON_COUNT,
    MAX_RANK,
    RANK_RATIO_THRESHOLD,
    ConstructorConfig,
    ModeFibers,
    TuckerApproximant,
    build,
    grow_size,
    halton_points,
    phase2_refine,
)
from tuckercheb.chebyshev import cheb_points
from tuckercheb.cross import DegenerateInputError
from tuckercheb.oracle import InstrumentedOracle, SamplingError

from known_answers import EXACT_TUCKER_RANKS, check_points, exact_tucker, hidden_bump

STATS_KEYS = {
    "schema_version", "tol", "ranks", "degrees", "coarse_dims",
    "restarts", "vscale", "halton_error", "certified", "unresolved_modes",
    "mixing_norms", "evals", "total_calls", "distinct_points",
}


def separable(x, y, z):
    return np.exp(x) * np.cos(y) * (z**2 + 1)


def clenshaw_evaluate(approx, pts):
    """Reference evaluator: numpy chebval (Clenshaw) bases of shape (r, m)
    and one 4-operand einsum over all points at once.

    This is the evaluation the blocked Vandermonde/GEMM path replaced; the
    differential test below requires the two to agree to round-off.
    """
    u, v, w = (np.atleast_2d(chebval(pts[:, k], a)) for k, a in enumerate(approx.coeffs))
    return np.einsum("ijk,im,jm,km->m", approx.core, u, v, w)


def random_approximant(rng, ranks, degrees):
    """Random core, and factor columns whose coefficients decay to ~1e-14
    at the last degree, as a built approximant's do."""
    coeffs = tuple(
        rng.standard_normal((d, r)) * 10.0 ** (-14.0 * np.arange(d) / d)[:, None]
        for d, r in zip(degrees, ranks)
    )
    return TuckerApproximant(core=rng.standard_normal(ranks), coeffs=coeffs)


class TestHelpers:
    def test_halton_first_point(self):
        p = halton_points(1)
        np.testing.assert_allclose(p[0], [0.0, -1.0 / 3.0, -0.6], atol=1e-15)

    def test_halton_range_and_determinism(self):
        a = halton_points(30)
        b = halton_points(30)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.abs(a) < 1.0)
        assert a.shape == (30, 3)

    def test_halton_offset_shifts_sequence(self):
        np.testing.assert_array_equal(halton_points(5, offset=2), halton_points(7)[2:])

    def test_halton_negative_offset_raises(self):
        # the digit loop would floor-divide a negative index forever
        with pytest.raises(ValueError, match="offset"):
            halton_points(1, offset=-2)

    def test_grow_size_chain(self):
        sizes = [17]
        for _ in range(8):
            sizes.append(grow_size(sizes[-1]))
        assert sizes == [17, 23, 33, 46, 65, 91, 129, 182, 257]

    def test_grid_grows_while_max_rank_can_condemn_it(self):
        # phase 1 condemns a grid whose rank exceeds RANK_RATIO_THRESHOLD of n;
        # a rank is at most MAX_RANK, so every grid that can be condemned must
        # have a larger successor, or phase 1 would loop on a stalled grid
        n = COARSE_SIZE
        while MAX_RANK / n > RANK_RATIO_THRESHOLD:
            assert approximator._grow(n) > n
            n = approximator._grow(n)

    def test_modified_guesses_double_only_under_a_capped_mode(self):
        # a mode is capped when its rank reaches the product of its two
        # partners' ranks; only then may the samples, not f, limit a rank
        g = approximator._modified_guesses
        assert g((19, 19, 19)) == (19, 19)
        assert g((6, 1, 6)) == (3, 12)
        assert g((114, 114, 1)) == (228, 3)
        assert g((1, 1, 1)) == (3, 3)

    def test_config_validation(self):
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ConstructorConfig(tol=tol)
        # the restart budget and the refinement cap are module constants
        assert [f.name for f in dataclasses.fields(ConstructorConfig)] == ["tol"]
        with pytest.raises(TypeError):
            ConstructorConfig(max_restarts=1)
        with pytest.raises(TypeError):
            ConstructorConfig(max_fine_size=33)


class TestBuildBasics:
    def test_separable_rank_one(self):
        approx = build(separable, ConstructorConfig(tol=1e-12))
        s = approx.stats
        assert s["ranks"] == [1, 1, 1]
        assert s["restarts"] == 0
        assert s["certified"] is True
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (200, 3))
        err = np.max(np.abs(approx.evaluate_many(pts) - separable(*pts.T)))
        assert err <= 1e-11 * s["vscale"]

    def test_stats_schema(self):
        approx = build(separable, ConstructorConfig(tol=1e-8))
        assert set(approx.stats) == STATS_KEYS
        assert approx.stats["schema_version"] == 2
        ev = approx.stats["evals"]
        # phase2 may be absent when the coarse grid is already resolved
        for phase in ("phase1", "phase3_core", "verify"):
            assert phase in ev
        for counters in ev.values():
            assert counters["distinct"] <= counters["total"]
        assert approx.stats["distinct_points"] <= approx.stats["total_calls"]

    def test_sum_function_rank_two(self):
        approx = build(lambda x, y, z: x + y + z, ConstructorConfig(tol=1e-12))
        assert approx.stats["ranks"] == [2, 2, 2]
        assert approx.evaluate(0.3, -0.2, 0.5) == pytest.approx(0.6, abs=1e-12)

    def test_zero_function(self):
        approx = build(lambda x, y, z: 0.0 * x, ConstructorConfig(tol=1e-12))
        assert approx.stats["ranks"] == [1, 1, 1]
        assert approx.stats["certified"] is True
        assert approx.evaluate(0.1, 0.2, 0.3) == 0.0

    def test_non_vectorized_oracle(self):
        approx = build(
            lambda x, y, z: math.sin(x) * math.cos(y + z),
            ConstructorConfig(tol=1e-10),
            vectorized=False,
        )
        assert approx.stats["certified"] is True
        assert approx.evaluate(0.2, 0.4, -0.1) == pytest.approx(
            math.sin(0.2) * math.cos(0.3), abs=1e-9
        )

    def test_nan_propagates(self):
        f = np.errstate(divide="ignore", invalid="ignore")(lambda x, y, z: x / (y - y))
        with pytest.raises(SamplingError):
            build(f, ConstructorConfig(tol=1e-10))


class TestBuildBehavior:
    def test_deterministic_bitwise(self):
        cfg = ConstructorConfig(tol=1e-10)
        a = build(lambda x, y, z: np.tanh(x + y) * np.exp(z), cfg)
        b = build(lambda x, y, z: np.tanh(x + y) * np.exp(z), cfg)
        np.testing.assert_array_equal(a.core, b.core)
        for ca, cb in zip(a.coeffs, b.coeffs):
            np.testing.assert_array_equal(ca, cb)
        assert a.stats == b.stats

    def test_certified_build_is_accurate(self):
        f = lambda x, y, z: 1.0 / (2.0 + x * y + np.cos(z))
        pts = np.random.default_rng(1).uniform(-1, 1, (200, 3))
        approx = build(f, ConstructorConfig(tol=1e-10))
        assert approx.stats["certified"] is True
        assert np.max(np.abs(approx.evaluate_many(pts) - f(*pts.T))) <= 1e-8

    def test_build_draws_no_random_numbers(self, monkeypatch):
        # a build depends on f and tol alone: it makes no generator and uses
        # no global one (Generator.choice itself cannot be patched, since
        # Generator is an immutable extension type)
        f = catalog.get("logmix")
        expected = build(f, ConstructorConfig(tol=1e-10)).stats

        def forbidden(*args, **kwargs):
            raise AssertionError("build used numpy.random")

        for name in np.random.__all__:
            if callable(getattr(np.random, name)):
                monkeypatch.setattr(np.random, name, forbidden)
        assert build(f, ConstructorConfig(tol=1e-10)).stats == expected

    def test_unresolved_mode_reported(self, monkeypatch):
        # a kink limits one mode; the tiny fine-grid cap forces a giving-up path
        monkeypatch.setattr(approximator, "MAX_FINE_SIZE", 33)
        monkeypatch.setattr(approximator, "MAX_RESTARTS", 1)
        approx = build(lambda x, y, z: np.abs(x) + 0.0 * y * z, ConstructorConfig(tol=1e-12))
        assert 1 in approx.stats["unresolved_modes"]
        assert approx.stats["certified"] is False

    def test_restart_increases_coarse_grid(self, monkeypatch):
        monkeypatch.setattr(approximator, "MAX_FINE_SIZE", 33)
        monkeypatch.setattr(approximator, "MAX_RESTARTS", 2)
        approx = build(lambda x, y, z: np.abs(x) + 0.0 * y * z, ConstructorConfig(tol=1e-12))
        assert approx.stats["restarts"] == 2
        assert max(approx.stats["coarse_dims"]) > 17

    def test_condemned_grid_is_left_at_first_high_rank(self, monkeypatch):
        # phase 1 samples no unfolding of a coarse grid after the first one
        # whose rank exceeds RANK_RATIO_THRESHOLD of its size; the grid it
        # keeps runs both sweeps over all three modes
        unfoldings = []  # [grid dims, ACA rank] per phase-1 unfolding, in order
        real_subtensor, real_aca = approximator.subtensor, approximator._aca_on_matrix

        def sampling(oracle, dims, *sel):
            if oracle.phase == "phase1":
                unfoldings.append([tuple(dims), None])
            return real_subtensor(oracle, dims, *sel)

        def cross(m, tol_rel):
            rows, cols = real_aca(m, tol_rel)
            unfoldings[-1][1] = len(rows)
            return rows, cols

        monkeypatch.setattr(approximator, "subtensor", sampling)
        monkeypatch.setattr(approximator, "_aca_on_matrix", cross)
        s = build(catalog.get("logmix"), ConstructorConfig(tol=1e-10)).stats
        assert s["restarts"] == 0
        grids = {}
        for dims, rank in unfoldings:
            grids.setdefault(dims, []).append(rank)
        *condemned, (last_dims, last_ranks) = grids.items()
        assert list(last_dims) == s["coarse_dims"] and len(condemned) >= 2

        def too_high(dims, ranks):
            return [r / dims[k % 3] > approximator.RANK_RATIO_THRESHOLD for k, r in enumerate(ranks)]

        for dims, ranks in condemned:
            assert too_high(dims, ranks) == [False] * (len(ranks) - 1) + [True], (dims, ranks)
        assert too_high(last_dims, last_ranks) == [False] * 6

    def test_phase2_samples_only_unresolved_columns(self):
        # column 0 resolves on the 17-point grid; column 1 needs a finer one
        f = lambda x, y, z: 1.0 / (1.0 + 400.0 * (y * x) ** 2)
        coords = np.array([(0.005, 0.0), (1.0, 0.0)])
        oracle = InstrumentedOracle(f)
        x = cheb_points(17)
        vals = np.stack(
            [oracle.eval_points(x, np.full(17, a), np.full(17, b)) for a, b in coords], axis=1
        )
        oracle.set_phase("phase2")
        fine, dims, unresolved = phase2_refine(oracle, [ModeFibers(1, vals, coords)], 1e-10)
        n = dims[0]
        assert unresolved == [] and n > 17
        out = fine[0].values
        np.testing.assert_array_equal(out[:: (n - 1) // 16], vals)
        assert oracle.counts["phase2"][1] == n - 17
        xf = cheb_points(n)
        np.testing.assert_array_equal(out[:, 1], f(xf, 1.0, 0.0))
        np.testing.assert_allclose(out[:, 0], f(xf, 0.005, 0.0), rtol=0, atol=1e-14)

    def test_zero_function_stats_pinned(self):
        # f = 0 takes the general path: one cross per unfolding in phase 1,
        # columns resolved at once in phase 2, and the Halton check
        approx = build(lambda x, y, z: 0.0 * x, ConstructorConfig(tol=1e-12))
        assert approx.stats == {
            "schema_version": 2, "tol": 1e-12,
            "ranks": [1, 1, 1], "degrees": [17, 17, 17], "coarse_dims": [17, 17, 17],
            "restarts": 0, "vscale": 0.0, "halton_error": 0.0, "certified": True,
            "unresolved_modes": [], "mixing_norms": [1.0, 1.0, 1.0],
            "evals": {
                "phase1": {"total": 731, "distinct": 689},
                "phase3_core": {"total": 1, "distinct": 0},
                "verify": {"total": 30, "distinct": 30},
            },
            "total_calls": 762, "distinct_points": 719,
        }

    def test_expdist_counts_pinned(self):
        # ranks, degrees and evaluation counts of the current algorithm on a
        # catalog function; any change to them is a change of algorithm
        s = build(catalog.get("expdist"), ConstructorConfig(tol=1e-10)).stats
        assert s["ranks"] == [28, 28, 29]
        assert s["degrees"] == [721, 721, 721]
        assert s["coarse_dims"] == [91, 91, 91]
        assert s["restarts"] == 0
        assert s["distinct_points"] == 308145
        assert s["total_calls"] == 443760
        assert s["evals"] == {
            "phase1": {"total": 415864, "distinct": 280276},
            "phase2": {"total": 5130, "distinct": 5130},
            "phase3_core": {"total": 22736, "distinct": 22709},
            "verify": {"total": 30, "distinct": 30},
        }

    def test_runge3_counts_pinned(self):
        # four restarts to degree 1449 with the sample store reused across
        # attempts: every count the memo decides, on a real refinement build
        s = build(catalog.get("runge3"), ConstructorConfig(tol=1e-10)).stats
        assert s["ranks"] == [19, 19, 19]
        assert s["degrees"] == [1449, 1449, 1449]
        assert s["coarse_dims"] == [182, 182, 182]
        assert s["restarts"] == 4
        assert s["certified"] is True
        assert s["distinct_points"] == 812164
        assert s["total_calls"] == 1043024
        assert s["evals"] == {
            "phase1": {"total": 852025, "distinct": 675183},
            "phase2": {"total": 166646, "distinct": 112967},
            "phase3_core": {"total": 24203, "distinct": 23984},
            "verify": {"total": 150, "distinct": 30},
        }

    def test_degenerate_tanh_restarts_past_its_rank_one_mode(self):
        # mode 2 has rank 1, so modes 1 and 3 are bounded by each other's
        # rank alone (6 >= 6*1): without doubling it stalls at (6, 1, 6)
        s = build(catalog.get("degenerate-tanh"), ConstructorConfig(tol=1e-10)).stats
        assert s["ranks"] == [60, 1, 60]
        assert s["restarts"] == 4
        assert s["certified"] is True

    def test_collapsed_third_mode_does_not_stall_the_others(self):
        # mode 3 has rank 1, so modes 1 and 2 are bounded by each other's
        # rank alone (114 >= 114*1): their guesses must still grow
        f = lambda x, y, z: np.tanh(10 * (x + y)) * np.cos(z)
        s = build(f, ConstructorConfig(tol=1e-10)).stats
        assert s["ranks"] == [114, 114, 1]
        assert s["certified"] is True

    def test_uncertified_build_returns_best_attempt(self, monkeypatch):
        # runge3@1e-10 certifies after four restarts; cut at two, the 65^3
        # attempt has a lower Halton error than the last one on 91^3
        made = []
        real = approximator.phase3_core

        def recording(*args):
            out = real(*args)
            made.append(out[0])
            return out

        monkeypatch.setattr(approximator, "phase3_core", recording)
        monkeypatch.setattr(approximator, "MAX_RESTARTS", 2)
        f = catalog.get("runge3")
        approx = build(f, ConstructorConfig(tol=1e-10))
        s = approx.stats
        assert s["coarse_dims"] == [65, 65, 65]
        assert s["restarts"] == 2
        assert s["certified"] is False
        assert s["distinct_points"] == 287267
        pts = halton_points(HALTON_COUNT)
        errs = [float(np.max(np.abs(f(*pts.T) - a.evaluate_many(pts)))) for a in made]
        assert len(made) == 3 and approx is made[1]
        assert s["halton_error"] == pytest.approx(errs[1], rel=1e-12)
        assert s["halton_error"] == pytest.approx(4.52e-8, rel=1e-2)
        assert errs[2] == pytest.approx(1.52e-6, rel=1e-2)

    def test_condemned_grid_sizes_next_grid_like_a_restart(self, monkeypatch):
        # the 17^3 grid is condemned at ranks (5, 2, 7); the 23^3 grid starts
        # from _modified_guesses((5, 2, 7)) = (3, 7), as a failed attempt would
        spreads = []  # (grid size, index-set size) per _spread draw, in order
        real = approximator._spread

        def recording(n, g, t):
            out = real(n, g, t)
            spreads.append((n, len(out)))
            return out

        monkeypatch.setattr(approximator, "_spread", recording)
        s = build(exact_tucker(2), ConstructorConfig(tol=1e-10)).stats
        assert spreads == [(17, 6), (17, 6), (23, 3), (23, 7)]
        assert s["coarse_dims"] == [23, 23, 23] and s["ranks"] == [5, 2, 7]

    def test_degenerate_attempt_restarts(self, monkeypatch):
        # a singular DEIM matrix ends the attempt; the next one grows the grid
        real = approximator.build_oblique
        calls = []

        def flaky(q):
            calls.append(q.shape)
            if len(calls) == 1:
                raise DegenerateInputError("singular interpolation matrix")
            return real(q)

        monkeypatch.setattr(approximator, "build_oblique", flaky)
        s = build(separable, ConstructorConfig(tol=1e-10)).stats
        assert s["restarts"] == 1
        assert s["coarse_dims"] == [23, 23, 23]
        assert s["certified"] is True

    def test_degenerate_every_attempt_raises(self, monkeypatch):
        def singular(q):
            raise DegenerateInputError("singular interpolation matrix")

        monkeypatch.setattr(approximator, "build_oblique", singular)
        monkeypatch.setattr(approximator, "MAX_RESTARTS", 2)
        with pytest.raises(DegenerateInputError):
            build(separable, ConstructorConfig(tol=1e-10))

    def test_degrees_match_coeff_shapes(self):
        approx = build(separable, ConstructorConfig(tol=1e-10))
        assert list(approx.degrees) == approx.stats["degrees"]
        assert approx.ranks == tuple(a.shape[1] for a in approx.coeffs)

    def test_evaluate_matches_evaluate_many(self):
        approx = build(separable, ConstructorConfig(tol=1e-10))
        pts = np.random.default_rng(2).uniform(-1, 1, (10, 3))
        many = approx.evaluate_many(pts)
        single = [approx.evaluate(*p) for p in pts]
        np.testing.assert_allclose(many, single, atol=1e-14)


class TestKnownAnswers:
    @pytest.mark.parametrize("seed", sorted(EXACT_TUCKER_RANKS))
    def test_exact_tucker_recovered(self, seed):
        # an exact Tucker polynomial: its ranks are known, so they are pinned
        f = exact_tucker(seed)
        tol = 1e-10
        approx = build(f, ConstructorConfig(tol=tol))
        s = approx.stats
        assert s["ranks"] == list(EXACT_TUCKER_RANKS[seed])
        assert s["certified"] is True
        pts = check_points()
        err = np.max(np.abs(approx.evaluate_many(pts) - f(*pts.T)))
        assert err <= 10 * tol * s["vscale"]

    def test_bump_missed_by_phase1_is_not_certified(self):
        # phase 1 first samples only zeros; the Halton check still sees the bump
        approx = build(hidden_bump, ConstructorConfig(tol=1e-10))
        assert approx.stats["certified"] is False
        pts = halton_points(HALTON_COUNT)
        err = float(np.max(np.abs(hidden_bump(*pts.T) - approx.evaluate_many(pts))))
        assert approx.stats["halton_error"] == err


class TestApproximantEval:
    @pytest.mark.parametrize("pts", [[[0.1, 0.2, 0.3, 0.9]], [0.1, 0.2, 0.3], np.zeros((4, 2)), 0.5])
    def test_rejects_points_not_m_by_3(self, pts):
        approx = random_approximant(np.random.default_rng(24), (2, 2, 2), (3, 3, 3))
        with pytest.raises(ValueError, match="shape"):
            approx.evaluate_many(pts)

    def test_manual_rank_one(self):
        # f(x,y,z) = x*y*z written directly in the data structure
        c = np.zeros((2, 1))
        c[1, 0] = 1.0
        approx = TuckerApproximant(core=np.ones((1, 1, 1)), coeffs=(c, c, c))
        assert approx.evaluate(0.5, -0.5, 0.2) == pytest.approx(-0.05)
        assert approx.ranks == (1, 1, 1)
        assert approx.degrees == (2, 2, 2)

    # one shape whose block size is set by the degree, one by r2*r3
    @pytest.mark.parametrize("ranks, degrees", [((3, 4, 5), (1000, 700, 300)), ((2, 40, 40), (60, 50, 40))])
    def test_blocks_match_clenshaw(self, ranks, degrees):
        rng = np.random.default_rng(20)
        approx = random_approximant(rng, ranks, degrees)
        step = EVAL_BLOCK // max(*degrees, ranks[1] * ranks[2])
        for m in (0, 1, step - 1, step, step + 1, 3 * step + 1):
            pts = rng.uniform(-1, 1, (m, 3))
            got = approx.evaluate_many(pts)
            assert got.shape == (m,)
            if m:
                ref = clenshaw_evaluate(approx, pts)
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("ranks, degrees, m", [
        ((2, 2, 2), (16385, 2, 2), 320),  # an unblocked basis: 320 * 16385 * 8 B = 42 MB
        ((2, 64, 64), (8, 8, 8), 4000),  # an unblocked core product: 4000 * 4096 * 8 B = 131 MB
    ])
    def test_memory_bounded_at_any_point_count(self, ranks, degrees, m):
        approx = random_approximant(np.random.default_rng(21), ranks, degrees)
        pts = np.random.default_rng(22).uniform(-1, 1, (m, 3))
        tracemalloc.start()
        try:
            approx.evaluate_many(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_single_point_needs_no_chebvander(self, monkeypatch):
        # a point is a small block: its basis must not loop over the 16385 degrees.
        # Coefficients decay like k^-2, as a cusp's do (runge3 at 1e-12 has d = 16385)
        rng = np.random.default_rng(23)
        approx = TuckerApproximant(
            core=rng.standard_normal((2, 3, 2)),
            coeffs=tuple(rng.standard_normal((d, r)) / (1.0 + np.arange(d)[:, None]) ** 2
                         for d, r in ((16385, 2), (721, 3), (2, 2))),
        )
        pts = np.array([[0.37, -0.81, 0.05], [1.0, 0.0, -1.0]])
        ref = clenshaw_evaluate(approx, pts)

        def refuse(x, deg):
            raise AssertionError("chebvander called for a small block")

        monkeypatch.setattr(chebyshev, "chebvander", refuse)
        for p, r in zip(pts, ref):
            assert approx.evaluate(*p) == pytest.approx(r, rel=0, abs=1e-13 * np.max(np.abs(ref)))
        np.testing.assert_allclose(approx.evaluate_many(pts), ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))
