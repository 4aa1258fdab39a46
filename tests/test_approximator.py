"""Tests for the three-phase constructor on cheap target functions."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from tuckercheb import approximator, catalog, chebyshev
from tuckercheb import oracle as oracle_module
from tuckercheb.approximator import (
    ACCEPTANCE_FACTOR,
    COARSE_SIZE,
    EVAL_BLOCK,
    HALTON_COUNT,
    MAX_RANK,
    RANK_RATIO_THRESHOLD,
    ConstructorConfig,
    TuckerApproximant,
    build,
    grow_size,
    halton_points,
    phase2_refine,
)
from tuckercheb.chebyshev import cheb_points
from tuckercheb.cross import DegenerateInputError
from tuckercheb.oracle import InstrumentedOracle, SamplingError
from tuckercheb.serialize import serialize

from known_answers import (
    EXACT_TUCKER_RANKS,
    NARROW_GAUSSIANS,
    check_points,
    exact_tucker,
    hidden_bump,
    narrow_gaussian,
    off_centre_gaussian,
)

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

    def test_spread_shifts_by_base2_radical_inverse(self):
        # draw t shifts the spread indices by the base-2 radical inverse of t:
        # 1/2, 1/4, 3/4, 1/8, 5/8 of a 16-point grid
        assert [approximator._spread(16, 1, t) for t in range(1, 6)] == [[8], [4], [12], [2], [10]]

    def test_grow_size_chain(self):
        sizes = [17]
        for _ in range(14):
            sizes.append(grow_size(sizes[-1]))
        assert sizes == [17, 23, 33, 46, 65, 91, 129, 182, 257, 363, 513, 725, 1025, 1449, 2049]

    def test_grid_grows_while_max_rank_can_condemn_it(self):
        # phase 1 condemns a grid whose rank exceeds RANK_RATIO_THRESHOLD of n;
        # a rank is at most MAX_RANK, so every grid that can be condemned must
        # have a larger successor, or build would loop on a stalled grid
        n = COARSE_SIZE
        while MAX_RANK / n > RANK_RATIO_THRESHOLD:
            assert grow_size(n) > n
            n = grow_size(n)

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

    def test_scalar_and_vectorized_builds_are_the_same_build(self):
        # f called point by point gets the same batches as f called on arrays
        fn, cfg = catalog.get("logmix"), ConstructorConfig(tol=1e-10)
        scalar = build(fn, cfg, vectorized=False)
        vector = build(fn, cfg, vectorized=True)
        assert scalar.stats == vector.stats
        assert serialize(scalar) == serialize(vector)

    @pytest.mark.parametrize("k", [-560, 560])
    def test_scaling_f_by_a_power_of_two_changes_no_rank_or_count(self, k):
        # every tolerance is relative to f's scale, and 2^k scales exactly
        fn, cfg = catalog.get("logmix"), ConstructorConfig(tol=1e-10)
        base = build(fn, cfg)
        scaled = build(lambda x, y, z: 2.0**k * fn(x, y, z), cfg)
        for key in ("ranks", "degrees", "evals", "restarts", "coarse_dims",
                    "mixing_norms", "unresolved_modes"):
            assert scaled.stats[key] == base.stats[key], key
        assert scaled.stats["vscale"] == 2.0**k * base.stats["vscale"]
        np.testing.assert_array_equal(scaled.core, 2.0**k * base.core)

    def test_subnormal_function_builds(self):
        # tol*max|M| underflows to 0 here; phase 1 stops ACA at the smallest
        # normal float instead
        approx = build(lambda x, y, z: 1e-315 * np.exp(x), ConstructorConfig(tol=1e-12))
        assert approx.ranks == (1, 1, 1)

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
        real_aca = approximator.aca

        def cross(m, **kwargs):
            res = real_aca(m, **kwargs)
            unfoldings.append([(m.shape[0],) * 3, res.rank])
            return res

        monkeypatch.setattr(approximator, "aca", cross)
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

    def test_phase1_samples_one_condemned_grid(self):
        # logmix's first unfolding on 17^3 reaches rank 17 > 17/(2*sqrt(2)):
        # phase 1 samples that 17 x 36 unfolding alone and grows no grid
        seen = []

        def f(x, y, z):
            seen.append(np.column_stack((x, y, z)))
            return catalog.get("logmix")(x, y, z)

        oracle = InstrumentedOracle(f)
        first = [approximator._spread(17, 6, 1), approximator._spread(17, 6, 2)]
        assert approximator.phase1_factors(oracle, 1e-10, 17, first) == (None, (17, 6, 6))
        pts = np.concatenate(seen)
        assert oracle.distinct_points == len(pts) == 17 * 6 * 6
        assert np.isin(pts, cheb_points(17)).all()

    def test_phase1_kept_grid_returns_fibers_per_mode(self):
        # values[:, c] is f along the mode's axis at the row coords[c]
        f = catalog.get("separable-demo")
        first = [approximator._spread(17, 6, 1), approximator._spread(17, 6, 2)]
        fibers, ranks = approximator.phase1_factors(InstrumentedOracle(f), 1e-10, 17, first)
        assert len(fibers) == 3
        x = cheb_points(17)
        for mode, ((vals, coords), r) in enumerate(zip(fibers, ranks)):
            assert vals.shape == (17, r) and coords.shape == (r, 2)
            for c, (a, b) in enumerate(coords):
                args = [np.full(17, a), np.full(17, b)]
                args.insert(mode, x)
                np.testing.assert_array_equal(vals[:, c], f(*args))

    def test_phase2_samples_only_unresolved_columns(self):
        # column 0 resolves on the 17-point grid; column 1 needs a finer one
        f = lambda x, y, z: 1.0 / (1.0 + 400.0 * (y * x) ** 2)
        coords = np.array([(0.005, 0.0), (1.0, 0.0)])
        oracle = InstrumentedOracle(f)
        x = cheb_points(17)
        vals = np.stack(
            [oracle.eval_points(x, np.full(17, a), np.full(17, b)) for a, b in coords], axis=1
        )
        oracle.phase = "phase2"
        fine, unresolved = phase2_refine(oracle, [(vals, coords)], 1e-10)
        n = fine[0].shape[0]
        assert unresolved == [] and n > 17
        out = fine[0]
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
        # attempts: every count the memo decides, on a real refinement build.
        # The 65^3, 91^3 and 129^3 attempts stop at their first capped fiber
        s = build(catalog.get("runge3"), ConstructorConfig(tol=1e-10)).stats
        assert s["ranks"] == [19, 19, 19]
        assert s["degrees"] == [1449, 1449, 1449]
        assert s["coarse_dims"] == [182, 182, 182]
        assert s["restarts"] == 4
        assert s["certified"] is True
        assert s["distinct_points"] == 733240
        assert s["total_calls"] == 927275
        assert s["evals"] == {
            "phase1": {"total": 852025, "distinct": 675974},
            "phase2": {"total": 66134, "distinct": 48241},
            "phase3_core": {"total": 9056, "distinct": 8995},
            "verify": {"total": 60, "distinct": 30},
        }

    def test_capped_attempts_skip_phase3_and_verify(self, monkeypatch):
        # runge3@1e-10 runs phase 3 only on the 46^3 and 182^3 attempts; the
        # three between them stop in phase 2 at the MAX_FINE_SIZE cap
        degrees = []
        real = approximator.phase3_core

        def recording(*args):
            out = real(*args)
            degrees.append(out[0].degrees)
            return out

        monkeypatch.setattr(approximator, "phase3_core", recording)
        s = build(catalog.get("runge3"), ConstructorConfig(tol=1e-10)).stats
        assert degrees == [(721, 721, 721), (1449, 1449, 1449)]
        assert s["restarts"] == 4

    def test_last_attempt_finishes_unresolved(self):
        # runge3@1e-12's last attempt, on 257^3, reaches the cap in every
        # mode; being the last, it still runs phase 3 and the check
        s = build(catalog.get("runge3"), ConstructorConfig(tol=1e-12)).stats
        assert s["restarts"] == 5
        assert s["degrees"] == [16385, 16385, 16385]
        assert s["unresolved_modes"] == [1, 2, 3]
        assert s["certified"] is False

    def test_degenerate_tanh_restarts_past_its_rank_one_mode(self, monkeypatch):
        # mode 2 has rank 1, so modes 1 and 3 are bounded by each other's
        # rank alone (6 >= 6*1): without doubling it stalls at (6, 1, 6).
        # Its condemned grids (23^3, 33^3, 65^3) fall between finished
        # attempts; every grid, condemned or kept, takes the next two draws
        spreads = []  # (grid size, index-set size asked, draw number), in order
        real = approximator._spread

        def recording(n, g, t):
            spreads.append((n, g, t))
            return real(n, g, t)

        monkeypatch.setattr(approximator, "_spread", recording)
        s = build(catalog.get("degenerate-tanh"), ConstructorConfig(tol=1e-10)).stats
        assert s["ranks"] == [60, 1, 60]
        assert s["restarts"] == 4
        assert s["certified"] is True
        assert spreads == [
            (17, 6, 1), (17, 6, 2), (23, 3, 3), (23, 12, 4), (33, 3, 5), (33, 12, 6),
            (46, 3, 7), (46, 12, 8), (65, 3, 9), (65, 24, 10), (91, 3, 11), (91, 24, 12),
            (129, 3, 13), (129, 48, 14), (182, 3, 15), (182, 88, 16),
        ]
        assert s["coarse_dims"] == [182, 182, 182]
        assert s["distinct_points"] == 1363430
        assert s["total_calls"] == 1402988
        assert s["evals"] == {
            "phase1": {"total": 1394634, "distinct": 1357922},
            "phase2": {"total": 1912, "distinct": 1911},
            "phase3_core": {"total": 6292, "distinct": 3567},
            "verify": {"total": 150, "distinct": 30},
        }

    def test_condemned_grids_spend_no_restarts(self, monkeypatch):
        # logmix@1e-10 condemns 17^3 to 65^3 and certifies on 91^3 in its
        # one attempt, so it needs no restart
        monkeypatch.setattr(approximator, "MAX_RESTARTS", 0)
        s = build(catalog.get("logmix"), ConstructorConfig(tol=1e-10)).stats
        assert s["coarse_dims"] == [91, 91, 91]
        assert s["restarts"] == 0
        assert s["certified"] is True
        assert s["distinct_points"] == 185398

    def test_collapsed_third_mode_does_not_stall_the_others(self):
        # mode 3 has rank 1, so modes 1 and 2 are bounded by each other's
        # rank alone (114 >= 114*1): their guesses must still grow
        f = lambda x, y, z: np.tanh(10 * (x + y)) * np.cos(z)
        s = build(f, ConstructorConfig(tol=1e-10)).stats
        assert s["ranks"] == [114, 114, 1]
        assert s["certified"] is True

    def test_uncertified_build_returns_best_attempt(self, monkeypatch):
        # runge3@1e-10 certifies after four restarts; cut at two, the 65^3
        # attempt stops at the cap, and the 46^3 attempt has a lower Halton
        # error than the last one on 91^3
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
        assert s["coarse_dims"] == [46, 46, 46]
        assert s["restarts"] == 2
        assert s["certified"] is False
        assert s["distinct_points"] == 249071
        pts = halton_points(HALTON_COUNT)
        errs = [float(np.max(np.abs(f(*pts.T) - a.evaluate_many(pts)))) for a in made]
        assert len(made) == 2 and approx is made[0]
        assert s["halton_error"] == pytest.approx(errs[0], rel=1e-12)
        assert s["halton_error"] == pytest.approx(8.17e-7, rel=1e-2)
        assert errs[1] == pytest.approx(1.52e-6, rel=1e-2)

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

    def test_no_finished_attempt_message(self, monkeypatch):
        # the first attempt stops at the tiny cap and the last one fails in
        # phase 3, so no attempt finishes, yet not every one reached phase 3
        calls = []

        def singular(q):
            calls.append(q.shape)
            raise DegenerateInputError("singular interpolation matrix")

        monkeypatch.setattr(approximator, "build_oblique", singular)
        monkeypatch.setattr(approximator, "MAX_FINE_SIZE", 33)
        monkeypatch.setattr(approximator, "MAX_RESTARTS", 1)
        f = lambda x, y, z: np.abs(x) + 0.0 * y * z
        with pytest.raises(DegenerateInputError) as info:
            build(f, ConstructorConfig(tol=1e-12))
        assert str(info.value) == (
            "no construction attempt finished: each failed in phase 3 or stopped at MAX_FINE_SIZE"
        )
        assert len(calls) == 1

    def test_sampling_call_over_max_block_raises(self, monkeypatch):
        # coshinv@1e-10's largest phase-1 block has 376,740 points
        monkeypatch.setattr(oracle_module, "MAX_BLOCK", 100_000)
        with pytest.raises(MemoryError, match="MAX_BLOCK"):
            build(catalog.get("coshinv"), ConstructorConfig(tol=1e-10))

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

    def test_bump_missed_by_phase1_is_found_on_a_later_grid(self):
        # phase 1 first samples only zeros; a certified zero approximant
        # would err 1.0 at the centre, so the certificate is checked there
        tol = 1e-10
        approx = build(hidden_bump, ConstructorConfig(tol=tol))
        s = approx.stats
        assert s["certified"] is True
        pts = halton_points(HALTON_COUNT)
        err = float(np.max(np.abs(hidden_bump(*pts.T) - approx.evaluate_many(pts))))
        assert s["halton_error"] == err
        bound = ACCEPTANCE_FACTOR * tol * s["vscale"]
        assert abs(hidden_bump(0.0, -1 / 3, -0.6) - approx.evaluate(0.0, -1 / 3, -0.6)) <= bound
        pts = check_points()
        assert np.max(np.abs(hidden_bump(*pts.T) - approx.evaluate_many(pts))) <= bound

    @pytest.mark.parametrize("c, tol", NARROW_GAUSSIANS)
    def test_narrow_gaussian(self, c, tol):
        # its fibers away from the origin are tiny, and QR scales each to unit
        # size, so each must be resolved at its own scale, not at f's
        f = narrow_gaussian(c)
        approx = build(f, ConstructorConfig(tol=tol))
        s = approx.stats
        assert s["certified"] is True
        bound = ACCEPTANCE_FACTOR * tol * s["vscale"]
        pts = check_points()
        assert np.max(np.abs(f(*pts.T) - approx.evaluate_many(pts))) <= bound
        assert abs(f(0.0, 0.0, 0.0) - approx.evaluate(0.0, 0.0, 0.0)) <= bound

    @pytest.mark.xfail(strict=True, reason="item 16: a fresh-fiber check would see mode 2's missed rank")
    def test_off_centre_gaussian_not_falsely_certified(self):
        tol = 1e-8
        approx = build(off_centre_gaussian, ConstructorConfig(tol=tol))
        s = approx.stats
        pts = check_points()
        err = np.max(np.abs(off_centre_gaussian(*pts.T) - approx.evaluate_many(pts)))
        assert not (s["certified"] and err > ACCEPTANCE_FACTOR * tol * s["vscale"])


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

    # blocks of EVAL_BLOCK // (r1+r2+r3) points for the bases, sub-blocks of
    # EVAL_BLOCK // (r2*r3) for the core: one shape with sub-blocks inside a block
    # and a basis of several degree chunks, one whose sub-block is the whole block
    @pytest.mark.parametrize("ranks, degrees", [((2, 40, 40), (1000, 50, 40)), ((40, 3, 4), (60, 700, 300))])
    def test_blocks_match_clenshaw(self, ranks, degrees):
        rng = np.random.default_rng(20)
        approx = random_approximant(rng, ranks, degrees)
        step = EVAL_BLOCK // sum(ranks)
        sub = min(step, EVAL_BLOCK // (ranks[1] * ranks[2]))
        for m in sorted({0, 1, sub - 1, sub, sub + 1, step - 1, step, step + 1, 2 * step + sub + 1}):
            pts = rng.uniform(-1, 1, (m, 3))
            got = approx.evaluate_many(pts)
            assert got.shape == (m,)
            if m:
                ref = clenshaw_evaluate(approx, pts)
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("ranks, degrees, m", [
        ((2, 2, 2), (16385, 2, 2), 320),  # an unblocked basis: 320 * 16385 * 8 B = 42 MB
        ((2, 64, 64), (8, 8, 8), 4000),  # an unblocked core product: 4000 * 4096 * 8 B = 131 MB
        ((64, 64, 64), (8, 8, 8), 40_000),  # unblocked bases: 40000 * 192 * 8 B = 61 MB
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

        def refuse(t, d):
            raise AssertionError("recurrence run for a small block")

        monkeypatch.setattr(chebyshev, "_basis_chunks", refuse)
        for p, r in zip(pts, ref):
            assert approx.evaluate(*p) == pytest.approx(r, rel=0, abs=1e-13 * np.max(np.abs(ref)))
        np.testing.assert_allclose(approx.evaluate_many(pts), ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))
