"""Tests for the three-phase constructor on cheap target functions."""

import math

import numpy as np
import pytest

from tuckercheb import catalog
from tuckercheb.approximator import (
    ConstructorConfig,
    ModeFibers,
    TuckerApproximant,
    build,
    grow_size,
    halton_points,
    phase2_refine,
)
from tuckercheb.chebyshev import cheb_points
from tuckercheb.oracle import InstrumentedOracle, SamplingError

STATS_KEYS = {
    "schema_version", "tol", "seed", "ranks", "degrees", "coarse_dims",
    "restarts", "vscale", "halton_error", "certified", "unresolved_modes",
    "mixing_norms", "evals", "total_calls", "distinct_points",
}


def separable(x, y, z):
    return np.exp(x) * np.cos(y) * (z**2 + 1)


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

    def test_grow_size_chain(self):
        sizes = [17]
        for _ in range(8):
            sizes.append(grow_size(sizes[-1]))
        assert sizes == [17, 23, 33, 46, 65, 91, 129, 182, 257]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ConstructorConfig(tol=0.0)
        with pytest.raises(ValueError):
            ConstructorConfig(max_restarts=-1)


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
        assert approx.stats["schema_version"] == 1
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
        with pytest.raises(SamplingError):
            build(lambda x, y, z: x / (y - y), ConstructorConfig(tol=1e-10))


class TestBuildBehavior:
    def test_deterministic_bitwise(self):
        cfg = ConstructorConfig(tol=1e-10, seed=3)
        a = build(lambda x, y, z: np.tanh(x + y) * np.exp(z), cfg)
        b = build(lambda x, y, z: np.tanh(x + y) * np.exp(z), cfg)
        np.testing.assert_array_equal(a.core, b.core)
        for ca, cb in zip(a.coeffs, b.coeffs):
            np.testing.assert_array_equal(ca, cb)
        assert a.stats == b.stats

    def test_seed_changes_probe_but_not_accuracy(self):
        f = lambda x, y, z: 1.0 / (2.0 + x * y + np.cos(z))
        pts = np.random.default_rng(1).uniform(-1, 1, (200, 3))
        exact = f(*pts.T)
        for seed in (0, 1):
            approx = build(f, ConstructorConfig(tol=1e-10, seed=seed))
            assert approx.stats["certified"] is True
            err = np.max(np.abs(approx.evaluate_many(pts) - exact))
            assert err <= 1e-8

    def test_unresolved_mode_reported(self):
        # a kink limits one mode; the tiny fine-grid cap forces a giving-up path
        cfg = ConstructorConfig(tol=1e-12, max_fine_size=33, max_restarts=1)
        approx = build(lambda x, y, z: np.abs(x) + 0.0 * y * z, cfg)
        assert 1 in approx.stats["unresolved_modes"]
        assert approx.stats["certified"] is False

    def test_restart_increases_coarse_grid(self):
        cfg = ConstructorConfig(tol=1e-12, max_fine_size=33, max_restarts=2)
        approx = build(lambda x, y, z: np.abs(x) + 0.0 * y * z, cfg)
        assert approx.stats["restarts"] == 2
        assert max(approx.stats["coarse_dims"]) > 17

    def test_phase2_samples_only_unresolved_columns(self):
        # column 0 resolves on the 17-point grid; column 1 needs a finer one
        f = lambda x, y, z: 1.0 / (1.0 + 400.0 * (y * x) ** 2)
        coords = [(0.005, 0.0), (1.0, 0.0)]
        oracle = InstrumentedOracle(f)
        x = cheb_points(17)
        vals = np.stack(
            [oracle.eval_points(x, np.full(17, a), np.full(17, b)) for a, b in coords], axis=1
        )
        oracle.set_phase("phase2")
        fine, dims, unresolved = phase2_refine(
            oracle, [ModeFibers(1, vals, coords)], ConstructorConfig(tol=1e-10)
        )
        n = dims[0]
        assert unresolved == [] and n > 17
        out = fine[0].values
        np.testing.assert_array_equal(out[:: (n - 1) // 16], vals)
        assert oracle.counts["phase2"][1] == n - 17
        xf = cheb_points(n)
        np.testing.assert_array_equal(out[:, 1], f(xf, 1.0, 0.0))
        np.testing.assert_allclose(out[:, 0], f(xf, 0.005, 0.0), rtol=0, atol=1e-14)

    def test_zero_function_stats_pinned(self):
        # the whole record of the zero exit; a refactor must leave it unchanged
        approx = build(lambda x, y, z: 0.0 * x, ConstructorConfig(tol=1e-12))
        assert approx.stats == {
            "schema_version": 1, "tol": 1e-12, "seed": 0,
            "ranks": [1, 1, 1], "degrees": [1, 1, 1], "coarse_dims": [17, 17, 17],
            "restarts": 0, "vscale": 0.0, "halton_error": 0.0, "certified": True,
            "unresolved_modes": [], "mixing_norms": [1.0, 1.0, 1.0],
            "evals": {"phase1": {"total": 612, "distinct": 612}},
            "total_calls": 612, "distinct_points": 612,
        }

    def test_expdist_counts_pinned(self):
        # ranks, degrees and evaluation counts of the current algorithm on a
        # catalog function; any change to them is a change of algorithm
        s = build(catalog.get("expdist"), ConstructorConfig(tol=1e-10)).stats
        assert s["ranks"] == [28, 28, 29]
        assert s["degrees"] == [721, 721, 721]
        assert s["coarse_dims"] == [91, 91, 91]
        assert s["restarts"] == 0
        assert s["distinct_points"] == 407127
        assert s["total_calls"] == 632814
        assert s["evals"] == {
            "phase1": {"total": 604918, "distinct": 379255},
            "phase2": {"total": 5130, "distinct": 5130},
            "phase3_core": {"total": 22736, "distinct": 22712},
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
        assert s["distinct_points"] == 1256914
        assert s["total_calls"] == 1630125
        assert s["evals"] == {
            "phase1": {"total": 1439254, "distinct": 1120054},
            "phase2": {"total": 166518, "distinct": 112839},
            "phase3_core": {"total": 24203, "distinct": 23991},
            "verify": {"total": 150, "distinct": 30},
        }

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


class TestApproximantEval:
    def test_manual_rank_one(self):
        # f(x,y,z) = x*y*z written directly in the data structure
        c = np.zeros((2, 1))
        c[1, 0] = 1.0
        approx = TuckerApproximant(core=np.ones((1, 1, 1)), coeffs=(c, c, c))
        assert approx.evaluate(0.5, -0.5, 0.2) == pytest.approx(-0.05)
        assert approx.ranks == (1, 1, 1)
        assert approx.degrees == (2, 2, 2)
