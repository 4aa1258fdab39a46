"""Tests for the univariate Chebyshev machinery."""

import math

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from tuckercheb import chebyshev
from tuckercheb.chebyshev import (
    EVAL_BLOCK,
    TRIG_BASIS_POINTS,
    cheb_points,
    chop_series,
    coeffs_to_vals,
    eval_series,
    is_resolved,
    refine_size,
    vals_to_coeffs,
)


class TestChebPoints:
    def test_single_point(self):
        assert cheb_points(1).tolist() == [0.0]

    def test_endpoints_n2(self):
        assert cheb_points(2).tolist() == [1.0, -1.0]

    def test_n3(self):
        assert cheb_points(3).tolist() == [1.0, 0.0, -1.0]

    def test_n5_closed_form(self):
        expect = [1.0, math.cos(math.pi / 4), 0.0, math.cos(3 * math.pi / 4), -1.0]
        np.testing.assert_allclose(cheb_points(5), expect, atol=1e-15)

    def test_strictly_decreasing(self):
        for n in (2, 5, 17, 64, 65):
            pts = cheb_points(n)
            assert np.all(np.diff(pts) < 0)
            assert pts[0] == 1.0 and pts[-1] == -1.0

    def test_nestedness_bit_exact(self):
        # the 2n-1 grid must contain the n grid at even indices, bit for bit
        for n in (5, 17, 33, 129, 1025, 8193):
            coarse = cheb_points(n)
            fine = cheb_points(refine_size(n))
            assert np.array_equal(fine[0::2], coarse)

    def test_symmetry_and_exact_zero(self):
        pts = cheb_points(17)
        assert pts[8] == 0.0
        np.testing.assert_array_equal(pts, -pts[::-1])

    def test_invalid(self):
        with pytest.raises(ValueError):
            cheb_points(0)


class TestTransforms:
    def test_constant(self):
        c = vals_to_coeffs(np.ones(7))
        np.testing.assert_allclose(c, np.eye(7)[0], atol=1e-15)

    def test_identity(self):
        c = vals_to_coeffs(cheb_points(5))
        np.testing.assert_allclose(c, [0, 1, 0, 0, 0], atol=1e-15)

    def test_t2(self):
        x = cheb_points(5)
        c = vals_to_coeffs(2 * x**2 - 1)
        np.testing.assert_allclose(c, [0, 0, 1, 0, 0], atol=1e-15)

    def test_coeffs_to_vals_examples(self):
        np.testing.assert_allclose(coeffs_to_vals(np.array([1.0]), 3), [1, 1, 1])
        np.testing.assert_allclose(coeffs_to_vals(np.array([0.0, 1.0]), 3), [1, 0, -1], atol=1e-15)

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        c = rng.uniform(-1, 1, 8)
        back = vals_to_coeffs(coeffs_to_vals(c, 8))
        np.testing.assert_allclose(back, c, atol=1e-13)

    def test_round_trip_padded(self):
        rng = np.random.default_rng(8)
        c = rng.uniform(-1, 1, 6)
        back = vals_to_coeffs(coeffs_to_vals(c, 11))
        np.testing.assert_allclose(back[:6], c, atol=1e-13)
        np.testing.assert_allclose(back[6:], 0, atol=1e-13)

    def test_no_implicit_truncation(self):
        with pytest.raises(ValueError):
            coeffs_to_vals(np.ones(5), 3)

    def test_linearity(self):
        rng = np.random.default_rng(9)
        u, v = rng.standard_normal((2, 12))
        lhs = vals_to_coeffs(2.5 * u - 0.75 * v)
        rhs = 2.5 * vals_to_coeffs(u) - 0.75 * vals_to_coeffs(v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_matrix_columns(self):
        # 2-D input transforms each column independently
        rng = np.random.default_rng(10)
        m = rng.standard_normal((9, 4))
        cols = np.column_stack([vals_to_coeffs(m[:, j]) for j in range(4)])
        np.testing.assert_allclose(vals_to_coeffs(m), cols, atol=1e-14)

    def test_empty_invalid(self):
        with pytest.raises(ValueError):
            vals_to_coeffs(np.array([]))


class TestEvalSeries:
    def test_linear(self):
        assert eval_series(np.array([0.0, 1.0]), 0.3) == pytest.approx(0.3)

    def test_t2_at_half(self):
        assert eval_series(np.array([0.0, 0.0, 1.0]), 0.5) == pytest.approx(-0.5)

    def test_all_ones_at_one(self):
        assert eval_series(np.array([1.0, 1.0, 1.0]), 1.0) == pytest.approx(3.0)

    def test_matches_cosine_sum(self):
        rng = np.random.default_rng(11)
        c = rng.uniform(-1, 1, 64)
        x = rng.uniform(-1, 1, 50)
        direct = sum(c[k] * np.cos(k * np.arccos(x)) for k in range(64))
        np.testing.assert_allclose(eval_series(c, x), direct, atol=1e-12)

    def test_interpolation_exactness(self):
        f = lambda x: np.exp(x) * np.sin(3 * x)
        for n in (9, 17, 40):
            x = cheb_points(n)
            c = vals_to_coeffs(f(x))
            np.testing.assert_allclose(eval_series(c, x), f(x), atol=1e-13 * np.max(np.abs(f(x))))

    def test_scalar_x_vector_series_gives_scalar(self):
        out = eval_series(np.array([0.5, 0.25, 2.0]), 0.3)
        assert np.ndim(out) == 0
        assert out == pytest.approx(chebval(0.3, [0.5, 0.25, 2.0]), abs=1e-15)

    def test_matrix_coeffs_give_points_by_columns(self):
        rng = np.random.default_rng(12)
        c = rng.uniform(-1, 1, (20, 3))
        x = rng.uniform(-1, 1, 7)
        out = eval_series(c, x)
        assert out.shape == (7, 3)
        np.testing.assert_allclose(out, chebval(x, c).T, atol=1e-14)
        assert eval_series(c, 0.3).shape == (3,)

    def test_2d_x(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, (4, 5))
        c = rng.uniform(-1, 1, 9)
        assert eval_series(c, x).shape == (4, 5)
        np.testing.assert_allclose(eval_series(c, x), chebval(x, c), atol=1e-14)
        cm = rng.uniform(-1, 1, (9, 2))
        out = eval_series(cm, x)
        assert out.shape == (4, 5, 2)
        np.testing.assert_allclose(out, np.moveaxis(chebval(x, cm), 0, -1), atol=1e-14)

    def test_degree_zero(self):
        x = np.linspace(-1, 1, 6)
        np.testing.assert_array_equal(eval_series(np.array([2.5]), x), np.full(6, 2.5))
        np.testing.assert_array_equal(eval_series(np.array([[2.5, -1.0]]), x), np.tile([2.5, -1.0], (6, 1)))
        assert eval_series(np.array([2.5]), 0.7) == 2.5
        assert np.isnan(eval_series(np.array([2.5]), np.nan))  # as numpy's chebvander gives

    @pytest.mark.parametrize("m", [TRIG_BASIS_POINTS - 1, TRIG_BASIS_POINTS + 1])
    def test_empty_series_rejected_by_both_bases(self, m):
        # as vals_to_coeffs rejects an empty sample vector, whichever basis the point count picks
        with pytest.raises(ValueError, match="empty series"):
            eval_series(np.zeros(0), np.linspace(-1, 1, m))

    def test_outside_interval_matches_clenshaw(self):
        # `tuckercheb eval` warns about points off [-1, 1] but still evaluates them
        rng = np.random.default_rng(14)
        c = rng.uniform(-1, 1, 30) * 0.5 ** np.arange(30)
        x = np.array([-3.0, -1.5, -1.0 - 1e-9, 1.0 + 1e-9, 1.2, 2.0])
        ref = chebval(x, c)
        np.testing.assert_allclose(eval_series(c, x), ref, rtol=1e-13, atol=1e-13)

    def test_small_block_outside_interval_extrapolates(self):
        # one point is a small block, but off [-1, 1] arccos is NaN: it takes chebvander
        c = np.random.default_rng(15).uniform(-1, 1, 30) * 0.5 ** np.arange(30)
        for x in (1.2, np.array([1.2]), np.array([0.3, -1.0 - 1e-9])):
            out = eval_series(c, x)
            assert np.all(np.isfinite(out))
            np.testing.assert_allclose(out, chebval(x, c), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("d", [1, 2, 3, 91, 721])
    def test_small_block_at_ends_and_centre(self, d):
        c = np.random.default_rng(d).uniform(-1, 1, (d, 2)) / np.arange(1, d + 1)[:, None]
        for x in (-1.0, 0.0, 1.0):
            out = eval_series(c, np.array([x]))
            assert out.shape == (1, 2)
            np.testing.assert_allclose(out[0], chebval(x, c), rtol=0, atol=1e-14 * d)
        # T_k(1) = 1 and T_k(-1) = (-1)^k hold exactly in the trig basis
        assert eval_series(np.ones(d), 1.0) == d
        alternating = (-1.0) ** np.arange(d)
        assert eval_series(alternating, -1.0) == d

    @pytest.mark.parametrize("m", [1, 2, TRIG_BASIS_POINTS - 1, TRIG_BASIS_POINTS, 2 * TRIG_BASIS_POINTS])
    def test_both_bases_match_clenshaw(self, m):
        rng = np.random.default_rng(16)
        c = rng.uniform(-1, 1, (200, 3)) / np.arange(1, 201)[:, None] ** 2
        x = np.concatenate([[-1.0, 1.0], rng.uniform(-1, 1, m)])[:m]
        np.testing.assert_allclose(eval_series(c, x), chebval(x, c).T, rtol=0, atol=1e-14)

    def test_size_rule(self, monkeypatch):
        # a block below TRIG_BASIS_POINTS never runs the recurrence over degrees; a block of that size does
        def refuse(t, d):
            raise AssertionError("recurrence run for a small block")

        c = np.random.default_rng(17).uniform(-1, 1, 16385) / np.arange(1, 16386) ** 2
        monkeypatch.setattr(chebyshev, "_basis_chunks", refuse)
        x = np.linspace(-1, 1, TRIG_BASIS_POINTS - 1)
        np.testing.assert_allclose(eval_series(c, x), chebval(x, c), rtol=0, atol=1e-13)
        with pytest.raises(AssertionError):
            eval_series(c, np.linspace(-1, 1, TRIG_BASIS_POINTS))

    # the basis of m points is built EVAL_BLOCK // m degrees at a time
    @pytest.mark.parametrize("m", [5000, 16384])
    def test_chunk_seams_match_clenshaw(self, m):
        rows = EVAL_BLOCK // m
        rng = np.random.default_rng(18)
        x = rng.uniform(-1, 1, m)
        x[:4] = [1.0 + 1e-9, -1.001, -1.0, 1.0]  # two points outside [-1, 1] extrapolate
        for d in (1, 2, rows - 1, rows, rows + 1, rows + 2, 2 * rows + 1):
            c = rng.uniform(-1, 1, (d, 3)) / np.arange(1, d + 1)[:, None] ** 2
            ref = chebval(x, c).T
            tol = dict(rtol=1e-12, atol=1e-13 * np.max(np.abs(ref[2:])))
            np.testing.assert_allclose(eval_series(c, x), ref, **tol)
            np.testing.assert_allclose(eval_series(c[:, 0], x), ref[:, 0], **tol)
            got = eval_series(c, x.reshape(-1, 2))
            assert got.shape == (m // 2, 2, 3)
            np.testing.assert_allclose(got.reshape(m, 3), ref, **tol)

    def test_three_row_chunks_above_a_third_of_eval_block(self):
        # more than EVAL_BLOCK // 3 points: chunks of three degrees, the least for which
        # the two rows carried into a chunk are not the row being written
        m = EVAL_BLOCK + 1
        x = np.linspace(-1, 1, m)
        c = np.array([0.5, -1.0, 0.75, 0.25, -0.5])
        np.testing.assert_allclose(eval_series(c, x), chebval(x, c), rtol=0, atol=1e-14)

    def test_slow_decay_at_degree_16385(self):
        # coefficients that decay only to 1e-14, on a 10^4-point block, which takes the
        # recurrence: within 1e-13 relative of a long-double Clenshaw sum on every fifth
        # point (7.7e-15 measured; 50-point blocks, which take the trig basis, 5.5e-14)
        d = 16385
        rng = np.random.default_rng(19)
        c = rng.uniform(-1, 1, d) * 10.0 ** (-14.0 * np.arange(d) / d)
        x = rng.uniform(-1, 1, 10_000)
        ref = chebval(x[::5].astype(np.longdouble), c.astype(np.longdouble))
        err = np.max(np.abs(eval_series(c, x)[::5] - ref)) / np.max(np.abs(ref))
        assert err <= 1e-13


class TestResolution:
    def test_tiny_tail(self):
        c = np.array([1.0, 1e-20, 1e-20, 1e-20, 1e-20])
        assert is_resolved(c, 1e-12, 1.0)

    def test_fat_tail(self):
        c = np.array([1.0, 0.5, 0.4, 0.3, 0.2])
        assert not is_resolved(c, 1e-12, 1.0)

    def test_exp_resolved_at_33_not_5(self):
        for n, expect in ((33, True), (5, False)):
            c = vals_to_coeffs(np.exp(cheb_points(n)))
            assert is_resolved(c, 1e-12, math.e) is expect

    def test_short_series_never_resolved(self):
        assert not is_resolved(np.array([1.0, 1e-20]), 1e-12, 1.0)

    def test_matrix_gives_one_flag_per_column(self):
        # columns resolve and fail by turn; each flag is that column's own check
        c = vals_to_coeffs(np.exp(np.outer(cheb_points(33), [1.0, 20.0, 0.5, 40.0])))
        flags = is_resolved(c, 1e-12, math.e)
        assert flags.tolist() == [True, False, True, False]
        assert flags.tolist() == [is_resolved(c[:, k], 1e-12, math.e) for k in range(4)]

    def test_refine_size(self):
        assert refine_size(17) == 33
        assert refine_size(33) == 65
        assert refine_size(65) == 129
        with pytest.raises(ValueError):
            refine_size(1)

    def test_chop_trivial(self):
        c = np.array([1.0, 1e-20, 1e-20, 1e-20, 1e-20])
        assert chop_series(c, 1e-12, 1.0).tolist() == [1.0]
        c = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        assert chop_series(c, 1e-12, 1.0).tolist() == [0.0, 1.0]

    def test_chop_exp_length(self):
        c = vals_to_coeffs(np.exp(cheb_points(33)))
        chopped = chop_series(c, 1e-12, math.e)
        # exp coefficient |c_k| drops below 1e-12*e at k=12
        assert chopped.size == 12
        # chop removes only negligible content
        assert np.max(np.abs(c[chopped.size:])) <= 1e-12 * math.e
