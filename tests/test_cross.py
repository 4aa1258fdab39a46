"""Tests for the index-selection kernels (ACA, DEIM, oblique projector)."""

import numpy as np
import pytest

from tuckercheb.cross import (
    DegenerateInputError,
    aca,
    build_oblique,
    deim,
)


def cross_reconstruct(m, res):
    """Assemble M(:,J) M(I,J)^-1 M(I,:) from an AcaResult."""
    I, J = res.row_indices, res.col_indices
    return m[:, J] @ np.linalg.solve(m[np.ix_(I, J)], m[I, :])


class TestAca:
    def test_exact_low_rank(self):
        rng = np.random.default_rng(0)
        for r in (1, 3, 7):
            m = rng.standard_normal((20, r)) @ rng.standard_normal((r, 15))
            res = aca(m, 1e-10)
            assert res.rank == r
            np.testing.assert_allclose(
                cross_reconstruct(m, res), m, atol=1e-9 * np.max(np.abs(m))
            )

    def test_first_pivot_is_global_max(self):
        m = np.array([[1.0, 2.0], [5.0, -3.0], [0.5, 4.0]])
        res = aca(m, 1e-12)
        assert (res.row_indices[0], res.col_indices[0]) == (1, 0)
        assert res.pivot_magnitudes[0] == 5.0

    def test_tie_breaks_column_major(self):
        # identical magnitudes: first maximum in column-major order wins
        m = np.array([[2.0, 2.0], [2.0, 2.0]])
        res = aca(m, 1e-12)
        assert (res.row_indices[0], res.col_indices[0]) == (0, 0)

    def test_residual_below_tol_stops(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 10))
        m += 1e-8 * rng.standard_normal((10, 10))
        res = aca(m, 1e-6)
        assert res.rank == 2

    def test_rank_cap(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((12, 12))
        res = aca(m, 1e-14, max_rank=4)
        assert res.rank == 4

    def test_pivot_magnitudes_recorded(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 5)) @ rng.standard_normal((5, 8))
        res = aca(m, 1e-12)
        assert len(res.pivot_magnitudes) == res.rank
        assert all(p > 0 for p in res.pivot_magnitudes)

    @pytest.mark.parametrize("k", [-560, 560])
    def test_rank_one_at_any_scale(self, k):
        # no product of two entries is formed, so 2^k*M neither overflows
        # nor underflows before the pivot divides it
        x = np.linspace(-1.0, 1.0, 17)
        m = 2.0**k * np.exp(x[:, None] + x[None, :])
        assert aca(m, 1e-10 * np.max(np.abs(m))).rank == 1

    def test_zero_matrix(self):
        res = aca(np.zeros((4, 4)), 1e-12)
        assert res.rank == 0

    def test_rejects_nan(self):
        m = np.ones((3, 3))
        m[1, 1] = np.nan
        with pytest.raises(ValueError):
            aca(m, 1e-12)

    def test_rejects_bad_tol(self):
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                aca(np.ones((2, 2)), tol)


def deim_loop(q):
    """DEIM by its greedy definition: one residual solve per column."""
    indices = []
    for k in range(q.shape[1]):
        c = np.linalg.solve(q[np.ix_(indices, range(k))], q[indices, k])
        resid = q[:, k] - q[:, :k] @ c
        indices.append(int(np.argmax(np.abs(resid))))
    return indices


class TestDeim:
    @pytest.mark.parametrize("shape", [(17, 6), (182, 46), (721, 29), (1449, 60)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_greedy_loop_at_phase3_sizes(self, shape, seed):
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(shape))
        assert deim(q) == deim_loop(q)

    def test_identity_basis(self):
        q = np.eye(5)[:, :3]
        assert deim(q) == [0, 1, 2]

    def test_indices_distinct_and_invertible(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((30, 6)))
        idx = deim(q)
        assert len(idx) == 6
        assert len(set(idx)) == 6
        sub = q[idx, :]
        assert np.linalg.cond(sub) < 1e8

    def test_first_index_is_argmax(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((20, 4)))
        assert deim(q)[0] == int(np.argmax(np.abs(q[:, 0])))

    def test_single_column(self):
        q = np.zeros((6, 1))
        q[3, 0] = 1.0
        assert deim(q) == [3]

    def test_warns_non_orthonormal(self):
        with pytest.warns(UserWarning):
            deim(2.0 * np.eye(4)[:, :2])

    def test_degenerate_zero_column(self):
        with pytest.warns(UserWarning, match="orthonormal"), pytest.raises(DegenerateInputError):
            deim(np.zeros((4, 1)))

    def test_too_many_columns(self):
        with pytest.raises(ValueError):
            deim(np.ones((2, 3)))


class TestObliqueProjector:
    def test_reproduces_basis_vectors(self):
        # the projector is the identity on the span of its basis
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((25, 5)))
        proj = build_oblique(q)
        v = q @ rng.standard_normal(5)
        np.testing.assert_allclose(proj.apply(v), v, atol=1e-12)

    def test_interpolates_at_selected_rows(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((25, 4)))
        proj = build_oblique(q)
        v = rng.standard_normal(25)
        pv = proj.apply(v)
        np.testing.assert_allclose(pv[proj.interp_rows], v[proj.interp_rows], atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((20, 3)))
        proj = build_oblique(q)
        v = rng.standard_normal(20)
        np.testing.assert_allclose(proj.apply(proj.apply(v)), proj.apply(v), atol=1e-12)

    def test_mixing_norm_positive(self):
        q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((15, 5)))
        proj = build_oblique(q)
        assert proj.mixing_norm >= 1.0 - 1e-12

    def test_apply_matrix_argument(self):
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.standard_normal((12, 3)))
        proj = build_oblique(q)
        m = rng.standard_normal((12, 4))
        cols = np.column_stack([proj.apply(m[:, j]) for j in range(4)])
        np.testing.assert_allclose(proj.apply(m), cols, atol=1e-12)
