"""Tests for dense tensor utilities and the truncated HOSVD."""

import numpy as np
import pytest

from tuckercheb.tensor import hosvd_ranks, matricize


def random_tensor(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def hosvd_truncation(t, ranks):
    """t with every mode projected onto the leading left singular vectors
    of that mode's unfolding of t: the truncated-HOSVD reconstruction."""
    projectors = []
    for mode, r in zip((1, 2, 3), ranks):
        u = np.linalg.svd(matricize(t, mode), full_matrices=False)[0][:, :r]
        projectors.append(u @ u.T)
    return np.einsum("ia,jb,kc,abc->ijk", *projectors, t)


class TestMatricize:
    def test_round_trip_all_modes(self):
        t = random_tensor((4, 5, 6), 0)
        for mode in (1, 2, 3):
            m = matricize(t, mode)
            assert m.shape[0] == t.shape[mode - 1]

    def test_mode1_column_order(self):
        # mode-1 columns run over (j, k) with j fastest
        t = random_tensor((3, 4, 5), 1)
        m = matricize(t, 1)
        assert m[:, 1].tolist() == t[:, 1, 0].tolist()
        assert m[:, 4].tolist() == t[:, 0, 1].tolist()


class TestHosvd:
    def test_rank_one(self):
        u, v, w = (np.random.default_rng(s).standard_normal(6) for s in (3, 4, 5))
        t = np.einsum("i,j,k->ijk", u, v, w)
        assert hosvd_ranks(t, 1e-10) == (1, 1, 1)

    def test_sum_function_rank_two(self):
        from tuckercheb.chebyshev import cheb_points

        p = cheb_points(5)
        t = p[:, None, None] + p[None, :, None] + p[None, None, :]
        assert hosvd_ranks(t, 1e-10) == (2, 2, 2)

    def test_exact_reconstruction_tol_zero(self):
        t = random_tensor((4, 4, 4), 6)
        ranks = hosvd_ranks(t, 0.0)
        assert all(r <= 4 for r in ranks)
        np.testing.assert_allclose(hosvd_truncation(t, ranks), t, atol=1e-12)

    @pytest.mark.parametrize("tol", [-1e-10, float("nan")])
    def test_rejects_negative_or_nan_tol(self, tol):
        with pytest.raises(ValueError, match="nonnegative"):
            hosvd_ranks(random_tensor((5, 6, 7), 9), tol)

    def test_reconstruction_bound(self):
        rng = np.random.default_rng(7)
        low = np.einsum(
            "ia,ja,ka->ijk",
            rng.standard_normal((8, 2)),
            rng.standard_normal((8, 2)),
            rng.standard_normal((8, 2)),
        )
        t = low + 1e-9 * rng.standard_normal((8, 8, 8))
        tol = 1e-6
        rebuilt = hosvd_truncation(t, hosvd_ranks(t, tol))
        assert np.linalg.norm(t - rebuilt) <= tol * np.linalg.norm(t)

    def test_rank_rotation_invariance(self):
        rng = np.random.default_rng(8)
        t = np.einsum(
            "ia,ja,ka->ijk",
            rng.standard_normal((7, 3)),
            rng.standard_normal((7, 3)),
            rng.standard_normal((7, 3)),
        )
        q1, q2, q3 = (np.linalg.qr(rng.standard_normal((7, 7)))[0] for _ in range(3))
        rotated = np.einsum("ia,jb,kc,abc->ijk", q1, q2, q3, t)
        assert hosvd_ranks(t, 1e-10) == hosvd_ranks(rotated, 1e-10)
