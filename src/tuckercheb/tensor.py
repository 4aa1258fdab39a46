"""Dense order-3 tensor helpers: unfoldings and the truncated-HOSVD
ranks that the rank study reports.

Matricization convention: the mode-a unfolding has the mode-a fibers as
columns, ordered with the remaining modes in their original cyclic order
and the lower mode varying fastest (Fortran order of the remaining
axes).
"""

import numpy as np


def matricize(t, mode):
    """Mode unfolding of a 3-way array, mode in {1, 2, 3}."""
    t = np.asarray(t)
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    a = mode - 1
    return np.reshape(np.moveaxis(t, a, 0), (t.shape[a], -1), order="F")


def hosvd_ranks(t, tol):
    """Multilinear ranks of the truncated higher-order SVD.

    Per mode, the rank is the smallest r >= 1 such that the discarded
    singular values satisfy sqrt(sum sigma^2) <= tol*||t||_F/sqrt(3), so
    truncating every mode to its rank errs by at most tol*||t||_F.  Only
    singular values are computed.
    """
    if not tol >= 0:
        raise ValueError("tolerance must be nonnegative")
    t = np.asarray(t, dtype=float)
    budget = tol * np.linalg.norm(t) / np.sqrt(3)
    ranks = []
    for mode in (1, 2, 3):
        s = np.linalg.svd(matricize(t, mode), compute_uv=False)
        tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tail[r] = discarded energy at rank r
        ranks.append(max(int(np.count_nonzero(tail > budget)), 1))  # tail never increases
    return tuple(ranks)
