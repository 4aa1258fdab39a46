"""Dense order-3 tensor algebra and a truncated-HOSVD oracle.

Matricization convention: the mode-a unfolding has the mode-a fibers as
columns, ordered with the remaining modes in their original cyclic order
and the lower mode varying fastest (Fortran order of the remaining
axes).
"""

import numpy as np

from .chebyshev import cheb_points


def matricize(t, mode):
    """Mode unfolding of a 3-way array, mode in {1, 2, 3}."""
    t = np.asarray(t)
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    a = mode - 1
    return np.reshape(np.moveaxis(t, a, 0), (t.shape[a], -1), order="F")


def mode_mult(t, m, mode):
    """Mode-a product: every mode-a fiber of t is multiplied by m."""
    t = np.asarray(t)
    m = np.asarray(m)
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    a = mode - 1
    if m.ndim != 2 or m.shape[1] != t.shape[a]:
        raise ValueError(
            f"matrix of shape {m.shape} does not act on mode {mode} "
            f"of tensor with shape {t.shape}"
        )
    return np.moveaxis(np.tensordot(m, t, axes=(1, a)), 0, a)


def norm_frob(t):
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(t).ravel()))


def subtensor(oracle, grid_dims, I, J, K):
    """Evaluate f on selected Chebyshev grid indices through the oracle.

    Returns the |I| x |J| x |K| array of samples; every evaluation is
    counted and memoized by the oracle.
    """
    n1, n2, n3 = grid_dims
    I = np.asarray(I, dtype=int)
    J = np.asarray(J, dtype=int)
    K = np.asarray(K, dtype=int)
    for idx, n, name in ((I, n1, "I"), (J, n2, "J"), (K, n3, "K")):
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ValueError(f"index set {name} out of range for grid size {n}")
    xs = cheb_points(n1)[I]
    ys = cheb_points(n2)[J]
    zs = cheb_points(n3)[K]
    return oracle.eval_grid(xs, ys, zs)


def hosvd_truncated(t, tol):
    """Truncated higher-order SVD.

    Per mode, the rank is the smallest r such that the discarded
    singular values satisfy sqrt(sum sigma^2) <= tol*||t||_F/sqrt(3).
    Returns (core, [U1, U2, U3], (r1, r2, r3)); factors have orthonormal
    columns and the reconstruction error is below tol*||t||_F.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    t = np.asarray(t, dtype=float)
    nrm = norm_frob(t)
    budget = tol * nrm / np.sqrt(3)
    factors = []
    ranks = []
    for mode in (1, 2, 3):
        u, s, _ = np.linalg.svd(matricize(t, mode), full_matrices=False)
        tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tail[r] = discarded energy at rank r
        r = s.size
        for cand in range(s.size):
            if tail[cand] <= budget:
                r = cand
                break
        r = max(r, 1)
        factors.append(u[:, :r])
        ranks.append(r)
    core = t
    for mode, u in zip((1, 2, 3), factors):
        core = mode_mult(core, u.T, mode)
    return core, factors, tuple(ranks)
