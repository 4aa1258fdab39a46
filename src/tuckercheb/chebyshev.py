"""Univariate Chebyshev machinery on [-1, 1].

Grids are Chebyshev points of the second kind, ordered decreasing from 1
to -1.  Value/coefficient transforms are the DCT-I pair, so a series of
length n interpolates its samples exactly and round-trips to machine
precision.
"""

import math

import numpy as np
from scipy.fft import dct

# entries per evaluation array, 8 MB: eval_series's basis chunk (degrees x points),
# and in TuckerApproximant.evaluate_many the three bases together (points x (r1+r2+r3))
# and the core product (points x r2*r3)
EVAL_BLOCK = 1 << 20
TRIG_BASIS_POINTS = 64  # eval_series calls below this size skip the recurrence over degrees


def cheb_points(n):
    """Chebyshev points of the second kind, x_j = cos(j*pi/(n-1)).

    Computed as sin(pi*(n-1-2j)/(2(n-1))) with the fraction reduced
    first, so that nested grids (n -> 2n-1) share bit-identical points
    and the grid is exactly symmetric about 0.
    """
    if n < 1:
        raise ValueError(f"need at least one point, got n={n}")
    if n == 1:
        return np.zeros(1)
    num = n - 1 - 2 * np.arange(n)
    den = 2 * (n - 1)
    g = np.gcd(num, den)
    return np.sin(math.pi * (num // g) / (den // g))


def vals_to_coeffs(values):
    """Map samples at cheb_points(n) to Chebyshev coefficients.

    Accepts a vector or a matrix whose columns are independent sample
    sets.  Exact (to round-off) for polynomials of degree <= n-1.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty sample vector")
    n = v.shape[0]
    if n == 1:
        return v.copy()
    c = dct(v, type=1, axis=0) / (n - 1)
    c[0] /= 2
    c[-1] /= 2
    return c


def coeffs_to_vals(coeffs, n):
    """Sample a Chebyshev series on cheb_points(n), n >= len(coeffs)."""
    c = np.asarray(coeffs, dtype=float)
    m = c.shape[0]
    if n < m:
        raise ValueError(f"target grid size {n} smaller than series length {m}")
    if n == 1:
        return c.copy()
    pad_shape = (n,) + c.shape[1:]
    a = np.zeros(pad_shape)
    a[:m] = c
    a[1:-1] /= 2
    return dct(a, type=1, axis=0)


def eval_series(coeffs, x):
    """Evaluate sum_k c_k T_k(x) as basis(x) @ coeffs.

    The result has shape x.shape + coeffs.shape[1:]: a scalar x and a
    vector series give a scalar, and m points with a (d, r) matrix whose
    columns are separate series give (m, r).

    Fewer than TRIG_BASIS_POINTS points, all in [-1, 1], take the basis
    T_k(x) = cos(k * arccos(x)), which costs a few numpy calls at any
    degree.  Every other call runs the three-term recurrence over all its
    points at once, one chunk of degrees at a time (_basis_chunks), and adds
    each chunk's product with its coefficient rows to the result; so its
    basis holds at most EVAL_BLOCK entries (or three rows of points) at any
    degree.  The recurrence is the one numpy's chebvander runs, and it
    extrapolates outside [-1, 1].  The trig basis loses about k*eps in T_k,
    through the rounding of k * arccos(x); on a slowly decaying series of
    high degree the recurrence is more accurate.
    """
    c = np.asarray(coeffs, dtype=float)
    x = np.asarray(x, dtype=float)
    d = c.shape[0]
    if d == 0:
        raise ValueError("empty series")
    if x.size < TRIG_BASIS_POINTS and np.all(np.abs(x) <= 1.0):
        v = np.cos(np.multiply.outer(np.arccos(x), np.arange(d))) @ c
    else:
        chunks = _basis_chunks(x.ravel(), d)
        _, chunk = next(chunks)
        # (r, points): this GEMM runs faster than basis.T @ c, but callers
        # reduce over r per point faster on a C-ordered (points, r) array
        vt = c[: len(chunk)].T @ chunk
        for k0, chunk in chunks:
            vt += c[k0 : k0 + len(chunk)].T @ chunk
        v = np.ascontiguousarray(vt.T)
    return v.reshape(x.shape + c.shape[1:])[()]


def _basis_chunks(t, d):
    """T_0 .. T_{d-1} at the points t, by T_{k+1} = 2t T_k - T_{k-1}.

    Yields (k0, chunk) with chunk[j] = T_{k0+j}(t), one chunk of degrees
    at a time.  Every chunk is a view of one buffer of at most EVAL_BLOCK
    entries (at least three degrees, so that rows j - 1 and j - 2 are
    never row j), overwritten by the next.
    """
    rows = min(d, max(3, EVAL_BLOCK // t.size))
    basis = np.empty((rows, t.size))
    basis[0] = 0.0 * t + 1.0  # a NaN point gives NaN at any degree, as in chebvander
    if d > 1:
        basis[1] = t
    two_t = 2.0 * t
    for k0 in range(0, d, rows):
        n = min(rows, d - k0)
        for j in range(max(0, 2 - k0), n):
            # at j < 2, rows j - 1 and j - 2 wrap to the last two degrees of the previous chunk
            row = basis[j]
            np.multiply(two_t, basis[j - 1], out=row)
            np.subtract(row, basis[j - 2], out=row)
        yield k0, basis[:n]


def is_resolved(coeffs, tol, vscale):
    """Plateau check: the trailing coefficient window is below tol*vscale.

    The window covers the last max(3, ceil(0.15*n)) coefficients; series
    shorter than 5 are never considered resolved.  A vector gives a bool;
    a matrix whose columns are separate series gives one flag per column,
    and vscale may then hold one value per column.
    """
    c = np.asarray(coeffs, dtype=float)
    n = c.shape[0]
    if n < 5:
        return False if c.ndim == 1 else np.zeros(c.shape[1:], dtype=bool)
    flags = np.max(np.abs(c[-max(3, math.ceil(0.15 * n)) :]), axis=0) <= tol * vscale
    return bool(flags) if c.ndim == 1 else flags


def refine_size(n):
    """Next nested grid size, 2n-1."""
    if n < 2:
        raise ValueError(f"cannot refine a grid of size {n}")
    return 2 * n - 1


def chop_series(coeffs, tol, vscale):
    """Shortest prefix whose removed tail is below tol*vscale (length >= 1)."""
    c = np.asarray(coeffs, dtype=float)
    keep = np.nonzero(np.abs(c) > tol * vscale)[0]
    if keep.size == 0:
        return c[:1].copy()
    return c[: keep[-1] + 1].copy()
