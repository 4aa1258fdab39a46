"""Univariate Chebyshev machinery on [-1, 1].

Grids are Chebyshev points of the second kind, ordered decreasing from 1
to -1.  Value/coefficient transforms are the DCT-I pair, so a series of
length n interpolates its samples exactly and round-trips to machine
precision.
"""

import math

import numpy as np
from numpy.polynomial.chebyshev import chebvander
from scipy.fft import dct

TRIG_BASIS_POINTS = 64  # eval_series blocks below this size skip chebvander's loop over degrees


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
    columns are separate series give (m, r).  The basis holds x.size * d
    entries, so callers with many points and a high degree pass them in
    blocks.

    Fewer than TRIG_BASIS_POINTS points, all in [-1, 1], take the basis
    T_k(x) = cos(k * arccos(x)), which costs a few numpy calls at any
    degree.  Every other call takes numpy's chebvander, which builds the
    basis one degree at a time and is faster per point on large blocks;
    it is also the one that extrapolates outside [-1, 1].  The trig basis
    loses about k*eps in T_k, through the rounding of k * arccos(x); on a
    slowly decaying series of high degree chebvander is more accurate.
    """
    c = np.asarray(coeffs, dtype=float)
    x = np.asarray(x, dtype=float)
    d = c.shape[0]
    if x.size < TRIG_BASIS_POINTS and np.all(np.abs(x) <= 1.0):
        basis = np.cos(np.multiply.outer(np.arccos(x), np.arange(d)))
    else:
        basis = chebvander(x, d - 1)
    v = basis @ c
    return v.reshape(x.shape + c.shape[1:])[()]


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
