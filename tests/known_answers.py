"""Functions with a known answer, for tests of the constructor.

Exact Tucker polynomials: f = core x1 T(x)A x2 T(y)B x3 T(z)C, where
T(t) is the row of Chebyshev polynomials T_0..T_40 at t, so f has
multilinear ranks exactly EXACT_TUCKER_RANKS[seed] and degree 40 in each
variable.  The data are fixed here, seeds and check points included, so
that no later change can pick data that hides a defect.

Off-centre point cusps: f = 1/(1 + c*|p - p0|), with p0 drawn from
default_rng(seed), for every seed in POINT_CUSP_SEEDS and c in
POINT_CUSP_SLOPES.  Their error, and that of the TIGHT_CASES catalog
builds, is what a false certificate is counted on.

hidden_bump is a narrow bump that phase 1's first look misses entirely.
narrow_gaussian(c) is separable, but its fibers away from the origin
are tiny: each must be resolved at its own scale, not at f's.
off_centre_gaussian has mode-2 rank 2, but on the 17^3 coarse grid only
its y = 0 fibers see the Gaussian, and there its xy term is zero.
"""

import numpy as np
from numpy.polynomial.chebyshev import chebvander

EXACT_TUCKER_DEGREE = 40
EXACT_TUCKER_RANKS = {1: (3, 3, 3), 2: (5, 2, 7), 3: (8, 8, 1), 4: (1, 6, 6), 5: (12, 10, 8)}
POINT_CUSP_SEEDS = range(6)
POINT_CUSP_SLOPES = (5, 25)
TIGHT_CASES = (("expdist", 1e-13), ("logmix", 1e-13), ("logmix", 1e-14))  # (catalog name, tol)
NARROW_GAUSSIANS = ((1000, 1e-8), (3000, 1e-10))  # (c, tol)


def exact_tucker(seed):
    """The exact Tucker polynomial of a seed in EXACT_TUCKER_RANKS.

    Drawn from default_rng(seed): the core first, then each factor in
    mode order, row k of a factor scaled by 0.7**k.
    """
    ranks = EXACT_TUCKER_RANKS[seed]
    g = np.random.default_rng(seed)
    core = g.standard_normal(ranks)
    k = np.arange(EXACT_TUCKER_DEGREE + 1)[:, None]
    factors = [g.standard_normal((EXACT_TUCKER_DEGREE + 1, r)) * 0.7**k for r in ranks]

    def f(x, y, z):
        x, y, z = np.broadcast_arrays(*(np.asarray(t, dtype=float) for t in (x, y, z)))
        u, v, w = (chebvander(t.ravel(), EXACT_TUCKER_DEGREE) @ a for t, a in zip((x, y, z), factors))
        return np.einsum("ijk,mi,mj,mk->m", core, u, v, w, optimize=True).reshape(x.shape)

    return f


def point_cusp(seed, c):
    """1/(1 + c*|p - p0|), with p0 = default_rng(seed).uniform(-0.9, 0.9, 3)."""
    x0, y0, z0 = np.random.default_rng(seed).uniform(-0.9, 0.9, 3)

    def f(x, y, z):
        return 1.0 / (1.0 + c * np.sqrt((x - x0) ** 2 + (y - y0) ** 2 + (z - z0) ** 2))

    return f


def hidden_bump(x, y, z):
    """exp(-1e5*(x^2 + (y+1/3)^2 + (z+0.6)^2)): exactly 0.0 on every sample
    of the first unfolding of the 17^3 coarse grid, and 1.0 at the first
    Halton point (0, -1/3, -0.6).  A build that took the first samples for
    the whole function would call it zero and certify that."""
    return np.exp(-1e5 * (x**2 + (y + 1 / 3) ** 2 + (z + 0.6) ** 2))


def narrow_gaussian(c):
    """exp(-c*(x^2 + y^2 + z^2)), for every c in NARROW_GAUSSIANS."""

    def f(x, y, z):
        return np.exp(-c * (x**2 + y**2 + z**2))

    return f


def off_centre_gaussian(x, y, z):
    """exp(-1000*((x-0.3)^2 + y^2 + z^2)) * (1 + x*y): at tol 1e-8, a build
    that takes mode 2 for rank 1 errs far above the acceptance bound."""
    return np.exp(-1000 * ((x - 0.3) ** 2 + y**2 + z**2)) * (1 + x * y)


def check_points():
    """The 10^4 points at which a known-answer build's error is measured."""
    return np.random.default_rng(123).uniform(-1, 1, (10000, 3))
