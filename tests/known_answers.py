"""Functions with a known answer, for tests of the constructor.

Exact Tucker polynomials: f = core x1 T(x)A x2 T(y)B x3 T(z)C, where
T(t) is the row of Chebyshev polynomials T_0..T_40 at t, so f has
multilinear ranks exactly EXACT_TUCKER_RANKS[seed] and degree 40 in each
variable.  The data are fixed here, seeds and check points included, so
that no later change can pick data that hides a defect.
"""

import numpy as np
from numpy.polynomial.chebyshev import chebvander

EXACT_TUCKER_DEGREE = 40
EXACT_TUCKER_RANKS = {1: (3, 3, 3), 2: (5, 2, 7), 3: (8, 8, 1), 4: (1, 6, 6), 5: (12, 10, 8)}


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


def check_points():
    """The 10^4 points at which a known-answer build's error is measured."""
    return np.random.default_rng(123).uniform(-1, 1, (10000, 3))
