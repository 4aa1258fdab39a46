"""Three-phase fiber-based constructor for functional Tucker approximants.

Phase 1 alternates cross approximation over lazily sampled subtensors of
an n^3 coarse grid to pick fiber indices and factor matrices, starting
from evenly spread indices on modes 2 and 3 (_spread); nothing is
random, so a build depends on f and tol alone.  The first unfolding
whose rank is too high for its grid ends that grid at once: phase 1
samples no more of it and starts over on the next larger one.  Phase 2
refines each factor's Chebyshev grid (2n-1 nesting) until every column's
coefficient tail is resolved; only unresolved columns are sampled, and
resolved ones are extended by their own interpolant.  Phase 3
orthonormalizes the factors, picks interpolation rows by DEIM, samples
the r1*r2*r3 core entries, and checks the result at Halton points.
build repeats the three phases on a larger coarse grid until the check
passes or MAX_RESTARTS restarts are spent, and returns the attempt with
the lowest Halton error.  A condemned phase-1 grid and a failed attempt
grow the grid the same way: the next grid's first index sets on modes 2
and 3 are _modified_guesses of the three index-set sizes reached.

The fixed choices of the method are module constants: a 17^3 initial
coarse grid (COARSE_SIZE), initial rank guesses of 6 on modes 2 and 3
(RANK_GUESSES), coarse-grid growth when a rank exceeds 1/(2*sqrt(2)) of
its grid size (RANK_RATIO_THRESHOLD), 30 Halton verification points
(HALTON_COUNT) and acceptance at 10*tol*vscale (ACCEPTANCE_FACTOR).
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .chebyshev import (
    cheb_points,
    coeffs_to_vals,
    eval_series,
    is_resolved,
    refine_size,
    vals_to_coeffs,
)
from .cross import DegenerateInputError, aca, build_oblique
from .oracle import InstrumentedOracle
from .tensor import matricize, subtensor

COARSE_SIZE = 17  # the coarse grid is n^3
RANK_GUESSES = (6, 6)  # modes 2 and 3; phase 1 starts on mode 1
RANK_RATIO_THRESHOLD = 1.0 / (2.0 * math.sqrt(2.0))
HALTON_COUNT = 30
ACCEPTANCE_FACTOR = 10.0
MAX_RESTARTS = 5
# caps phase-2 refinement only; the coarse grid, and so a fiber, may be larger
MAX_FINE_SIZE = 2**14 + 1
MAX_COARSE_SIZE = 2000
MAX_RANK = 512
EVAL_BLOCK = 1 << 20  # entries per evaluation array: points x max(degree, r2*r3), 8 MB


@dataclass
class ConstructorConfig:
    tol: float = 1e-12

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive and finite")


@dataclass
class ModeFibers:
    """Fiber samples for one mode: values[:, c] is f along the mode axis
    with the other two coordinates fixed at the row coords[c] = (a, b)."""

    mode: int
    values: np.ndarray
    coords: np.ndarray  # (r, 2)


@dataclass
class TuckerApproximant:
    """Core tensor plus columnwise Chebyshev-interpolated factors."""

    core: np.ndarray
    coeffs: tuple  # (A_U, A_V, A_W), shape (d_alpha, r_alpha) each
    stats: dict = field(default_factory=dict)

    @property
    def ranks(self):
        return tuple(self.core.shape)

    @property
    def degrees(self):
        return tuple(a.shape[0] for a in self.coeffs)

    def evaluate(self, x, y, z):
        return float(self.evaluate_many([[x, y, z]])[0])

    def evaluate_many(self, pts):
        """Evaluate at an (m, 3) array of points, returning shape (m,).

        Per block of points: the three bases by eval_series, the core by
        one GEMM over mode 1, then a reduction over modes 2 and 3.  A block
        holds at most EVAL_BLOCK entries in each array, at any degree.
        """
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be an (m, 3) array, got shape {pts.shape}")
        r1, r2, r3 = self.core.shape
        core = self.core.reshape(r1, r2 * r3)
        step = max(1, EVAL_BLOCK // max(*self.degrees, r2 * r3))
        out = np.empty(len(pts))
        for s in range(0, len(pts), step):
            u, v, w = (eval_series(a, pts[s : s + step, k]) for k, a in enumerate(self.coeffs))
            out[s : s + step] = np.einsum("mjk,mj,mk->m", (u @ core).reshape(-1, r2, r3), v, w)
        return out


def halton_points(count, offset=0):
    """Halton sequence in bases (2, 3, 5), mapped from (0,1) to (-1,1)."""
    if count < 1:
        raise ValueError("count must be positive")
    if offset < 0:
        raise ValueError("offset must be nonnegative")
    # radical inverses of all indices in all bases at once; spent digits add 0.0
    base = np.array([2, 3, 5])
    i = np.repeat(np.arange(offset + 1, offset + 1 + count)[:, None], 3, axis=1)
    f = np.ones(3)
    r = np.zeros((count, 3))
    while i.any():
        f /= base
        r += f * (i % base)
        i //= base
    return 2.0 * r - 1.0


def grow_size(n):
    """Coarse-grid growth rule: floor(sqrt(2)^floor(2*log2(n)+1)) + 1."""
    return int(math.floor(math.sqrt(2.0) ** math.floor(2.0 * math.log2(n) + 1.0))) + 1


def _grow(n):
    """The next coarse grid size: grow_size, capped at MAX_COARSE_SIZE."""
    return min(grow_size(n), MAX_COARSE_SIZE)


def _aca_on_matrix(m, tol_rel):
    """ACA with tolerance relative to the initial residual maximum.

    Falls back to a single first-row/first-column cross if the sampled
    matrix is identically zero, so downstream machinery always has at
    least one fiber to work with.
    """
    m0 = float(np.max(np.abs(m)))
    if m0 == 0.0:
        return [0], [0]
    res = aca(m, tol_abs=tol_rel * m0, max_rank=MAX_RANK)
    if res.rank == 0:
        return [0], [0]
    return res.row_indices, res.col_indices


def _spread(n, g, t):
    """The t-th draw of initial fiber indices: min(g, n) evenly spread
    indices floor((k + o)*n/g) on an n-point grid, shifted by o, the
    base-2 radical inverse of t."""
    g = min(g, n)
    o = (halton_points(1, offset=t - 1)[0, 0] + 1.0) / 2.0
    return list(np.floor((np.arange(g) + o) * n / g).astype(int))


def phase1_factors(oracle, tol, n, guesses, draws):
    """Alternating fiber selection (two sweeps) on the n^3 coarse grid.

    The first index sets of modes 2 and 3 are _spread draws of guesses[0]
    and guesses[1] indices, numbered by the iterator draws, which runs on
    across the attempts of a build.  After each unfolding's ACA, a rank above
    RANK_RATIO_THRESHOLD of n condemns the grid: no further unfolding of it
    is sampled, and selection starts again on the grown grid with
    _modified_guesses of the three index-set sizes reached, as build does
    after a failed attempt.  (MAX_RANK keeps every rank below that share
    of any grid _grow cannot enlarge.)  The grid that is kept runs both
    sweeps; a rank of 1 after the first sweep ends it early.
    Returns (mode_fibers, n, ranks).
    """
    while True:
        pts = cheb_points(n)
        idx = [[]] + [_spread(n, g, next(draws)) for g in guesses]
        fibers = [None, None, None]
        for sweep, a in itertools.product(range(2), range(3)):
            # the unfolding's columns run over the other modes b < c, b fastest
            b, c = (m for m in range(3) if m != a)
            sel = list(idx)
            sel[a] = range(n)
            mat = matricize(subtensor(oracle, (n, n, n), *sel), a + 1)
            idx[a], cols = _aca_on_matrix(mat, tol)
            ranks = tuple(len(i) for i in idx)
            # a rank this high condemns the grid: grow it now, sample no more of this one
            if ranks[a] / n > RANK_RATIO_THRESHOLD:
                break
            kc, kb = np.divmod(cols, ranks[b])
            coords = np.column_stack((pts[np.take(idx[b], kb)], pts[np.take(idx[c], kc)]))
            fibers[a] = ModeFibers(a + 1, mat[:, cols], coords)
            if a == 2 and (sweep == 1 or min(ranks) <= 1):
                return fibers, n, ranks
        n, guesses = _grow(n), _modified_guesses(ranks)


def phase2_refine(oracle, mode_fibers, tol):
    """Refine each mode's fiber grid until every column is resolved.

    A column is resolved once chebyshev.is_resolved accepts its
    coefficients at tol.  Each refinement (n -> 2n-1) keeps the old samples at
    the even indices.  Only unresolved columns are sampled at the new
    odd-index points; a resolved column takes its new values from its own
    Chebyshev interpolant.  A mode's grid grows until its last column is
    resolved or the next size would exceed MAX_FINE_SIZE.
    Returns (fine_fibers, fine_dims, unresolved_modes).
    """
    fine = []
    fine_dims = []
    unresolved = []
    for mf in mode_fibers:
        vals = mf.values
        n, r = vals.shape
        a, b = mf.coords.T
        done = np.zeros(r, dtype=bool)
        while True:
            coeffs = vals_to_coeffs(vals)
            done |= [is_resolved(coeffs[:, c], tol, oracle.vscale) for c in range(r)]
            if done.all():
                break
            n_new = refine_size(n)
            if n_new > MAX_FINE_SIZE:
                unresolved.append(mf.mode)
                break
            grown = np.empty((n_new, r))
            grown[0::2, :] = vals
            grown[1::2, done] = coeffs_to_vals(coeffs[:, done], n_new)[1::2]
            newpts = cheb_points(n_new)[1::2]
            m = newpts.size
            todo = ~done
            k = int(todo.sum())
            var = np.tile(newpts, k)
            fa = np.repeat(a[todo], m)
            fb = np.repeat(b[todo], m)
            args = [fa, fb]
            args.insert(mf.mode - 1, var)
            sampled = oracle.eval_points(*args)
            grown[1::2, todo] = sampled.reshape(k, m).T
            vals = grown
            n = n_new
        fine.append(ModeFibers(mf.mode, vals, mf.coords))
        fine_dims.append(n)
    return fine, tuple(fine_dims), unresolved


def phase3_core(oracle, fine_fibers, fine_dims):
    """QR + DEIM oblique projection and core sampling.

    Returns (approximant_without_stats, mixing_norms).  Raises
    DegenerateInputError if a DEIM interpolation matrix is singular.
    """
    factor_coeffs = []
    deim_rows = []
    mixing_norms = []
    for mf in fine_fibers:
        q, rmat, _ = scipy.linalg.qr(mf.values, mode="economic", pivoting=True)
        diag = np.abs(np.diag(rmat))
        keep = max(int(np.sum(diag > 1e-14 * diag.max())), 1)
        q = q[:, :keep]
        proj = build_oblique(q)
        factor = q @ proj.mixing  # rows at proj.interp_rows are the identity
        factor_coeffs.append(vals_to_coeffs(factor))
        deim_rows.append(proj.interp_rows)
        mixing_norms.append(proj.mixing_norm)
    core = subtensor(oracle, fine_dims, *deim_rows)
    return TuckerApproximant(core=core, coeffs=tuple(factor_coeffs)), mixing_norms


def _modified_guesses(ranks):
    # rank guesses for modes 2 and 3 on the next grid, from the three index-set
    # sizes reached: collapsed modes restart at 3, and a mode doubles only if
    # another mode is capped (its rank reaches the product of its partners'
    # ranks), since samples on J x K give an unfolding rank at most
    # min(|J|, r_b)*min(|K|, r_c), so there the samples may be what limit it
    capped = [ranks[a] >= math.prod(ranks) // ranks[a] for a in range(3)]
    return tuple(
        3 if ranks[b] <= 2
        else min(2 * ranks[b], MAX_RANK) if any(capped[a] for a in range(3) if a != b)
        else ranks[b]
        for b in (1, 2)
    )


def _accepted(err, tol, vscale):
    return bool(err <= ACCEPTANCE_FACTOR * tol * vscale)


def build(f, config=None, vectorized=True):
    """Construct a TuckerApproximant for f on [-1,1]^3.

    f may be any callable of three floats (or arrays, if vectorized).
    The returned approximant is the attempt with the lowest Halton error
    and carries construction stats; see the 'certified' flag for whether
    it passed the Halton check.
    """
    tol = (config if config is not None else ConstructorConfig()).tol
    oracle = InstrumentedOracle(f, vectorized=vectorized)
    draws = itertools.count(1)

    n = COARSE_SIZE
    guesses = RANK_GUESSES
    best = None  # (err, approx, coarse size, unresolved, mixing_norms)
    for restarts in range(MAX_RESTARTS + 1):
        oracle.set_phase("phase1")
        mode_fibers, n, ranks = phase1_factors(oracle, tol, n, guesses, draws)

        oracle.set_phase("phase2")
        fine_fibers, fine_dims, unresolved = phase2_refine(oracle, mode_fibers, tol)

        oracle.set_phase("phase3_core")
        try:
            approx, mixing_norms = phase3_core(oracle, fine_fibers, fine_dims)
        except DegenerateInputError:
            pass  # this attempt has no approximant; the next one grows the grid
        else:
            oracle.set_phase("verify")
            pts = halton_points(HALTON_COUNT)
            fvals = oracle.eval_points(pts[:, 0], pts[:, 1], pts[:, 2])
            err = float(np.max(np.abs(fvals - approx.evaluate_many(pts))))
            if best is None or err < best[0]:
                best = (err, approx, n, unresolved, mixing_norms)
            if _accepted(err, tol, oracle.vscale):
                break
        n, guesses = _grow(n), _modified_guesses(ranks)

    if best is None:
        raise DegenerateInputError("every construction attempt failed in phase 3")
    err, approx, coarse_size, unresolved, mixing_norms = best
    approx.stats = {
        "schema_version": 2,
        "tol": tol,
        "ranks": list(approx.ranks),
        "degrees": list(approx.degrees),
        "coarse_dims": [coarse_size] * 3,
        "restarts": restarts,
        "vscale": oracle.vscale,
        "halton_error": err,
        # judged at the final vscale, which the later attempts may have raised
        "certified": _accepted(err, tol, oracle.vscale),
        "unresolved_modes": unresolved,
        "mixing_norms": mixing_norms,
        "evals": {p: {"total": t, "distinct": d} for p, (t, d) in oracle.counts.items()},
        "total_calls": oracle.total_calls,
        "distinct_points": oracle.distinct_points,
    }
    return approx
