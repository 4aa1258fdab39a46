"""Three-phase fiber-based constructor for functional Tucker approximants.

Phase 1 alternates cross approximation over lazily sampled subtensors of
an n^3 coarse grid to pick fiber indices and factor matrices, starting
from evenly spread indices on modes 2 and 3 (_spread); nothing is
random, so a build depends on f and tol alone.  The first unfolding
whose rank is too high for its grid condemns that grid: phase 1 samples
no more of it.  On a grid it keeps, phase 1 hands phase 2 one
(values, coords) pair of fiber samples per mode.  Phase 2 refines each
factor's Chebyshev grid (2n-1 nesting) until every column's coefficient
tail is resolved; only unresolved columns are sampled, and resolved ones
are extended by their own interpolant.  Every attempt but the last fails
at the first fiber that cannot be resolved within MAX_FINE_SIZE.  Phase 3
orthonormalizes the factors, picks interpolation rows by DEIM, samples
the r1*r2*r3 core entries, and checks the result at Halton points.
build is the one loop over coarse grids: a condemned grid and a failed
attempt both move it to grow_size(n), whose first index sets on modes 2
and 3 are _modified_guesses of the three index-set sizes reached.  It
stops when the check passes or MAX_RESTARTS restarts are spent, and
returns, of the attempts that ran to the end, the one with the lowest
Halton error.

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
    EVAL_BLOCK,
    cheb_points,
    coeffs_to_vals,
    eval_series,
    is_resolved,
    refine_size,
    vals_to_coeffs,
)
from .cross import DegenerateInputError, aca, build_oblique
from .oracle import InstrumentedOracle
from .tensor import matricize

COARSE_SIZE = 17  # the coarse grid is n^3
RANK_GUESSES = (6, 6)  # modes 2 and 3; phase 1 starts on mode 1
RANK_RATIO_THRESHOLD = 1.0 / (2.0 * math.sqrt(2.0))
HALTON_COUNT = 30
ACCEPTANCE_FACTOR = 10.0
MAX_RESTARTS = 5
# caps phase-2 refinement only; the coarse grid, and so a fiber, may be larger
MAX_FINE_SIZE = 2**14 + 1
MAX_RANK = 512


@dataclass
class ConstructorConfig:
    tol: float = 1e-12

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive and finite")


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
        one GEMM over mode 1, then a reduction over modes 2 and 3.  Blocks
        are sized by the ranks alone: the three bases of a block hold at
        most EVAL_BLOCK entries together, and the core product runs over
        sub-blocks whose (points, r2*r3) array holds at most EVAL_BLOCK.
        eval_series bounds its own basis by chunking the degrees, so the
        memory stays bounded at any degree and point count.
        """
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be an (m, 3) array, got shape {pts.shape}")
        r1, r2, r3 = self.core.shape
        core = self.core.reshape(r1, r2 * r3)
        step = max(1, EVAL_BLOCK // (r1 + r2 + r3))
        sub = max(1, EVAL_BLOCK // (r2 * r3))
        out = np.empty(len(pts))
        for s in range(0, len(pts), step):
            u, v, w = (eval_series(a, pts[s : s + step, k]) for k, a in enumerate(self.coeffs))
            block = out[s : s + step]
            for t in range(0, len(block), sub):
                i = slice(t, t + sub)
                block[i] = np.einsum("mjk,mj,mk->m", (u[i] @ core).reshape(-1, r2, r3), v[i], w[i])
            del u, v, w  # the next block's bases are built without these
        return out


def halton_points(count):
    """Halton sequence in bases (2, 3, 5), mapped from (0,1) to (-1,1)."""
    if count < 1:
        raise ValueError("count must be positive")
    # radical inverses of all indices in all bases at once; spent digits add 0.0
    base = np.array([2, 3, 5])
    i = np.repeat(np.arange(1, count + 1)[:, None], 3, axis=1)
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


def _spread(n, g, t):
    """The t-th draw of initial fiber indices: min(g, n) evenly spread
    indices floor((k + o)*n/g) on an n-point grid, shifted by o, the
    base-2 radical inverse of t."""
    g = min(g, n)
    o = int(format(t, "b")[::-1], 2) / 2 ** t.bit_length()
    return list(np.floor((np.arange(g) + o) * n / g).astype(int))


def phase1_factors(oracle, tol, n, first):
    """Alternating fiber selection (two sweeps) on the n^3 coarse grid.

    first holds the first index sets of modes 2 and 3.  After each
    unfolding's ACA, a rank above RANK_RATIO_THRESHOLD of n condemns the
    grid: no further unfolding of it is sampled.  A grid that is kept
    runs both sweeps; a rank of 1 after the first sweep ends it early.
    Returns (mode_fibers, ranks), ranks being the three index-set sizes
    reached.  mode_fibers is None on a condemned grid; otherwise it holds
    one (values, coords) pair per mode, in mode order: values[:, c] is f
    along the mode axis with the other two coordinates fixed at the row
    coords[c] = (a, b) of the (r, 2) array coords.
    """
    pts = cheb_points(n)
    idx = [[], *first]
    fibers = [None, None, None]
    for sweep, a in itertools.product(range(2), range(3)):
        # the unfolding's columns run over the other modes b < c, b fastest
        b, c = (m for m in range(3) if m != a)
        sel = list(idx)
        sel[a] = range(n)
        mat = matricize(oracle.eval_grid(*(pts[s] for s in sel)), a + 1)
        tol_abs = max(tol * float(np.max(np.abs(mat))), np.finfo(float).tiny)
        res = aca(mat, tol_abs=tol_abs, max_rank=MAX_RANK)
        idx[a], cols = (res.row_indices, res.col_indices) if res.rank else ([0], [0])
        ranks = tuple(len(i) for i in idx)
        if ranks[a] / n > RANK_RATIO_THRESHOLD:
            return None, ranks
        kc, kb = np.divmod(cols, ranks[b])
        coords = np.column_stack((pts[np.take(idx[b], kb)], pts[np.take(idx[c], kc)]))
        fibers[a] = (mat[:, cols], coords)
        if a == 2 and (sweep == 1 or min(ranks) <= 1):
            return fibers, ranks


def phase2_refine(oracle, mode_fibers, tol, final=True):
    """Refine each mode's fiber grid until every column is resolved.

    mode_fibers holds one (values, coords) pair per mode, in mode order,
    as phase1_factors returns it.  A column is resolved once
    chebyshev.is_resolved accepts its coefficients at tol times the
    column's own largest sample, as a univariate interpolant is.  Each
    refinement (n -> 2n-1) keeps the old samples at the even indices.
    Only unresolved columns are sampled at the new odd-index points; a
    resolved column takes its new values from its own Chebyshev
    interpolant.  A mode's grid grows until its last column is resolved
    or the next size would exceed MAX_FINE_SIZE.  Unless final, the first
    mode that reaches that cap ends the refinement: no later mode is
    refined.
    Returns (fine_values, unresolved_modes): fine_values holds each mode's
    refined (n, r) sample matrix, whose row count is its fine grid size,
    or is None if a mode reached the cap and final is false.
    """
    fine = []
    unresolved = []
    for mode, (vals, coords) in enumerate(mode_fibers):
        done = np.zeros(vals.shape[1], dtype=bool)
        while True:
            coeffs = vals_to_coeffs(vals)
            done |= is_resolved(coeffs, tol, np.max(np.abs(vals), axis=0))
            if done.all():
                break
            n = refine_size(vals.shape[0])
            if n > MAX_FINE_SIZE:
                unresolved.append(mode + 1)
                if not final:
                    return None, unresolved
                break
            grown = np.empty((n, done.size))
            grown[0::2] = vals
            grown[1::2, done] = coeffs_to_vals(coeffs[:, done], n)[1::2]
            newpts = cheb_points(n)[1::2]
            todo = ~done
            args = [np.repeat(c, newpts.size) for c in coords[todo].T]
            args.insert(mode, np.tile(newpts, int(todo.sum())))
            grown[1::2, todo] = oracle.eval_points(*args).reshape(-1, newpts.size).T
            vals = grown
        fine.append(vals)
    return fine, unresolved


def phase3_core(oracle, fine_values):
    """QR + DEIM oblique projection and core sampling.

    fine_values holds each mode's refined sample matrix, as phase2_refine
    returns it; its row count is the mode's fine grid size.  Each mode
    gets one ObliqueProjector on the orthonormal basis of its samples:
    the factor is basis @ mixing, whose rows at interp_rows are the
    identity, and the core is f sampled at every mode's interp_rows.

    Returns (approximant_without_stats, mixing_norms).  Raises
    DegenerateInputError if a DEIM interpolation matrix is singular.
    """
    projs = []
    for vals in fine_values:
        q, rmat, _ = scipy.linalg.qr(vals, mode="economic", pivoting=True)
        diag = np.abs(np.diag(rmat))
        keep = max(int(np.sum(diag > 1e-14 * diag.max())), 1)
        projs.append(build_oblique(q[:, :keep]))
    coeffs = tuple(vals_to_coeffs(p.basis @ p.mixing) for p in projs)
    grids = (cheb_points(v.shape[0])[p.interp_rows] for v, p in zip(fine_values, projs))
    core = oracle.eval_grid(*grids)
    return TuckerApproximant(core=core, coeffs=coeffs), [p.mixing_norm for p in projs]


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
    Every attempt but the last stops at the first fiber phase 2 cannot
    resolve within MAX_FINE_SIZE.  The returned approximant is, among the
    attempts that ran to the end, the one with the lowest Halton error,
    and carries construction stats; its 'certified' flag says whether it
    passed the Halton check with every mode resolved.
    """
    tol = (config if config is not None else ConstructorConfig()).tol
    oracle = InstrumentedOracle(f, vectorized=vectorized)
    draws = itertools.count(1)

    n, guesses = COARSE_SIZE, RANK_GUESSES  # the next grid and its first rank guesses
    best = None  # (err, approx, coarse size, unresolved, mixing_norms)
    restarts = -1  # attempts less one, stopped ones included; a condemned grid is no attempt
    while restarts < MAX_RESTARTS:
        oracle.phase = "phase1"
        size, first = n, [_spread(n, g, next(draws)) for g in guesses]
        mode_fibers, ranks = phase1_factors(oracle, tol, size, first)
        n, guesses = grow_size(size), _modified_guesses(ranks)
        if mode_fibers is None:
            continue  # a rank condemned the grid: no attempt
        restarts += 1
        oracle.phase = "phase2"
        fine_values, unresolved = phase2_refine(oracle, mode_fibers, tol, restarts == MAX_RESTARTS)
        if fine_values is None:
            continue  # a fiber reached MAX_FINE_SIZE and a later attempt remains
        oracle.phase = "phase3_core"
        try:
            approx, mixing_norms = phase3_core(oracle, fine_values)
        except DegenerateInputError:
            continue  # this attempt has no approximant; the next one grows the grid
        oracle.phase = "verify"
        pts = halton_points(HALTON_COUNT)
        fvals = oracle.eval_points(pts[:, 0], pts[:, 1], pts[:, 2])
        err = float(np.max(np.abs(fvals - approx.evaluate_many(pts))))
        if best is None or err < best[0]:
            best = (err, approx, size, unresolved, mixing_norms)
        if _accepted(err, tol, oracle.vscale):
            break

    if best is None:
        raise DegenerateInputError(
            "no construction attempt finished: each failed in phase 3 or stopped at MAX_FINE_SIZE"
        )
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
        # judged at the final vscale, which later attempts may have raised; never if a mode is unresolved
        "certified": _accepted(err, tol, oracle.vscale) and not unresolved,
        "unresolved_modes": unresolved,
        "mixing_norms": mixing_norms,
        "evals": {p: {"total": t, "distinct": d} for p, (t, d) in oracle.counts.items()},
        "total_calls": oracle.total_calls,
        "distinct_points": oracle.distinct_points,
    }
    return approx
