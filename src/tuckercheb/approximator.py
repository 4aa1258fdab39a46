"""Three-phase fiber-based constructor for functional Tucker approximants.

Phase 1 alternates cross approximation over lazily sampled coarse-grid
subtensors to pick fiber indices and factor matrices.  Phase 2 refines
each factor's Chebyshev grid (2n-1 nesting) until every column's
coefficient tail is resolved; only unresolved columns are sampled, and
resolved ones are extended by their own interpolant.  Phase 3
orthonormalizes the factors, picks interpolation rows by DEIM, samples
the r1*r2*r3 core entries, and verifies the result at Halton points,
restarting on coarser-than-needed grids.

The fixed choices of the method are module constants: a 17^3 initial
coarse grid (COARSE_DIMS), initial rank guesses of 6 per mode
(RANK_GUESSES), coarse-grid growth when a rank exceeds 1/(2*sqrt(2)) of
its grid size (RANK_RATIO_THRESHOLD), 30 Halton verification points
(HALTON_COUNT) and acceptance at 10*tol*vscale (ACCEPTANCE_FACTOR).
"""

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

COARSE_DIMS = (17, 17, 17)
RANK_GUESSES = (6, 6, 6)
RANK_RATIO_THRESHOLD = 1.0 / (2.0 * math.sqrt(2.0))
HALTON_COUNT = 30
ACCEPTANCE_FACTOR = 10.0
MAX_COARSE_SIZE = 2000
MAX_RANK = 512


@dataclass
class ConstructorConfig:
    tol: float = 1e-12
    seed: int = 0
    max_restarts: int = 5
    max_fine_size: int = 2**14 + 1

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_restarts < 0:
            raise ValueError("bad sampling configuration")


@dataclass
class ModeFibers:
    """Fiber samples for one mode: values[:, c] is f along the mode axis
    with the other two coordinates fixed at coords[c] = (a, b)."""

    mode: int
    values: np.ndarray
    coords: list


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
        """Evaluate at an (m, 3) array of points, returning shape (m,)."""
        pts = np.asarray(pts, dtype=float)
        u, v, w = (np.atleast_2d(eval_series(a, pts[:, k])) for k, a in enumerate(self.coeffs))
        return np.einsum("ijk,im,jm,km->m", self.core, u, v, w)


def _radical_inverse(i, base):
    f = 1.0
    r = 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def halton_points(count, offset=0):
    """Halton sequence in bases (2, 3, 5), mapped from (0,1) to (-1,1)."""
    if count < 1:
        raise ValueError("count must be positive")
    pts = np.empty((count, 3))
    for row in range(count):
        idx = offset + 1 + row
        for d, b in enumerate((2, 3, 5)):
            pts[row, d] = 2.0 * _radical_inverse(idx, b) - 1.0
    return pts


def grow_size(n):
    """Coarse-grid growth rule: floor(sqrt(2)^floor(2*log2(n)+1)) + 1."""
    return int(math.floor(math.sqrt(2.0) ** math.floor(2.0 * math.log2(n) + 1.0))) + 1


def _aca_on_matrix(m, tol_rel):
    """ACA with tolerance relative to the initial residual maximum.

    Falls back to a single first-row/first-column cross if the sampled
    matrix is identically zero, so downstream machinery always has at
    least one fiber to work with.
    """
    m0 = float(np.max(np.abs(m))) if m.size else 0.0
    if m0 == 0.0:
        return [0], [0]
    res = aca(m, tol_abs=tol_rel * m0, max_rank=MAX_RANK)
    if res.rank == 0:
        return [0], [0]
    return res.row_indices, res.col_indices


def _col_coords(cols, a_indices, a_points, b_indices, b_points):
    """Map unfolding column numbers back to fixed coordinate pairs."""
    na = len(a_indices)
    out = []
    for c in cols:
        a = a_indices[c % na]
        b = b_indices[c // na]
        out.append((a_points[a], b_points[b]))
    return out


def phase1_factors(oracle, cfg, dims, guesses, rng):
    """Alternating fiber selection (two sweeps) on the coarse grid.

    Returns (mode_fibers, dims, ranks), or None when the function is
    numerically zero on the initial probe.
    """
    dims = tuple(dims)
    guesses = tuple(guesses)
    first_probe = True
    while True:
        pts = [cheb_points(n) for n in dims]
        idx = [[]] + [
            list(rng.choice(n, size=min(g, n), replace=False)) for n, g in zip(dims[1:], guesses[1:])
        ]
        grown = False
        fibers = [None, None, None]
        for _ in range(2):
            for a in range(3):
                # the unfolding's columns run over the other modes b < c, b fastest
                b, c = (m for m in range(3) if m != a)
                sel = list(idx)
                sel[a] = range(dims[a])
                mat = matricize(subtensor(oracle, dims, *sel), a + 1)
                if first_probe:
                    first_probe = False
                    if oracle.vscale == 0.0:
                        return None
                idx[a], cols = _aca_on_matrix(mat, cfg.tol)
                coords = _col_coords(cols, idx[b], pts[b], idx[c], pts[c])
                fibers[a] = ModeFibers(a + 1, mat[:, cols], coords)

            ranks = tuple(len(i) for i in idx)
            if any(r / n > RANK_RATIO_THRESHOLD for r, n in zip(ranks, dims)):
                new_dims = tuple(min(grow_size(n), MAX_COARSE_SIZE) for n in dims)
                if new_dims != dims:
                    dims = new_dims
                    guesses = tuple(max(r, 1) for r in ranks)
                    grown = True
                    break
            if min(ranks) <= 1:
                break
        if grown:
            continue
        return fibers, dims, ranks


def phase2_refine(oracle, mode_fibers, cfg):
    """Refine each mode's fiber grid until every column is resolved.

    A column is resolved once chebyshev.is_resolved accepts its
    coefficients.  Each refinement (n -> 2n-1) keeps the old samples at
    the even indices.  Only unresolved columns are sampled at the new
    odd-index points; a resolved column takes its new values from its own
    Chebyshev interpolant.  A mode's grid grows until its last column is
    resolved or the next size would exceed cfg.max_fine_size.
    Returns (fine_fibers, fine_dims, unresolved_modes).
    """
    fine = []
    fine_dims = []
    unresolved = []
    for mf in mode_fibers:
        vals = mf.values
        n, r = vals.shape
        a = np.array([c[0] for c in mf.coords])
        b = np.array([c[1] for c in mf.coords])
        done = np.zeros(r, dtype=bool)
        while True:
            coeffs = vals_to_coeffs(vals)
            done |= [is_resolved(coeffs[:, c], cfg.tol, oracle.vscale) for c in range(r)]
            if done.all():
                break
            if refine_size(n) > cfg.max_fine_size:
                unresolved.append(mf.mode)
                break
            n_new = refine_size(n)
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

    Returns (approximant_without_stats, diagnostics dict).  Raises
    DegenerateInputError if a DEIM interpolation matrix is singular.
    """
    factor_coeffs = []
    deim_rows = []
    mixing_norms = []
    for mf in fine_fibers:
        q, rmat, _ = scipy.linalg.qr(mf.values, mode="economic", pivoting=True)
        diag = np.abs(np.diag(rmat))
        dmax = diag.max() if diag.size else 0.0
        keep = int(np.sum(diag > 1e-14 * dmax)) if dmax > 0 else 0
        keep = max(keep, 1)
        q = q[:, :keep]
        proj = build_oblique(q)
        factor = q @ proj.mixing  # rows at proj.interp_rows are the identity
        factor_coeffs.append(vals_to_coeffs(factor))
        deim_rows.append(proj.interp_rows)
        mixing_norms.append(proj.mixing_norm)
    core = subtensor(oracle, fine_dims, *deim_rows)
    approx = TuckerApproximant(core=core, coeffs=tuple(factor_coeffs))
    diag = {"deim_rows": deim_rows, "mixing_norms": mixing_norms}
    return approx, diag


def _modified_guesses(ranks):
    # collapsed modes restart small; the rest get room to grow
    return tuple(
        3 if r <= 2 else min(max(6, 2 * r), MAX_RANK) for r in ranks
    )


def _eval_stats(oracle):
    phases = {}
    for name, (total, distinct) in oracle.counts.items():
        phases[name] = {"total": total, "distinct": distinct}
    return phases


def build(f, config=None, vectorized=True):
    """Construct a TuckerApproximant for f on [-1,1]^3.

    f may be any callable of three floats (or arrays, if vectorized).
    The returned approximant carries construction stats; see the
    'certified' flag for whether the Halton accuracy check passed.
    """
    cfg = config if config is not None else ConstructorConfig()
    oracle = InstrumentedOracle(f, vectorized=vectorized)
    rng = np.random.default_rng(cfg.seed)

    dims = COARSE_DIMS
    guesses = RANK_GUESSES
    restarts = 0
    best = None  # (err, approx, detail)

    while True:
        oracle.set_phase("phase1")
        p1 = phase1_factors(oracle, cfg, dims, guesses, rng)
        if p1 is None:
            zero = TuckerApproximant(core=np.zeros((1, 1, 1)), coeffs=(np.zeros((1, 1)),) * 3)
            detail = {"coarse_dims": list(dims), "unresolved": [], "mixing_norms": [1.0] * 3}
            best = (0.0, zero, detail)
            break
        mode_fibers, dims, ranks = p1

        oracle.set_phase("phase2")
        fine_fibers, fine_dims, unresolved = phase2_refine(oracle, mode_fibers, cfg)

        err = math.inf
        approx = None
        detail = None
        try:
            oracle.set_phase("phase3_core")
            approx, diag = phase3_core(oracle, fine_fibers, fine_dims)
            oracle.set_phase("verify")
            pts = halton_points(HALTON_COUNT)
            fvals = oracle.eval_points(pts[:, 0], pts[:, 1], pts[:, 2])
            err = float(np.max(np.abs(fvals - approx.evaluate_many(pts))))
            detail = {
                "coarse_dims": list(dims),
                "unresolved": list(unresolved),
                "mixing_norms": diag["mixing_norms"],
            }
        except DegenerateInputError:
            pass

        if approx is not None and (best is None or err < best[0]):
            best = (err, approx, detail)

        certified = (
            approx is not None
            and err <= ACCEPTANCE_FACTOR * cfg.tol * oracle.vscale
        )
        if certified or restarts >= cfg.max_restarts:
            break
        restarts += 1
        guesses = _modified_guesses(ranks)
        dims = tuple(min(grow_size(n), MAX_COARSE_SIZE) for n in dims)

    if best is None:
        raise DegenerateInputError("every construction attempt failed in phase 3")
    err, approx, detail = best
    approx.stats = {
        "schema_version": 1,
        "tol": cfg.tol,
        "seed": cfg.seed,
        "ranks": list(approx.ranks),
        "degrees": list(approx.degrees),
        "coarse_dims": detail["coarse_dims"],
        "restarts": restarts,
        "vscale": oracle.vscale,
        "halton_error": err,
        "certified": bool(err <= ACCEPTANCE_FACTOR * cfg.tol * oracle.vscale),
        "unresolved_modes": detail["unresolved"],
        "mixing_norms": detail["mixing_norms"],
        "evals": _eval_stats(oracle),
        "total_calls": oracle.total_calls,
        "distinct_points": oracle.distinct_points,
    }
    return approx
