"""Index-selection kernels: full-pivot ACA, DEIM by partial-pivot LU, and oblique projectors."""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


class DegenerateInputError(RuntimeError):
    """Raised when a selection step meets a numerically singular input."""


@dataclass
class AcaResult:
    """Row/column index sets of a cross approximation M ~ M(:,J) M(I,J)^-1 M(I,:)."""

    row_indices: list
    col_indices: list
    pivot_magnitudes: list = field(default_factory=list)

    @property
    def rank(self):
        return len(self.row_indices)


def aca(m, tol_abs, max_rank=None):
    """Adaptive cross approximation with full pivoting.

    Greedily picks the entry of largest residual magnitude, records its
    row and column, and subtracts the rank-1 cross, which multiplies no
    two entries, so the ranks do not depend on the scale of m.  Stops
    once the residual maximum drops below tol_abs (> 0, so a zero pivot
    stops too) or the rank cap is hit.  Ties go to the first maximum in
    column-major scan order.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("aca expects a matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("aca requires finite entries")
    if not (np.isfinite(tol_abs) and tol_abs > 0):
        raise ValueError("tol_abs must be positive and finite")
    nrows, ncols = m.shape
    cap = min(nrows, ncols)
    if max_rank is not None:
        cap = min(cap, max_rank)

    # the residual is held transposed, so its C order is m's column-major
    # scan order; scratch takes each step's |residual| and rank-1 cross
    residual = np.array(m.T, order="C")
    scratch = np.empty_like(residual)
    result = AcaResult(row_indices=[], col_indices=[])
    while result.rank < cap:
        j, i = divmod(int(np.argmax(np.abs(residual, out=scratch))), nrows)
        pivot = residual[j, i]
        if abs(pivot) < tol_abs:
            break
        result.row_indices.append(i)
        result.col_indices.append(j)
        result.pivot_magnitudes.append(abs(pivot))
        np.multiply.outer(residual[:, i], residual[j, :] / pivot, out=scratch)
        residual -= scratch
    return result


def deim(q):
    """Discrete empirical interpolation indices for an orthonormal basis.

    Returns r distinct row indices such that q[I, :] is invertible;
    index k is the argmax of the k-th column's interpolation residual,
    which makes them the pivot rows of q's LU with partial pivoting.
    An exact tie goes to the first row in LAPACK's current row order.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2:
        raise ValueError("deim expects a matrix")
    n, r = q.shape
    if r > n:
        raise ValueError(f"more columns ({r}) than rows ({n})")
    gram = q.T @ q
    if np.max(np.abs(gram - np.eye(r))) > 1e-8:
        import warnings

        warnings.warn("deim input columns are not orthonormal", stacklevel=2)

    perm, _, upper = scipy.linalg.lu(q, p_indices=True)
    zero = np.flatnonzero(np.diag(upper) == 0.0)
    if zero.size:
        raise DegenerateInputError(f"zero residual at deim step {zero[0]}")
    return np.argsort(perm)[:r].tolist()


@dataclass
class ObliqueProjector:
    """Oblique projector Q (Q[I,:])^-1 restricted-row interpolation operator."""

    basis: np.ndarray
    interp_rows: list
    mixing: np.ndarray
    mixing_norm: float

    def apply(self, x):
        """Project x: interpolate its values at rows I in span(basis)."""
        x = np.asarray(x)
        return self.basis @ (self.mixing @ x[self.interp_rows])


def build_oblique(q):
    """Run DEIM on q and assemble the stabilized oblique projector.

    The mixing matrix inv(q[I,:]) is obtained from a pivoted LU solve and
    its 2-norm is recorded for diagnostics.
    """
    q = np.asarray(q, dtype=float)
    rows = deim(q)
    sub = q[rows, :]
    r = sub.shape[0]
    lu, piv = scipy.linalg.lu_factor(sub)
    if np.min(np.abs(np.diag(lu))) <= np.finfo(float).eps * np.max(np.abs(sub)) * r:
        raise DegenerateInputError("deim interpolation matrix is numerically singular")
    mixing = scipy.linalg.lu_solve((lu, piv), np.eye(r))
    norm2 = float(np.linalg.svd(mixing, compute_uv=False)[0])
    return ObliqueProjector(basis=q, interp_rows=rows, mixing=mixing, mixing_norm=norm2)
