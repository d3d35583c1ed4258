"""Linear-algebra kernel: LU solves, weighted norms, log-log slope fits.

Matrices are dense arrays or ``scipy.sparse`` matrices; a sparse matrix
is factored by SuperLU (``scipy.sparse.linalg.splu``) under the same
pivot test as a dense one.  All functions are pure and hold no state, so
they are safe to call concurrently.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

# A pivot below this magnitude is treated as an exact singularity.  The
# threshold sits near the underflow limit on purpose: the matrices solved
# here are M-matrices whose well-posedness is structural, while their raw
# entries can span many orders of magnitude (stratospheric rates cover
# roughly 1e-17 to 1e16), so a relative test could reject valid systems.
PIVOT_TOL = 1e-300


class SingularMatrixError(ValueError):
    """Raised when an LU pivot falls below :data:`PIVOT_TOL`."""


def vector(entries) -> np.ndarray:
    """Build a 1-D float array, rejecting NaN/Inf entries."""
    v = np.atleast_1d(np.asarray(entries, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def issparse(a) -> bool:
    """Whether ``a`` is a ``scipy.sparse`` matrix, without importing ``scipy.sparse``.

    No sparse matrix can exist before that module is loaded, so dense-only
    runs never pay for its import.
    """
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(a)


def _check_pivots(lu, info: int) -> None:
    """Pivot test on the diagonal of ``lu``: LAPACK's combined factors or SuperLU's U."""
    # info > 0 flags an exactly zero pivot, which the pivot test also catches
    if info < 0:
        raise ValueError(f"LAPACK: illegal value in argument {-info}")
    diag = lu.diagonal()
    # min over Python floats skips numpy's per-call cost; a NaN pivot passes,
    # as it passes ``np.abs(diag).min() < PIVOT_TOL``
    if min(map(abs, diag.tolist())) < PIVOT_TOL and not np.isnan(diag).any():
        raise SingularMatrixError("singular matrix: pivot below 1e-300")


def _splu(a):
    """SuperLU factors of a square sparse ``a``, under the dense pivot test."""
    from scipy.sparse.linalg import splu  # imported on first use: dense runs never need it

    a = a.tocsc()
    if not a.has_canonical_format:  # splu sorts and sums its argument in place: hand it a copy
        a = a.copy()
    try:
        lu = splu(a)
    except RuntimeError as exc:
        if "singular" not in str(exc):  # e.g. out of memory: not a singular matrix
            raise
        raise SingularMatrixError(f"singular matrix: {exc}") from None
    _check_pivots(lu.U, 0)
    return lu


def lu_solve(a, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` once: :func:`lu_back_solve` on :func:`lu_factor`'s factors of ``a``."""
    return lu_back_solve(lu_factor(a), b)


def lu_factor(a):
    """Factor a square ``a`` by LU with partial pivoting, for :func:`lu_back_solve`.

    The factors are ``(lu, piv)`` from LAPACK's ``dgetrf`` for a dense
    ``a`` and a SuperLU object for a ``scipy.sparse`` one; ``a`` is left
    unchanged.  Raises :class:`SingularMatrixError` if a pivot magnitude
    falls below :data:`PIVOT_TOL`.
    """
    if not isinstance(a, np.ndarray) and issparse(a):
        return _splu(a)
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    lu, piv, info = dgetrf(a)
    _check_pivots(lu, info)
    return lu, piv


def lu_back_solve(factors, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` from the factors that :func:`lu_factor` gave for ``a``."""
    if not isinstance(factors, tuple):
        return factors.solve(np.asarray(b, dtype=float))  # SuperLU
    x, _info = dgetrs(*factors, b)  # info < 0 cannot occur once dgetrf accepted the matrix
    return x


def identity_minus(c: float, m):
    """Return ``I - c*m`` as one new array.

    Equal, entry for entry, to ``np.eye(d) - c*m`` (up to the sign of zero
    entries), without building the identity or a scaled copy of ``m``: at
    large d each of those is a full d x d temporary.

    A ``scipy.sparse`` ``m``, in any format, gives a new CSC matrix with the
    entries of ``scipy.sparse.eye_array(d) - c*m`` and no stored zeros:
    ``-c*m`` with 1 added on its diagonal, where ``setdiag`` inserts the
    diagonal entries that ``m`` does not store.
    """
    if issparse(m):
        a = (m * -c).tocsc()
        a.setdiag(a.diagonal() + 1.0)
        a.eliminate_zeros()  # as the sparse difference drops zero results
        return a
    a = np.multiply(m, -c)
    a.ravel(order="K")[:: a.shape[0] + 1] += 1.0  # a view: the new array is contiguous
    return a


def wrms_norm(
    delta: np.ndarray, y_ref: np.ndarray, atol: float | np.ndarray, rtol: float
) -> float:
    """Weighted root-mean-square norm of ``delta`` with weights atol + rtol*|y_ref|.

    ``atol`` is a positive scalar or a vector of positive per-component
    tolerances of the same length as ``delta``.
    """
    delta = np.asarray(delta, dtype=float)
    y_ref = np.asarray(y_ref, dtype=float)
    if delta.shape != y_ref.shape:
        raise ValueError(f"dimension mismatch: {delta.shape} vs {y_ref.shape}")
    if isinstance(atol, np.ndarray) and atol.ndim and atol.shape != delta.shape:
        raise ValueError(f"dimension mismatch: atol {atol.shape} vs {delta.shape}")
    if not (atol.min() if isinstance(atol, np.ndarray) else atol) > 0.0:  # NaN fails too
        raise ValueError("atol must be positive")
    if not rtol >= 0.0:
        raise ValueError("rtol must be nonnegative")
    return weighted_rms(delta, y_ref, atol, rtol)


def weighted_rms(delta: np.ndarray, y_ref: np.ndarray, atol, rtol: float) -> float:
    """:func:`wrms_norm` without its argument checks, for callers that already hold valid ones.

    ``delta`` and ``y_ref`` must be float arrays of one shape; the result
    equals :func:`wrms_norm`'s bit for bit.  Below 8 entries it sums over
    Python floats in order, as ``np.add.reduce`` does there (from 8 on,
    numpy keeps 8 partial sums), without numpy's per-call cost.
    """
    n = delta.size
    if 0 < n < 8:
        ats = atol.ravel().tolist() if isinstance(atol, np.ndarray) else [float(atol)]
        if len(ats) == 1:
            ats *= n
        acc = 0.0
        # an explicit loop: from Python 3.12, sum() of floats is compensated
        for d, y, a in zip(delta.ravel().tolist(), y_ref.ravel().tolist(), ats):
            q = d / (a + rtol * abs(y))
            acc += q * q
        return math.sqrt(acc / n)
    v = np.abs(y_ref)  # the weights atol + rtol*|y_ref|, formed in place
    v *= rtol
    v += atol
    v = delta / v
    v *= v
    return math.sqrt(np.add.reduce(v) / v.size)


def fit_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs).

    Both sequences must be positive; at least two points are required.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        raise ValueError("need at least two points")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("log-log fit requires positive data")
    lx = np.log(xs)
    if np.ptp(lx) == 0.0:
        raise ValueError("degenerate fit: all x values identical")
    slope, _ = np.polyfit(lx, np.log(ys), 1)
    return float(slope)
