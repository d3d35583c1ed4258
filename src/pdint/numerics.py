"""Dense linear-algebra kernel: LU solves, weighted norms, log-log slope fits.

All functions are pure and hold no state, so they are safe to call
concurrently.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgesv

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


def lu_solve(a: np.ndarray, b: np.ndarray, overwrite_a: bool = False) -> np.ndarray:
    """Solve ``a @ x = b`` by LU factorization with partial pivoting.

    With ``overwrite_a`` a Fortran-ordered float ``a`` is factored in
    place, which saves a copy of it; the caller must not read ``a`` again.

    Raises
    ------
    SingularMatrixError
        If any pivot magnitude falls below :data:`PIVOT_TOL`.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    # one LAPACK call factors and solves; an exactly zero pivot only sets
    # info > 0, and the check below turns every near-singular
    # factorization into a hard error
    lu, _piv, x, info = dgesv(a, b, overwrite_a=overwrite_a)
    if info < 0:
        raise ValueError(f"dgesv: illegal value in argument {-info}")
    if np.abs(np.diagonal(lu)).min() < PIVOT_TOL:
        raise SingularMatrixError("singular matrix: pivot below 1e-300")
    return x


def identity_minus(c: float, m: np.ndarray) -> np.ndarray:
    """Return ``I - c*m`` as one new array.

    Equal, entry for entry, to ``np.eye(d) - c*m`` (up to the sign of zero
    entries), without building the identity or a scaled copy of ``m``: at
    large d each of those is a full d x d temporary.  The result is
    Fortran-ordered, so :func:`lu_solve` can factor it in place.
    """
    a = np.multiply(m, -c, order="F")
    a.flat[:: a.shape[0] + 1] += 1.0
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
    if (atol.min() if isinstance(atol, np.ndarray) else atol) <= 0.0:
        raise ValueError("atol must be positive")
    if rtol < 0.0:
        raise ValueError("rtol must be nonnegative")
    w = atol + rtol * np.abs(y_ref)
    return float(np.sqrt(np.mean((delta / w) ** 2)))


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
