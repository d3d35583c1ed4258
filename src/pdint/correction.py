"""Positivity-restoring correction primitives.

The corrector turns a possibly-negative predicted solution into a
nonnegative, invariant-preserving one by clipping negative entries,
re-weighting the columns of the averaged system matrix with nonnegative
ratio scalings, and solving the resulting M-matrix linear system.

Everything here is a pure function; concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import identity_minus, issparse, lu_solve


class CorrectionMode(str, Enum):
    """Which part of a step gets the positivity correction."""

    NONE = "none"
    FINAL = "final"
    ALL = "all"


@dataclass
class CorrectionDiagnostics:
    """Per-step record of what the correction actually did."""

    clip_count: int = 0
    max_negative_clipped: float = 0.0
    scaling_active: bool = False

    def absorb_negatives(self, v: np.ndarray) -> int:
        """Record the negative entries of ``v``, which a clip zeroes; returns their number."""
        neg = v < 0.0
        n = int(np.count_nonzero(neg))
        if n:
            self.clip_count += n
            self.max_negative_clipped = max(
                self.max_negative_clipped, float(-v[neg].min())
            )
        return n


def clip(v: np.ndarray) -> np.ndarray:
    """Zero out the negative entries of a vector."""
    return np.maximum(np.asarray(v, dtype=float), 0.0)


def ratio_scaling(numer: np.ndarray, denom: np.ndarray, eps: float) -> np.ndarray:
    """Diagonal of the ratio scaling matrix, max(numer, 0)/max(denom, eps).

    Returned as a 1-D array of the diagonal entries; all are nonnegative.
    """
    numer = np.asarray(numer, dtype=float)
    denom = np.asarray(denom, dtype=float)
    if numer.shape != denom.shape:
        raise ValueError(f"dimension mismatch: {numer.shape} vs {denom.shape}")
    if not eps > 0.0:  # NaN fails too
        raise ValueError("eps must be positive")
    return np.maximum(numer, 0.0) / np.maximum(denom, eps)


def averaged_g_final(weights, g_list, sigma_list):
    """Weighted sum of column-scaled matrices, sum_j w_j * G_j @ diag(sigma_j).

    Sparse matrices (``scipy.sparse``, any format) give a new CSC sum with
    the same entries: each term is a CSC copy of G_j whose stored values are
    scaled by sigma_j of their column and by w_j, and the terms are added
    with ``+`` in the order given, which drops the sums that come out zero.
    """
    if not (len(weights) == len(g_list) == len(sigma_list)):
        raise ValueError("weights, matrices and scalings must have equal length")
    d = g_list[0].shape[0]
    if any(g.shape != (d, d) or sig.shape != (d,) for g, sig in zip(g_list, sigma_list)):
        raise ValueError("inconsistent dimensions in averaged matrix")
    if issparse(g_list[0]):
        out = None
        for w, g, sig in zip(weights, g_list, sigma_list):
            term = g.tocsc().astype(float)  # a copy: shares no array with g, even alone
            term.data *= np.repeat(sig, np.diff(term.indptr))  # sigma of each entry's column
            term.data *= w
            out = term if out is None else out + term
        return out
    out = np.multiply(g_list[0], sigma_list[0], dtype=float)  # sigma scales the columns
    out *= weights[0]
    out += 0.0  # the zero signs of a sum started from zeros: -0.0 becomes 0.0
    for w, g, sig in zip(weights[1:], g_list[1:], sigma_list[1:]):
        term = np.multiply(g, sig, dtype=float)
        term *= w
        out += term
    return out


def stage_corrected_g(a_row, g_prior, sigma_prior, g_diag) -> np.ndarray:
    """Averaged matrix for one corrected stage.

    Prior-stage matrices are column-scaled toward the current predicted
    stage; the diagonal term comes first and enters unscaled because its
    argument is the clipped predicted stage itself.
    """
    i = len(a_row) - 1
    if len(g_prior) != i or len(sigma_prior) != i:
        raise ValueError("prior lists must have length len(a_row) - 1")
    g_diag = np.asarray(g_diag, dtype=float)
    return averaged_g_final(
        [a_row[i], *a_row[:i]], [g_diag, *g_prior], [np.ones(len(g_diag)), *sigma_prior]
    )


def corrector_solve(y_n: np.ndarray, h: float, g_bar: np.ndarray) -> np.ndarray:
    """Solve (I - h*G_bar) y = y_n.

    When ``g_bar`` is a graph Laplacian with a stable spectrum the system
    matrix is an M-matrix, so the solution is nonnegative and every left
    kernel vector of ``g_bar`` is conserved exactly.
    """
    y_n = np.asarray(y_n, dtype=float)
    d = y_n.shape[0]
    if g_bar.shape != (d, d):
        raise ValueError(f"dimension mismatch: {g_bar.shape} vs vector of size {d}")
    return lu_solve(identity_minus(h, g_bar), y_n)


def h_form_corrector(
    y_n: np.ndarray,
    h: float,
    weights,
    h_list,
    y_pred: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Corrector for systems whose right-hand side is H(y) @ 1.

    The all-ones multiplicand is rewritten as a column scaling against the
    predicted solution, after which the usual M-matrix solve applies.  The
    zero column sums of each H keep total mass conserved.
    """
    ones = np.ones_like(np.asarray(y_pred, dtype=float))
    sigma = ratio_scaling(ones, y_pred, eps)
    h_bar = averaged_g_final(weights, h_list, [sigma] * len(h_list))
    return corrector_solve(y_n, h, h_bar)
