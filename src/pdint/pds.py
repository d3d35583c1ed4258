"""Graph-Laplacian and H-form production-destruction model abstractions.

A graph-Laplacian system is y' = G(t, y) y where G has nonpositive
diagonal entries, nonnegative off-diagonal entries (at least on the
nonnegative orthant) and declared left kernel vectors encoding linear
conservation laws.  The H-form variant is y' = H(y) 1 with H built from
pairwise destruction rates, which forces zero column sums.

Both model kinds share one protocol: ``matrix(t, y)`` returns G or H, as
a dense array or a ``scipy.sparse`` CSC matrix, ``multiplicand(y)``
returns the vector it multiplies (the state, or all ones), and the class
attribute ``multiplicand_is_state`` tells the two kinds apart wherever
the solver must.  An H-form model's optional ``jac_sparsity`` declares
which entries of the rhs Jacobian can be nonzero, as ``solve_ivp``'s
argument of that name does; the finite-difference Jacobian is then a CSC
matrix on that pattern.  A graph-Laplacian model's is always None.

Models are immutable and their evaluation callbacks must be pure, so a
model may be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from .numerics import issparse

KERNEL_RTOL = 1e-10  # exactness threshold for declared invariants, relative to |G|


@dataclass(frozen=True)
class LinearInvariant:
    """Weight vector of a conserved linear functional w @ y."""

    w: np.ndarray
    exact: bool
    label: str = ""


@dataclass(frozen=True)
class GraphLaplacianModel:
    multiplicand_is_state: ClassVar[bool] = True
    jac_sparsity: ClassVar = None  # the rhs Jacobian is always built dense

    dim: int
    eval_G: Callable[[float, np.ndarray], np.ndarray]
    invariants: tuple[LinearInvariant, ...] = ()
    label: str = ""
    y0: np.ndarray | None = None
    t0: float = 0.0
    y_scale: float | np.ndarray = 1.0

    def matrix(self, t: float, y: np.ndarray) -> np.ndarray:
        return self.eval_G(t, y)

    def multiplicand(self, y: np.ndarray) -> np.ndarray:
        return y


@dataclass(frozen=True)
class HFormModel:
    multiplicand_is_state: ClassVar[bool] = False

    dim: int
    eval_H: Callable[[np.ndarray], np.ndarray]
    invariants: tuple[LinearInvariant, ...] = ()
    label: str = ""
    y0: np.ndarray | None = None
    t0: float = 0.0
    y_scale: float | np.ndarray = 1.0
    # optional fast path returning H(y) @ 1 without assembling H
    eval_rhs: Callable[[np.ndarray], np.ndarray] | None = None
    # optional pattern of the rhs Jacobian; None builds it dense
    jac_sparsity: object = None

    def matrix(self, t: float, y: np.ndarray) -> np.ndarray:
        return self.eval_H(y)

    def multiplicand(self, y: np.ndarray) -> np.ndarray:
        return np.ones(self.dim)


def eval_rhs(model, t: float, y: np.ndarray) -> np.ndarray:
    """Right-hand side f(t, y) = matrix(t, y) @ multiplicand(y)."""
    return eval_slope(model, t, y)[0]


def eval_slope(model, t: float, y: np.ndarray):
    """``(f, m)``: the right-hand side f(t, y) and the matrix m that gave it.

    ``m`` is None when an H-form model's ``eval_rhs`` fast path gives f
    without assembling the matrix.
    """
    if not model.multiplicand_is_state and model.eval_rhs is not None:
        return model.eval_rhs(y), None
    m = model.matrix(t, y)
    return m @ model.multiplicand(y), m


@dataclass
class StructureReport:
    """Outcome of structural checks; empty lists mean all checks passed."""

    sign_violations: list = field(default_factory=list)
    kernel_residuals: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.sign_violations and not self.kernel_residuals


def _dense(m) -> np.ndarray:
    """``m`` as a float array; the checks below are off the hot path, so they densify."""
    return np.asarray(m.toarray() if issparse(m) else m, dtype=float)


def validate_sign_structure(m, tol: float) -> StructureReport:
    """Report diagonal entries above tol, off-diagonal ones below -tol, and NaN entries."""
    m = _dense(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not tol >= 0.0:
        raise ValueError("tol must be nonnegative")
    report = StructureReport()
    d = m.shape[0]
    for i in range(d):
        if not m[i, i] <= tol:
            report.sign_violations.append((i, i, float(m[i, i])))
    off = m.copy()
    np.fill_diagonal(off, 0.0)
    for i, j in zip(*np.nonzero(~(off >= -tol))):
        report.sign_violations.append((int(i), int(j), float(m[i, j])))
    return report


def validate_left_kernel(m, w: np.ndarray) -> float:
    """Max-norm residual of w @ m; zero means w is a left kernel vector."""
    m = _dense(m)
    w = np.asarray(w, dtype=float)
    if w.shape[0] != m.shape[0]:
        raise ValueError(f"dimension mismatch: {m.shape} vs {w.shape}")
    return float(np.max(np.abs(w @ m)))


def assemble_g_from_rates(rates):
    """Build G = L^T - diag(L @ 1) from a nonnegative transition-rate matrix L.

    Column sums of the result vanish by construction and the sign pattern
    (nonpositive diagonal, nonnegative off-diagonal) holds.  An H-form
    model's destruction matrix D gives H = D^T - diag(D @ 1) the same way.
    A ``scipy.sparse`` L gives G as a CSC matrix.
    """
    is_sparse = issparse(rates)
    if not is_sparse:
        rates = np.asarray(rates, dtype=float)
    if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
        raise ValueError("rate matrix must be square")
    if np.any((rates.data if is_sparse else rates) < 0.0):
        raise ValueError("transition rates must be nonnegative")
    if is_sparse:
        from scipy import sparse

        return (rates.T - sparse.diags_array(rates @ np.ones(rates.shape[0]))).tocsc()
    g = rates.T.copy()
    g.flat[:: g.shape[0] + 1] -= rates.sum(axis=1)
    return g


assemble_h_from_destruction = assemble_g_from_rates


def invariant_error(trajectory, w: np.ndarray) -> float:
    """Maximum relative deviation of w @ y(t) from its initial value.

    ``trajectory`` may be anything exposing a ``states`` array of shape
    (n, d), or the array itself.
    """
    states = np.asarray(getattr(trajectory, "states", trajectory), dtype=float)
    if states.size == 0:
        raise ValueError("trajectory is empty")
    w = np.asarray(w, dtype=float)
    values = states @ w
    i0 = values[0]
    if i0 == 0.0:
        raise ValueError("initial invariant value is zero")
    return float(np.max(np.abs(values - i0)) / abs(i0))


def sample_states(model, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Random nonnegative states, component-wise uniform on [0, y_scale]."""
    scale = np.broadcast_to(np.asarray(model.y_scale, dtype=float), (model.dim,))
    return rng.uniform(0.0, 1.0, size=(n_samples, model.dim)) * scale


def validate_model(
    model,
    n_samples: int = 100,
    rng: np.random.Generator | None = None,
    sign_tol: float = 0.0,
    t_span: tuple[float, float] | None = None,
) -> StructureReport:
    """Check sign structure and declared exact invariants; NaN entries fail both."""
    rng = rng or np.random.default_rng(0)
    states = sample_states(model, n_samples, rng)
    if t_span is None:
        t_span = (model.t0, model.t0 + 1.0)
    times = rng.uniform(t_span[0], t_span[1], size=n_samples)
    report = StructureReport()
    for t, y in zip(times, states):
        m = _dense(model.matrix(t, y))
        norm = np.max(np.abs(m))
        norm = norm if 1e-300 < norm < np.inf else 1e-300  # also for a NaN or Inf entry
        sub = validate_sign_structure(m, sign_tol * norm)
        report.sign_violations.extend(sub.sign_violations)
        for k, inv in enumerate(model.invariants):
            if not inv.exact:
                continue
            resid = validate_left_kernel(m, inv.w)
            bound = KERNEL_RTOL * norm * np.max(np.abs(inv.w))
            if not resid <= bound:
                report.kernel_residuals.append((k, float(resid)))
    return report
