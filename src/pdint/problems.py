"""Benchmark production-destruction models.

Four systems with very different character: the stiff three-species
Robertson network, a six-species MAPK signalling cascade, a diurnally
forced stratospheric photochemistry box model, and a conservative
finite-volume discretization of the KdV equation in H-form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .pds import GraphLaplacianModel, HFormModel, LinearInvariant


def robertson() -> GraphLaplacianModel:
    """Stiff three-species reaction network, rates 0.04 / 1e4 / 3e7."""

    def eval_G(t, y):
        _, y2, y3 = y.tolist()  # Python floats: cheaper scalar arithmetic, same results
        return np.fromiter((
            -0.04, 1e4 * y3, 0.0,
            0.04, -3e7 * y2 - 1e4 * y3, 0.0,
            0.0, 3e7 * y2, 0.0,
        ), float, 9).reshape(3, 3)  # a flat tuple of known length: cheaper than nested rows

    return GraphLaplacianModel(
        dim=3,
        eval_G=eval_G,
        invariants=(LinearInvariant(np.ones(3), exact=True, label="total_mass"),),
        label="robertson",
        y0=np.array([1.0, 0.0, 0.0]),
        y_scale=1.0,
    )


MAPK_RATES = (100.0 / 3.0, 1.0 / 3.0, 50.0, 0.5, 10.0 / 3.0, 0.1, 0.7)


def mapk(alpha: float = 1.0) -> GraphLaplacianModel:
    """Six-species MAPK cascade.

    The bilinear coupling between the first two species can be attributed
    to either one's destruction; ``alpha`` interpolates between the two
    attributions.  The flow itself does not depend on alpha, but the
    matrix has the first conserved weight vector in its left kernel only
    for alpha = 0 and the second only for alpha = 1.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    k1, k2, k3, k4, k5, k6, k7 = MAPK_RATES

    def eval_G(t, y):
        y1, y2 = y.tolist()[:2]  # Python floats
        return np.fromiter((
            -(k7 + k1 * y2), 0.0, 0.0, k2, 0.0, k6,
            0.0, -k1 * y1, k5, 0.0, 0.0, 0.0,
            0.0, 0.0, -(k3 * y1 + k5), k2, k4, 0.0,
            (1.0 - alpha) * k1 * y2, alpha * k1 * y1, 0.0, -k2, 0.0, 0.0,
            0.0, 0.0, k3 * y1, 0.0, -k4, 0.0,
            k7, 0.0, 0.0, 0.0, 0.0, -k6,
        ), float, 36).reshape(6, 6)

    w1 = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0])
    w2 = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    return GraphLaplacianModel(
        dim=6,
        eval_G=eval_G,
        invariants=(
            LinearInvariant(w1, exact=(alpha == 0.0), label="C1"),
            LinearInvariant(w2, exact=(alpha == 1.0), label="C2"),
        ),
        label="mapk",
        y0=np.array([0.1, 0.175, 0.15, 1.15, 0.81, 0.5]),
        y_scale=1.5,
    )


T_RISE = 4.5
T_SET = 19.5


def sigma_diurnal(t: float) -> float:
    """Diurnal photolysis modulation in [0, 1]; zero at night."""
    tl = (t / 3600.0) % 24.0
    if tl < T_RISE or tl > T_SET:
        return 0.0
    w = (2.0 * tl - T_RISE - T_SET) / (T_SET - T_RISE)
    return 0.5 + 0.5 * math.cos(math.pi * abs(w) * w)


def stratospheric() -> GraphLaplacianModel:
    """Six-tracer stratospheric photochemistry, non-autonomous.

    State ordering: O1D, O, O3, O2, NO, NO2, in molecules/cm^3.  Nitrogen
    (last two components) is conserved exactly by the matrix; total
    oxygen is conserved by the flow but not by the matrix kernel.
    """

    def eval_G(t, y):
        s = sigma_diurnal(t)
        k1 = 2.643e-10 * s**3
        k2 = 8.018e-17
        k3 = 6.120e-4 * s
        k4 = 1.576e-15
        k5 = 1.070e-3 * s**2
        k6 = 7.110e-11
        k7 = 1.200e-10
        k8 = 6.062e-15
        k9 = 1.069e-11
        k10 = 1.289e-2 * s
        y1, y2, y3, y4, y5, y6 = y.tolist()  # Python floats
        gam = k3 + k5 + k4 * y2 + k7 * y1 + k8 * y5
        return np.fromiter((
            -(k6 + k7 * y3), 0.0, k5, 0.0, 0.0, 0.0,
            k6, -(k2 * y4 + k4 * y3 + k9 * y6), k3, 2.0 * k1, 0.0, k10,
            0.0, k2 * y4 / 3.0, -gam, 2.0 * k2 * y2 / 3.0, 0.0, 0.0,
            k7 * y3 / 2.0, k4 * y3 + k9 * y6 / 2.0, gam + k7 * y1 / 2.0, -(k1 + k2 * y2), 0.0, k9 * y2 / 2.0,
            0.0, 0.0, 0.0, 0.0, -k8 * y3, k10 + k9 * y2,
            0.0, 0.0, 0.0, 0.0, k8 * y3, -(k10 + k9 * y2),
        ), float, 36).reshape(6, 6)

    y0 = np.array([9.906e1, 6.624e8, 5.326e11, 1.697e16, 8.725e8, 2.240e8])
    return GraphLaplacianModel(
        dim=6,
        eval_G=eval_G,
        invariants=(
            LinearInvariant(
                np.array([1.0, 1.0, 3.0, 2.0, 1.0, 2.0]), exact=False, label="M_O"
            ),
            LinearInvariant(
                np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0]), exact=True, label="M_N"
            ),
        ),
        label="stratospheric",
        y0=y0,
        t0=12.0 * 3600.0,
        y_scale=y0,
    )


@dataclass(frozen=True)
class KdvConfig:
    n_cells: int = 256
    x_lo: float = -10.0
    x_hi: float = 10.0
    alpha: float = 1.0
    rho: float = 0.0
    nu: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if self.n_cells < 8:
            raise ValueError("need at least 8 cells")
        if self.x_hi <= self.x_lo:
            raise ValueError("domain must have positive width")
        if self.nu < 0.0:
            raise ValueError("dispersion coefficient must be nonnegative")
        if self.shift < 0.0:
            raise ValueError("shift must be nonnegative")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_lo + (np.arange(self.n_cells) + 0.5) * self.dx


def kdv_interface_rates(cfg: KdvConfig, y: np.ndarray) -> np.ndarray:
    """Signed transfer rate across each interface i+1/2 (periodic).

    Positive rate at interface i+1/2 moves mass from cell i+1 into cell
    i.  The cell flux is -(alpha*y^2 + rho*y + nu*Lx y) with Lx the
    periodic three-point second difference; interface values are the
    arithmetic mean of the adjacent cell fluxes.

    Computed from one ghost-padded copy of ``y`` by slices and in-place
    ufuncs; every entry gets the floating-point operations of the formulas
    in the comments below, in their order.
    """
    dx = cfg.dx
    p = np.concatenate((y[-1:], y, y[:2]))  # cells -1 .. n+1
    mid = p[1:-1]  # cells 0 .. n
    # lap_i = ((y_{i-1} - 2 y_i) + y_{i+1}) / dx^2
    lap = mid * 2.0
    np.subtract(p[:-2], lap, out=lap)
    lap += p[2:]
    lap /= dx**2
    # flux_i = -(((alpha y_i) y_i + rho y_i) + nu lap_i)
    flux = mid * cfg.alpha
    flux *= mid
    flux += mid * cfg.rho
    lap *= cfg.nu
    flux += lap
    np.negative(flux, out=flux)
    # rate_{i+1/2} = (0.5 (flux_i + flux_{i+1})) / dx
    rate = np.add(flux[:-1], flux[1:])
    rate *= 0.5
    rate /= dx
    return rate


def kdv(cfg: KdvConfig | None = None) -> HFormModel:
    """Periodic finite-volume KdV in H-form, y' = H(y) 1.

    ``eval_H`` assembles H from :func:`kdv_interface_rates`, and the fast
    ``eval_rhs`` is the five-point difference form of the same divergence,
    rate_{i+1/2} - rate_{i-1/2} with the flux expanded: it equals
    H(y) 1 up to rounding, and gives exactly 0 on a constant state.
    """
    from scipy import sparse  # only KdV builds sparse matrices

    cfg = cfg or KdvConfig()
    n = cfg.n_cells
    idx = np.arange(n)
    # H is cyclic tridiagonal: column j holds rows j-1, j, j+1, stored sorted,
    # so the wrap columns 0 and n-1 hold them in another order; ``slot``
    # gathers the values of rows (j-1, j, j+1) of every column into storage
    rows = (idx + np.arange(-1, 2)[:, None]) % n
    slot = np.lexsort((rows.ravel(), np.tile(idx, 3)))
    indices = rows.ravel()[slot].astype(np.int32)
    indptr = np.arange(0, 3 * n + 1, 3, dtype=np.int32)
    indices.flags.writeable = indptr.flags.writeable = False  # shared by every H

    def eval_H(y):
        # interface i+1/2 drains cell i+1 into cell i at a positive rate, and
        # cell i into cell i+1 at a negative one.  H = D^T - diag(D @ 1): column
        # j holds cell j's outflows in rows j-1 and j+1, minus their sum in row j
        rate = kdv_interface_rates(cfg, y)
        flow, pos = np.abs(rate), rate >= 0.0
        up = np.roll(np.where(pos, flow, 0.0), 1)
        down = np.where(pos, 0.0, flow)
        values = np.concatenate((up, -(up + down), down))
        return sparse.csc_array((values.take(slot), indices, indptr), shape=(n, n))

    # rhs_i = (flux_{i+1} - flux_{i-1}) / (2 dx)
    #       = a (y_{i+1}^2 - y_{i-1}^2) + b (y_{i+1} - y_{i-1}) + c (y_{i+2} - y_{i-2}),
    # taken as (y_{i+1} - y_{i-1}) (a (y_{i+1} + y_{i-1}) + b) + c (y_{i+2} - y_{i-2}):
    # every term multiplies a difference, so a constant state gives exactly 0
    dx = cfg.dx
    a = -cfg.alpha / (2.0 * dx)
    b = (2.0 * cfg.nu / dx**2 - cfg.rho) / (2.0 * dx)
    c = -cfg.nu / (2.0 * dx**3)

    def eval_rhs(y):
        p = np.concatenate((y[-2:], y, y[:2]))  # cells -2 .. n+1
        up, down = p[3:-1], p[1:-3]  # cells i+1 and i-1
        rhs = np.add(up, down)
        rhs *= a
        rhs += b
        rhs *= np.subtract(up, down)
        far = np.subtract(p[4:], p[:-4])  # cells i+2 and i-2
        far *= c
        rhs += far
        return rhs

    # rhs_i reads cells i-2 .. i+2, so column j of the Jacobian holds rows j-2 .. j+2
    stencil = (idx[:, None] + np.arange(-2, 3)) % n
    pattern = sparse.csc_array((np.ones(5 * n), (stencil.ravel(), np.repeat(idx, 5))))
    w = np.full(n, cfg.dx)
    return HFormModel(
        dim=n,
        eval_H=eval_H,
        invariants=(LinearInvariant(w, exact=True, label="mass"),),
        label="kdv",
        y0=kdv_initial(cfg),
        y_scale=6.0 + cfg.shift,
        eval_rhs=eval_rhs,
        jac_sparsity=pattern,
    )


def kdv_initial(cfg: KdvConfig | None = None) -> np.ndarray:
    """Solitary-wave initial data, 6*sech^2(x) plus an optional shift."""
    cfg = cfg or KdvConfig()
    return 6.0 / np.cosh(cfg.centers) ** 2 + cfg.shift


# name -> (builder, parameter coercions)
_REGISTRY = {
    "robertson": (robertson, {}),
    "mapk": (mapk, {"alpha": float}),
    "stratospheric": (stratospheric, {}),
    "kdv": (
        lambda **kw: kdv(KdvConfig(**kw)),
        {f.name: type(f.default) for f in fields(KdvConfig)},
    ),
}

PROBLEM_NAMES = tuple(sorted(_REGISTRY))

# default time spans: full runs (positivity/invariant experiments) and the
# shorter windows used for convergence studies
DEFAULT_SPANS = {
    "robertson": {"run": (0.0, 1e4), "convergence": (0.0, 5000.0)},
    "mapk": {"run": (0.0, 200.0), "convergence": (0.0, 60.0)},
    "stratospheric": {
        "run": (12.0 * 3600.0, 36.0 * 3600.0),
        "convergence": (19.0 * 3600.0, 29.0 * 3600.0),
    },
    "kdv": {"run": (0.0, 0.35), "convergence": (0.0, 0.35)},
}


def get_model(name: str, params: dict | None = None):
    """Instantiate a registered model with per-model parameter overrides."""
    try:
        builder, converters = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; choose from {list(PROBLEM_NAMES)}"
        ) from None
    params = dict(params or {})
    kwargs = {}
    for key, raw in params.items():
        if key not in converters:
            raise ValueError(f"problem {name!r} does not accept parameter {key!r}")
        kwargs[key] = converters[key](raw)
    return builder(**kwargs)
