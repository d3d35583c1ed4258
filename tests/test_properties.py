"""Property tests of one corrected step, and of whole runs, over random models.

Hypothesis draws the model, the state, the step size, the tableau and
the correction mode; ``derandomize=True`` makes every run draw the same
examples, so the tests are deterministic.  The tableau is a built-in one,
or a random stiffly accurate one over time-dependent rates.  A whole run
also draws its step mode and the positivity guard.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdint.correction import clip
from pdint.numerics import SingularMatrixError
from pdint.pds import (
    GraphLaplacianModel,
    HFormModel,
    LinearInvariant,
    assemble_g_from_rates,
    assemble_h_from_destruction,
)
from pdint.sdirk import (
    ButcherTableau,
    SolverConfig,
    StageConvergenceError,
    TrajectoryStatus,
    corrected_step,
    integrate,
    predictor_step,
)

# mass drift past h*max|G| ~ 1e4 grows like eps*h*|G| in the corrector's LU
# solve (CHANGES.md, FOUND), so the 1e-12 bound is asserted below this reach
MASS_REACH = 1e3

# donor weights of an H-form destruction rate, zero wherever the donor is not positive
DONOR_WEIGHTS = (
    lambda y: np.maximum(y, 0.0),
    lambda y: np.maximum(y, 0.0) / (1.0 + y * y),
    lambda y: np.maximum(y, 0.0) ** 2,
)


def _rate():
    """Zero, or a transition rate across six decades."""
    return st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e))


def _level():
    """Zero, or a concentration from 1e-6 to 10."""
    return st.one_of(st.just(0.0), st.floats(-6.0, 1.0).map(lambda e: 10.0**e))


@st.composite
def steps(draw, h_form=False):
    d = draw(st.integers(2, 6))
    rates = np.array(draw(st.lists(_rate(), min_size=d * d, max_size=d * d))).reshape(d, d)
    np.fill_diagonal(rates, 0.0)
    mass = LinearInvariant(np.ones(d), exact=True, label="mass")
    if h_form:
        weight = draw(st.sampled_from(DONOR_WEIGHTS))
        eval_H = lambda y: assemble_h_from_destruction(rates * weight(y)[:, None])
        model = HFormModel(dim=d, eval_H=eval_H, invariants=(mass,))
    else:
        if draw(st.booleans()):  # donor-dependent rates, positive for any real state
            eval_G = lambda t, y: assemble_g_from_rates(rates / (1.0 + y * y)[:, None])
        else:
            g = assemble_g_from_rates(rates)
            eval_G = lambda t, y: g
        model = GraphLaplacianModel(dim=d, eval_G=eval_G, invariants=(mass,))
    y_n = np.array(draw(st.lists(_level(), min_size=d, max_size=d).filter(lambda v: max(v) > 0.0)))
    h = 10.0 ** draw(st.floats(-8.0, 8.0))
    method = draw(st.sampled_from(["sdirk21", "sdirk32", "sdirk43"]))
    mode = draw(st.sampled_from(["final", "all"]))
    return model, y_n, h, method, mode


def _corrected(model, y_n, h, method, mode):
    """The corrected state, checked finite and nonnegative, or None after a stage failure."""
    config = SolverConfig(method=method, correction=mode)
    try:
        out = corrected_step(model, 0.0, y_n, h, config)
    except (StageConvergenceError, SingularMatrixError):
        return None  # integrate halves the step; no other exception may escape
    y = out.y_corrected
    assert np.all(np.isfinite(y)) and y.min() >= 0.0
    return y


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(steps())
def test_corrected_step_is_nonnegative_and_conserves_mass(step):
    model, y_n, h, method, mode = step
    y = _corrected(model, y_n, h, method, mode)
    if y is not None and h * np.abs(model.matrix(0.0, y_n)).max() <= MASS_REACH:
        assert abs(y.sum() - y_n.sum()) <= 1e-12 * y_n.sum()


def _stage_reach(model, y_n, h, method, mode):
    """h * max_j max|H(clip Y_j)| / max(min_j min clip(Y_j), eps) over the step's stages.

    The ratio scaling divides by the clipped stages, so a small stage
    component weighs in the corrector's averaged matrix like a large H.
    """
    config = SolverConfig(method=method, correction=mode)
    stages, _, _, _ = predictor_step(model, 0.0, y_n, h, config)
    clipped = [clip(y) for y in stages]
    size = max(np.abs(model.matrix(0.0, y)).max() for y in clipped)
    return h * size / max(min(y.min() for y in clipped), config.eps)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(steps(h_form=True))
def test_h_form_corrected_step_is_nonnegative_and_conserves_mass(step):
    model, y_n, h, method, mode = step
    y = _corrected(model, y_n, h, method, mode)
    if y is not None and _stage_reach(model, y_n, h, method, mode) <= MASS_REACH:
        assert abs(y.sum() - y_n.sum()) <= 1e-12 * y_n.sum()


@st.composite
def tableaus(draw, negative=False):
    """A random stiffly accurate tableau with A >= 0, or, with ``negative``, with at
    least one negative weight in b = A[-1]; rows above the last are >= 0 in both."""
    s = draw(st.integers(3 if negative else 2, 4))  # two stages leave b_1 = 1 - gamma > 0
    gamma = draw(st.floats(0.1, 0.6))
    a = np.diag(np.full(s, gamma))
    for i in range(1, s - 1):
        a[i, :i] = draw(st.lists(st.floats(0.0, 1.0), min_size=i, max_size=i))
    last = st.lists(st.floats(-1.0 if negative else 0.0, 1.0), min_size=s - 1, max_size=s - 1)
    w = np.array(draw(last.filter(lambda w: sum(w) >= 0.1 and (min(w) < 0.0 or not negative))))
    a[-1, :-1] = w * ((1.0 - gamma) / w.sum())  # b sums to 1
    return ButcherTableau(
        name="random", A=a, b=a[-1].copy(), b_hat=np.full(s, 1.0 / s), c=a.sum(axis=1), p_hat=1
    )


@st.composite
def timed_steps(draw, negative=False):
    """A step of a random tableau over rates R * exp(K t) / (1 + y_donor**2)."""
    d = draw(st.integers(2, 6))
    rates = np.array(draw(st.lists(_rate(), min_size=d * d, max_size=d * d))).reshape(d, d)
    np.fill_diagonal(rates, 0.0)
    k = np.array(draw(st.lists(st.floats(-8.0, 8.0), min_size=d * d, max_size=d * d)))
    k = k.reshape(d, d)
    eval_G = lambda t, y: assemble_g_from_rates(rates * np.exp(k * t) / (1.0 + y * y)[:, None])
    mass = LinearInvariant(np.ones(d), exact=True, label="mass")
    model = GraphLaplacianModel(dim=d, eval_G=eval_G, invariants=(mass,))
    y_n = np.array(draw(st.lists(_level(), min_size=d, max_size=d).filter(lambda v: max(v) > 0.0)))
    h = 10.0 ** draw(st.floats(-3.0, 0.5))
    tab = draw(tableaus(negative))
    mode = draw(st.sampled_from(["final", "all"]))
    return model, y_n, h, tab, mode


def _keeps_mass_at_stage_times(step):
    model, y_n, h, tab, mode = step
    y = _corrected(model, y_n, h, tab, mode)
    reach = h * max(np.abs(model.matrix(c * h, y_n)).max() for c in tab.c)
    if y is not None and reach <= MASS_REACH:
        assert abs(y.sum() - y_n.sum()) <= 1e-12 * y_n.sum()


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(timed_steps())
def test_nonnegative_weights_keep_mass_under_time_dependent_rates(step):
    _keeps_mass_at_stage_times(step)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(timed_steps(negative=True))
def test_negative_weights_keep_mass_under_time_dependent_rates(step):
    _keeps_mass_at_stage_times(step)


@st.composite
def runs(draw):
    """A run of 5 to 30 steps of a timed_steps model, at most 1 time unit long."""
    model, y0, h, tab, _ = draw(timed_steps(negative=draw(st.booleans())))
    method = draw(st.one_of(st.just(tab), st.sampled_from(["sdirk21", "sdirk32", "sdirk43"])))
    correction = draw(st.sampled_from(["none", "final", "all"]))
    n = draw(st.integers(5, 30))
    span = min(n * h, 1.0)  # rates grow like exp(8 t)
    if draw(st.booleans()):
        config = SolverConfig(method=method, mode="fixed", h_fixed=span / n, correction=correction)
    else:
        guard = draw(st.booleans())
        config = SolverConfig(method=method, h0=span / n, atol=1e-3, rtol=1e-3,
                              correction=correction, positivity_guard_rejection=guard)
    return model, y0, span, config


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(runs())
def test_a_run_keeps_its_guarantees_and_a_consistent_record(run):
    model, y0, span, config = run
    traj = integrate(model, config, 0.0, span, y0)  # no exception escapes
    assert isinstance(traj.status, TrajectoryStatus)
    states, times = traj.states, traj.times
    assert len(times) == len(states) == traj.steps_accepted + 1
    assert np.all(np.diff(times) > 0.0)
    if traj.status == TrajectoryStatus.COMPLETED:
        assert abs(traj.h_used.sum() - span) <= 1e4 * np.finfo(float).eps * span  # the end tolerance
    if config.correction != "none":
        assert np.all(np.isfinite(states)) and states.min() >= 0.0
    c = config.tab.c
    for inv in (inv for inv in model.invariants if inv.exact):
        values = traj.invariant_values[inv.label]
        steps = zip(times, traj.h_used[1:], states, states[1:], values, values[1:])
        for t, h, y, _, before, after in steps:
            if h * max(np.abs(model.matrix(t + ci * h, y)).max() for ci in c) > MASS_REACH:
                continue
            assert abs(after - before) <= 1e-12 * abs(before), (t, h)
