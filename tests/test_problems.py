import numpy as np
import pytest

from pdint.pds import sample_states, validate_left_kernel, validate_model
from pdint.problems import (
    KdvConfig,
    get_model,
    kdv,
    kdv_initial,
    kdv_interface_rates,
    mapk,
    robertson,
    sigma_diurnal,
    stratospheric,
)


def robertson_rhs(y):
    return np.array(
        [
            -0.04 * y[0] + 1e4 * y[1] * y[2],
            0.04 * y[0] - 1e4 * y[1] * y[2] - 3e7 * y[1] ** 2,
            3e7 * y[1] ** 2,
        ]
    )


def stratospheric_rhs(t, y):
    from pdint.problems import sigma_diurnal as sig

    s = sig(t)
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
    y1, y2, y3, y4, y5, y6 = y
    return np.array(
        [
            k5 * y3 - k6 * y1 - k7 * y1 * y3,
            2 * k1 * y4 - k2 * y2 * y4 + k3 * y3 - k4 * y2 * y3 + k6 * y1
            - k9 * y2 * y6 + k10 * y6,
            k2 * y2 * y4 - k3 * y3 - k5 * y3 - k4 * y2 * y3 - k7 * y1 * y3
            - k8 * y3 * y5,
            -k1 * y4 - k2 * y2 * y4 + k3 * y3 + 2 * k4 * y2 * y3 + k5 * y3
            + 2 * k7 * y1 * y3 + k8 * y3 * y5 + k9 * y2 * y6,
            -k8 * y3 * y5 + k9 * y2 * y6 + k10 * y6,
            k8 * y3 * y5 - k9 * y2 * y6 - k10 * y6,
        ]
    )


def test_robertson_matrix_at_initial_state():
    model = robertson()
    g = model.eval_G(0.0, np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(
        g, [[-0.04, 0.0, 0.0], [0.04, 0.0, 0.0], [0.0, 0.0, 0.0]]
    )
    assert np.allclose(g @ model.y0, [-0.04, 0.04, 0.0], rtol=0, atol=0)
    assert np.array_equal(model.y0, [1.0, 0.0, 0.0])


def test_robertson_matrix_matches_rhs_and_conserves():
    model = robertson()
    rng = np.random.default_rng(0)
    for y in sample_states(model, 50, rng):
        g = model.eval_G(0.0, y)
        f = g @ y
        assert np.allclose(f, robertson_rhs(y), rtol=1e-14, atol=1e-300)
        assert abs(g.sum(axis=0)).max() <= 1e-14 * max(np.abs(g).max(), 1e-300)


def test_mapk_kernels_per_alpha():
    rng = np.random.default_rng(1)
    m1 = mapk(alpha=1.0)
    w2 = m1.invariants[1].w
    for y in sample_states(m1, 100, rng):
        g = m1.eval_G(0.0, y)
        assert validate_left_kernel(g, w2) <= 1e-10 * np.abs(g).max()
    m0 = mapk(alpha=0.0)
    w1 = m0.invariants[0].w
    for y in sample_states(m0, 100, rng):
        g = m0.eval_G(0.0, y)
        assert validate_left_kernel(g, w1) <= 1e-10 * np.abs(g).max()


def test_mapk_matrix_entries_and_flags():
    m = mapk(alpha=1.0)
    y = np.array([0.3, 0.2, 0.1, 0.4, 0.5, 0.6])
    g = m.eval_G(0.0, y)
    assert g[5, 0] == pytest.approx(0.7)
    assert g[5, 5] == pytest.approx(-0.1)
    assert m.invariants[0].exact is False
    assert m.invariants[1].exact is True
    assert mapk(alpha=0.0).invariants[0].exact is True
    with pytest.raises(ValueError):
        mapk(alpha=1.5)
    assert np.array_equal(m.y0, [0.1, 0.175, 0.15, 1.15, 0.81, 0.5])


def test_mapk_flow_conserves_both_weight_vectors():
    # both conserved functionals have w @ G(y) y = 0 even though only one
    # weight vector sits in the matrix kernel for a given alpha
    for alpha in (0.0, 0.3, 1.0):
        m = mapk(alpha=alpha)
        rng = np.random.default_rng(4)
        for y in sample_states(m, 50, rng):
            f = m.eval_G(0.0, y) @ y
            for inv in m.invariants:
                assert abs(inv.w @ f) <= 1e-12 * max(np.abs(f).max(), 1e-300)


def test_sigma_diurnal_values():
    assert sigma_diurnal(12.0 * 3600.0) == pytest.approx(1.0)
    assert sigma_diurnal(4.5 * 3600.0) == pytest.approx(0.0, abs=1e-15)
    assert sigma_diurnal(2.0 * 3600.0) == 0.0


def test_sigma_diurnal_periodic_bounded_continuous():
    ts = np.linspace(0.0, 48.0 * 3600.0, 10_000)
    vals = np.array([sigma_diurnal(t) for t in ts])
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    shifted = np.array([sigma_diurnal(t + 24.0 * 3600.0) for t in ts])
    assert np.allclose(vals, shifted, rtol=0, atol=1e-12)
    # discrete continuity: no jump exceeds a Lipschitz bound for this grid
    assert np.max(np.abs(np.diff(vals))) < 5e-3


def test_stratospheric_kernels():
    model = stratospheric()
    rng = np.random.default_rng(2)
    w_oxy = model.invariants[0].w
    w_nit = model.invariants[1].w
    states = sample_states(model, 100, rng)
    times = rng.uniform(0.0, 48 * 3600.0, size=100)
    saw_oxygen_residual = False
    for t, y in zip(times, states):
        g = model.eval_G(t, y)
        assert validate_left_kernel(g, w_nit) <= 1e-10 * np.abs(g).max()
        if validate_left_kernel(g, w_oxy) > 1e-6 * np.abs(g).max():
            saw_oxygen_residual = True
    assert saw_oxygen_residual


def test_stratospheric_matrix_matches_mechanism():
    model = stratospheric()
    rng = np.random.default_rng(3)
    states = sample_states(model, 50, rng)
    times = rng.uniform(0.0, 48 * 3600.0, size=50)
    for t, y in zip(times, states):
        f = model.eval_G(t, y) @ y
        f_direct = stratospheric_rhs(t, y)
        assert np.allclose(f, f_direct, rtol=1e-12, atol=1e-300)
        # the mechanism conserves total oxygen even though the matrix
        # kernel does not contain the oxygen weight vector
        assert abs(model.invariants[0].w @ f) <= 1e-12 * np.abs(f).max()


def test_stratospheric_initial_state():
    model = stratospheric()
    assert model.y0[3] == pytest.approx(1.697e16)
    assert model.t0 == pytest.approx(12 * 3600.0)


def test_all_models_sign_structure():
    rng = np.random.default_rng(5)
    for model, tol in [
        (robertson(), 0.0),
        (mapk(1.0), 0.0),
        (mapk(0.0), 0.0),
        (stratospheric(), 1e-12),
        (kdv(KdvConfig(n_cells=32)), 0.0),
    ]:
        report = validate_model(model, n_samples=100, rng=rng, sign_tol=tol)
        assert report.ok, f"{model.label}: {report.sign_violations[:3]}"


def test_kdv_constant_state_is_steady():
    cfg = KdvConfig(n_cells=16)
    model = kdv(cfg)
    y = np.full(16, 2.5)
    assert np.max(np.abs(model.eval_H(y) @ np.ones(16))) == 0.0
    assert np.max(np.abs(model.eval_rhs(y))) == 0.0


def test_kdv_mass_conservation_and_rhs_oracle():
    cfg = KdvConfig(n_cells=64)
    model = kdv(cfg)
    rng = np.random.default_rng(6)
    ones = np.ones(64)
    for y in rng.uniform(0.0, 6.0, size=(100, 64)):
        rhs_h = model.eval_H(y) @ ones
        scale = max(np.abs(rhs_h).max(), 1e-300)
        # direct conservative divergence of the physical flux
        dx = cfg.dx
        lap = (np.roll(y, 1) - 2 * y + np.roll(y, -1)) / dx**2
        phys = cfg.alpha * y * y + cfg.rho * y + cfg.nu * lap
        phys_int = 0.5 * (phys + np.roll(phys, -1))
        oracle = -(phys_int - np.roll(phys_int, 1)) / dx
        assert np.allclose(rhs_h, oracle, rtol=0, atol=1e-12 * scale)
        assert np.allclose(model.eval_rhs(y), oracle, rtol=0, atol=1e-12 * scale)
        assert abs(rhs_h.sum()) <= 1e-11 * scale


def roll_stencil(cfg, y):
    """KdV interface rates and rhs written with np.roll, the formulas term by term."""
    dx = cfg.dx
    lap = (np.roll(y, 1) - 2.0 * y + np.roll(y, -1)) / dx**2
    flux = -(cfg.alpha * y * y + cfg.rho * y + cfg.nu * lap)
    rate = 0.5 * (flux + np.roll(flux, -1)) / dx
    return rate, rate - np.roll(rate, 1)


def kdv_draws(n):
    """Twenty signed states, each with up to n/8 exact zeros, seeded by n."""
    rng = np.random.default_rng(n)
    for _ in range(20):
        y = 3.0 * rng.standard_normal(n)
        y[rng.integers(0, n, size=max(1, n // 8))] = 0.0
        yield y


KDV_SETTINGS = pytest.mark.parametrize(
    "settings", [{}, {"alpha": -0.7, "rho": 0.3, "nu": 2.5}], ids=["default", "alpha-rho-nu"]
)


@KDV_SETTINGS
@pytest.mark.parametrize("n", [8, 64, 1024])
def test_kdv_rates_bitwise_rhs_within_rounding_of_roll_formulas(n, settings):
    cfg = KdvConfig(n_cells=n, **settings)
    model = kdv(cfg)
    dx, eps = cfg.dx, np.finfo(float).eps
    for y in [*kdv_draws(n), kdv_initial(cfg)]:
        rate, rhs = roll_stencil(cfg, y)
        got = kdv_interface_rates(cfg, y)
        assert np.array_equal(got, rate)
        assert np.array_equal(np.signbit(got), np.signbit(rate))  # zeros keep their sign
        # eval_rhs is the five-point difference form: the same function, rounded
        # otherwise; T bounds the size of its terms
        ymax = np.abs(y).max()
        t = (abs(cfg.alpha) * ymax**2 + abs(cfg.rho) * ymax + 4.0 * cfg.nu * ymax / dx**2) / dx
        assert np.abs(model.eval_rhs(y) - rhs).max() <= 8.0 * eps * t


@KDV_SETTINGS
@pytest.mark.parametrize("n", [8, 64, 1024])
def test_kdv_rhs_shift_and_reversal_symmetry_bit_for_bit(n, settings):
    model = kdv(KdvConfig(n_cells=n, **settings))
    for y in kdv_draws(n):
        rhs = model.eval_rhs(y)
        for k in (1, 2, 3, n // 2, n - 1):  # the wrap-around reads of cells i-2 .. i+2
            got = model.eval_rhs(np.roll(y, k))
            assert np.array_equal(got, np.roll(rhs, k))
            assert np.array_equal(np.signbit(got), np.signbit(np.roll(rhs, k)))
        # x - y == -(y - x) exactly; a zero may change sign, which == ignores
        assert np.array_equal(model.eval_rhs(y[::-1]), -rhs[::-1])


def test_kdv_initial_profile():
    cfg = KdvConfig(n_cells=256)
    y = kdv_initial(cfg)
    assert np.all(y >= 0.0)
    assert y.max() == pytest.approx(6.0, abs=0.02)
    # formula value at a known center
    x = cfg.centers[10]
    assert y[10] == pytest.approx(6.0 / np.cosh(x) ** 2)
    shifted = kdv_initial(KdvConfig(n_cells=256, shift=1.25))
    assert np.all(shifted >= 1.25)
    assert shifted.max() == pytest.approx(7.25, abs=0.02)


def test_kdv_config_validation():
    with pytest.raises(ValueError):
        KdvConfig(n_cells=4)
    with pytest.raises(ValueError):
        KdvConfig(x_lo=1.0, x_hi=-1.0)
    with pytest.raises(ValueError):
        KdvConfig(nu=-0.1)


def test_registry():
    assert get_model("robertson").label == "robertson"
    assert get_model("mapk", {"alpha": "0.5"}).invariants[0].exact is False
    assert get_model("kdv", {"n_cells": "32"}).dim == 32
    with pytest.raises(ValueError):
        get_model("unknown")
    with pytest.raises(ValueError):
        get_model("robertson", {"alpha": 1.0})


def _kdv_h_from_destruction(rate):
    """KdV's H assembled through scipy from the destruction matrix of ``rate``."""
    from scipy import sparse

    from pdint.pds import assemble_h_from_destruction

    n = rate.size
    idx = np.arange(n)
    ip1 = (idx + 1) % n
    pos = rate >= 0.0
    donor, receiver = np.where(pos, ip1, idx), np.where(pos, idx, ip1)
    dest = sparse.csc_array((np.abs(rate), (donor, receiver)), shape=(n, n))
    return assemble_h_from_destruction(dest)


@pytest.mark.parametrize("n_cells", [8, 9, 64])
def test_kdv_h_on_its_template_equals_the_assembled_destruction_form(monkeypatch, n_cells):
    import pdint.problems

    model = kdv(KdvConfig(n_cells=n_cells))
    rng = np.random.default_rng(n_cells)
    rates = [kdv_interface_rates(KdvConfig(n_cells=n_cells), model.y0)]
    for _ in range(5):
        rate = rng.standard_normal(n_cells)  # both signs
        rate[rng.integers(n_cells)] = 0.0  # a donor side chosen by the rule rate >= 0
        rate[rng.integers(n_cells)] = -0.0
        rates.append(rate)
    for rate in rates:
        monkeypatch.setattr(pdint.problems, "kdv_interface_rates", lambda cfg, y: rate)
        h = model.eval_H(model.y0)
        ref = _kdv_h_from_destruction(rate)
        assert h.format == "csc" and h.nnz == 3 * n_cells and h.has_canonical_format
        assert np.array_equal(h.toarray(), ref.toarray())
        # the template stores the zeros that scipy's assembly drops; the rest is bit-equal
        kept = h.copy()
        kept.eliminate_zeros()
        assert np.array_equal(kept.indptr, ref.indptr)
        assert np.array_equal(kept.indices, ref.indices)
        assert kept.data.tobytes() == ref.data.tobytes()


def test_kdv_h_template_rejects_in_place_structural_changes():
    model = kdv(KdvConfig(n_cells=8))
    y = kdv_initial(KdvConfig(n_cells=8))
    h = model.eval_H(y)
    first = (h.indptr.copy(), h.indices.copy(), h.data.copy())
    with pytest.raises(ValueError):
        h.eliminate_zeros()
    assert not (h.indices.flags.writeable or h.indptr.flags.writeable)
    again = model.eval_H(y)
    assert np.array_equal(again.indptr, first[0]) and np.array_equal(again.indices, first[1])
    assert again.data.tobytes() == first[2].tobytes()
