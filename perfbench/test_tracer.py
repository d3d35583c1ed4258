"""Tests of the benchmark's own tracer and per-layer metrics.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pdint.correction  # noqa: E402
import pdint.sdirk  # noqa: E402
from pdint import SolverConfig, get_model, integrate  # noqa: E402

import layers  # noqa: E402
from tracer import Profile, Tracer, patched  # noqa: E402


def ticking_tracer():
    ticks = iter(range(1000))
    return Tracer(clock=lambda: float(next(ticks)))


def test_self_time_is_busy_minus_children():
    tracer = ticking_tracer()
    leaf = tracer.wrap("leaf", lambda: None)

    def mid_body():
        leaf()
        leaf()

    mid = tracer.wrap("mid", mid_body)
    top = tracer.wrap("top", lambda: (mid(), leaf()))
    top()
    profile = tracer.take()

    for (name, _parent), stats in profile.spans.items():
        children = sum(s.busy_s for (_n, p), s in profile.spans.items() if p == name)
        assert stats.self_s == pytest.approx(stats.busy_s - children)
    # one tick per clock read: top [0, 9], mid [1, 6], leaves of 1 tick each
    assert profile.spans[("top", "")].busy_s == 9.0
    assert profile.spans[("top", "")].self_s == 3.0
    assert profile.spans[("mid", "top")].self_s == 3.0
    assert profile.spans[("leaf", "mid")].calls == 2
    assert profile.having == {("top", "mid"): 1, ("top", "leaf"): 1, ("mid", "leaf"): 1}


def test_raised_exception_is_counted_and_span_closed():
    tracer = ticking_tracer()

    def fail():
        raise ValueError("boom")

    outer = tracer.wrap("outer", tracer.wrap("inner", fail))
    with pytest.raises(ValueError):
        outer()
    profile = tracer.take()  # would raise if a span were left open
    assert profile.raised == {("inner", "ValueError"): 1, ("outer", "ValueError"): 1}
    assert profile.spans[("inner", "outer")].calls == 1


def current(targets):
    return [getattr(owner, attr) for owner, attr, _name in targets]


def test_every_wrapper_is_removed_after_a_traced_run():
    targets = layers.targets(pdint.sdirk, pdint.correction)
    before = current(targets)
    tracer = Tracer()
    model = get_model("robertson")
    traced = layers.traced_model(model, tracer)
    with patched(tracer, targets) as names:
        assert names == {name for _o, _a, name in targets}
        assert all(a is not b for a, b in zip(current(targets), before))
        integrate(traced, SolverConfig(correction="final"), 0.0, 1.0, model.y0)
    assert all(a is b for a, b in zip(current(targets), before))
    assert tracer.take().total(layers.LU).calls > 0

    with pytest.raises(RuntimeError):
        with patched(tracer, targets):
            raise RuntimeError("interrupted traced run")
    assert all(a is b for a, b in zip(current(targets), before))


def traced_profile(problem, params, config, span):
    tracer = Tracer()
    model = get_model(problem, params)
    traced = layers.traced_model(model, tracer)
    run = tracer.wrap(layers.INTEGRATE, pdint.sdirk.integrate)
    with patched(tracer, layers.targets(pdint.sdirk, pdint.correction)) as names:
        traj = run(traced, config, *span, model.y0)
    installed = names | {layers.INTEGRATE} | {f"problems.{f}" for f in layers.CALLBACKS}
    return tracer.take(), installed, traj, model


@pytest.fixture(scope="module")
def kinetics_and_kdv():
    """Per-layer metrics of a small graph-Laplacian and a small H-form run."""
    out = []
    for problem, params, config, span in (
        ("mapk", {"alpha": 1.0}, SolverConfig(method="sdirk32", correction="all"), (0.0, 2.0)),
        ("kdv", {"n_cells": 16, "shift": 1.0},
         SolverConfig(mode="fixed", h_fixed=0.01, correction="final"), (0.0, 0.02)),
    ):
        profile, installed, traj, model = traced_profile(problem, params, config, span)
        steps = layers.attempt_counts([traj])
        lu = layers.lu_gflop(profile.total(layers.LU).calls, model.dim)
        out.append(layers.per_layer(profile, installed, steps, lu, 1, 1.0, 1.1))
    return out


def test_metric_names_are_well_formed_and_match_the_benchmark(kinetics_and_kdv):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert all(layers.METRIC_NAME.fullmatch(n) for n in names)
    per_layer = {m["name"] for m in declared["per_layer"]}
    for metrics in kinetics_and_kdv:
        assert all(layers.METRIC_NAME.fullmatch(n) for n in metrics)
        assert set(metrics) | {"src.lines"} == per_layer


def test_lu_calls_split_by_caller(kinetics_and_kdv):
    for metrics in kinetics_and_kdv:
        callers = sum(metrics[f"{layers.LU}.{c}.calls"][0] for c in ("picard", "newton", "corrector"))
        assert callers == metrics[f"{layers.LU}.calls"][0] > 0
    mapk, kdv = kinetics_and_kdv
    assert mapk[f"{layers.LU}.picard.calls"][0] > 0
    assert kdv["sdirk.jacobian.rhs_evals"][0] == 16 * kdv["sdirk.jacobian.builds"][0] > 0


def test_missing_private_helper_drops_its_metrics():
    present = {attr for attr, _name in layers.SDIRK_NAMES} - {"_fd_jacobian", "_newton_stage"}
    sdirk = types.SimpleNamespace(**{attr: lambda: None for attr in present})
    correction = types.SimpleNamespace(
        **{attr: lambda: None for attr, _name in layers.CORRECTION_NAMES}
    )
    with patched(Tracer(), layers.targets(sdirk, correction)) as installed:
        pass
    assert layers.JACOBIAN not in installed and layers.NEWTON not in installed
    steps = layers.attempt_counts([])
    metrics = layers.per_layer(Profile(), installed, steps, 0.0, 1, 1.0, 1.0)
    assert not any(n.startswith(("sdirk.jacobian.", "sdirk.newton.")) for n in metrics)
    assert f"{layers.LU}.newton.calls" not in metrics
    assert f"{layers.LU}.picard.calls" in metrics
