import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import symevol.model as model_module
from conftest import fig_initial_state, fig_params, rk4_steps
from symevol.averaged import AVG11
from symevol.experiments import (EnsembleSpec, ScenarioConfig, _draw_initial,
                                 _histogram_series, compare_full_vs_averaged, full_field,
                                 invariant_drift, phase_series, polar_amplitude_series,
                                 run_ensemble, run_scenario, stabilization_time)
from symevol.config import ConfigError, build_scenario, load_config, preset_path
from symevol.integrate import (MAX_GRID_POINTS, InlineRhs, IntegrationError, IntegratorConfig,
                               integrate, order_check)
from symevol.integrate import _BatchStep, _TaylorEmitter
from symevol.model import (ALPHA_KINDS, FULL_EQUATIONS, CartesianState, ModelParams, alpha,
                           full_rhs)
from symevol.resonance import RESONANCES, cartesian_invariant
from symevol.transforms import mode_actions, polar_coordinates, wrap_angle


def _scenario(params, initial, horizon, sample_dt=0.25, **settings):
    grid = IntegratorConfig(t0=initial.t, t_end=initial.t + horizon, sample_dt=sample_dt,
                            **settings)
    return ScenarioConfig(params, initial, grid)


def _dop853(p, y0, times):
    """The states at ``times`` of the full system at p from y0 at times[0],
    by scipy's DOP853 at rtol 1e-13 calling full_rhs at every stage."""
    ref = solve_ivp(lambda t, y: full_rhs(t, y, p), (times[0], times[-1]), y0,
                    method="DOP853", rtol=1e-13, atol=1e-15, t_eval=times)
    assert ref.success
    return ref.y.T


@pytest.mark.parametrize("kind", ALPHA_KINDS)
@pytest.mark.parametrize("name", ["fig1", "fig2"])
def test_inlined_stage_equals_the_called_field(name, kind):
    # run_scenario and a batch run the Taylor method generated from the
    # model's equations, and DOP853 calls full_rhs at every stage: both give
    # the same solution to well within the tolerance, from the preset's
    # start, from t0 = 2.5, with negative coefficients and with coefficients
    # whose products round. A Taylor batch row equals its single run bit for
    # bit. An order check, whose rk4 steps call the field, measures the
    # errors its rk4 steps make against the DOP853 reference
    base = build_scenario(load_config(preset_path(name)), {"horizon": 20.0})
    p = base.params.replace(alpha_kind=kind)
    for params, initial in ((p, base.initial), (p, dataclasses.replace(base.initial, t=2.5)),
                            (p.replace(a1=-1.0, a3=-0.75), base.initial),
                            (p.replace(omega=2.1, epsilon=0.3, a2=-0.7), base.initial)):
        sc = _scenario(params, initial, 20.0)
        assert isinstance(full_field(params), InlineRhs)
        taylor = run_scenario(sc)
        assert np.max(np.abs(taylor.states - _dop853(params, initial.as_array(),
                                                     taylor.times))) < 1e-8
        assert taylor.stats["method"] == "taylor" and taylor.stats["accepted"] > 50
        rows = initial.as_array() + np.array([[0.0] * 4, [0.05, -0.1, 0.1, 0.0],
                                              [-0.1, 0.2, 0.0, -0.3]])
        batch = integrate(full_field(params), rows, sc.integrator)
        assert np.array_equal(batch.states[0], taylor.states)
        for i in (1, 2):
            single = integrate(full_field(params), rows[i], sc.integrator)
            assert np.array_equal(batch.states[i], single.states)
            assert single.stats["accepted"] == batch.stats["row_accepted"][i]
            assert np.max(np.abs(batch.states[i] - _dop853(params, rows[i],
                                                           batch.times))) < 1e-8
    y0, steps = base.initial.as_array(), [0.2, 0.1, 0.05]
    estimate = order_check(full_field(p), y0, 0.0, 5.0, steps)
    end = _dop853(p, y0, np.array([0.0, 5.0]))[-1]
    errors = [np.max(np.abs(rk4_steps(lambda t, y: full_rhs(t, y, p), y0, 0.0, h,
                                      round(5.0 / h))[-1] - end)) for h in steps]
    np.testing.assert_allclose(estimate.errors, errors, rtol=1e-6)


@pytest.mark.parametrize("kind", ALPHA_KINDS)
def test_inlined_stage_rejects_negative_slow_time(kind):
    p = fig_params(2).replace(alpha_kind=kind)
    start = dataclasses.replace(fig_initial_state(), t=-1.0)
    sc = _scenario(p, start, 5.0)
    with pytest.raises(ValueError, match="slow time tau must be >= 0"):
        run_scenario(sc)
    with pytest.raises(ValueError, match="slow time tau must be >= 0"):
        full_rhs(start.t, start.as_array(), p)
    # the inlined loops test the slow time themselves: past a first slope
    # that does not, the guard raises when the single run's loop or the
    # batch's step is bound, at the run's start time
    stub = full_field(p)._replace(call=lambda t, y: [0.0 * v for v in y])
    rows = np.array([start.as_array(), start.as_array() + 0.1])
    for y0 in (start.as_array(), rows):
        with pytest.raises(ValueError, match="slow time tau must be >= 0"):
            integrate(stub, y0, sc.integrator)


def test_rebound_full_rhs_sees_only_first_slopes(monkeypatch):
    # full_field is the model's InlineRhs whatever function its call is
    # bound to, and its Taylor runs evaluate the equations' recurrences,
    # never the field, so a rebound full_rhs (a spy) sees no call from a
    # single run, a comparison's full run or an ensemble, and the runs keep
    # their bits; an order check's rk4 steps do call it
    p, initial = fig_params(2), fig_initial_state()
    sc = _scenario(p, initial, 20.0)
    inlined, compared = run_scenario(sc), compare_full_vs_averaged(p, initial)
    spec = _small_ensemble(count=5)
    ensemble = run_ensemble(spec)
    calls = []

    def spy(t, y, params):
        calls.append(t)
        return full_rhs(t, y, params)

    monkeypatch.setitem(model_module._FIELDS, FULL_EQUATIONS[p.alpha_kind], spy)
    assert isinstance(full_field(p), InlineRhs)
    traj = run_scenario(sc)
    assert np.array_equal(traj.states, inlined.states) and traj.stats == inlined.stats
    assert compare_full_vs_averaged(p, initial) == compared
    _assert_same_report(run_ensemble(spec), ensemble)
    assert calls == []
    order_check(full_field(p), initial.as_array(), 0.0, 1.0, [0.5, 0.25, 0.125])
    assert len(calls) == 1 + 4 * (2 + 4 + 8)  # the first slope, then four stages per step


def test_once_per_run_holds_the_parameter_statements_in_body_order():
    # a statement that reads no series, the parameters only, runs once per
    # run, in body order, before the guard; the rates' products of
    # parameters follow it as the emitter's statements of their own, one per
    # distinct text, in a single run and in a batch alike. Each decay law is
    # a text of its own, which differs from the other only in the decay
    # factor's statement, written as the law's text with no call of alpha,
    # and has no statement of the parameters only. AVG11 has four, its eps^2,
    # its two coefficient sums and the rate of tau
    exponential, polynomial = FULL_EQUATIONS.values()
    assert exponential.body[1] == "al = exp(-tau)"
    assert polynomial == exponential._replace(
        body=(exponential.body[0], "al = 1.0 / (1.0 + tau)", *exponential.body[2:]))
    # exp(-tau) negates the scaled series delta * t as (-delta) * t, so
    # -delta runs once per run too, first
    for text, negated in ((exponential, ["-delta"]), (polynomial, [])):
        assert not any("alpha(" in statement for statement in text.body)
        assert text.guard == ("check_slow_time(delta * t)",)
        hoisted = [*negated, "epsilon * a1", "epsilon * a2", "epsilon * 2.0 * a4", "-omega ** 2",
                   "epsilon * 2.0 * a2", "epsilon * a3", "epsilon * a4"]
        for batch in (False, True):
            assert _TaylorEmitter(text, 13, batch).once_per_run == [
                *text.guard, *(f"_f{i} = {value}" for i, value in enumerate(hoisted))]
    for batch in (False, True):
        assert _TaylorEmitter(AVG11, 13, batch).once_per_run[:6] == [
            "e2 = epsilon**2", "cross = a1 / 2 * a2 + a2 * a2 / 3",
            "cross_al = a3 / 2 * a4 + a4 * a4 / 3", "dtau = delta", *AVG11.guard]


def test_parameter_statements_once_per_integrate_call():
    # the statements that read only the parameters run when integrate binds
    # its step, once per call, in a single run and in a batch alike, where a
    # stage used to take omega**2 at every stage; the bits stay the same
    calls = []

    class CountedOmega(float):
        def __pow__(self, exponent):
            calls.append(exponent)
            return float(self) ** exponent

    p = fig_params(2)
    field = full_field(p)
    spy = field._replace(bindings={**field.bindings, "omega": CountedOmega(p.omega)})
    initial = fig_initial_state()
    y0 = initial.as_array()
    sc = _scenario(p, initial, 20.0)
    for start in (y0, np.array([y0, y0 * 1.1, y0 * 0.9])):
        calls.clear()
        counted = integrate(spy, start, sc.integrator)
        assert calls == [2]
        plain = integrate(field, start, sc.integrator)
        assert np.array_equal(counted.states, plain.states)
        assert np.sum(counted.stats["accepted"]) > 50


def test_inlined_alpha_once_per_attempt():
    # the decay law, written into the Taylor recurrences as its text, runs
    # once per attempt: the slow time's two coefficients, delta * t and
    # delta itself (no product by 1.0; the exponential law's exp(-tau) takes
    # (-delta) * t and -delta, with -delta once per run), then the law's
    # series from one exp (or one division) of the first. Each run also
    # takes the slow time once more, for its guard at t0. A delta that
    # counts its products (and so does its negation) counts p per attempt
    # in a single run, the first at the attempt's start time, under either
    # law: coefficient 1 also multiplies the law's coefficients 0 to p - 2
    # in its recurrence. In a batch an attempt covers every row: its step
    # reads the times once per attempt, in one numpy product of delta (or
    # -delta) and every row's time, which does not call its __mul__
    times = []

    class CountedDelta(float):
        def __mul__(self, t):
            times.append(t)
            return float(self) * t

        def __neg__(self):  # -delta, which exp(-tau) multiplies by the time
            return CountedDelta(-float(self))

    initial = fig_initial_state()
    y0 = initial.as_array()
    for kind in ALPHA_KINDS:
        times.clear()
        p = fig_params(2).replace(alpha_kind=kind)
        field = full_field(p)
        spy = field._replace(bindings={**field.bindings, "delta": CountedDelta(p.delta)})
        sc = _scenario(p, initial, 20.0)
        runs = [integrate(rhs, y0, sc.integrator) for rhs in (spy, field)]
        assert np.array_equal(runs[0].states, runs[1].states) and runs[0].stats == runs[1].stats
        per = runs[0].stats["order"]
        starts = times[1::per]
        assert times[:2] == [initial.t, initial.t] and starts == sorted(set(starts))
        assert len(times) == 1 + per * runs[0].stats["rhs_evals"]
        times.clear()
        rows = np.array([y0, y0 * 1.1, y0 * 0.9])
        batch, plain = (integrate(rhs, rows, sc.integrator) for rhs in (spy, field))
        assert np.array_equal(batch.states, plain.states) and times == [initial.t]
        stepper = _BatchStep(_TaylorEmitter(field.equations, runs[0].stats["order"], True), 4,
                             runs[0].stats["order"])
        reads = [(k, op.kind, op.args) for k in range(stepper.p) for op in stepper.lower(k)
                 if stepper.time in op.args]
        assert reads == [(0, "_multiply", [{"exponential": "_f0", "polynomial": "delta"}[kind],
                                           stepper.time])]


def test_run_scenario_fig1_initial_actions():
    traj = run_scenario(_scenario(fig_params(2), fig_initial_state(), 10.0, sample_dt=0.5))
    e1, e2 = mode_actions(traj.states, 2.0)
    assert e1[0] == 0.125
    assert e2[0] == 0.125
    assert traj.states[0, 1] == 0.5
    assert traj.times[-1] == 10.0 and len(traj) == 21


def test_run_scenario_zero_initial_state():
    traj = run_scenario(_scenario(fig_params(2), CartesianState(0.0, 0.0, 0.0, 0.0, 0.0), 5.0))
    assert np.all(traj.states == 0.0)


def test_run_scenario_invariants_and_angles():
    p = fig_params(2)
    traj = run_scenario(_scenario(p, fig_initial_state(), 20.0, sample_dt=0.2))
    assert cartesian_invariant("E0_12", traj.states, p)[0] == pytest.approx(0.25)
    assert cartesian_invariant("I3_12", traj.states, p)[0] == pytest.approx(0.0, abs=1e-15)
    psi1, psi2 = phase_series(traj, p.omega)
    m1, m2 = RESONANCES[2.0].angles["chi12"]
    chi = m1 * psi1 + m2 * psi2
    # continuous lift: no 2*pi jumps between samples
    assert np.max(np.abs(np.diff(chi))) < 1.0


def test_polar_series_equal_the_chart_of_each_sample():
    # the series read the one inverse chart on the whole trajectory; the
    # scalar chart of each sample agrees to rounding (phases on the circle)
    p = fig_params(2)
    traj = run_scenario(_scenario(p, fig_initial_state(), 100.0))
    r1, r2 = polar_amplitude_series(traj, p.omega)
    psi1, psi2 = phase_series(traj, p.omega)
    worst = 0.0
    for k, t in enumerate(traj.times):
        pol = polar_coordinates(t, traj.states[k], p.omega)
        worst = max(worst, abs(r1[k] - pol[0]), abs(r2[k] - pol[2]),
                    abs(wrap_angle(wrap_angle(psi1[k]) - wrap_angle(pol[1]))),
                    abs(wrap_angle(wrap_angle(psi2[k]) - wrap_angle(pol[3]))))
    assert len(traj) == 401 and worst < 1e-12


def test_phase_series_lifts_the_slow_phases_at_coarse_sampling():
    # samples 4 time units apart: the fast angles t + psi1 and 2t + psi2 move
    # by more than pi between samples, the slow phases by less (at most 1.4
    # here), so the lift of psi has no 2*pi slip where a lift of the fast
    # angle slips (jumps of 6.4 at this spacing)
    p = fig_params(2)
    traj = run_scenario(_scenario(p, fig_initial_state(), 200.0, sample_dt=4.0))
    for psi in phase_series(traj, p.omega):
        assert np.max(np.abs(np.diff(psi))) < math.pi


def test_run_scenario_disables_angles_near_normal_mode():
    # the run itself is fine on a normal mode; only the phases are undefined
    traj = run_scenario(_scenario(fig_params(2), CartesianState(0.0, 0.5, 0.0, 0.0, 0.0), 5.0))
    assert np.all(np.isfinite(traj.states))
    with pytest.raises(ValueError, match="normal mode"):
        phase_series(traj, 2.0)


def test_run_scenario_untabulated_omega_omits_chi_and_invariants():
    # omega = 1.5 has no resonance table entry: the phases exist, but no
    # combination angle and no invariant may be formed
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=1.5, epsilon=0.1, n=2)
    traj = run_scenario(_scenario(p, fig_initial_state(), 5.0, sample_dt=0.5))
    psi1, psi2 = phase_series(traj, p.omega)
    assert psi1.shape == psi2.shape == traj.times.shape
    assert p.omega not in RESONANCES
    for name in (name for entry in RESONANCES.values() for name in entry.invariants):
        with pytest.raises(ValueError, match="omega = 1.5"):
            cartesian_invariant(name, traj.states, p)


def test_averaged_systems_reject_polynomial_decay():
    from symevol.averaged import avg12_first_cart, polar_view

    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2,
                    alpha_kind="polynomial")
    with pytest.raises(ValueError, match="exponential"):
        polar_view(avg12_first_cart, 0.0, np.array([0.5, 0.0, 0.5, 0.0, 0.0]), p)
    with pytest.raises(ValueError, match="exponential"):
        compare_full_vs_averaged(p, fig_initial_state())


def test_scenario_config_validation():
    # the grid is checked once, by IntegratorConfig
    bad = [{"t_end": -1.0}, {"t_end": math.nan}, {"t_end": math.inf}, {"rtol": 0.0},
           {"atol": math.nan}, {"sample_dt": -0.1},
           {"sample_dt": 1.0 / MAX_GRID_POINTS, "t_end": 2.0}]
    for settings in bad:
        with pytest.raises(ValueError):
            IntegratorConfig(**{"t_end": 1.0, "sample_dt": 0.25, **settings})
    # a config's grid starts at its initial time and runs for the horizon
    cfg = {"model": {"a1": "1", "a2": "1", "a3": "0.75", "a4": "1.5", "omega": "2",
                     "epsilon": "0.1"},
           "initial": {"t0": "2", "q1": "0", "v1": "0.5", "q2": "0", "v2": "0.5"},
           "scenario": {"horizon": "3"},
           "integrator": {"rtol": "1e-7", "atol": "1e-9", "sample_dt": "0.5"}}
    sc = build_scenario(cfg)
    assert sc.integrator == IntegratorConfig(t0=2.0, t_end=5.0, sample_dt=0.5, rtol=1e-7,
                                             atol=1e-9)
    # the grid must start where the initial state is given
    with pytest.raises(ValueError, match="t0"):
        ScenarioConfig(sc.params, sc.initial, IntegratorConfig(t_end=5.0, sample_dt=0.5))


def test_decay_rates_for_figure_scenarios():
    # n = 2 vs n = 3 at eps = 0.1: alpha(1000*delta) is e^-10 vs e^-1
    p2, p3 = fig_params(2), fig_params(3)
    assert alpha(p2.delta * 1000.0, p2.alpha_kind) == pytest.approx(math.exp(-10.0))
    assert alpha(p3.delta * 1000.0, p3.alpha_kind) == pytest.approx(math.exp(-1.0))


def test_compare_linear_limit_vanishes():
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.0, n=2)
    res = compare_full_vs_averaged(p, fig_initial_state())
    # both systems are linear and identical; only stepper and dense-output
    # error remains
    assert res.sup_amplitude < 1e-8


def test_compare_epsilon_scaling_12():
    sups = []
    for eps in (0.1, 0.05):
        res = compare_full_vs_averaged(fig_params(2, epsilon=eps),
                                       fig_initial_state(), L=1.0)
        sups.append(res.sup_amplitude)
    assert 1.5 <= sups[0] / sups[1] <= 2.8


def test_compare_epsilon_scaling_13():
    # measured ratio about 2.0: the discrepancy is dominated by the O(eps)
    # oscillatory correction, while the averaged amplitudes stay frozen
    sups = []
    for eps in (0.1, 0.05):
        p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=3.0, epsilon=eps, n=2)
        res = compare_full_vs_averaged(p, fig_initial_state(), L=1.0)
        sups.append(res.sup_amplitude)
    assert 1.5 <= sups[0] / sups[1] <= 2.8


def test_compare_rejects_bad_inputs():
    with pytest.raises(ValueError, match="normal-mode"):
        compare_full_vs_averaged(fig_params(2),
                                 CartesianState(0.0, 0.5, 0.0, 0.0, 0.0))
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=1.5, epsilon=0.1, n=2)
    with pytest.raises(ValueError, match="no averaged system"):
        compare_full_vs_averaged(p, fig_initial_state())
    with pytest.raises(ValueError, match="needs omega"):
        compare_full_vs_averaged(fig_params(2), fig_initial_state(), resonance="13")
    with pytest.raises(ValueError, match="sample intervals"):  # 10^10 of them, before any run
        compare_full_vs_averaged(fig_params(2), fig_initial_state(), L=1e8)


def test_invariant_drift_conservative_case():
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.0, n=2, delta=0.0)
    traj = run_scenario(_scenario(p, fig_initial_state(), 20.0, sample_dt=0.1))
    reports = invariant_drift(traj, ("E0_12",), p)
    assert reports[0].max_drift < 1e-8  # integrator + dense-output floor
    assert reports[0].initial == pytest.approx(0.25)


def test_invariant_drift_scales_with_epsilon():
    drifts = []
    for eps in (0.1, 0.05):
        p = fig_params(2, epsilon=eps)
        cfg = IntegratorConfig(t_end=1.0 / eps, sample_dt=0.05, rtol=1e-10, atol=1e-12)
        traj = integrate(full_field(p), fig_initial_state().as_array(), cfg)
        reports = {r.name: r for r in invariant_drift(traj, ("E0_12", "I3_12"), p)}
        assert reports["E0_12"].normalized_drift < 0.5
        drifts.append((reports["E0_12"].max_drift, reports["I3_12"].max_drift))
    assert 1.5 <= drifts[0][0] / drifts[1][0] <= 2.8
    assert 1.5 <= drifts[0][1] / drifts[1][1] <= 2.8
    with pytest.raises(ValueError):
        invariant_drift(traj, ("bogus",), p)
    with pytest.raises(ValueError):
        invariant_drift(traj, ("E0_11",), p)  # an invariant of the 1:1 flow


def test_i3_11_is_an_adiabatic_invariant_of_the_full_run():
    # symmetric 1:1 runs over [0, 8/eps^2]: I3_11's relative spread halves
    # with eps (measured 0.234 -> 0.116, ratio 2.03) while r1^2's does not
    # (0.234 -> 0.173, ratio 1.35); at 6/eps^2 r1^2's ratio is already 1.49
    spreads = []
    for eps in (0.1, 0.05):
        p = ModelParams(1.0, 1.0, 0.0, 0.0, omega=1.0, epsilon=eps, n=2)
        cfg = IntegratorConfig(t_end=8.0 / eps**2, sample_dt=0.25, rtol=1e-8, atol=1e-10)
        traj = integrate(full_field(p), np.array([-0.135, -0.395, 0.129, 0.427]), cfg)
        e0, i3 = invariant_drift(traj, ("E0_11", "I3_11"), p)
        assert e0.normalized_drift < 0.5
        e1 = mode_actions(traj.states, 1.0)[0]  # r1^2/2
        spreads.append(((i3.maximum - i3.minimum) / abs(i3.initial), np.ptp(e1) / e1[0]))
    (i3_coarse, r1_coarse), (i3_fine, r1_fine) = spreads
    assert 1.5 <= i3_coarse / i3_fine <= 2.8
    assert not 1.5 <= r1_coarse / r1_fine <= 2.8


def _small_ensemble(count=16, horizon=10.0, samplers=None, seed=7, params=None, sample_dt=0.5):
    sc = _scenario(params or fig_params(2), fig_initial_state(), horizon, sample_dt=sample_dt,
                   rtol=1e-8, atol=1e-10)
    return EnsembleSpec(scenario=sc, samplers=samplers or {
        "q1": ("fixed", 0.0), "v1": ("normal", 0.5, 0.05),
        "q2": ("fixed", 0.0), "v2": ("uniform", 0.4, 0.6)}, count=count,
        seed=seed)


def test_ensemble_spec_sample_ceiling():
    # 20 samples per particle: the ceiling is checked on construction, so
    # nothing of the size of the rejected run is allocated
    assert _small_ensemble(count=MAX_GRID_POINTS // 20).count == MAX_GRID_POINTS // 20
    for count in (0, MAX_GRID_POINTS // 20 + 1, 10**15):
        with pytest.raises(ValueError):
            _small_ensemble(count=count)
    # a last short interval counts as a whole one, and a particle holds at least one
    for horizon, sample_dt, intervals in ((10.0, 3.0, 4), (1.0, 100.0, 1)):
        most = MAX_GRID_POINTS // intervals
        assert _small_ensemble(most, horizon, sample_dt=sample_dt).count == most
        with pytest.raises(ValueError, match="intervals give over 10000000 sample intervals"):
            _small_ensemble(most + 1, horizon, sample_dt=sample_dt)


@pytest.mark.parametrize("spec", [("uniform", 0.0), ("normal", 0.5, -1.0), ("fixed", math.nan),
                                  ("uniform", 0.6, 0.4), ("uniform", -math.inf, 0.6),
                                  ("uniform", -1e308, 1e308), ("fixed", "0.5"), ("bogus", 1.0),
                                  ("fixed",), ()])
def test_ensemble_spec_rejects_bad_sampler_on_construction(spec):
    # wrong arity, a negative sigma, a non-finite or non-numeric value, an
    # empty or infinite range and an unknown kind fail here, not in run_ensemble
    with pytest.raises(ValueError, match="bad sampler spec .* for v1"):
        _small_ensemble(samplers={"v1": spec})


def test_ensemble_degenerate_sampler_zero_dispersion():
    # fixed samplers: every particle one state, of no dispersion, all counted
    # in every sample. At v1 = 0 the v1 edges cannot take the rms of the
    # initial v1, which is 0, and span +-3 of the sampler's spread or 1
    for v1 in (0.5, 0.0):
        samplers = {"q1": ("fixed", 0.0), "v1": ("fixed", v1),
                    "q2": ("fixed", 0.0), "v2": ("fixed", 0.5)}
        rep = run_ensemble(_small_ensemble(count=5, samplers=samplers))
        assert np.all(rep.disp_v1 == 0.0)
        assert np.all(rep.disp_v2 == 0.0)
        assert np.all(rep.hist_v1.sum(axis=1) == 5) and np.all(rep.hist_v2.sum(axis=1) == 5)
    assert (rep.hist_edges_v1[0], rep.hist_edges_v1[-1]) == (-3.0, 3.0)


def test_ensemble_spec_fixes_left_out_coordinates_at_the_initial_state():
    # only v1 is sampled: q1, q2 and v2 stay at the fig1 state (0, 0, 0.5)
    spec = _small_ensemble(count=4, horizon=1.0, samplers={"v1": ("normal", 0.5, 0.05)})
    assert spec.samplers == {"q1": ("fixed", 0.0), "v1": ("normal", 0.5, 0.05),
                             "q2": ("fixed", 0.0), "v2": ("fixed", 0.5)}
    rep = run_ensemble(spec)
    assert rep.mean_v2[0] == 0.5 and rep.disp_v2[0] == 0.0


_FINITE = st.floats(-1e3, 1e3)
_SAMPLER = st.one_of(
    st.tuples(st.just("fixed"), _FINITE),
    st.builds(lambda lo, width: ("uniform", lo, lo + width), _FINITE, st.floats(0.0, 1e3)),
    st.tuples(st.just("normal"), _FINITE, st.floats(0.0, 1e3)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       particles=st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
       samplers=st.fixed_dictionaries({coord: _SAMPLER for coord in ("q1", "v1", "q2", "v2")}))
@example(seed=2**64 - 1, particles=[10**6, 0, 10**6],
         samplers={"q1": ("fixed", 0.0), "v1": ("normal", 0.5, 0.05),
                   "q2": ("uniform", -1.0, 1.0), "v2": ("normal", 0.0, 1.0)})
def test_ensemble_draws_equal_fresh_generators_per_particle(seed, particles, samplers):
    # one Philox re-keyed per particle draws, for each particle in any order
    # and repeated, what a fresh Generator(Philox(key=[seed, index])) draws,
    # coordinate by coordinate in the order q1, v1, q2, v2
    drawn = _draw_initial(samplers, seed, particles)
    for row, index in zip(drawn, particles):
        fresh = np.random.Generator(np.random.Philox(key=np.array([seed, index],
                                                                  dtype=np.uint64)))
        expected = []
        for coord in ("q1", "v1", "q2", "v2"):
            kind, *values = samplers[coord]
            expected.append(values[0] if kind == "fixed" else getattr(fresh, kind)(*values))
        assert np.array_equal(row, expected), (index, row, expected)


def _assert_same_report(a, b):
    for name, value in vars(a).items():
        other = getattr(b, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, other), name
        else:
            assert value == other, name


def test_ensemble_determinism_and_worker_invariance():
    rep1 = run_ensemble(_small_ensemble(count=8))
    _assert_same_report(rep1, run_ensemble(_small_ensemble(count=8)))
    assert rep1.stats["accepted"] >= 8 * rep1.stats["min_accepted"]
    assert rep1.stats["min_accepted"] <= rep1.stats["max_accepted"]


def test_ensemble_histogram_mass_equals_count():
    rep = run_ensemble(_small_ensemble(count=12))
    assert np.all(rep.hist_v1.sum(axis=1) == rep.count)
    assert np.all(rep.hist_v2.sum(axis=1) == rep.count)


def test_ensemble_records_failures_without_aborting():
    # a wide q1 range pushes part of the ensemble over the escape threshold
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.9, n=1)
    samplers = {"q1": ("uniform", 0.0, 3.2), "v1": ("fixed", 0.1),
                "q2": ("fixed", 0.1), "v2": ("fixed", 0.1)}
    spec = _small_ensemble(count=12, horizon=30.0, samplers=samplers, seed=5,
                           params=p)
    rep = run_ensemble(spec)
    assert len(rep.failures) > 0
    assert rep.count + len(rep.failures) == 12
    assert np.all(rep.hist_v1.sum(axis=1) == rep.count)
    # the same particles fail with the same messages as one integrate call
    # per particle
    cfg = IntegratorConfig(t_end=30.0, sample_dt=0.5, rtol=1e-8, atol=1e-10)
    scalar = []
    for i in range(12):
        try:
            integrate(full_field(p), _draw_initial(samplers, 5, [i])[0], cfg)
        except IntegrationError as exc:
            scalar.append((i, str(exc)))
    assert rep.failures == scalar


@pytest.mark.parametrize("values", [
    # exactly on interior edges (of the first edges, -3, -2.90625, ..., 3)
    lambda edges: np.array([edges[5:60:6]] * 3).T,
    # at and beyond the clip bounds
    lambda edges: np.array([[-3.0, 3.0, -7.0], [7.0, -3.0, 3.0],
                            [edges[0] + 1e-13, edges[-1] - 1e-13, 0.0]]),
    # identical particles
    lambda edges: np.full((6, 4), 0.123),
    # on every edge, and one ulp below and above it
    lambda edges: np.array([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)]),
], ids=["interior_edges", "clip_bounds", "identical", "every_edge"])
def test_histogram_series_matches_numpy_histogram(values):
    # the bins are computed from the uniform edges and moved by one where
    # the edges say otherwise; on dyadic edges and on edges that linspace
    # rounds (pi/10 apart from one another), every value lands in the bin
    # np.histogram gives it
    for edges in (np.linspace(-3.0, 3.0, 65), np.linspace(-0.3 * math.pi, 0.3 * math.pi, 65)):
        at = values(edges)
        counts = _histogram_series(at, edges)
        lo = edges[0] + 1e-12 * (edges[1] - edges[0])
        hi = edges[-1] - 1e-12 * (edges[1] - edges[0])
        expected = [np.histogram(np.clip(at[:, k], lo, hi), bins=edges)[0]
                    for k in range(at.shape[1])]
        assert np.array_equal(counts, np.array(expected))
        assert np.all(counts.sum(axis=1) == at.shape[0])


def test_ensemble_symmetric_sampler_keeps_v2_symmetric():
    # with a3 = a4 = 0 the flow commutes with (q2, v2) -> -(q2, v2), so a
    # symmetric initial distribution keeps v2 symmetric; the sample skewness
    # stays within 3 standard errors, sqrt(6/N)
    p = ModelParams(1.0, 1.0, 0.0, 0.0, omega=2.0, epsilon=0.1, n=2)
    sc = _scenario(p, fig_initial_state(), 30.0, sample_dt=2.0, rtol=1e-8, atol=1e-10)
    spec = EnsembleSpec(scenario=sc, samplers={
        "q1": ("normal", 0.0, 0.1), "v1": ("normal", 0.5, 0.1),
        "q2": ("uniform", -0.3, 0.3), "v2": ("uniform", -0.3, 0.3)},
        count=240, seed=3)
    rep = run_ensemble(spec)
    centers = 0.5 * (rep.hist_edges_v2[:-1] + rep.hist_edges_v2[1:])
    counts = rep.hist_v2[-1].astype(float)
    n = counts.sum()
    mean = (counts * centers).sum() / n
    sig = math.sqrt((counts * (centers - mean) ** 2).sum() / n)
    skew = (counts * (centers - mean) ** 3).sum() / (n * sig**3)
    assert abs(skew) < 3.0 * math.sqrt(6.0 / n)


def test_ensemble_statistics_change_after_decay():
    # early-time vs late-time velocity statistics differ well beyond the
    # Monte Carlo noise once the asymmetric coupling has died away
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=1)
    sc = _scenario(p, fig_initial_state(), 120.0, sample_dt=1.0, rtol=1e-8, atol=1e-10)
    spec = EnsembleSpec(scenario=sc, samplers={
        "q1": ("normal", 0.0, 0.05), "v1": ("normal", 0.5, 0.05),
        "q2": ("normal", 0.0, 0.05), "v2": ("normal", 0.5, 0.05)},
        count=48, seed=11)
    rep = run_ensemble(spec)
    n = len(rep.times)
    early = slice(0, n // 10)
    late = slice(9 * n // 10, None)
    noise = 1.0 / math.sqrt(spec.count)
    assert abs(rep.mean_E1[late].mean() - rep.mean_E1[early].mean()) > 3.0 * noise * 0.05
    assert rep.count == 48


def test_ensemble_thousand_particle_smoke():
    # full-size smoke: canonical coefficients, short horizon, no failures
    sc = _scenario(fig_params(2), fig_initial_state(), 5.0, sample_dt=1.0, rtol=1e-7,
                   atol=1e-9)
    spec = EnsembleSpec(scenario=sc, samplers={
        "q1": ("normal", 0.0, 0.05), "v1": ("normal", 0.5, 0.05),
        "q2": ("normal", 0.0, 0.05), "v2": ("normal", 0.5, 0.05)},
        count=1000, seed=1)
    rep = run_ensemble(spec)
    assert rep.count == 1000
    assert len(rep.failures) == 0


def _preset_run(name, **overrides):
    sc = build_scenario(load_config(preset_path(name)), overrides)
    traj = run_scenario(sc)
    return sc, traj, *mode_actions(traj.states, sc.params.omega)


def test_reproduce_figure_bundles():
    # the figure scenarios are the presets: fig1 decays at n = 2, fig2 at n = 3
    sc1, traj, e1, e2 = _preset_run("fig1", horizon=40.0, sample_dt=0.5, rtol=1e-9)
    assert e1[0] == 0.125 and e2[0] == 0.125
    assert e1[0] + e2[0] == 0.25
    assert len(traj.times) == len(e1) == len(e2) == 81
    sc2 = build_scenario(load_config(preset_path("fig2")))
    assert (sc1.params.n, sc2.params.n) == (2, 3)
    assert sc1.params.replace(n=3, delta=None) == sc2.params and sc1.initial == sc2.initial
    assert (sc1.integrator.t_end, sc2.integrator.t_end) == (40.0, 8000.0)
    with pytest.raises(ConfigError):
        preset_path("fig9")


def test_fig1_preset_step_counts_and_accuracy_pinned():
    # a change of method, order, tolerance or step rule moves these counts,
    # so it cannot pass for a faster stepper; the run stays within the
    # error it measured against DOP853 (9.5e-13), where rk45 took 5,622
    # steps to 2.6e-9
    scipy_integrate = pytest.importorskip("scipy.integrate")
    sc, traj, _, _ = _preset_run("fig1", horizon=100.0)
    assert (sc.integrator.rtol, sc.integrator.atol) == (1e-10, 1e-12)
    assert {key: traj.stats[key] for key in ("method", "order", "accepted", "rejected",
                                             "rhs_evals")} == {
        "method": "taylor", "order": 13, "accepted": 326, "rejected": 0, "rhs_evals": 326}
    ref = scipy_integrate.solve_ivp(lambda t, y: full_rhs(t, y, sc.params), (0.0, 100.0),
                                    traj.states[0], method="DOP853", rtol=1e-13, atol=1e-15,
                                    t_eval=traj.times)
    assert ref.success
    assert np.max(np.abs(traj.states - ref.y.T)) < 1.5e-12


def test_stabilization_time_monotone_series():
    _, traj, e1, e2 = _preset_run("fig1", horizon=40.0, sample_dt=0.5, rtol=1e-9)
    t = stabilization_time(traj.times, e1, e2, fraction=10.0)  # absurdly loose: settles at once
    assert t == traj.times[0]
    assert stabilization_time(traj.times, e1, e2, fraction=0.0) == math.inf


def test_compare_unknown_system_names_known_ones():
    with pytest.raises(ValueError, match="unknown averaged system 'bogus'; known: .*12-second"):
        compare_full_vs_averaged(fig_params(2), fig_initial_state(), resonance="bogus")
