"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import fig_initial_state, fig_params
from symevol.averaged import (AVG12_FIRST, average_slow_field, avg11_cart, avg12_first_cart,
                              polar_view)
from symevol.cli import main as cli_main
from symevol.config import build_scenario, load_config, preset_path
from symevol.experiments import (full_field, polar_amplitude_series, run_scenario,
                                 stabilization_time)
from symevol.integrate import IntegratorConfig, integrate, order_check
from symevol.model import (DISSIPATIVE_EQUATIONS, CartesianState, ModelParams,
                           cartesian_to_dissipative, dissipative_to_cartesian, eval_hamiltonian)
from symevol.resonance import (cartesian_invariant, classify_11, locate_12_second, locate_13,
                               verify_stability_numerically)
from symevol.transforms import mode_actions

EPS_LADDER = (0.1, 0.05, 0.025)


def _report(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _rand_polar(rng):
    return np.array([rng.uniform(0.2, 1.3), rng.uniform(-3.0, 3.0),
                     rng.uniform(0.2, 1.3), rng.uniform(-3.0, 3.0),
                     rng.uniform(0.0, 2.0)])


@pytest.fixture(scope="module")
def ladder_trajectories():
    """Full-system runs at Fig-1 parameters over [0, 5/eps] per ladder eps."""
    runs = {}
    for eps in EPS_LADDER:
        p = fig_params(2, epsilon=eps)
        cfg = IntegratorConfig(t_end=5.0 / eps, sample_dt=0.05,
                               rtol=1e-10, atol=1e-12)
        runs[eps] = (p, integrate(full_field(p), fig_initial_state().as_array(), cfg))
    return runs


def test_criterion_01_invariant_exactness():
    rng = np.random.default_rng(101)
    p12 = fig_params(2)
    p11 = ModelParams(1.0, 1.0, 0.75, 1.5, omega=1.0, epsilon=0.1, n=2)
    worst = 0.0
    for _ in range(1000):
        y = _rand_polar(rng)
        d = polar_view(avg12_first_cart, 0.0, y, p12)
        r1, psi1, r2, psi2 = y[:4]
        chi = 2 * psi1 - psi2
        t1, t2 = r1 * d[0], 4.0 * r2 * d[2]
        if abs(t1) + abs(t2) > 0:
            worst = max(worst, abs(t1 + t2) / (abs(t1) + abs(t2)))
        terms = np.array([2 * p12.a4 * r1 * r2 * math.cos(chi) * d[0],
                          -2 * p12.a4 * r1**2 * r2 * math.sin(chi) * d[1],
                          p12.a4 * r1**2 * math.cos(chi) * d[2],
                          p12.a4 * r1**2 * r2 * math.sin(chi) * d[3]])
        if np.abs(terms).sum() > 0:
            worst = max(worst, abs(terms.sum()) / np.abs(terms).sum())
        d11 = polar_view(avg11_cart, 0.0, y, p11)
        u1, u2 = y[0] * d11[0], y[2] * d11[2]
        if abs(u1) + abs(u2) > 0:
            worst = max(worst, abs(u1 + u2) / (abs(u1) + abs(u2)))
    _report(1, worst <= 1e-12,
            f"max relative directional derivative {worst:.2e} (tol 1e-12)")


def test_criterion_02_quadrature_oracle_equivalence():
    rng = np.random.default_rng(202)
    p = fig_params(2)
    worst = 0.0
    for _ in range(100):
        y = _rand_polar(rng)
        residual = np.max(np.abs(average_slow_field(y, p)
                                 - polar_view(avg12_first_cart, 0.0, y, p)))
        worst = max(worst, residual)
    _report(2, worst < 1e-9, f"max oracle residual {worst:.2e} (tol 1e-9)")


def test_criterion_03_adiabatic_drift_scaling(ladder_trajectories):
    drifts = {"E0_12": [], "I3_12": []}
    for eps in EPS_LADDER:
        p, traj = ladder_trajectories[eps]
        mask = traj.times <= 1.0 / eps + 1e-9
        for name in drifts:
            series = cartesian_invariant(name, traj.states, p)[mask]
            drifts[name].append(float(np.max(np.abs(series - series[0]))))
    ratios = {k: [v[i] / v[i + 1] for i in range(2)] for k, v in drifts.items()}
    ok = all(1.5 <= r <= 2.8 for rs in ratios.values() for r in rs)
    _report(3, ok, f"drift ratios E0_12={ratios['E0_12']}, I3_12={ratios['I3_12']} "
                   "(band [1.5, 2.8])")


def test_criterion_04_averaged_vs_full_error_scaling(ladder_trajectories):
    from symevol.averaged import polar_to_slow_cart, slow_cart_amplitudes
    from symevol.transforms import polar_coordinates, wrap_angle

    sups = []
    for eps in EPS_LADDER:
        p, traj = ladder_trajectories[eps]
        r1_full, r2_full = polar_amplitude_series(traj, p.omega)
        ic = fig_initial_state()
        r1, psi1, r2, psi2 = polar_coordinates(ic.t, ic.as_array(), p.omega)
        polar = [r1, wrap_angle(psi1), r2, wrap_angle(psi2), p.delta * ic.t]
        cfg = IntegratorConfig(t_end=5.0 / eps, sample_dt=0.05,
                               rtol=1e-10, atol=1e-12)
        avg = integrate(AVG12_FIRST.at(p), polar_to_slow_cart(polar), cfg)
        r1_avg, r2_avg = slow_cart_amplitudes(avg.states)
        sups.append(max(float(np.max(np.abs(r1_full - r1_avg))),
                        float(np.max(np.abs(r2_full - r2_avg)))))
    exponent = float(np.polyfit(np.log(EPS_LADDER), np.log(sups), 1)[0])
    _report(4, 0.7 <= exponent <= 1.3,
            f"sup discrepancies {[f'{s:.3e}' for s in sups]}, "
            f"fitted exponent {exponent:.3f} (band [0.7, 1.3])")


def test_criterion_05_resonance_ratios():
    second = locate_12_second(1, 1)
    third = locate_13(1, 1)
    ok = (second.amplitude_ratio == Fraction(91, 24)
          and third.amplitude_ratio == Fraction(1401, 976))
    second_f = locate_12_second(1.0, 1.0)
    third_f = locate_13(1.0, 1.0)
    ok = ok and abs(second_f.amplitude_ratio - 91.0 / 24.0) < 1e-10
    ok = ok and abs(third_f.amplitude_ratio - 1401.0 / 976.0) < 1e-10
    ok = ok and not locate_12_second(0, 1).exists and not locate_13(0, 1).exists
    _report(5, ok, "ratios 91/24 and 1401/976 exact/1e-10; a1=0 gives none for both")


def test_criterion_06_first_order_resonance_locking():
    eps = 0.05
    p = fig_params(2, epsilon=eps)
    ic = CartesianState(0.0, math.sqrt(1.0 / 3.0), 0.0, math.sqrt(1.0 / 24.0), 0.0)
    cfg = IntegratorConfig(t_end=1.0 / eps, sample_dt=0.05, rtol=1e-10, atol=1e-12)
    traj = integrate(full_field(p), ic.as_array(), cfg)
    r1, r2 = polar_amplitude_series(traj, p.omega)
    dev = float(np.max(np.abs(r1**2 - 8.0 * r2**2)))
    _report(6, dev <= 0.5 * eps,
            f"max |r1^2 - 8 r2^2| = {dev:.4f} over [0, 1/eps] (bound {0.5 * eps})")


def test_criterion_07_one_three_flatness():
    variations = []
    for eps in (0.1, 0.05):
        p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=3.0, epsilon=eps, n=2)
        cfg = IntegratorConfig(t_end=1.0 / eps**2, sample_dt=0.05,
                               rtol=1e-10, atol=1e-12)
        traj = integrate(full_field(p), fig_initial_state().as_array(), cfg)
        r1, r2 = polar_amplitude_series(traj, p.omega)
        variations.append(max(float(np.max(np.abs(r1 - r1[0]))),
                              float(np.max(np.abs(r2 - r2[0])))))
    ratio = variations[0] / variations[1]
    _report(7, ratio >= 1.5,
            f"amplitude variation {variations[0]:.3e} -> {variations[1]:.3e}, "
            f"halving ratio {ratio:.2f} (need >= 1.5)")


def test_criterion_08_classification_consistency():
    boundaries = {"q1-normal-mode": (-1 / 3, 2 / 15, 1 / 3, 2 / 3),
                  "q2-normal-mode": (-1 / 3, 1 / 3),
                  "in-phase": (-1 / 3, 2 / 3),
                  "out-of-phase": (2 / 15,)}
    checked = 0
    contradictions = []
    for pv in np.linspace(-0.95, 0.95, 21):
        reports = classify_11(3.0 * pv, 1.0)
        for rep in reports:
            if any(abs(pv - b) <= 0.02 for b in boundaries[rep.mode]):
                continue
            verdict = verify_stability_numerically(rep, E0=1.0, epsilon=0.1)
            checked += 1
            if verdict == "inconsistent":
                contradictions.append((pv, rep.mode))
    _report(8, not contradictions,
            f"{checked} verdicts, contradictions: {contradictions or 'none'}")


def _figure_run(name):
    """(times, E1, E2) of the bundled preset's run, as reproduce-figure makes it."""
    sc = build_scenario(load_config(preset_path(name)))
    traj = run_scenario(sc)
    return (traj.times, *mode_actions(traj.states, sc.params.omega))


def test_criterion_09_figure_reproduction():
    fig1 = _figure_run("fig1")
    fig2 = _figure_run("fig2")
    times, E1, E2 = fig1
    e0 = float(E1[0] + E2[0])
    ok = E1[0] == 0.125 and E2[0] == 0.125
    n = len(times)
    w = slice(3 * n // 4, None)
    var1 = float(E1[w].max() - E1[w].min())
    var2 = float(E2[w].max() - E2[w].min())
    sep = float(np.mean(np.abs(E1[w] - E2[w])))
    ok = ok and var1 < 0.10 * e0 and var2 < 0.10 * e0 and sep > 0.05 * e0
    t1 = stabilization_time(*fig1)
    t2 = stabilization_time(*fig2)
    ok = ok and t2 > t1
    _report(9, ok,
            f"fig1 E(0)=(0.125, 0.125); final-window action spreads "
            f"({100 * var1 / e0:.1f}%, {100 * var2 / e0:.1f}%) of E0, "
            f"|E1-E2| {100 * sep / e0:.1f}%; stabilization {t1:.0f} < {t2:.0f}")


def test_criterion_10_infrastructure(tmp_path):
    details = []
    ok = True

    p = fig_params(2)
    y0 = fig_initial_state().as_array()
    est = order_check(full_field(p), y0, 0.0, 10.0, [0.2, 0.1, 0.05, 0.025])
    ok &= est.order is not None and 3.7 <= est.order <= 4.3
    details.append(f"rk4 order {est.order:.2f}")

    frozen = fig_params(2).replace(delta=0.0)
    cfg = IntegratorConfig(t_end=1000.0, sample_dt=0.5, rtol=1e-10, atol=1e-12)
    traj = integrate(full_field(frozen), y0, cfg)
    h = np.array([eval_hamiltonian(t, s, frozen)
                  for t, s in zip(traj.times, traj.states)])
    drift = float(np.max(np.abs(h - h[0])))
    ok &= drift < 1e-7
    details.append(f"energy drift {drift:.2e}")

    psym = ModelParams(1.0, 1.0, 0.0, 0.0, omega=2.0, epsilon=0.1, n=2)
    y0s = np.array([0.3, 0.5, 0.2, -0.4])
    flip = np.array([1.0, 1.0, -1.0, -1.0])
    cfg_s = IntegratorConfig(t_end=60.0, sample_dt=0.25, rtol=1e-10, atol=1e-12)
    a = integrate(full_field(psym), y0s, cfg_s)
    b = integrate(full_field(psym), y0s * flip, cfg_s)
    refl = float(np.max(np.abs(a.states - b.states * flip)))
    ok &= refl < 1e-9
    details.append(f"reflection residual {refl:.2e}")

    pz = fig_params(2)
    cfg_z = IntegratorConfig(t_end=200.0, sample_dt=1.0, rtol=1e-10, atol=1e-12)
    p_int = pz.replace(a1=0.0, a2=0.0)  # the intermediate system
    direct = integrate(full_field(p_int), y0s, cfg_z)
    z0 = cartesian_to_dissipative(0.0, y0s, pz.delta)
    damped = integrate(DISSIPATIVE_EQUATIONS.at(pz), z0, cfg_z)
    zerr = float(np.max(np.abs(dissipative_to_cartesian(damped.times, damped.states,
                                                        pz.delta) - direct.states)))
    ok &= zerr < 1e-6
    details.append(f"z-transform residual {zerr:.2e}")

    cfg_file = tmp_path / "accept.ini"
    cfg_file.write_text("""
[model]
a1 = 1
a2 = 1
a3 = 0.75
a4 = 1.5
omega = 2
epsilon = 0.1
n = 2
[initial]
q1 = 0
v1 = 0.5
q2 = 0
v2 = 0.5
[scenario]
horizon = 5
[integrator]
rtol = 1e-9
atol = 1e-11
sample_dt = 0.5
""")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli_main(["simulate", str(cfg_file), "--out", str(out1)])
    cli_main(["simulate", str(cfg_file), "--out", str(out2)])
    same = (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    d1 = json.loads((out1 / "manifest.json").read_text())["config_digest"]
    d2 = json.loads((out2 / "manifest.json").read_text())["config_digest"]
    ok &= same and d1 == d2
    details.append(f"rerun byte-identical: {same}")

    _report(10, ok, "; ".join(details))
