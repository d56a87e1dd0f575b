import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from symevol.experiments import full_field
from symevol.integrate import IntegratorConfig, integrate
from symevol.model import CartesianState, ModelParams
from symevol.resonance import combination_angle
from symevol.transforms import mode_actions, polar_coordinates, polar_to_cart, slow_rhs, wrap_angle

TWO_PI = 2.0 * math.pi


def _angle_dist(a, b):
    return abs(wrap_angle(a - b))


@given(st.floats(-1e4, 1e4, allow_nan=False))
@settings(deadline=None, max_examples=200)
def test_wrap_angle_range_and_idempotence(x):
    w = wrap_angle(x)
    assert -math.pi < w <= math.pi
    assert wrap_angle(w) == w


@given(st.floats(-50.0, 50.0), st.integers(-5, 5))
@settings(deadline=None, max_examples=200)
def test_wrap_angle_period(x, k):
    assert _angle_dist(wrap_angle(x + TWO_PI * k), wrap_angle(x)) < 1e-9


@given(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))
@settings(deadline=None, max_examples=200)
def test_wrap_angle_additive_modulo(a, b):
    assert _angle_dist(wrap_angle(a + b), wrap_angle(wrap_angle(a) + wrap_angle(b))) < 1e-9


def test_wrap_angle_boundary():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi


def test_polar_coordinates_worked_example():
    r1, psi1, r2, psi2 = polar_coordinates(0.0, [0.0, 0.5, 0.0, 0.5], omega=2.0)
    assert r1 == pytest.approx(0.5, abs=1e-15)
    assert psi1 == pytest.approx(-math.pi / 2, abs=1e-15)
    assert r2 == pytest.approx(0.25, abs=1e-15)
    assert psi2 == pytest.approx(-math.pi / 2, abs=1e-15)


def test_single_state_chart_is_maths_bit_for_bit(rng):
    # one state goes through math.hypot and math.atan2, whose bits every
    # compare ladder starts from; a stack goes through numpy's, elementwise
    omegas, ts, ys = [], [], []
    for _ in range(2000):
        omega, t = rng.choice([1.0, 2.0, 3.0]), rng.uniform(0.0, 20.0)
        q1, v1, q2, v2 = y = rng.uniform(-1.5, 1.5, size=4)
        if math.hypot(q1, v1) == 0.0 or math.hypot(q2, v2) == 0.0:
            continue
        r1, psi1, r2, psi2 = polar_coordinates(t, y, omega)
        assert (r1, r2) == (math.hypot(q1, v1), math.hypot(q2, v2 / omega))
        assert psi1 == math.atan2(-v1, q1) - t
        assert psi2 == math.atan2(-v2 / omega, q2) - omega * t
        if omega == 2.0:
            ts.append(t)
            ys.append(y)
    ts, ys = np.array(ts[:600]).reshape(2, 3, 100), np.array(ys[:600]).reshape(2, 3, 100, 4)
    r1, psi1, r2, psi2 = polar_coordinates(ts, ys, 2.0)
    q1, v1, q2, v2 = np.moveaxis(ys, -1, 0)
    assert r1.shape == (2, 3, 100)
    assert np.array_equal(r1, np.hypot(q1, v1)) and np.array_equal(r2, np.hypot(q2, v2 / 2.0))
    assert np.array_equal(psi1, np.arctan2(-v1, q1) - ts)
    assert np.array_equal(psi2, np.arctan2(-v2 / 2.0, q2) - 2.0 * ts)


def test_polar_to_cart_example():
    q1, v1, _, _ = polar_to_cart(0.0, [0.5, -math.pi / 2, 0.0, 0.0], omega=2.0)
    assert abs(q1) < 1e-15
    assert v1 == pytest.approx(0.5, abs=1e-15)
    origin = polar_to_cart(3.0, [0.0, 0.0, 0.0, 0.0, 0.7], omega=2.0)
    assert origin.shape == (4,) and np.all(origin == 0.0)


def test_round_trip_random_states(rng):
    # at t = 0 the chart round-trips to a few ulp; along a trajectory the
    # co-rotation t + psi costs ~|t|*eps, still far inside 1e-12
    worst0 = 0.0
    worst_t = 0.0
    for _ in range(1000):
        omega = rng.choice([1.0, 2.0, 3.0])
        t = rng.uniform(0.0, 20.0)
        y = rng.uniform(-1.5, 1.5, size=4)
        if math.hypot(y[0], y[1]) < 1e-3 or math.hypot(y[2], y[3] / omega) < 1e-3:
            continue
        for tval, tag in ((0.0, "zero"), (t, "generic")):
            back = polar_to_cart(tval, polar_coordinates(tval, y, omega), omega)
            err = np.max(np.abs(back - y))
            if tag == "zero":
                worst0 = max(worst0, err)
            else:
                worst_t = max(worst_t, err)
    assert worst0 < 1e-14
    assert worst_t < 1e-12


def test_actions_values_and_consistency(rng):
    fig = CartesianState(0.0, 0.0, 0.5, 0.0, 0.5)
    E1, E2 = mode_actions(fig.as_array(), omega=2.0)
    assert E1 == 0.125 and E2 == 0.125
    E1, E2 = mode_actions(CartesianState(0.0, 0.0, 0.0, 0.0, 0.0).as_array(), omega=2.0)
    assert E1 == 0.0 and E2 == 0.0
    for _ in range(200):
        omega = rng.choice([1.0, 2.0, 3.0])
        y = rng.uniform(-1.5, 1.5, size=4)
        if math.hypot(y[0], y[1]) < 1e-3 or math.hypot(y[2], y[3] / omega) < 1e-3:
            continue
        a = mode_actions(y, omega)
        r1, _, r2, _ = polar_coordinates(rng.uniform(0, 10), y, omega)
        # through the amplitudes: E1 = r1^2/2, E2 = omega^2*r2^2/2
        b = (0.5 * r1**2, 0.5 * omega**2 * r2**2)
        assert abs(a[0] - b[0]) < 1e-12
        assert abs(a[1] - b[1]) < 1e-12


def test_combination_angles():
    assert combination_angle("chi12", 0.0, 0.0) == 0.0
    assert abs(combination_angle("chi2", math.pi / 2, 0.0)) < 1e-12
    assert combination_angle("chi3", math.pi / 6, 0.0) == pytest.approx(math.pi)
    assert combination_angle("chi11", 0.3, 0.1) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        combination_angle("chi99", 0.0, 0.0)


def _dop853(rhs, y0, times):
    """The states of a DOP853 run at rtol 1e-13 at ``times``: the polar
    fields call sin and cos, which no Equations text writes."""
    ref = solve_ivp(rhs, (times[0], times[-1]), y0, method="DOP853", rtol=1e-13, atol=1e-15,
                    t_eval=times)
    assert ref.success
    return ref.y.T


def test_transformed_flow_matches_intermediate_system():
    # y' = eps*f2, with f2 the (a3, a4) part of the polar system at eps = 1,
    # is the polar form of the system without the symmetric cubic terms;
    # check against direct Cartesian integration.
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2, delta=0.0)
    pasym = ModelParams(0.0, 0.0, p.a3, p.a4, omega=p.omega, epsilon=1.0, n=1, delta=0.0)
    ic = CartesianState(0.0, 0.3, 0.2, 0.25, -0.1)
    pol = [*polar_coordinates(ic.t, ic.as_array(), p.omega), 0.0]
    cfg = IntegratorConfig(t_end=30.0, sample_dt=0.5, rtol=1e-11, atol=1e-13)

    def yflow(t, y):
        out = np.zeros(5)
        out[:4] = p.epsilon * slow_rhs(t, np.append(y[:4], 0.0), pasym)[:4]
        return out

    intermediate = p.replace(a1=0.0, a2=0.0)
    cart_traj = integrate(full_field(intermediate), ic.as_array(), cfg)
    polar_states = _dop853(yflow, np.array(pol), cart_traj.times)
    mapped = polar_to_cart(cart_traj.times, polar_states, p.omega)
    assert np.max(np.abs(mapped - cart_traj.states)) < 1e-7


def test_slow_rhs_equivalent_to_full_system(params12):
    ic = CartesianState(0.0, 0.1, 0.5, -0.2, 0.4)
    pol = [*polar_coordinates(ic.t, ic.as_array(), params12.omega), params12.delta * ic.t]
    cfg = IntegratorConfig(t_end=50.0, sample_dt=0.5, rtol=1e-11, atol=1e-13)
    cart = integrate(full_field(params12), ic.as_array(), cfg)
    polar = _dop853(lambda t, y: slow_rhs(t, y, params12), np.array(pol), cart.times)
    mapped = polar_to_cart(cart.times, polar, params12.omega)
    assert np.max(np.abs(mapped - cart.states)) < 1e-7
