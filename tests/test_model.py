import math

import numpy as np
import pytest

import symevol.model as model_module
from symevol.experiments import full_field
from symevol.integrate import IntegratorConfig, integrate
from symevol.model import (DISSIPATIVE_EQUATIONS, CartesianState, ModelParams,
                           alpha, cartesian_to_dissipative, dissipative_rhs,
                           dissipative_to_cartesian, eval_hamiltonian, full_rhs)


def test_alpha_exponential_values():
    assert alpha(0.0) == 1.0
    assert abs(alpha(1.0) - math.exp(-1.0)) < 1e-12
    taus = np.linspace(0.0, 20.0, 200)
    vals = alpha(taus)
    assert np.all(np.diff(vals) < 0.0)
    assert vals[-1] < 1e-8
    assert np.all((vals > 0.0) & (vals <= 1.0))


def test_alpha_polynomial_and_errors():
    assert alpha(0.0, kind="polynomial") == 1.0
    assert alpha(1.0, kind="polynomial") == 0.5
    with pytest.raises(ValueError):
        alpha(-0.1)
    with pytest.raises(ValueError):
        alpha(1.0, kind="cubic")


@pytest.mark.parametrize("kind", ["exponential", "polynomial"])
def test_alpha_is_the_factor_full_rhs_applies(rng, kind):
    # with q1 = 1 and every other component 0, eps = a4 = 1 and delta = 1,
    # v2' of the full field is alpha(t) with no rounding of its own
    p = ModelParams(0.0, 0.0, 0.0, 1.0, omega=2.0, epsilon=1.0, alpha_kind=kind, delta=1.0)
    taus = rng.uniform(0.0, 40.0, size=10_000)
    applied = full_rhs(taus, (np.ones_like(taus), 0.0, 0.0, 0.0), p)[3]
    assert np.array_equal(alpha(taus, kind), applied)
    for tau, value in zip(taus.tolist(), applied.tolist()):
        assert alpha(tau, kind) == value == full_rhs(tau, (1.0, 0.0, 0.0, 0.0), p)[3]
    for tau in (-1e-300, np.array([0.0, 2.0, -1.0])):
        with pytest.raises(ValueError):
            alpha(tau, kind)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1, 1, 1, 1, omega=2.0, epsilon=1.5)
    with pytest.raises(ValueError):
        ModelParams(1, 1, 1, 1, omega=-2.0, epsilon=0.1)
    with pytest.raises(ValueError):
        ModelParams(1, 1, 1, 1, omega=2.0, epsilon=0.1, n=0)
    with pytest.raises(ValueError):
        ModelParams(1, 1, 1, 1, omega=2.0, epsilon=0.1, alpha_kind="linear")
    for bad in ({"a1": math.nan}, {"a2": math.inf}, {"a3": -math.inf}, {"a4": math.inf},
                {"omega": math.nan}, {"omega": math.inf}, {"delta": math.nan},
                {"delta": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(**{"a1": 1, "a2": 1, "a3": 1, "a4": 1, "omega": 2.0,
                           "epsilon": 0.1, **bad})
    p = ModelParams(1, 1, 1, 1, omega=2.0, epsilon=0.1, n=3)
    assert p.delta == pytest.approx(1e-3)
    frozen = ModelParams(1, 1, 1, 1, omega=2.0, epsilon=0.1, delta=0.0)
    assert alpha(frozen.delta * 500.0, frozen.alpha_kind) == 1.0


def test_hamiltonian_origin_is_zero(params12):
    st = CartesianState(0.0, 0.0, 0.0, 0.0, 0.0)
    assert eval_hamiltonian(st.t, st.as_array(), params12) == 0.0


def test_hamiltonian_kinetic_only():
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    y = np.array([0.0, 0.5, 0.0, 0.5])
    assert eval_hamiltonian(0.0, y, p) == pytest.approx(0.25, abs=1e-15)


def test_hamiltonian_cubic_term():
    # q1 = 1 with a1 = 3 and eps = 1: quadratic 1/2 minus cubic 1.
    p = ModelParams(3.0, 0.0, 0.0, 0.0, omega=2.0, epsilon=1.0, n=1)
    y = np.array([1.0, 0.0, 0.0, 0.0])
    assert eval_hamiltonian(0.0, y, p) == pytest.approx(-0.5, abs=1e-15)


def test_full_rhs_origin_fixed_point(params12):
    assert full_rhs(0.0, np.zeros(4), params12) == (0.0, 0.0, 0.0, 0.0)


def test_full_rhs_linear_decoupling():
    p = ModelParams(1.0, 0.0, 0.0, 1.5, omega=2.0, epsilon=0.1, n=2)
    c = 0.7
    d = full_rhs(0.0, np.array([0.0, 0.0, c, 0.0]), p)
    assert d[1] == 0.0
    assert d[3] == pytest.approx(-p.omega**2 * c, abs=1e-15)


def test_full_rhs_matches_frozen_time_gradient(params12, rng):
    # v' = -dH/dq with the decay factor frozen at the evaluation time.
    h = 1e-6
    for _ in range(20):
        t = rng.uniform(0.0, 30.0)
        y = rng.uniform(-0.8, 0.8, size=4)
        d = full_rhs(t, y, params12)
        for qi, vi in ((0, 1), (2, 3)):
            yp = y.copy()
            ym = y.copy()
            yp[qi] += h
            ym[qi] -= h
            grad = (eval_hamiltonian(t, yp, params12) - eval_hamiltonian(t, ym, params12)) / (2 * h)
            assert d[vi] == pytest.approx(-grad, abs=2e-8)
        assert d[0] == y[1]
        assert d[2] == y[3]


@pytest.mark.parametrize("kind", ["exponential", "polynomial"])
def test_full_rhs_batched_rows_equal_single_calls(rng, kind):
    # a call on column arrays (one entry per batch row) answers columns whose
    # entries are the calls on floats bit for bit
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2, alpha_kind=kind)
    ts = rng.uniform(0.0, 300.0, size=40)
    ys = rng.uniform(-1.5, 1.5, size=(4, 40))
    columns = full_rhs(ts, tuple(ys), p)
    assert type(columns) is tuple and len(columns) == 4
    rows = np.array(columns).T
    assert rows.shape == (40, 4)
    for t, y, row in zip(ts, ys.T, rows):
        # a tuple of floats, as the single-row integrator passes it, gets a tuple of floats
        single = full_rhs(float(t), tuple(y.tolist()), p)
        assert all(type(v) is float for v in single)
        assert single == tuple(row.tolist())
    # one time for a whole batch, and columns of any shape
    stack = full_rhs(2.5, tuple(ys.reshape(4, 5, 8)), p)
    assert np.array_equal(np.array(stack).reshape(4, 40),
                          np.array([full_rhs(2.5, tuple(y.tolist()), p) for y in ys.T]).T)
    with pytest.raises(ValueError):
        full_rhs(np.array([1.0, -1.0]), tuple(ys[:, :2]), p)


def test_intermediate_plane_invariance(params12, rng):
    # the intermediate system is the full one at a1 = a2 = 0
    intermediate = params12.replace(a1=0.0, a2=0.0)
    for _ in range(10):
        y = np.array([0.0, 0.0, rng.uniform(-1, 1), rng.uniform(-1, 1)])
        d = full_rhs(rng.uniform(0, 10), y, intermediate)
        assert d[0] == 0.0
        assert d[1] == 0.0


def test_intermediate_is_full_minus_symmetric_terms(params12, rng):
    e = params12.epsilon
    intermediate = params12.replace(a1=0.0, a2=0.0)
    for _ in range(20):
        t = rng.uniform(0.0, 20.0)
        y = rng.uniform(-1.0, 1.0, size=4)
        diff = np.subtract(full_rhs(t, y, params12), full_rhs(t, y, intermediate))
        q1, _, q2, _ = y
        expected = np.array([0.0,
                             e * (params12.a1 * q1**2 + params12.a2 * q2**2),
                             0.0,
                             e * 2.0 * params12.a2 * q1 * q2])
        np.testing.assert_allclose(diff, expected, atol=1e-14)


def test_dissipative_rhs_values():
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.0, n=1, delta=0.01)
    assert dissipative_rhs(0.0, np.zeros(4), p) == (0.0, 0.0, 0.0, 0.0)
    d = dissipative_rhs(0.0, np.array([1.0, 0.0, 0.0, 0.0]), p)
    assert d[1] == pytest.approx(-1.0001, abs=1e-15)
    poly = ModelParams(1, 1, 1, 1, omega=2.0, epsilon=0.1, alpha_kind="polynomial")
    with pytest.raises(ValueError):
        dissipative_rhs(0.0, np.zeros(4), poly)


def test_frozen_time_energy_conservation():
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2, delta=0.0)
    y0 = np.array([0.0, 0.5, 0.0, 0.5])
    cfg = IntegratorConfig(t_end=100.0, sample_dt=0.5, rtol=1e-10, atol=1e-12)
    traj = integrate(full_field(p), y0, cfg)
    h = np.array([eval_hamiltonian(t, s, p) for t, s in zip(traj.times, traj.states)])
    assert np.max(np.abs(h - h[0])) < 1e-8


def test_discrete_symmetry_reflection():
    # a3 = a4 = 0: reflecting (q2, v2) reflects the whole trajectory.
    p = ModelParams(1.0, 1.0, 0.0, 0.0, omega=2.0, epsilon=0.1, n=2)
    y0 = np.array([0.3, 0.5, 0.2, -0.4])
    y0_ref = y0 * np.array([1.0, 1.0, -1.0, -1.0])
    cfg = IntegratorConfig(t_end=60.0, sample_dt=0.25, rtol=1e-10, atol=1e-12)
    a = integrate(full_field(p), y0, cfg)
    b = integrate(full_field(p), y0_ref, cfg)
    flipped = b.states * np.array([1.0, 1.0, -1.0, -1.0])
    assert np.max(np.abs(a.states - flipped)) < 1e-12


def test_dissipative_transform_equivalence(params12):
    y0 = np.array([0.1, 0.5, -0.2, 0.4])
    cfg = IntegratorConfig(t_end=200.0, sample_dt=1.0, rtol=1e-10, atol=1e-12)
    intermediate = params12.replace(a1=0.0, a2=0.0)
    direct = integrate(full_field(intermediate), y0, cfg)
    z0 = cartesian_to_dissipative(0.0, y0, params12.delta)
    damped = integrate(DISSIPATIVE_EQUATIONS.at(params12), z0, cfg)
    mapped = dissipative_to_cartesian(damped.times, damped.states, params12.delta)
    assert np.max(np.abs(mapped - direct.states)) < 1e-7


def test_dissipative_map_round_trip(rng):
    t = rng.uniform(0.0, 50.0, size=8)
    states = rng.uniform(-1.0, 1.0, size=(8, 4))
    back = cartesian_to_dissipative(t, dissipative_to_cartesian(t, states, 0.01), 0.01)
    np.testing.assert_allclose(back, states, atol=1e-13)


def test_state_validation():
    with pytest.raises(ValueError):
        CartesianState(0.0, math.nan, 0.0, 0.0, 0.0)


def test_generated_functions_compile_on_first_call():
    # a generated function keeps its name and docstring, and runs its
    # source only when first called, so importing the package compiles
    # none; the calls after the first reuse the compiled function
    namespace = {}
    double = model_module._compiled_on_first_call(
        "double", ["def double(x):", "    return 2 * x"], namespace, "Twice x.")
    assert (double.__name__, double.__doc__) == ("double", "Twice x.") and namespace == {}
    assert double(3) == 6 and "double" in namespace
    del namespace["double"]
    assert double(4) == 8 and "double" not in namespace  # no second compile
    assert (full_rhs.__name__, dissipative_rhs.__name__) == ("full_rhs", "dissipative_rhs")
    assert full_rhs.__doc__.startswith("Right-hand side of the full equations")
