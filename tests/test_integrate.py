import ast
import importlib
import math
import re
import types

import numpy as np
import pytest

from conftest import rk4_steps
from symevol.integrate import (MAX_GRID_POINTS, InlineRhs, IntegrationError, IntegratorConfig,
                               Trajectory, integrate, order_check)
from symevol.model import DISSIPATIVE_EQUATIONS, FULL_EQUATIONS, Equations, ModelParams, full_rhs


# the package re-exports the function ``integrate`` under the module's name
integrate_module = importlib.import_module("symevol.integrate")
model_module = importlib.import_module("symevol.model")


# step counts of a run; a batch also gives each per row, prefixed "row_"
STAT_KEYS = ("accepted", "rejected", "rejected_error", "rejected_nonfinite", "rhs_evals")


def _field(state, body, **params):
    """The InlineRhs of the components ``state`` at the parameters
    ``params``: ``body`` assigns the rate of each component x to dx, and the
    record's call is the function generated from the same text."""
    equations = Equations(state=tuple(state), rates=tuple(f"d{x}" for x in state),
                          params=tuple(params), body=tuple(body), guard=())
    model_module._rhs_function(equations, "rhs", None)
    return equations.at(types.SimpleNamespace(**params))


# x'' = -x: floats in a single run, columns in a batch
HARMONIC = _field(("x", "v"), ("dx = v", "dv = -x"))


def _inline(p):
    """The full model at p as experiments.full_field gives it: an InlineRhs,
    which runs the Taylor method."""
    return FULL_EQUATIONS[p.alpha_kind].at(p)


def test_config_validation():
    bad = [{"sample_dt": -1.0}, {"rtol": 0.0},
           {"t_end": math.nan}, {"t_end": -math.inf}, {"sample_dt": math.inf},
           {"rtol": math.nan}, {"atol": math.inf},
           {"t0": math.nan}, {"t0": -math.inf}, {"t0": 10.0}, {"t0": 11.0}, {"t_end": -5.0},
           # below the rtol floor of 100 machine epsilons
           {"rtol": 50 * np.finfo(float).eps},
           # over MAX_GRID_POINTS sample intervals, counted on construction,
           # also where the span overflows or the grid is too fine to count
           {"t_end": 1e8, "sample_dt": 1e-3}, {"t0": -1e308, "t_end": 1e308},
           {"sample_dt": 5e-324}]
    for settings in bad:
        with pytest.raises(ValueError):
            IntegratorConfig(**{"t_end": 10.0, "sample_dt": 0.1, **settings})
    assert IntegratorConfig(t0=-8.0, t_end=-5.0, sample_dt=0.1).t_end == -5.0
    assert IntegratorConfig(t0=5.0, t_end=5.0 + MAX_GRID_POINTS * 0.5, sample_dt=0.5).t0 == 5.0
    # the ceiling counts the intervals of the grid the run samples: here the
    # span over sample_dt reads 10000000.000000002, and the grid has exactly
    # MAX_GRID_POINTS intervals
    edge = IntegratorConfig(t_end=1344508.0768799, sample_dt=0.13445080768798998)
    assert len(integrate_module._sample_grid(0.0, edge.t_end, edge.sample_dt)) \
        == MAX_GRID_POINTS + 1
    assert IntegratorConfig(t_end=1.0, sample_dt=0.5, rtol=100 * np.finfo(float).eps).rtol > 0.0
    # integrate runs one method, and fixed RK4 steps are order_check's
    assert not {"step", "method"} & set(vars(IntegratorConfig(t_end=1.0, sample_dt=0.5)))
    # a state holds at least one value, alone (d,) or in a batch (N, d)
    cfg = IntegratorConfig(t_end=1.0, sample_dt=0.5)
    for y0 in (np.zeros(0), np.zeros((2, 0)), np.float64(1.0), np.zeros((1, 1, 1))):
        with pytest.raises(ValueError):
            integrate(HARMONIC, y0, cfg)
    # the right-hand side comes with its equations: a plain callable is a
    # TypeError that names InlineRhs, before it is called
    def never(t, y):
        raise AssertionError("a plain callable is never called")

    for y0 in (np.ones(2), np.ones((3, 2))):
        with pytest.raises(TypeError, match="InlineRhs"):
            integrate(never, y0, cfg)


def test_harmonic_oscillator_accuracy():
    cfg = IntegratorConfig(t_end=100.0, sample_dt=0.1, rtol=1e-10, atol=1e-12)
    traj = integrate(HARMONIC, np.array([1.0, 0.0]), cfg)
    assert np.max(np.abs(traj.states[:, 0] - np.cos(traj.times))) < 1e-8


def test_zero_initial_state_stays_zero():
    # every Taylor coefficient of the zero state is zero, and a zero norm
    # bounds no step, so the Taylor run takes one step to t_end (the step
    # rule without that guard divides by zero); its batch row with a moving
    # row beside it does the same
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    cfg = IntegratorConfig(t_end=20.0, sample_dt=0.5, rtol=1e-10, atol=1e-12)
    taylor = integrate(_inline(p), np.zeros(4), cfg)
    assert np.all(taylor.states == 0.0)
    assert taylor.stats["accepted"] == 1 and taylor.stats["h_min"] == 20.0
    batch = integrate(_inline(p), np.array([np.zeros(4), [0.0, 0.5, 0.0, 0.5]]), cfg)
    assert np.all(batch.states[0] == 0.0) and batch.stats["row_accepted"][0] == 1
    assert batch.stats["row_accepted"][1] > 10 and np.all(np.isfinite(batch.states))


def test_sample_grid_exactness():
    cfg = IntegratorConfig(t_end=5.0, sample_dt=0.25, rtol=1e-8, atol=1e-10)
    y0 = np.array([1.0, 0.0])
    traj = integrate(HARMONIC, y0, cfg)
    expected = 0.25 * np.arange(21)
    assert np.array_equal(traj.times, expected)
    assert np.array_equal(traj.states[0], y0)
    # non-divisible horizon still ends exactly at t_end
    cfg2 = IntegratorConfig(t_end=1.1, sample_dt=0.25, rtol=1e-8, atol=1e-10)
    traj2 = integrate(HARMONIC, y0, cfg2)
    assert traj2.times[-1] == 1.1
    # the grid starts at the config's t0, and the right-hand side sees those times
    cfg3 = IntegratorConfig(t0=2.0, t_end=3.0, sample_dt=0.25, rtol=1e-12, atol=1e-14)
    traj3 = integrate(_field(("x",), ("dx = 2.0 * t",)), np.array([4.0]), cfg3)
    assert np.array_equal(traj3.times, [2.0, 2.25, 2.5, 2.75, 3.0])
    np.testing.assert_allclose(traj3.states[:, 0], traj3.times**2, rtol=1e-12)


def test_determinism_bit_identical():
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    cfg = IntegratorConfig(t_end=30.0, sample_dt=0.1, rtol=1e-9, atol=1e-11)
    y0 = np.array([0.0, 0.5, 0.0, 0.5])
    a = integrate(_inline(p), y0, cfg)
    b = integrate(_inline(p), y0, cfg)
    assert np.array_equal(a.states, b.states)
    assert a.stats == b.stats


def test_time_reversal_conservative_case():
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2, delta=0.0)
    y0 = np.array([0.0, 0.5, 0.0, 0.5])
    T = 50.0
    cfg = IntegratorConfig(t_end=T, sample_dt=T, rtol=1e-10, atol=1e-12)
    fwd = integrate(_inline(p), y0, cfg)
    # the frozen system is autonomous and even in the velocities: reverse
    # them, run forward again, and reverse them back
    flip = np.array([1.0, -1.0, 1.0, -1.0])
    back = integrate(_inline(p), fwd.states[-1] * flip, cfg)
    assert np.max(np.abs(back.states[-1] * flip - y0)) < 100 * 1e-10


def test_blow_up_reports_last_good_state():
    # the Taylor steps shrink with the radius of convergence as the solution
    # escapes: the fig1 model from q1 = 5 (the config sim-fail.ini of CI and
    # tools/datadiff.py), and at epsilon = 0.9 from (3, 0, 3, 0); a batch row
    # fails where its single run does
    fig1 = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.9, n=1)
    cases = [(_inline(p), np.array([3.0, 0.0, 3.0, 0.0]), 50.0),
             (_inline(fig1), np.array([5.0, 0.1, 0.1, 0.1]), 30.0)]
    for rhs, y0, t_end in cases:
        cfg = IntegratorConfig(t_end=t_end, sample_dt=0.5, rtol=1e-10, atol=1e-12)
        with pytest.raises(IntegrationError) as err:
            integrate(rhs, y0, cfg)
        assert err.value.t_last < t_end
        assert isinstance(err.value.y_last, np.ndarray) and err.value.y_last.shape == (4,)
        assert np.all(np.isfinite(err.value.y_last))
        assert err.value.reason in ("underflow", "nonfinite")
        batch = integrate(rhs, np.array([y0, [0.0, 0.5, 0.0, 0.5]]), cfg)
        assert batch.stats["failures"][0] == (0, str(err.value))


def _nan_field():
    """y' = (c, 0) with c NaN: every coefficient past the state is NaN, and
    a NaN norm bounds no step."""
    return _field(("x", "v"), ("dx = c", "dv = 0.0"), c=math.nan)


def test_nan_rhs_aborts():
    cfg = IntegratorConfig(t_end=1.0, sample_dt=0.5, rtol=1e-8, atol=1e-10)
    with pytest.raises(IntegrationError):
        integrate(_nan_field(), np.array([1.0, 0.0]), cfg)


def test_rk4_matches_adaptive():
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    y0 = np.array([0.0, 0.5, 0.0, 0.5])
    # every 100th of 4000 steps of 0.005 against the samples every 0.5
    a = rk4_steps(lambda t, y: full_rhs(t, y, p), y0, 0.0, 0.005, 4000)[99::100]
    cfg5 = IntegratorConfig(t_end=20.0, sample_dt=0.5, rtol=1e-12, atol=1e-14)
    b = integrate(_inline(p), y0, cfg5)
    assert len(a) == len(b) - 1
    assert np.max(np.abs(a - b.states[1:])) < 1e-6


def test_order_check_rk4():
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    y0 = np.array([0.0, 0.5, 0.0, 0.5])
    est = order_check(_inline(p), y0, 0.0, 10.0, [0.2, 0.1, 0.05, 0.025])
    assert not est.saturated
    assert 3.7 <= est.order <= 4.3
    ratios = [est.errors[i] / est.errors[i + 1] for i in range(len(est.errors) - 1)]
    assert all(12.0 <= r <= 20.0 for r in ratios)


def test_order_check_saturates_on_exact_match():
    constant = _field(("a", "b", "c"), ("da = 1.0", "db = -2.0", "dc = 3.0"))
    est = order_check(constant, np.zeros(3), 0.0, 10.0, [0.5, 0.25, 0.125])
    assert est.saturated
    assert est.order is None


def test_order_check_needs_three_steps():
    def never(t, y):
        raise AssertionError("inputs must be checked before integrating")

    bad = [(1.0, [0.1, 0.05]), (1.0, [0.1, 0.1, 0.1]), (-1.0, [0.2, 0.1, 0.05]),
           (math.inf, [0.2, 0.1, 0.05]), (1.0, [0.2, 0.1, 0.0]), (1.0, [0.2, 0.1, math.nan]),
           (1.0, [0.2, 0.1, 0.5 / MAX_GRID_POINTS]),
           # distinct nominal steps, but at most two distinct steps taken
           (10.0, [20.0, 30.0, 40.0]), (1.0, [0.3, 0.7, 1.3])]
    field = HARMONIC._replace(call=never)
    for t_end, steps in bad:
        with pytest.raises(ValueError):
            order_check(field, np.array([1.0, 0.0]), 0.0, t_end, steps)
    # the fixed steps run one state, not a batch
    with pytest.raises(ValueError):
        order_check(field, np.ones((3, 2)), 0.0, 1.0, [0.2, 0.1, 0.05])


def test_against_scipy_reference():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    y0 = np.array([0.0, 0.5, 0.0, 0.5])
    cfg = IntegratorConfig(t_end=50.0, sample_dt=1.0, rtol=1e-11, atol=1e-13)
    mine = integrate(_inline(p), y0, cfg)
    ref = scipy_integrate.solve_ivp(lambda t, y: full_rhs(t, y, p), (0.0, 50.0), y0,
                                    method="DOP853", rtol=1e-12, atol=1e-14,
                                    t_eval=mine.times)
    assert ref.success
    assert np.max(np.abs(mine.states - ref.y.T)) < 1e-7


def test_trajectory_container():
    traj = Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((2, 3)))
    assert len(traj) == 2
    # a batch of three 2-component rows sampled three times
    cfg = IntegratorConfig(t_end=1.0, sample_dt=0.5)
    batch = integrate(HARMONIC, np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]), cfg)
    assert len(batch) == 3 and batch.states.shape == (3, 3, 2)
    np.testing.assert_array_equal(batch.states[:, 0], [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])


def _escaping_batch():
    """Six states of the fig1 model at epsilon = 0.9; the large-amplitude
    ones blow up before t = 30."""
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.9, n=1)
    y0 = np.array([[q1, 0.1, 0.1, 0.1] for q1 in (0.2, 3.0, 0.5, 2.9, 1.0, 3.1)])
    cfg = IntegratorConfig(t_end=30.0, sample_dt=0.5, rtol=1e-8, atol=1e-10)
    return _inline(p), y0, cfg


def _fig1_batch(t0=0.0):
    """Seven states near the fig1 initial condition on [t0, t0 + 20]."""
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    rng = np.random.default_rng(3)
    y0 = np.column_stack([np.zeros(7), rng.normal(0.5, 0.05, 7),
                          rng.normal(0.0, 0.05, 7), rng.uniform(0.4, 0.6, 7)])
    cfg = IntegratorConfig(t0=t0, t_end=t0 + 20.0, sample_dt=0.05, rtol=1e-10, atol=1e-12)
    return _inline(p), y0, cfg


def _decay_batch(d):
    """y' = -r*y in d components, rates r spread over [0.5, 1.5]."""
    rates = np.linspace(0.5, 1.5, d).tolist()
    rhs = _field([f"x{j}" for j in range(d)], [f"dx{j} = {-r!r} * x{j}" for j, r in enumerate(rates)])
    y0 = np.array([np.ones(d), np.linspace(1.0, 0.5, d)])
    cfg = IntegratorConfig(t_end=2.0, sample_dt=0.1)
    return rhs, y0, cfg


def test_batched_rows_match_scalar_integrate():
    # a single run is its batch row byte for byte: samples, counts and, for a
    # row that fails, the message; a batch of one row included. The single
    # run's step writes a sum of over 64 terms as several statements: its
    # finiteness sum (d terms) from d = 65 on.
    fig1 = _fig1_batch()
    decays = [_decay_batch(d) for d in (33, 70)]
    cases = [fig1, _escaping_batch(), (fig1[0], fig1[1][2:3], fig1[2]), _fig1_batch(t0=3.7),
             *decays]
    failed = 0
    for rhs, y0, cfg in cases:
        batch = integrate(rhs, y0, cfg)
        assert batch.states.shape == (len(y0), len(batch.times), y0.shape[1])
        failures = dict(batch.stats["failures"])
        for i, row in enumerate(y0):
            if i in failures:
                with pytest.raises(IntegrationError) as err:
                    integrate(rhs, row, cfg)
                assert str(err.value) == failures[i]
                failed += 1
                continue
            single = integrate(rhs, row, cfg)
            assert np.array_equal(single.times, batch.times)
            assert np.array_equal(single.states, batch.states[i])
            for key in STAT_KEYS:
                assert single.stats[key] == batch.stats[f"row_{key}"][i]
        for key in STAT_KEYS:
            assert batch.stats[key] == batch.stats[f"row_{key}"].sum()
    assert failed >= 2
    for rhs, y0, cfg in decays:
        batch = integrate(rhs, y0, cfg)
        rates = np.linspace(0.5, 1.5, y0.shape[1])
        exact = y0[:, None, :] * np.exp(-np.outer(batch.times, rates))
        assert np.max(np.abs(batch.states - exact)) < 1e-8


def _pole_batch():
    """y1' = 1/(10 - t)^2 up to its pole at t = 10, and y2' = -y2: the
    steps shrink with the distance to the pole, and both rows stop at a step
    below 1e-14 |t|, the relative part of the step floor."""
    cfg = IntegratorConfig(t0=9.0, t_end=11.0, sample_dt=0.5)
    rhs = _field(("a", "b"), ("da = 1.0 / ((10.0 - t) * (10.0 - t))", "db = -b"))
    return rhs, np.array([[0.0, 1.0], [0.0, 2.0]]), cfg


def test_batched_failures_match_scalar_integrate(monkeypatch):
    # a failing row stops where its single run stops, to the bit of the last
    # good time, which the message rounds to six digits: near the pole a step
    # floor of 1e-14 in place of 1e-14 |t| moves it by about 2e-10
    text = integrate_module._failure_text
    for rhs, y0, cfg in (_escaping_batch(), _pole_batch()):
        expected, last = [], []
        for i, row in enumerate(y0):
            try:
                integrate(rhs, row, cfg)
            except IntegrationError as exc:
                expected.append((i, str(exc)))
                last.append(exc.t_last)
        times = []
        monkeypatch.setattr(integrate_module, "_failure_text",
                            lambda message, t: times.append(t) or text(message, t))
        batch = integrate(rhs, y0, cfg)
        monkeypatch.setattr(integrate_module, "_failure_text", text)
        assert len(expected) >= 2
        assert batch.stats["failures"] == expected and sorted(times) == sorted(last)
        failed = [i for i, _ in expected]
        assert np.all(np.isfinite(np.delete(batch.states, failed, axis=0)))
        assert np.all(np.isnan(batch.states[failed, -1]))
    assert all(9.9999999 < t < 10.0 for t in last)


def _harmonic_batch():
    """Harmonic oscillators of mixed amplitudes, the origin among them."""
    y0 = np.array([[1.0, 0.0], [0.0, 2.0], [0.3, -0.4], [5.0, 1.0], [0.0, 0.0],
                   [1e-3, 0.0], [2.0, 2.0]])
    cfg = IntegratorConfig(t_end=7.0, sample_dt=0.1, rtol=1e-9, atol=1e-11)
    return HARMONIC, y0, cfg


@pytest.mark.parametrize("make", [_harmonic_batch, _escaping_batch])
def test_batched_rows_independent_of_chunking(make):
    rhs, y0, cfg = make()
    whole = integrate(rhs, y0, cfg)
    for size in (1, 5):
        parts = [integrate(rhs, y0[i:i + size], cfg) for i in range(0, len(y0), size)]
        assert np.array_equal(np.concatenate([part.states for part in parts]),
                              whole.states, equal_nan=True)
        for key in (f"row_{key}" for key in STAT_KEYS):
            assert np.array_equal(np.concatenate([part.stats[key] for part in parts]),
                                  whole.stats[key])
        assert [(start + i, message) for start, part in zip(range(0, len(y0), size), parts)
                for i, message in part.stats["failures"]] == whole.stats["failures"]


@pytest.mark.parametrize("make", [_harmonic_batch, _escaping_batch])
def test_batched_fill_independent_of_block_size(make, monkeypatch):
    # the batch fills its samples in blocks of row-steps: a fill after every
    # step, after a few and once at the end give the same bytes and counts
    rhs, y0, cfg = make()
    whole = integrate(rhs, y0, cfg)
    fill = integrate_module._taylor_fill
    for cap in (1, 10, 10**9):
        monkeypatch.setattr(integrate_module, "_FILL_BLOCK", cap)
        calls = []
        monkeypatch.setattr(integrate_module, "_taylor_fill",
                            lambda *args: calls.append(fill(*args)))
        run = integrate(rhs, y0, cfg)
        assert np.array_equal(run.states, whole.states, equal_nan=True)
        for key in (f"row_{key}" for key in STAT_KEYS):
            assert np.array_equal(run.stats[key], whole.stats[key])
        assert run.stats["failures"] == whole.stats["failures"]
        steps = max(whole.stats["row_accepted"] + whole.stats["row_rejected"])
        if cap == 1:
            assert len(calls) == steps
        elif cap == 10:
            assert 1 < len(calls) < steps
        else:
            assert len(calls) == 1


def test_single_run_fill_independent_of_block_size(monkeypatch):
    # a single run fills its samples in blocks of samples: a fill after every
    # step that holds a sample, after a few and once at the end give the same
    # bytes and counts, and a failing run the same error
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    y0 = np.array([0.0, 0.5, 0.0, 0.5])
    cfg = IntegratorConfig(t_end=10.0, sample_dt=0.01)
    # the blow-up of test_blow_up_reports_last_good_state
    p_bad = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.9, n=1)
    y0_bad = np.array([3.0, 0.0, 3.0, 0.0])
    cfg_bad = IntegratorConfig(t_end=50.0, sample_dt=0.01)

    def valid():
        return integrate(_inline(p), y0, cfg)

    def failing():
        with pytest.raises(IntegrationError) as err:
            integrate(_inline(p_bad), y0_bad, cfg_bad)
        return err.value

    whole, failed = valid(), failing()
    fill = integrate_module._taylor_fill
    for cap in (10**9, 100, 1):
        monkeypatch.setattr(integrate_module, "_FILL_BLOCK", cap)
        steps = []  # the steps of each fill
        monkeypatch.setattr(integrate_module, "_taylor_fill",
                            lambda *args: steps.append(len(args[3])) or fill(*args))
        run = valid()
        assert np.array_equal(run.states, whole.states)
        assert run.stats == whole.stats
        if cap == 10**9:
            # at 100 samples per unit time every step holds one
            holding = steps[0]
            assert steps == [holding] and holding == run.stats["accepted"]
        elif cap == 100:
            assert 1 < len(steps) < holding and sum(steps) == holding
        else:
            assert steps == [1] * holding
        err = failing()
        assert str(err) == str(failed) and err.t_last == failed.t_last
        assert err.reason == failed.reason and np.array_equal(err.y_last, failed.y_last)


def test_power_float_matches_array_entry():
    # both loops take the step's powers from libm: the single run's ``**``
    # on a float and the matching entry of the batch's array (_power) get the
    # same bits, at the exponents 1/k of the Taylor step rule, and zero, NaN
    # and inf entries do not raise
    rng = np.random.default_rng(3)
    values = np.concatenate([rng.uniform(0.0, 2.0, 2000), 10.0 ** rng.uniform(-300, 300, 2000),
                             [5e-324, 1.0, 1.7e308]])
    for k in (1, 2, 12, 13, 16):
        rows = integrate_module._power(values, 1.0 / k)
        for x, row in zip(values.tolist(), rows.tolist()):
            single = x ** (1.0 / k)
            assert type(single) is float and single == row == math.pow(x, 1.0 / k)
    special = integrate_module._power(np.array([0.0, math.nan, math.inf, 1.0]), 1.0 / 13)
    assert special[0] == 0.0 and math.isnan(special[1]) and special[2:].tolist() == [math.inf, 1.0]


def test_method_records_weigh_every_stage_but_the_last_in_the_solution():
    # the finiteness test of order_check reads only the new state and the
    # last stage: the solution weights must cover every other stage
    rk4 = integrate_module._RK4
    assert [len(weights) for _, weights in rk4] == list(range(1, len(rk4) + 1))


def _stage_rhs(bad_call):
    """A field of t alone, so a non-finite stage input does not spread to later
    stages: its equations are clean, and its call number ``bad_call``
    answers inf."""
    calls = []

    def rhs(t, y):
        k = [1.0 - t * t, 0.5 * t]
        if len(calls) == bad_call:
            k[0] = math.inf
        calls.append(t)
        return k
    return _field(("a", "b"), ("da = 1.0 - t * t", "db = 0.5 * t"))._replace(call=rhs)


def test_inf_at_one_stage_counts_as_non_finite_attempt():
    # call 0 is the first slope, call s the stage s of the first step. A
    # fixed rk4 step has no attempt to repeat: order_check raises at the
    # step that met it. Its reference, the Taylor run of the equations,
    # calls no field, so the poisoned calls start at the first slope
    y0 = np.array([0.3, -0.2])
    stages = len(integrate_module._RK4)
    # a stage of the first step, and stage 1 of the third (step 2 of 0.1)
    for bad_call, t_last in [(s, 0.0) for s in range(1, stages + 1)] + [(9, 0.2)]:
        with pytest.raises(IntegrationError) as err:
            order_check(_stage_rhs(bad_call), y0, 0.0, 2.0, [0.1, 0.05, 0.025])
        assert err.value.reason == "nonfinite" and err.value.t_last == t_last
        if t_last == 0.0:
            assert np.array_equal(err.value.y_last, y0)


def test_single_run_makes_no_numpy_call_per_step(monkeypatch):
    # the single-row loop takes its step over floats and fills its samples
    # in blocks: the kernel runs once per _FILL_BLOCK samples
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    y0 = np.array([0.0, 0.5, 0.0, 0.5])
    cfg = IntegratorConfig(t_end=10.0, sample_dt=0.01, rtol=1e-9, atol=1e-11)

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy power on the single-row path")

    before = integrate(_inline(p), y0, cfg)
    monkeypatch.setattr(np, "power", forbidden)
    kernel = integrate_module._taylor_fill
    for cap in (integrate_module._FILL_BLOCK, 100):
        monkeypatch.setattr(integrate_module, "_FILL_BLOCK", cap)
        calls = []
        monkeypatch.setattr(integrate_module, "_taylor_fill",
                            lambda *args: calls.append(1) or kernel(*args))
        after = integrate(_inline(p), y0, cfg)
        assert np.array_equal(after.states, before.states)
        assert after.stats == before.stats
        assert 1 <= len(calls) <= math.ceil(len(after) / cap) + 1


@pytest.mark.parametrize("inline", [False, True], ids=["called", "inlined"])
def test_single_run_makes_no_min_or_max_call_per_step(inline):
    # the generated loop writes the step clamps, the step rule, the stop
    # rule's text and the norms' max in place, and its Taylor recurrences
    # the decay law of its text: it names none of the builtins min and max,
    # alpha, _stops or _power, and neither does the single run, under either
    # law. order_check's rk4 step, which calls the field, names none of them
    # either
    for law, equations in FULL_EQUATIONS.items():
        code = integrate_module._taylor_loop_code(4, equations, 13)
        run = next(const for const in code.co_consts if isinstance(const, types.CodeType))
        codes = ((integrate_module._rk4_step.__code__,) if not inline
                 else (run, integrate_module._run_single.__code__))
        for code in codes:
            assert not {"min", "max", "alpha", "_stops", "_power"} & set(
                code.co_names), code.co_name
        assert ("exp" in run.co_names) == (law == "exponential")
        assert "rhs" not in run.co_varnames
    assert "rhs" in integrate_module._rk4_step.__code__.co_varnames


def test_rhs_may_return_any_sequence_of_d_floats(monkeypatch):
    # order_check's fixed rk4 steps call the record's call with a tuple of d
    # floats, and it may answer with any sequence of d floats; tuple, list
    # and ndarray answers give the same estimate, and so does a list the
    # call rewrites at every call
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    y0 = np.array([0.0, 0.5, 0.0, 0.5])
    states = []

    def as_tuple(t, y):
        states.append(y)
        return full_rhs(t, y, p)

    buffer = [0.0] * 4

    def reused(t, y):  # one list, rewritten at every call
        buffer[:] = full_rhs(t, y, p)
        return buffer

    answers = [as_tuple, lambda t, y: list(full_rhs(t, y, p)),
               lambda t, y: np.array(full_rhs(t, y, p)), reused]
    estimates = [order_check(_inline(p)._replace(call=rhs), y0, 0.0, 5.0, [0.2, 0.1, 0.05])
                 for rhs in answers]
    assert all(estimate == estimates[0] for estimate in estimates[1:])
    assert not estimates[0].saturated
    assert states and all(type(y) is tuple and len(y) == 4 and all(type(v) is float for v in y)
                          for y in states)

    # an answer of d - 1 or d + 1 values at any stage of an rk4 step raises
    # ValueError; so do equations of another number of components than the
    # state in integrate, single or batched, before any sample is written
    def late(answer, call):
        """The field, but its call number ``call`` (0 is stage 1) gives
        ``answer``."""
        calls = []

        def rhs(t, y):
            calls.append(t)
            return answer(full_rhs(t, y, p)) if len(calls) == call + 1 else full_rhs(t, y, p)
        return rhs

    for answer in (lambda f: f[:3], lambda f: f + (f[0],)):
        for call in range(len(integrate_module._RK4)):
            with pytest.raises(ValueError):
                integrate_module._rk4_step(late(answer, call), 0.0, 0.1, tuple(y0.tolist()),
                                           full_rhs(0.0, tuple(y0.tolist()), p))
    fills = []
    monkeypatch.setattr(integrate_module, "_taylor_fill", lambda *args: fills.append(args))
    cfg = IntegratorConfig(t_end=5.0, sample_dt=0.25)
    for start in (y0[:3], y0[:3][None], np.append(y0, 0.0), np.append(y0, 0.0)[None]):
        with pytest.raises(ValueError):
            integrate(_inline(p), start, cfg)
    assert fills == []


def test_span_below_step_floor_reaches_t_end():
    # the step-size floor 1e-14*max(1, |t|) exceeds the whole span: the run
    # reaches t_end in one step and must not report an underflow after it
    cfg = IntegratorConfig(t_end=1e-300, sample_dt=1e-300)
    traj = integrate(HARMONIC, np.array([1.0, 0.0]), cfg)
    assert np.array_equal(traj.times, [0.0, 1e-300])
    assert traj.stats["accepted"] == 1
    batch = integrate(HARMONIC, np.array([[1.0, 0.0], [0.0, 2.0]]), cfg)
    assert batch.stats["failures"] == []
    assert np.all(np.isfinite(batch.states))
    # a span of two ulps: t0 stands for t_end, so the grid holds one sample
    # and no step has one to fill
    cfg = IntegratorConfig(t0=1.0, t_end=1.0 + 2**-51, sample_dt=1.0)
    for start in (np.array([1.0, 0.0]), np.array([[1.0, 0.0]])):
        traj = integrate(HARMONIC, start, cfg)
        assert np.array_equal(traj.times, [1.0]) and np.array_equal(traj.states[..., 0, :], start)
        assert traj.stats["accepted"] == 1
    # from t0 = 1000 a span of 8e-12, 70 ulps of 1000, lies below the step
    # floor 1e-14*|t| = 1e-11: y' = -2.5e9 y steps to t_end, a clamped step
    # that ends on t_end exactly, single and batched alike, within rtol
    cfg = IntegratorConfig(t0=1000.0, t_end=1000.0 + 8e-12, sample_dt=8e-12, rtol=1e-6)
    rhs = _field(("x",), ("dx = -2.5e9 * x",))
    single = integrate(rhs, np.array([1.0]), cfg)
    batch = integrate(rhs, np.array([[1.0]]), cfg)
    assert single.stats["accepted"] == 1 and single.times[-1] == cfg.t_end
    assert batch.stats["failures"] == [] and np.array_equal(batch.states[0], single.states)
    assert abs(single.states[-1, 0] - math.exp(-2.5e9 * (cfg.t_end - cfg.t0))) < 1e-6


def test_step_floor_stops_a_run_at_t_zero():
    # the floor is 1e-14*max(1, |t|), not 1e-14*|t|: y' = 1/(t - 1e-20) has
    # a pole at t = 1e-20, so from t0 = 0 its radius of convergence caps the
    # first step at about e^-2 1e-20, and both loops stop after it, near
    # t = 0, with an underflow (on a floor of 1e-14*|t| alone, about 1e-35
    # there, the steps would shrink on towards the pole)
    cfg = IntegratorConfig(t_end=1.0, sample_dt=0.5)
    rhs = _field(("x",), ("dx = 1.0 / (t - 1e-20)",))
    with pytest.raises(IntegrationError) as err:
        integrate(rhs, np.array([0.0]), cfg)
    assert err.value.reason == "underflow" and 0.0 < err.value.t_last < 1e-20
    batch = integrate(rhs, np.array([[0.0]]), cfg)
    assert batch.stats["failures"] == [(0, str(err.value))]
    assert batch.stats["accepted"] == 1 and np.isnan(batch.states[0, 1:]).all()


def test_overflowing_finiteness_sum_is_not_a_non_finite_step():
    # a single run tests finiteness on the sum of the new state, and only an
    # infinite sum on every value: from (1e308, 1e308) the sum of the new
    # state overflows though every value is finite, so the run completes in
    # one step, as its batch row does
    cfg = IntegratorConfig(t_end=1.0, sample_dt=1.0)
    rhs = _field(("a", "b"), ("da = -1e-3 * a", "db = -1e-3 * b"))
    single = integrate(rhs, np.array([1e308, 1e308]), cfg)
    assert single.stats["accepted"] == 1 and single.stats["rejected"] == 0
    assert np.isfinite(single.states).all() and single.states[-1, 0] < 1e308
    batch = integrate(rhs, np.array([[1e308, 1e308]]), cfg)
    assert batch.stats["failures"] == []
    assert np.array_equal(batch.states[0], single.states)


def test_one_non_finite_attempt_stops_the_run():
    # y' = NaN: the first attempt meets NaN, and its NaN norms bound no step.
    # An attempt's coefficients depend on its start state alone, so no step
    # from that state is finite: the one attempt stops the run at t0, on
    # non-finite values, over a span whose step is far above the step floor
    cfg = IntegratorConfig(t_end=1e17, sample_dt=1e16)
    batch = integrate(_nan_field(), np.array([[1.0, 0.0]]), cfg)
    assert batch.stats["row_rejected_nonfinite"].tolist() == [1]
    assert batch.stats["row_rhs_evals"].tolist() == [1]
    assert batch.stats["row_accepted"].tolist() == [0]
    with pytest.raises(IntegrationError) as err:
        integrate(_nan_field(), np.array([1.0, 0.0]), cfg)
    assert err.value.reason == "nonfinite" and err.value.t_last == 0.0
    assert batch.stats["failures"] == [(0, str(err.value))]


def _step_starts(monkeypatch, rhs, y0, cfg):
    """The start times of the steps of the single Taylor run of ``rhs`` from
    y0 that hold a sample, as its fills see them."""
    starts = []
    fill = integrate_module._taylor_fill
    monkeypatch.setattr(integrate_module, "_taylor_fill",
                        lambda *args: starts.extend(args[5].tolist()) or fill(*args))
    integrate(rhs, y0, cfg)
    monkeypatch.setattr(integrate_module, "_taylor_fill", fill)
    return starts


@pytest.mark.parametrize("kind", ["exponential", "polynomial"])
def test_taylor_batch_rows_equal_single_runs(kind, monkeypatch):
    # a Taylor batch row is its single run byte for byte: samples, counts and
    # step sizes, from t0 = 2.5, where the decay factor's series starts away
    # from 1, under either law, and on a grid whose first sample lies exactly
    # on the end of the first step (2.5 + dt is that end, by Sterbenz's
    # lemma), which both loops fill from that step. So is every row of a
    # batch of one, two or three rows, and of one whose last live row runs
    # alone for several steps: at p = 13 a Cauchy sum reaches 13 terms, which
    # numpy's pairwise sum of a single column would add in another order
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.3, n=1, alpha_kind=kind)
    rhs = _inline(p)
    rng = np.random.default_rng(11)
    y0 = np.column_stack([rng.normal(0.0, 0.1, 4), rng.normal(0.5, 0.05, 4),
                          rng.normal(0.0, 0.1, 4), rng.uniform(0.4, 0.6, 4)])
    fine = IntegratorConfig(t0=2.5, t_end=12.5, sample_dt=1e-3)
    first_end = _step_starts(monkeypatch, rhs, y0[0], fine)[1]
    cfg = IntegratorConfig(t0=2.5, t_end=12.5, sample_dt=first_end - 2.5)
    assert 2.5 + (first_end - 2.5) == first_end
    assert integrate_module._taylor_order(cfg.rtol) == 13
    # small states take fewer steps, so the last row runs alone; over a
    # horizon of 50 a row takes ~200 steps, and a changed sum order moves
    # the bytes of nearly every row
    alone = np.vstack([1e-3 * y0[[0, 2, 3]], y0[1]])
    long = IntegratorConfig(t0=2.5, t_end=52.5, sample_dt=cfg.sample_dt)
    for rows, run in ((y0, cfg), (y0[1:2], long), (y0[:2], long), (y0[:3], long), (alone, long)):
        batch = integrate(rhs, rows, run)
        assert batch.times[1] == first_end and batch.stats["failures"] == []
        for i, row in enumerate(rows):
            single = integrate(rhs, row, run)
            assert np.array_equal(single.states, batch.states[i])
            for key in ("accepted", "rejected", "rhs_evals", "h_min", "h_max", "h_final"):
                assert single.stats[key] == batch.stats[f"row_{key}"][i]
        assert batch.stats["h_min"]["min"] == min(batch.stats["row_h_min"])
    attempts = sorted(batch.stats["row_rhs_evals"].tolist())
    assert attempts[-1] - attempts[-2] >= 5
    assert _step_starts(monkeypatch, rhs, y0[0], cfg)[:2] == [2.5, first_end]


def test_dissipative_batch_rows_equal_single_runs():
    # the damped text writes its products inline (epsilon * 2.0 * a4 * z1 *
    # z2, a4 * z1 * z1) and reads the rates w1 and w2 as state components, so
    # the batched step groups operands of other shapes than the full texts':
    # every row of a batch of one, two or three rows is its single run byte
    # for byte, samples, counts and step sizes, at the default order and at
    # p = 16, where the last live row runs alone for several steps
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.3, n=1)
    rhs = DISSIPATIVE_EQUATIONS.at(p)
    # the first row, five times the second, takes 14 steps more
    z0 = np.array([[0.25, 2.5, 0.15, 2.5], [0.05, 0.5, 0.03, 0.5], [0.0, 0.52, 1e-3, 0.45]])
    for rtol in (1e-10, 1e-13):
        cfg = IntegratorConfig(t_end=30.0, sample_dt=0.25, rtol=rtol)
        for rows in (z0[:1], z0[:2], z0):
            batch = integrate(rhs, rows, cfg)
            assert batch.stats["failures"] == []
            for i, row in enumerate(rows):
                single = integrate(rhs, row, cfg)
                assert np.array_equal(single.states, batch.states[i])
                for key in ("accepted", "rejected", "rhs_evals", "h_min", "h_max", "h_final"):
                    assert single.stats[key] == batch.stats[f"row_{key}"][i]
        attempts = sorted(batch.stats["row_rhs_evals"].tolist())
        assert attempts[-1] - attempts[-2] >= 5


@pytest.mark.parametrize("rtol", [0.1, 1e-3, 1e-13])
def test_every_field_batch_rows_equal_single_runs(rtol):
    # the batched step lays out and groups the operations of each text in
    # its own way (its columns, the rows of its intermediate values, the
    # groups of each order), so every field the package generates is
    # checked, at p = 3, 5 and 16 (p = 13 is the other tests'): each row of
    # a batch of three is its single run byte for byte
    averaged = importlib.import_module("symevol.averaged")
    fields = [*FULL_EQUATIONS.values(), DISSIPATIVE_EQUATIONS, averaged.AVG12_FIRST,
              averaged.AVG12_SECOND, averaged.AVG13, averaged.AVG11]
    rng = np.random.default_rng(8)
    cfg = IntegratorConfig(t_end=6.0, sample_dt=0.5, rtol=rtol)
    for equations in fields:
        omega = next((float(guard.split(", ")[1]) for guard in equations.guard
                      if guard.startswith("check_omega")), 2.0)
        p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=omega, epsilon=0.1, n=2)
        d = len(equations.state)
        rows = rng.uniform(0.2, 0.6, (3, d))
        batch = integrate(equations.at(p), rows, cfg)
        assert batch.stats["failures"] == []
        for i, row in enumerate(rows):
            single = integrate(equations.at(p), row, cfg)
            assert np.array_equal(single.states, batch.states[i]), (equations.rates, rtol)
            assert single.stats["h_min"] == batch.stats["row_h_min"][i]


@pytest.mark.parametrize("n", [1, 2, 3, 32, 1024])
def test_add_reduce_adds_rows_in_order(n):
    # the batch writes each Cauchy sum of three terms or more, and each half
    # of a square, as np.add.reduce over axis 0, into rows of its buffer, of
    # the products of two series' coefficients, one of them reversed: the
    # (terms, n) products of one sum, or the (terms, S, n) products of S sums
    # of equal length. It relies on numpy adding the terms one after
    # another, in every entry, as the single run's sum does. Up to 17 terms
    # (p = 16 at rtol 1e-13), on terms of mixed signs from 1e-8 to 1e8, whose
    # sums move with the order, on the step's own views of its coefficients:
    # columns side by side, evenly spaced, or one column read by every sum.
    # So it does from two columns on, and on one column for S >= 2 sums; one
    # sum on one column numpy adds pairwise. A group of one sum stays (the
    # emitter writes them), so a last running row still steps beside a
    # second column (_run_rows)
    rng = np.random.default_rng(n)

    def draw(shape):
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)

    p = 16
    stepper = integrate_module._BatchStep(
        integrate_module._TaylorEmitter(FULL_EQUATIONS["exponential"], p, batch=True), 4, p)
    names = {"_a": draw((p + 1, stepper.width, n))}

    def view(name):  # a view the step binds, by its name
        return eval(next(text for text, key in stepper.views.items() if key == name), names)

    out, products = np.empty((3, n)), np.empty(((p + 1) * 3, n))
    reordered = pairwise = 0
    for size, columns in ((1, [[2], [5]]), (2, [[0, 1], [9, 10]]), (2, [[5, 5], [0, 2]]),
                          (3, [[1, 2, 3], [4, 6, 8]])):
        for terms in range(3, p + 2):
            for lo in (0, 1)[:p + 2 - terms]:
                hi = lo + terms - 1
                k = lo + hi
                x = view(stepper.terms(columns[0], lo, hi))
                y = view(stepper.terms(columns[1], k - lo, k - hi))
                shape = (terms, size, n) if size > 1 else (terms, n)
                held = products[:terms * size].reshape(shape)
                np.multiply(x, y, held)
                sums = out[:size] if size > 1 else out[0]
                np.add.reduce(held, 0, None, sums)
                forward, backward = held[0].copy(), held[-1].copy()
                for i in range(1, terms):
                    forward += held[i]
                    backward += held[-1 - i]
                reordered += np.count_nonzero(backward != forward)
                if size == 1 and n == 1:
                    pairwise += sums[0] != forward[0]
                else:
                    assert np.array_equal(sums, forward), (size, terms, lo)
    assert reordered > 0 and (pairwise > 0) == (n == 1)
    # the batched step sums this way, and no more with cumsum
    code = integrate_module._taylor_step_code(4, FULL_EQUATIONS["exponential"], 16)
    bind = next(const for const in code.co_consts if isinstance(const, types.CodeType))
    step = next(const for const in bind.co_consts if isinstance(const, types.CodeType))
    assert "_add_reduce" in step.co_names and "cumsum" not in step.co_names


# (row, first sample, stop) of five steps of two rows, holding 0, 1 and many samples
_MIXED_STEPS = ((1, 10, 10), (0, 10, 11), (1, 20, 250), (0, 20, 390), (1, 300, 301))


def _horner_block(d, terms, steps=_MIXED_STEPS, samples=400):
    """A block of Taylor ``steps``, each (row, first sample, stop), of d
    components and ``terms`` coefficients on a sorted random grid ts of
    ``samples`` times: ts, the steps' rows, first samples, stops, start
    times and coefficients, and the per-sample reference of the rows up to
    the largest, Horner's rule in plain Python per sample and component,
    with the samples it writes."""
    rng = np.random.default_rng(d * terms)
    ts = np.sort(rng.uniform(0.0, 10.0, samples))
    rows, idx, stop = (np.array(column, dtype=np.intp) for column in zip(*steps))
    # t0 lies just before the first sample
    t0 = ts[idx] - rng.uniform(1e-9, 1e-3, len(steps))
    coeffs = rng.normal(size=(len(steps), terms, d)) * 10.0 ** rng.uniform(
        -3.0, 3.0, (len(steps), terms, 1))
    ref = np.zeros((rows.max() + 1, len(ts), d))
    written = np.zeros(ref.shape[:2], dtype=bool)
    for i, (row, first, end) in enumerate(steps):
        for j in range(first, end):
            s = float(ts[j]) - float(t0[i])
            for c in range(d):
                value = float(coeffs[i, -1, c])
                for k in range(terms - 2, -1, -1):
                    value = value * s + float(coeffs[i, k, c])
                ref[row, j, c] = value
        written[row, first:end] = True
    return ts, rows, idx, stop, t0, coeffs, ref, written


@pytest.mark.parametrize("d", [1, 4, 5])
def test_taylor_fill_matches_per_sample_horner_bitwise(d):
    # the Taylor fill of a batch's block of row-steps (_taylor_fill) writes
    # each step's samples with the bits of Horner's rule in plain Python,
    # per sample and component, and no other sample: in a block of steps
    # holding 0, 1 and many samples; of steps holding hundreds of samples
    # each, as a dense run's; of steps holding one sample each, as fig1's;
    # and of six rows, steps of the same row not next to each other, written
    # out of row order into the (6, samples, d) output, as a batch's
    blocks = {"mixed": (_MIXED_STEPS, 400),
              "hundreds": (((0, 0, 300), (0, 300, 700), (0, 700, 1000)), 1000),
              "ones": (tuple((0, j, j + 1) for j in range(80)), 80),
              "rows out of order": (((3, 0, 5), (0, 0, 2), (5, 5, 40), (2, 0, 1), (0, 2, 30),
                                     (4, 0, 40), (1, 3, 9), (3, 5, 40), (2, 1, 1)), 40)}
    for name, (steps, samples) in blocks.items():
        for terms in (3, 17):
            ts, rows, idx, stop, t0, coeffs, ref, written = _horner_block(d, terms, steps,
                                                                          samples)
            batch = np.zeros_like(ref)
            integrate_module._taylor_fill(batch, ts, rows, idx, stop, t0, coeffs)
            assert np.array_equal(batch, ref), (name, terms)
            assert np.array_equal(batch.any(axis=2), written), (name, terms)


@pytest.mark.parametrize("d", [1, 4, 5, 70])
def test_float_fill_matches_kernel_and_per_sample_formula_bitwise(d):
    # the single run's block fill, over the steps as its loop holds them
    # (flat floats: the first sample, the stop, t and the terms coefficients,
    # each as its d components: _fill_taylor_steps), writes each step's
    # samples with the bits of the kernel's batch fill and of the per-sample
    # Horner reference into its output, and no other sample
    for terms in (3, 17):
        ts, rows, idx, stop, t0, coeffs, ref, written = _horner_block(d, terms)
        kernel = np.zeros_like(ref)
        integrate_module._taylor_fill(kernel, ts, rows, idx, stop, t0, coeffs)
        single = np.zeros_like(ref)
        for row in (0, 1):
            block = []
            for i in np.flatnonzero(rows == row).tolist():
                block += [idx[i], stop[i], t0[i], *coeffs[i].ravel().tolist()]
            integrate_module._fill_taylor_steps(single[row], ts, block, terms)
        assert np.array_equal(single, ref) and np.array_equal(single, kernel)
        assert np.array_equal(single.any(axis=2), written)


@pytest.mark.parametrize("rows", [1, 5])
def test_taylor_fill_independent_of_block_size(rows, monkeypatch):
    # both loops fill their Taylor samples in blocks: a fill after every step
    # that holds a sample, after a few and once at the end give the same
    # bytes and counts, one evaluation per sample whatever the block
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    y0 = np.array([[0.0, 0.5, 0.0, 0.5], [0.1, 0.4, -0.1, 0.6], [0.0, 0.6, 0.1, 0.5],
                   [0.2, 0.5, 0.0, 0.4], [0.0, 0.45, 0.0, 0.55]])[:rows]
    start = y0[0] if rows == 1 else y0
    cfg = IntegratorConfig(t_end=10.0, sample_dt=0.01)
    whole = integrate(_inline(p), start, cfg)
    fill = integrate_module._taylor_fill
    for cap in (10**9, 10, 1):
        monkeypatch.setattr(integrate_module, "_FILL_BLOCK", cap)
        calls = []  # the steps of each fill
        monkeypatch.setattr(integrate_module, "_taylor_fill",
                            lambda *args: calls.append(len(args[3])) or fill(*args))
        run = integrate(_inline(p), start, cfg)
        assert np.array_equal(run.states, whole.states)
        assert run.stats.keys() == whole.stats.keys()
        for key, value in run.stats.items():
            assert np.array_equal(value, whole.stats[key])
        if cap == 10**9:
            # a single run holds the steps that hold a sample, a batch every
            # row-step; each is filled once
            held = calls[0]
            assert calls == [held] and held == whole.stats["rhs_evals"]
        else:
            assert 1 < len(calls) <= held and sum(calls) == held


def test_taylor_order_follows_rtol():
    # Jorba and Zou's p = ceil(-ln(rtol)/2) + 1, at least 2
    order = integrate_module._taylor_order
    assert [order(rtol) for rtol in (1e-13, 1e-10, 1e-9, 1e-6, 0.5, 1e3)] == [16, 13, 12, 8, 2, 2]
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    cfg = IntegratorConfig(t_end=5.0, sample_dt=1.0, rtol=1e-6)
    assert integrate(_inline(p), np.array([0.0, 0.5, 0.0, 0.5]), cfg).stats["order"] == 8


def test_taylor_non_finite_coefficients_count_as_non_finite_attempt():
    # u1' = u1^2 from 1e200: every coefficient past the first is +inf, the
    # step rule gives a zero step, and Horner's rule gives NaN (inf times
    # zero), so the one attempt is non-finite and the run stops at t0 on
    # non-finite values, its batch row beside a quiet one too. In the full
    # model from q1 = 1e200 the coefficients are NaN, which bound no step,
    # and the run stops at t0 on its one attempt as well. y' = y from 1e300
    # steps until its next state would leave the float range, and stops at
    # the last good state, at t = 18.63, where the solution reaches 1.2e308
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    body = ("d1 = u1 * u1", "d2 = u2", "d3 = u3", "d4 = u4", "d5 = u5")
    quiet = [0.0, 0.5, 0.0, 0.5, 0.0]
    cfg = IntegratorConfig(t0=1.0, t_end=5.0, sample_dt=1.0)
    grown = IntegratorConfig(t_end=30.0, sample_dt=1.0)
    for rhs, y0, run in ((_test_field(body), np.array([1e200, 0.0, 0.0, 0.0, 0.0]), cfg),
                         (_inline(p), np.array([1e200, 0.0, 0.0, 0.0]), cfg),
                         (_field(("x",), ("dx = x",)), np.array([1e300]), grown)):
        with pytest.raises(IntegrationError) as err:
            integrate(rhs, y0, run)
        assert err.value.reason == "nonfinite" and np.isfinite(err.value.y_last).all()
        if run is cfg:
            assert err.value.t_last == 1.0 and np.array_equal(err.value.y_last, y0)
        else:
            assert 18.63 < err.value.t_last < 18.64 and err.value.y_last[0] > 1e308
        batch = integrate(rhs, np.array([y0, quiet[:len(y0)]]), run)
        assert batch.stats["failures"] == [(0, str(err.value))]
        assert batch.stats["row_rejected_nonfinite"].tolist() == [1, 0]
        assert batch.stats["row_rejected_error"].tolist() == [0, 0]
        # the row's last good time is the single run's float, not its %.6g in the message
        assert batch.stats["row_t_last"].tolist() == [err.value.t_last, run.t_end]
        # the row holds finite samples up to its last good time, NaN past it
        good = batch.times <= err.value.t_last
        assert np.isfinite(batch.states[0, good]).all()
        assert np.isnan(batch.states[0, ~good]).all() and np.isfinite(batch.states[1]).all()


def test_taylor_division_by_zero_and_exp_overflow_are_non_finite_attempts():
    # a single run's floats raise ZeroDivisionError on a division by zero
    # and OverflowError on an exp above ln of the largest float (709.78),
    # where its batch row's arrays give inf or NaN; each is a non-finite
    # attempt, and the single run raises IntegrationError with the reason,
    # time and message of its row's failure, beside a quiet row. 1/(t - 1)
    # from t0 = 1 and exp(u1) from u1 = 800 fail at the start; exp(u2) with
    # u2 = 100 t fails at the first step that starts past t = 7.0978
    steady = ("d3 = u4", "d4 = -u3", "d5 = u5")
    cases = [(("d1 = 1.0 / (t - 1.0)", "d2 = u2", *steady), 1.0, [0.0, 0.0, 0.0, 1.0, 0.0],
              None, 1.0),
             (("d1 = exp(u1)", "d2 = u2", *steady), 0.0, [800.0, 0.0, 0.0, 1.0, 0.0],
              [-10.0, 0.0, 0.0, 1.0, 0.0], 0.0),
             (("d1 = 0.0 * exp(u2)", "d2 = 100.0 * k", *steady), 0.0, [0.0, 0.0, 0.0, 1.0, 0.0],
              [0.0, -1000.0, 0.0, 1.0, 0.0], None)]
    for body, t0, y0, quiet, t_last in cases:
        field = _test_field(body)
        cfg = IntegratorConfig(t0=t0, t_end=t0 + 10.0, sample_dt=0.5)
        with pytest.raises(IntegrationError) as err:
            integrate(field, np.array(y0), cfg)
        assert err.value.reason == "nonfinite"
        if t_last is None:
            assert 7.0978 < err.value.t_last < cfg.t_end
        else:
            assert err.value.t_last == t_last and np.array_equal(err.value.y_last, y0)
        if quiet is None:  # a field of t alone fails on every row
            batch = integrate(field, np.array([y0, y0]), cfg)
            assert batch.stats["failures"] == [(0, str(err.value)), (1, str(err.value))]
        else:
            batch = integrate(field, np.array([y0, quiet]), cfg)
            assert batch.stats["failures"] == [(0, str(err.value))]
            assert np.isfinite(batch.states[1]).all()
    # the batch's exp is libm's per entry, and inf where it overflows
    assert model_module._exp(np.array([0.0, 710.0, -math.inf])).tolist() == [1.0, math.inf, 0.0]
    with pytest.raises(OverflowError):
        model_module._exp(710.0)


def _test_field(body):
    """An InlineRhs of five components from ``body``, with the parameter k
    = 1; its call is never made."""
    def never(t, y):
        raise AssertionError("the Taylor method calls no right-hand side")

    equations = Equations(state=("u1", "u2", "u3", "u4", "u5"),
                          rates=("d1", "d2", "d3", "d4", "d5"), params=("k",),
                          body=body, guard=())
    return InlineRhs(never, equations, {"k": 1.0})


def test_taylor_emitter_rules_reach_exact_solutions():
    # each rule of the emitter on a field with a known solution, from
    # (1, 0, 0, 1, 0) over [0, 3]: the Cauchy product under unary minus
    # (u1 = 1/(1+t)), exp of a state (u2 = ln(1+t)), a scalar over a series
    # of t and a series over a series (u3 = ln(1+t), u4 = 1+t), or in a
    # second body a scalar of the parameters times a series (u4 = e^(2t)),
    # and a rate of the parameters alone (u5 = 2t); a batch row equals its
    # single run
    cfg = IntegratorConfig(t_end=3.0, sample_dt=0.25)
    y0 = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
    for d4, u4 in (("d4 = u4 / (1.0 + t)", lambda t: 1.0 + t),
                   ("d4 = two * u4", lambda t: np.exp(2.0 * t))):
        body = ("two = 2.0 * k", "d1 = -(u1 * u1)", "d2 = exp(-u2)", "d3 = 1.0 / (1.0 + t)", d4,
                "d5 = two")
        traj = integrate(_test_field(body), y0, cfg)
        t = traj.times
        exact = np.column_stack([1.0 / (1.0 + t), np.log1p(t), np.log1p(t), u4(t), 2.0 * t])
        assert np.max(np.abs(traj.states - exact) / (1.0 + np.abs(exact))) < 1e-9
        batch = integrate(_test_field(body), np.array([y0, y0 * 0.5]), cfg)
        assert np.array_equal(batch.states[0], traj.states)


def test_taylor_emitter_rejects_other_constructs():
    # a construct the emitter has no recurrence for, on a series, is a
    # ValueError at generation that names the statement; so is a rate that
    # no statement assigns. A conditional series is one, whatever its test
    # reads: a choice of model is a text of its own. Constructs on parameters
    # alone run as written
    good = ("two = 2.0 * k ** 2", "d1 = u1", "d2 = u2", "d3 = u3", "d4 = u4", "d5 = two")
    cfg = IntegratorConfig(t_end=1.0, sample_dt=0.5)
    assert integrate(_test_field(good), np.ones(5), cfg).states[-1, 4] == 3.0
    for statement in ("d1 = u1 ** 2", "d1 = u1 if u1 > 0.0 else -u1", "d1 = abs(u1)",
                      "d1 = exp(u1, 2.0)", "d1 = u1 // 2.0",
                      "d4 = u4 / (1.0 + t) if flag else two * u4"):
        target = statement.split(" =")[0]
        field = _test_field(tuple(statement if line.startswith(f"{target} =") else line
                                  for line in good))
        for y0 in (np.ones(5), np.ones((2, 5))):
            with pytest.raises(ValueError, match=re.escape(repr(statement))):
                integrate(field, y0, cfg)
    with pytest.raises(ValueError, match="no statement assigns the rate 'd1'"):
        integrate(_test_field(good[2:]), np.ones(5), cfg)
    with pytest.raises(ValueError):  # five equations for a state of four
        integrate(_test_field(good), np.ones(4), cfg)


def test_square_rule_equals_the_cauchy_product():
    # a series times itself sums each symmetric pair once: 2.0 times the half
    # below k/2, then plus the middle term x_(k/2)^2, where the Cauchy
    # product sums every pair. On small integers every product and sum is
    # exact, so coefficient k equals the Cauchy sum exactly, at every order
    # p = 2..16, for a series of degree p (a state's) and of lower degrees,
    # whose sums start past x_0 from k = degree + 1 on, in the single run's
    # form and the batch's, which sums a half of three terms or more with
    # add_reduce. On random floats, where the order of the sums shows, each
    # batch column has the single run's bits
    rng = np.random.default_rng(3)
    for p in range(2, 17):
        single, batch = (integrate_module._TaylorEmitter(FULL_EQUATIONS["exponential"], p, form)
                         for form in (False, True))
        for degree in sorted({1, 2, p // 2, p}):
            x = integrate_module._Series(degree, None, "x")
            squares = [emitter._binary(ast.Mult(), x, x) for emitter in (single, batch)]
            assert squares[0].degree == min(2 * degree, p - 1)
            ints = rng.integers(-99, 100, (degree + 1, 3)).astype(float)
            floats = rng.normal(size=(degree + 1, 3)) * 10.0 ** rng.uniform(-6, 6, (degree + 1, 3))
            for k in range(squares[0].degree + 1):
                lo = max(0, k - degree)
                half = (k + 1) // 2 - lo  # the pairs summed once
                text = squares[1].expression(k)
                assert ("add_reduce" in text) == (half >= 3) and text.count("2.0 *") == (half > 0)
                for values in (ints, floats):
                    rows = eval(text, {"_x": values, "add_reduce": np.add.reduce})
                    for j in range(3):
                        value = eval(squares[0].expression(k),
                                     {f"_x_{i}": values[i, j] for i in range(degree + 1)})
                        assert value == rows[j], (p, degree, k, j)
                        if values is ints:
                            assert value == sum(int(values[i, j]) * int(values[k - i, j])
                                                for i in range(lo, k - lo + 1)), (p, degree, k)


def _loop_attempt(equations, d, p):
    """The statements of the single run's attempt, the ``try`` body of its
    generated loop, parsed."""
    tree = ast.parse(integrate_module._taylor_loop_source(d, equations, p))
    run = next(node for node in tree.body if isinstance(node, ast.FunctionDef))
    return next(node for node in ast.walk(run) if isinstance(node, ast.Try)).body


def test_full_equations_attempt_operation_counts():
    # the Taylor recurrences of one attempt of each FULL_EQUATIONS text at
    # p = 13, as the single run's loop holds them: 499 multiplies under
    # either decay law, and 384 adds or subtracts under the exponential law,
    # 385 under the polynomial one. Summing both pairs of the squares q1q1
    # and q2q2, multiplying epsilon into every coefficient and writing
    # products and quotients by 1.0 took 599 and 469, on one text of both
    # laws; that text's conditional decay factor took 511 and 385. No
    # attempt branches on the law: the single run's one ``if`` is the clamp
    # to t_end, and the batched step has none
    counts, batch = {}, {}
    for law, equations in FULL_EQUATIONS.items():
        text = "\n".join(integrate_module._TaylorEmitter(equations, 13, batch=False).lines())
        recurrences = ast.parse(text).body
        attempt = _loop_attempt(equations, 4, 13)
        assert list(map(ast.dump, attempt[:len(recurrences)])) == list(map(ast.dump, recurrences))
        nodes = [node for statement in recurrences for node in ast.walk(statement)]

        def count(*ops):
            return sum(isinstance(node, ast.BinOp) and isinstance(node.op, ops) for node in nodes)
        counts[law] = count(ast.Mult), count(ast.Add, ast.Sub)
        assert not re.search(r"\* 1\.0\b|\b1\.0 \*|/ 1\.0\b", text)
        assert [ast.unparse(node.test) for statement in attempt for node in ast.walk(statement)
                if isinstance(node, ast.If)] == ["h >= t_end - t"]
        step = ast.parse(integrate_module._taylor_step_source(4, equations, 13))
        assert not any(isinstance(node, ast.If) for node in ast.walk(step))
        step = next(node for node in ast.walk(step)
                    if isinstance(node, ast.FunctionDef) and node.name == "step")
        nodes = list(ast.walk(step))
        calls = [node for node in nodes if isinstance(node, ast.Call)]
        batch[law] = (len(calls), sum(isinstance(node, ast.BinOp) for node in nodes),
                      sum(isinstance(node, ast.Subscript) for node in nodes),
                      sum(ast.unparse(call.func) == "_add_reduce" for call in calls))
    assert counts == {"exponential": (499, 384), "polynomial": (499, 385)}
    # the batched step's calls, operators, subscripts and add_reduce per
    # attempt: one numpy call per group of like operations of an order, on
    # views bound once per row count. The step that wrote each statement on
    # the rows of arrays took 105 calls, 407 operators (each a numpy call,
    # with 64 unary ones), 482 subscripts and 49 add_reduce under the
    # exponential law, and 104, 410 (74), 494 and 49 under the polynomial one
    assert batch == {"exponential": (345, 0, 7, 30), "polynomial": (357, 0, 7, 30)}


def test_single_run_attempt_calls_only_exp_and_the_finiteness_fallback():
    # a single run's attempt calls nothing per step but the equations' exp:
    # its norms are conditional expressions, not abs, its powers are **,
    # and its finiteness test is _total - _total == 0.0, with the per-value
    # test all(map(isfinite, ...)) only for a non-finite sum. So for every
    # field the package generates, and at the lowest, the default and a
    # high order
    importlib.import_module("symevol.averaged")
    fields = list(model_module._FIELDS)
    assert set(FULL_EQUATIONS.values()) < set(fields)
    for equations in fields:
        exps = sum(isinstance(node, ast.Call) and ast.unparse(node.func) == "exp"
                   for statement in equations.body for node in ast.walk(ast.parse(statement)))
        for p in (2, 13, 16):
            calls = [node for statement in _loop_attempt(equations, len(equations.state), p)
                     for node in ast.walk(statement) if isinstance(node, ast.Call)]
            names = sorted(ast.unparse(call.func) for call in calls)
            assert names == sorted(["all", "map", *["exp"] * exps]), (equations.rates, p)
            fallback = next(call for call in calls if ast.unparse(call.func) == "all")
            assert ast.unparse(fallback).startswith("all(map(isfinite, (_z0,")
    # a zero norm bounds nothing whatever its sign, so negative zeros step
    # as the batch's abs does: a batch row equals its single run
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    cfg = IntegratorConfig(t_end=5.0, sample_dt=0.5)
    rows = np.array([[-0.0] * 4, [-0.0, 0.5, -0.0, -0.5], [0.0, -0.0, 0.0, 0.5]])
    batch = integrate(_inline(p), rows, cfg)
    for i, row in enumerate(rows):
        single = integrate(_inline(p), row, cfg)
        assert np.array_equal(single.states, batch.states[i])
        assert single.stats["h_min"] == batch.stats["row_h_min"][i]


def test_attempt_reads_a_copied_coefficient_where_it_is_stored(monkeypatch):
    # -tau's k = 1 term, which exp(-tau)'s recurrence reads, is only another
    # series' coefficient: no statement copies it, in the single run's loop or
    # in the batched step (whose statements are the emitter's, each copy one
    # copy op), and reading it where it is stored moves no bit of a run of
    # either decay law, one or a batch. The polynomial law's text reads tau
    # once, in 1.0 + tau, so tau is not stored and has no copy
    copy = re.compile(r"\s*_s\d+(_\d+|\[\d+\]) = _[sy]\d+(_\d+|\[\d+\])")  # the state's are its own

    def copies():
        return [line for equations in FULL_EQUATIONS.values()
                for source in (integrate_module._taylor_loop_source(4, equations, 13),
                               "\n".join(integrate_module._TaylorEmitter(equations, 13,
                                                                          True).lines()))
                for line in source.splitlines() if copy.fullmatch(line)]

    def copy_ops():  # the batched step's copies into a series other than the state
        stepper = integrate_module._BatchStep(
            integrate_module._TaylorEmitter(FULL_EQUATIONS["exponential"], 13, True), 4, 13)
        return [op for k in range(13) for op in stepper.lower(k)
                if op.kind == "copy" and op.row % stepper.width >= 4]

    def runs():
        cfg = IntegratorConfig(t_end=40.0, sample_dt=0.25)
        y0 = np.array([0.0, 0.5, 0.0, 0.5])
        return [integrate(_inline(ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1,
                                              alpha_kind=law)), y, cfg).states
                for law in ("exponential", "polynomial") for y in (y0, np.array([y0, 2 * y0]))]

    assert copies() == [] and copy_ops() == []
    stored = runs()
    monkeypatch.setattr(integrate_module, "_COEFFICIENT", re.compile("(?!)"))
    caches = (integrate_module._taylor_loop_code, integrate_module._taylor_step_code)
    for cache in caches:
        cache.cache_clear()
    try:
        assert len(copies()) == 2  # the exponential law's, in the loop and in the step
        assert len(copy_ops()) == 1
        copied = runs()
    finally:
        for cache in caches:
            cache.cache_clear()
    for a, b in zip(stored, copied):
        assert np.array_equal(a, b)


def test_batch_writes_out_the_sums_of_a_series_with_copied_coefficients():
    # u = 1.0 + x copies x's coefficients past the first, so u has no rows of
    # its own to slice where u * u sums three terms or more: the batch writes
    # those sums term by term, and its rows keep their single runs' bits
    rhs = _field(("x",), ("u = 1.0 + x", "dx = -0.5 * (u * u)"))
    cfg = IntegratorConfig(t_end=3.0, sample_dt=0.5)
    y0 = np.array([[0.5], [0.25]])
    assert "add_reduce(_s0" not in integrate_module._taylor_step_source(1, rhs.equations, 13)
    batch = integrate(rhs, y0, cfg)
    for i in range(2):
        assert np.array_equal(integrate(rhs, y0[i], cfg).states, batch.states[i])
