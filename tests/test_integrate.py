import functools
import importlib
import math
import re
import types

import numpy as np
import pytest

from conftest import rk4_steps
from symevol.integrate import (MAX_GRID_POINTS, InlineRhs, IntegrationError, IntegratorConfig,
                               Trajectory, integrate, order_check)
from symevol.model import FULL_EQUATIONS, Equations, ModelParams, full_rhs


# the package re-exports the function ``integrate`` under the module's name
integrate_module = importlib.import_module("symevol.integrate")
taylor_module = importlib.import_module("symevol.taylor")
model_module = importlib.import_module("symevol.model")


# step counts of a run; a batch also gives each per row, prefixed "row_"
STAT_KEYS = ("accepted", "rejected", "rejected_error", "rejected_nonfinite", "rhs_evals")


def harmonic(t, y):
    # floats in a single run, columns in a batch
    return np.array([y[1], -y[0]])


def _inline(p):
    """The full model at p as experiments.full_field gives it: an InlineRhs,
    which runs the Taylor method."""
    return InlineRhs(lambda t, y: full_rhs(t, y, p), FULL_EQUATIONS, FULL_EQUATIONS.bindings(p))


def test_config_validation():
    bad = [{"sample_dt": -1.0}, {"rtol": 0.0},
           {"t_end": math.nan}, {"t_end": -math.inf}, {"sample_dt": math.inf},
           {"rtol": math.nan}, {"atol": math.inf},
           {"t0": math.nan}, {"t0": -math.inf}, {"t0": 10.0}, {"t0": 11.0}, {"t_end": -5.0},
           # below the rtol floor of 100 machine epsilons
           {"rtol": 50 * np.finfo(float).eps},
           # over MAX_GRID_POINTS samples, counted on construction
           {"t_end": 1e8, "sample_dt": 1e-3}]
    for settings in bad:
        with pytest.raises(ValueError):
            IntegratorConfig(**{"t_end": 10.0, "sample_dt": 0.1, **settings})
    assert IntegratorConfig(t0=-8.0, t_end=-5.0, sample_dt=0.1).t_end == -5.0
    assert IntegratorConfig(t0=5.0, t_end=5.0 + MAX_GRID_POINTS * 0.5, sample_dt=0.5).t0 == 5.0
    assert IntegratorConfig(t_end=1.0, sample_dt=0.5, rtol=100 * np.finfo(float).eps).rtol > 0.0
    # integrate runs one method, and fixed RK4 steps are order_check's
    assert not {"step", "method"} & set(vars(IntegratorConfig(t_end=1.0, sample_dt=0.5)))
    # a state holds at least one value, alone (d,) or in a batch (N, d)
    cfg = IntegratorConfig(t_end=1.0, sample_dt=0.5)
    for y0 in (np.zeros(0), np.zeros((2, 0)), np.float64(1.0), np.zeros((1, 1, 1))):
        with pytest.raises(ValueError):
            integrate(harmonic, y0, cfg)


def test_harmonic_oscillator_accuracy():
    cfg = IntegratorConfig(t_end=100.0, sample_dt=0.1, rtol=1e-10, atol=1e-12)
    traj = integrate(harmonic, np.array([1.0, 0.0]), cfg)
    assert np.max(np.abs(traj.states[:, 0] - np.cos(traj.times))) < 1e-8


def test_zero_initial_state_stays_zero():
    # rk45 and the Taylor method alike. Every Taylor coefficient of the zero
    # state is zero, and a zero norm bounds no step, so the Taylor run takes
    # one step to t_end (the step rule without that guard divides by zero);
    # its batch row with a moving row beside it does the same
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    cfg = IntegratorConfig(t_end=20.0, sample_dt=0.5, rtol=1e-10, atol=1e-12)
    traj = integrate(lambda t, y: full_rhs(t, y, p), np.zeros(4), cfg)
    assert np.all(traj.states == 0.0)
    taylor = integrate(_inline(p), np.zeros(4), cfg)
    assert np.all(taylor.states == 0.0)
    assert taylor.stats["accepted"] == 1 and taylor.stats["h_min"] == 20.0
    batch = integrate(_inline(p), np.array([np.zeros(4), [0.0, 0.5, 0.0, 0.5]]), cfg)
    assert np.all(batch.states[0] == 0.0) and batch.stats["row_accepted"][0] == 1
    assert batch.stats["row_accepted"][1] > 10 and np.all(np.isfinite(batch.states))


def test_sample_grid_exactness():
    cfg = IntegratorConfig(t_end=5.0, sample_dt=0.25, rtol=1e-8, atol=1e-10)
    y0 = np.array([1.0, 0.0])
    traj = integrate(harmonic, y0, cfg)
    expected = 0.25 * np.arange(21)
    assert np.array_equal(traj.times, expected)
    assert np.array_equal(traj.states[0], y0)
    # non-divisible horizon still ends exactly at t_end
    cfg2 = IntegratorConfig(t_end=1.1, sample_dt=0.25, rtol=1e-8, atol=1e-10)
    traj2 = integrate(harmonic, y0, cfg2)
    assert traj2.times[-1] == 1.1
    # the grid starts at the config's t0, and the right-hand side sees those times
    cfg3 = IntegratorConfig(t0=2.0, t_end=3.0, sample_dt=0.25, rtol=1e-12, atol=1e-14)
    traj3 = integrate(lambda t, y: np.array([2.0 * t]), np.array([4.0]), cfg3)
    assert np.array_equal(traj3.times, [2.0, 2.25, 2.5, 2.75, 3.0])
    np.testing.assert_allclose(traj3.states[:, 0], traj3.times**2, rtol=1e-12)


def test_determinism_bit_identical():
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    cfg = IntegratorConfig(t_end=30.0, sample_dt=0.1, rtol=1e-9, atol=1e-11)
    y0 = np.array([0.0, 0.5, 0.0, 0.5])
    a = integrate(lambda t, y: full_rhs(t, y, p), y0, cfg)
    b = integrate(lambda t, y: full_rhs(t, y, p), y0, cfg)
    assert np.array_equal(a.states, b.states)
    assert a.stats == b.stats


def test_time_reversal_conservative_case():
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2, delta=0.0)
    y0 = np.array([0.0, 0.5, 0.0, 0.5])
    T = 50.0
    cfg = IntegratorConfig(t_end=T, sample_dt=T, rtol=1e-10, atol=1e-12)
    fwd = integrate(lambda t, y: full_rhs(t, y, p), y0, cfg)
    # the frozen system is autonomous; reverse by negating the field
    back = integrate(lambda t, y: [-v for v in full_rhs(0.0, y, p)], fwd.states[-1], cfg)
    assert np.max(np.abs(back.states[-1] - y0)) < 100 * 1e-10


def test_blow_up_reports_last_good_state():
    # under rk45 and under the Taylor method, whose steps shrink with the
    # radius of convergence as the solution escapes: the fig1 model from
    # q1 = 5 (the config sim-fail.ini of CI and tools/datadiff.py), and at
    # epsilon = 0.9 from (3, 0, 3, 0); a batch row fails where its single
    # run does
    fig1 = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.9, n=1)
    cases = [(lambda t, y: full_rhs(t, y, p), np.array([3.0, 0.0, 3.0, 0.0]), 50.0),
             (_inline(p), np.array([3.0, 0.0, 3.0, 0.0]), 50.0),
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


def test_nan_rhs_aborts():
    def bad(t, y):
        return np.array([math.nan, 0.0])

    cfg = IntegratorConfig(t_end=1.0, sample_dt=0.5, rtol=1e-8, atol=1e-10)
    with pytest.raises(IntegrationError):
        integrate(bad, np.array([1.0, 0.0]), cfg)


def test_rk4_matches_adaptive():
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    y0 = np.array([0.0, 0.5, 0.0, 0.5])
    # every 100th of 4000 steps of 0.005 against the samples every 0.5
    a = rk4_steps(lambda t, y: full_rhs(t, y, p), y0, 0.0, 0.005, 4000)[99::100]
    cfg5 = IntegratorConfig(t_end=20.0, sample_dt=0.5, rtol=1e-12, atol=1e-14)
    b = integrate(lambda t, y: full_rhs(t, y, p), y0, cfg5)
    assert len(a) == len(b) - 1
    assert np.max(np.abs(a - b.states[1:])) < 1e-6


def test_order_check_rk4():
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    y0 = np.array([0.0, 0.5, 0.0, 0.5])
    est = order_check(lambda t, y: full_rhs(t, y, p), y0, 0.0, 10.0,
                      [0.2, 0.1, 0.05, 0.025])
    assert not est.saturated
    assert 3.7 <= est.order <= 4.3
    ratios = [est.errors[i] / est.errors[i + 1] for i in range(len(est.errors) - 1)]
    assert all(12.0 <= r <= 20.0 for r in ratios)


def test_order_check_saturates_on_exact_match():
    est = order_check(lambda t, y: np.array([1.0, -2.0, 3.0]), np.zeros(3),
                      0.0, 10.0, [0.5, 0.25, 0.125])
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
    for t_end, steps in bad:
        with pytest.raises(ValueError):
            order_check(never, np.array([1.0, 0.0]), 0.0, t_end, steps)
    # the fixed steps run one state, not a batch
    with pytest.raises(ValueError):
        order_check(never, np.ones((3, 2)), 0.0, 1.0, [0.2, 0.1, 0.05])


def test_against_scipy_reference():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    y0 = np.array([0.0, 0.5, 0.0, 0.5])
    cfg = IntegratorConfig(t_end=50.0, sample_dt=1.0, rtol=1e-11, atol=1e-13)
    mine = integrate(lambda t, y: full_rhs(t, y, p), y0, cfg)
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
    batch = integrate(harmonic, np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]), cfg)
    assert len(batch) == 3 and batch.states.shape == (3, 3, 2)
    np.testing.assert_array_equal(batch.states[:, 0], [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])


def _escaping_batch():
    """Six states of the fig1 model at epsilon = 0.9; the large-amplitude
    ones blow up before t = 30."""
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.9, n=1)
    y0 = np.array([[q1, 0.1, 0.1, 0.1] for q1 in (0.2, 3.0, 0.5, 2.9, 1.0, 3.1)])
    cfg = IntegratorConfig(t_end=30.0, sample_dt=0.5, rtol=1e-8, atol=1e-10)
    return (lambda t, y: full_rhs(t, y, p)), y0, cfg


def _fig1_batch(t0=0.0):
    """Seven states near the fig1 initial condition on [t0, t0 + 20]."""
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    rng = np.random.default_rng(3)
    y0 = np.column_stack([np.zeros(7), rng.normal(0.5, 0.05, 7),
                          rng.normal(0.0, 0.05, 7), rng.uniform(0.4, 0.6, 7)])
    cfg = IntegratorConfig(t0=t0, t_end=t0 + 20.0, sample_dt=0.05, rtol=1e-10, atol=1e-12)
    return (lambda t, y: full_rhs(t, y, p)), y0, cfg


def _decay_batch(d):
    """y' = -r*y in d components, rates r spread over [0.5, 1.5]."""
    rates = np.linspace(0.5, 1.5, d).tolist()
    y0 = np.array([np.ones(d), np.linspace(1.0, 0.5, d)])
    cfg = IntegratorConfig(t_end=2.0, sample_dt=0.1)
    return (lambda t, y: [-r * v for r, v in zip(rates, y)]), y0, cfg


def test_batched_rows_match_scalar_integrate():
    # a single run is its batch row byte for byte: samples, counts and, for a
    # row that fails, the message; a batch of one row included. The single
    # run's step writes a sum of over 64 terms as several statements: its
    # finiteness sum (2*d terms) from d = 33 on, its error sum from d = 65 on.
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
    """y1' = 1/(10 - t)^2 up to its pole at t = 10, and y2' = -y2: both rows
    stop at a step below 1e-14 |t|, the relative part of the step floor."""
    cfg = IntegratorConfig(t0=9.0, t_end=11.0, sample_dt=0.5)
    return ((lambda t, y: (1.0 / ((10.0 - t) * (10.0 - t)), -y[1])),
            np.array([[0.0, 1.0], [0.0, 2.0]]), cfg)


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


def test_batched_stats_match_scalar_after_non_finite_steps():
    # y' = -y is defined on y > 0 only: a trial step long enough to push a
    # stage input out of the domain meets NaN, is rejected, and the run goes
    # on with a shorter step. Both loops count every stage of such a step.
    nan_calls = []

    def rhs(t, y):
        y = np.asarray(y)
        out = np.where(y > 0.0, -y, np.nan)
        nan_calls.append(np.isnan(out).any())
        return out

    y0 = np.array([[1.0, 0.5], [2.0, 1e-3], [0.1, 0.3], [5.0, 5.0]])
    cfg = IntegratorConfig(t_end=30.0, sample_dt=1.0, rtol=1e-3, atol=1e-9)
    batch = integrate(rhs, y0, cfg)
    assert any(nan_calls) and batch.stats["failures"] == []
    assert batch.stats["rejected_nonfinite"] > 0
    for i, row in enumerate(y0):
        nan_calls.clear()
        single = integrate(rhs, row, cfg)
        assert any(nan_calls)
        for key in STAT_KEYS:
            assert single.stats[key] == batch.stats[f"row_{key}"][i]


def _harmonic_batch():
    """Harmonic oscillators of mixed amplitudes, the origin among them."""
    y0 = np.array([[1.0, 0.0], [0.0, 2.0], [0.3, -0.4], [5.0, 1.0], [0.0, 0.0],
                   [1e-3, 0.0], [2.0, 2.0]])
    cfg = IntegratorConfig(t_end=7.0, sample_dt=0.1, rtol=1e-9, atol=1e-11)
    return harmonic, y0, cfg


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
    fill = integrate_module._hermite_fill
    for cap in (1, 10, 10**9):
        monkeypatch.setattr(integrate_module, "_FILL_BLOCK", cap)
        calls = []
        monkeypatch.setattr(integrate_module, "_hermite_fill",
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
        return integrate(lambda t, y: full_rhs(t, y, p), y0, cfg)

    def failing():
        with pytest.raises(IntegrationError) as err:
            integrate(lambda t, y: full_rhs(t, y, p_bad), y0_bad, cfg_bad)
        return err.value

    whole, failed = valid(), failing()
    fill = integrate_module._hermite_fill
    for cap in (10**9, 10, 1):
        monkeypatch.setattr(integrate_module, "_FILL_BLOCK", cap)
        steps = []  # the steps of each fill
        monkeypatch.setattr(integrate_module, "_hermite_fill",
                            lambda *args: steps.append(len(args[3])) or fill(*args))
        run = valid()
        assert np.array_equal(run.states, whole.states)
        assert run.stats == whole.stats
        if cap == 10**9:
            holding = steps[0]  # the steps that hold a sample
            assert steps == [holding] and 100 < holding <= run.stats["accepted"]
        elif cap == 10:
            assert 1 < len(steps) < holding and sum(steps) == holding
        else:
            assert steps == [1] * holding
        err = failing()
        assert str(err) == str(failed) and err.t_last == failed.t_last
        assert err.reason == failed.reason and np.array_equal(err.y_last, failed.y_last)


def test_batch_runs_any_adaptive_record(monkeypatch):
    # both emitters read the tableau as data: in place of Dormand-Prince,
    # Bogacki-Shampine 3(2), first same as last, runs with batch rows equal
    # to their single runs byte for byte (fresh code caches, which the patch
    # drops at the end, keep its code from later runs)
    b = np.array([2 / 9, 1 / 3, 4 / 9, 0.0])
    bs32 = integrate_module._Tableau(
        c=np.array([0.0, 1 / 2, 3 / 4, 1.0]),
        a=(np.array([1 / 2]), np.array([0.0, 3 / 4]), b[:3]),
        e=b - np.array([7 / 24, 1 / 4, 1 / 3, 1 / 8]))
    monkeypatch.setattr(integrate_module, "_TABLEAU", bs32)
    for name in ("_loop_code", "_rows_step_code"):
        code = getattr(integrate_module, name).__wrapped__
        monkeypatch.setattr(integrate_module, name, functools.cache(code))
    rhs, y0, _ = _fig1_batch()
    cfg = IntegratorConfig(t_end=20.0, sample_dt=0.05, rtol=1e-8, atol=1e-10)
    batch = integrate(rhs, y0[:3], cfg)
    assert batch.stats["failures"] == [] and batch.stats["accepted"] > 10_000
    for i, row in enumerate(y0[:3]):
        single = integrate(rhs, row, cfg)
        assert np.array_equal(single.states, batch.states[i])
        for key in STAT_KEYS:
            assert single.stats[key] == batch.stats[f"row_{key}"][i]


def _per_sample_hermite_fill(out, ts, idx, t0, h, y0, y1, f0, f1, t1):
    """Reference: the Hermite fill written as one Python step per sample."""
    y0, y1, f0, f1 = (np.asarray(v, dtype=float) for v in (y0, y1, f0, f1))
    while idx < len(ts) and ts[idx] <= t1 + 1e-14 * max(1.0, abs(t1)):
        th = (ts[idx] - t0) / h
        th2 = th * th
        th3 = th2 * th
        out[idx] = ((2 * th3 - 3 * th2 + 1) * y0 + (th3 - 2 * th2 + th) * h * f0
                    + (-2 * th3 + 3 * th2) * y1 + (th3 - th2) * h * f1)
        idx += 1
    return idx


def test_hermite_fill_matches_per_sample_formula_bitwise(monkeypatch):
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    rhs = lambda t, y: full_rhs(t, y, p)  # noqa: E731
    y0 = np.array([0.0, 0.5, 0.0, 0.5])
    fill = integrate_module._hermite_fill
    counts = []

    def counting_fill(out, ts, rows, idx, stop, *rest):
        counts.extend((stop - idx).tolist())
        fill(out, ts, rows, idx, stop, *rest)

    def per_sample_fill(out, ts, rows, idx, stop, t0, h, y0, y1, f0, f1):
        # each step of the block through the reference, which finds the
        # step's samples by its own rule
        for i in range(len(idx)):
            assert stop[i] == _per_sample_hermite_fill(out[rows[i]], ts, idx[i], t0[i], h[i],
                                                       y0[i], y1[i], f0[i], f1[i], t0[i] + h[i])

    # steps holding many samples, about one, and none (which the loop leaves
    # out of the block, so every step in it holds a sample); t_end off the grid
    for t_end, sample_dt in [(10.05, dt) for dt in (0.001, 0.3, 2.5)] + [(0.7, 0.1)]:
        cfg = IntegratorConfig(t_end=t_end, sample_dt=sample_dt)
        monkeypatch.setattr(integrate_module, "_hermite_fill", counting_fill)
        fast = integrate(rhs, y0, cfg)
        monkeypatch.setattr(integrate_module, "_hermite_fill", per_sample_fill)
        slow = integrate(rhs, y0, cfg)
        assert fast.times[-1] == t_end
        assert np.array_equal(fast.states, slow.states)
    assert 0 not in counts and 1 in counts and max(counts) > 10


def test_hermite_kernel_rows_match_per_sample_formula_bitwise():
    # one step per row, as the batched fill evaluates it
    rng = np.random.default_rng(5)
    m, d = 200, 4
    h = rng.uniform(1e-3, 2.0, m)
    t = rng.uniform(0.0, 1.0, m) * h
    y0, y1, f0, f1 = (rng.normal(size=(m, d)) for _ in range(4))
    rows = integrate_module._hermite(t / h, h, y0, y1, f0, f1)
    for i in range(m):
        ref = np.empty((2, d))
        _per_sample_hermite_fill(ref, np.array([0.0, t[i]]), 1, 0.0, h[i],
                                 y0[i], y1[i], f0[i], f1[i], h[i])
        assert np.array_equal(rows[i], ref[1])


@pytest.mark.parametrize("d", [1, 4, 5, 70])
def test_float_fill_matches_kernel_and_per_sample_formula_bitwise(d):
    # the single run's block fill, over the steps as its loop holds them
    # (flat floats: the first sample, the stop, t, h and the d components of
    # y, y_new, f and f_new), writes each step's samples with the bits of the
    # per-sample reference into its output; the steps hold 0, 1 and many
    # samples, and no other sample is written
    rng = np.random.default_rng(d)
    ts = np.sort(rng.uniform(0.0, 10.0, 400))
    blocks, counts = ([], []), []
    out, ref = np.zeros((2, len(ts), d)), np.zeros((2, len(ts), d))
    written = np.zeros((2, len(ts)), dtype=bool)
    for row, t0, h in [(1, ts[10] - 1e-6, 1e-7), (0, ts[10] - 1e-12, 2e-12),
                       (1, ts[20] - 1e-12, 4.0), (0, ts[20] - 1e-12, 4.0)]:
        idx = int(np.searchsorted(ts, t0, side="right"))
        y0, y1, f0, f1 = (rng.normal(size=d).tolist() for _ in range(4))
        stop = _per_sample_hermite_fill(ref[row], ts, idx, t0, h, y0, y1, f0, f1, t0 + h)
        blocks[row].extend([idx, stop, t0, h, *y0, *y1, *f0, *f1])
        counts.append(stop - idx)
        written[row, idx:stop] = True
    assert counts[:2] == [0, 1] and min(counts[2:]) > 100
    for row, block in enumerate(blocks):
        integrate_module._fill_steps(out[row], ts, block)
    assert np.array_equal(out, ref)
    assert np.array_equal(out.any(axis=2), written)


def test_error_power_float_matches_array_entry():
    # both loops take err_norm**-0.2 from libm: the single run's ``**`` on a
    # float and the matching entry of the batch's array get the same bits,
    # and zero, NaN and inf entries do not raise
    rng = np.random.default_rng(3)
    values = np.concatenate([rng.uniform(0.0, 2.0, 2000), 10.0 ** rng.uniform(-300, 300, 2000),
                             [5e-324, 1.0, 1.7e308]])
    rows = integrate_module._error_power(values)
    for x, row in zip(values.tolist(), rows.tolist()):
        single = x ** -0.2
        assert type(single) is float and single == row == math.pow(x, -0.2)
    special = integrate_module._error_power(np.array([0.0, math.nan, math.inf, 1.0]))
    assert special.tolist() == [1.0, 1.0, 0.0, 1.0]


def test_method_records_weigh_every_stage_but_the_last_in_the_solution():
    # the finiteness tests of integrate and of order_check read only the new
    # state and the last stage: the solution weights must cover every other
    # stage
    tableau = integrate_module._TABLEAU
    assert len(tableau.a[-1]) == len(tableau.a) == len(tableau.c) - 1 == len(tableau.e) - 1
    rk4 = integrate_module._RK4
    assert [len(weights) for _, weights in rk4] == list(range(1, len(rk4) + 1))


def _stage_rhs(bad_call, bad_row=0):
    """A field of t alone, so a non-finite stage input does not spread to later
    stages; its call number ``bad_call`` answers inf (in a batch, for one row)."""
    calls = []

    def rhs(t, y):
        k = [1.0 - t * t, 0.5 * t]
        if len(calls) == bad_call:
            k[0] = math.inf if type(t) is float else np.where(
                np.arange(len(t)) == bad_row, math.inf, k[0])
        calls.append(t)
        return k
    return rhs


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_inf_at_one_stage_counts_as_non_finite_attempt(method, monkeypatch):
    # call 0 is the first slope, call s the stage s of the first attempt;
    # rk45's stage 1 enters the solution with weight zero. A fixed rk4 step
    # has no attempt to repeat: order_check raises at the step that met it.
    y0 = np.array([0.3, -0.2])
    stages = len(integrate_module._TABLEAU.a if method == "rk45" else integrate_module._RK4)
    if method == "rk4":
        # the reference run integrates the field without an inf, so that the
        # poisoned field's calls start at order_check's first slope
        reference = integrate_module.integrate
        monkeypatch.setattr(integrate_module, "integrate",
                            lambda rhs, y, cfg: reference(_stage_rhs(-1), y, cfg))
        # a stage of the first step, and stage 1 of the third (step 2 of 0.1)
        for bad_call, t_last in [(s, 0.0) for s in range(1, stages + 1)] + [(9, 0.2)]:
            with pytest.raises(IntegrationError) as err:
                order_check(_stage_rhs(bad_call), y0, 0.0, 2.0, [0.1, 0.05, 0.025])
            assert err.value.reason == "nonfinite" and err.value.t_last == t_last
            if t_last == 0.0:
                assert np.array_equal(err.value.y_last, y0)
        return
    cfg = IntegratorConfig(t_end=2.0, sample_dt=0.5)
    for stage in range(1, stages + 1):
        single = integrate(_stage_rhs(stage), y0, cfg)
        assert single.stats["rejected_nonfinite"] == 1
        assert single.stats["rejected_error"] == 0
        batch = integrate(_stage_rhs(stage, bad_row=1), np.array([y0 + 0.1, y0, y0 - 0.1]), cfg)
        assert batch.stats["row_rejected_nonfinite"].tolist() == [0, 1, 0]
        assert np.array_equal(batch.states[1], single.states)
        for key in STAT_KEYS:
            assert single.stats[key] == batch.stats[f"row_{key}"][1]


def test_single_run_makes_no_numpy_call_per_step(monkeypatch):
    # the single-row loops take their step factor (rk45) or step (Taylor)
    # over floats and fill their samples in blocks: the kernel runs once per
    # _FILL_BLOCK samples
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    y0 = np.array([0.0, 0.5, 0.0, 0.5])
    cfg = IntegratorConfig(t_end=10.0, sample_dt=0.01, rtol=1e-9, atol=1e-11)

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy power on the single-row path")

    for rhs, module, name in ((lambda t, y: full_rhs(t, y, p), integrate_module, "_hermite"),
                              (_inline(p), taylor_module, "_taylor_fill")):
        before = integrate(rhs, y0, cfg)
        monkeypatch.setattr(np, "power", forbidden)
        kernel = getattr(module, name)
        for cap in (integrate_module._FILL_BLOCK, 100):
            monkeypatch.setattr(integrate_module, "_FILL_BLOCK", cap)
            calls = []
            monkeypatch.setattr(module, name, lambda *args: calls.append(1) or kernel(*args))
            after = integrate(rhs, y0, cfg)
            assert np.array_equal(after.states, before.states)
            assert after.stats == before.stats
            assert 1 <= len(calls) <= math.ceil(len(after) / cap) + 1
            assert 10 * len(calls) < after.stats["accepted"] or module is taylor_module
        monkeypatch.undo()


@pytest.mark.parametrize("inline", [False, True], ids=["called", "inlined"])
def test_single_run_makes_no_min_or_max_call_per_step(inline):
    # the generated loop writes the step clamps, the controller (rk45) or
    # the step rule (Taylor), the stop rule's text and the norms' max in
    # place, and its Taylor recurrences the decay law: it names none of the
    # builtins min and max, alpha, _stops, _error_power or _power, and
    # neither do the single runs and order_check's rk4 step
    code = (taylor_module._taylor_loop_code(4, FULL_EQUATIONS, 13) if inline
            else integrate_module._loop_code(4))
    run = next(const for const in code.co_consts if isinstance(const, types.CodeType))
    for code in (run, integrate_module._rk4_step.__code__,
                 integrate_module._run_single.__code__, taylor_module.run_single.__code__):
        assert not {"min", "max", "alpha", "_stops", "_error_power", "_power"} & set(
            code.co_names), code.co_name
    assert "exp" in run.co_names if inline else "rhs" in run.co_varnames


def _error_norm_reference(y, z, k, h, rtol, atol):
    """The rk45 error norm of the slopes k (stages by components) on builtin
    max, with the generated step's sums: left to right, zero weights included."""
    e = [float(w) for w in integrate_module._TABLEAU.e]
    xs = []
    for j in range(len(y)):
        acc = e[0] * k[0][j]
        for r in range(1, len(e)):
            acc = acc + e[r] * k[r][j]
        xs.append(h * acc / (atol + rtol * max(abs(y[j]), abs(z[j]))))
    sq = xs[0] * xs[0]
    for x in xs[1:]:
        sq = sq + x * x
    return math.sqrt(sq / len(y))


def test_generated_error_norm_equals_builtin_max_reference():
    # the error norm's max(|y|, |z|) is written as b if b > a else a; it gives
    # max's bits on random states and on the edges of the rule: zero
    # components of either sign, |y| = |z| and y = -z
    h, rtol, atol = 0.01, 1e-6, 1e-9
    b = [float(w) for w in integrate_module._TABLEAU.a[-1]]
    rng = np.random.default_rng(2024)
    cases = [(rng.normal(size=4) * 10.0 ** rng.integers(-8, 3), rng.normal(size=(7, 4)))
             for _ in range(200)]
    # components 0-2 have slopes only at the last stage, which the new state
    # does not weigh, so z = y there: -0.0 and 0.0 (z is 0.0), and 0.7 = |z|;
    # component 3 starts at half its step backwards, so it ends at z = -y
    k = np.zeros((7, 4))
    k[6, :3] = [0.3, -0.2, 1.1]
    k[:, 3] = rng.normal(size=7)
    step_sum = b[0] * k[0, 3]
    for r in range(1, len(b)):
        step_sum = step_sum + b[r] * k[r, 3]
    cases.append((np.array([-0.0, 0.0, 0.7, -(h * step_sum) / 2]), k))
    cases.append((np.array([0.0, -0.0, -0.7, (h * step_sum) / 2]), -k))
    # the attempt the loop runs, as a function that calls the rhs it is given
    names = integrate_module._names
    lines = ["def step(rhs, t, h, y, f, rtol, atol):", f"    {names('y', 4)} = y",
             f"    {names('k0_', 4)} = f", *integrate_module._indented(
                 integrate_module._stage_lines(4), 1),
             f"    return ({names('z', 4)}), finite, err_norm"]
    namespace = {"isfinite": math.isfinite, "sqrt": math.sqrt}
    exec("\n".join(lines), namespace)
    for y, k in cases:
        answers = iter([tuple(row) for row in k[1:].tolist()])
        z, finite, err_norm = namespace["step"](lambda t, z: next(answers), 0.0, h,
                                                tuple(y.tolist()), tuple(k[0].tolist()),
                                                rtol, atol)
        assert finite and next(answers, None) is None
        assert err_norm == _error_norm_reference(y.tolist(), z, k.tolist(), h, rtol, atol)
    assert z[:3] == (0.0, -0.0, -0.7) and z[3] == -y[3] != 0.0
    assert math.copysign(1.0, y[1]) == -1.0 and err_norm > 0.0


def test_rhs_may_return_any_sequence_of_d_floats(monkeypatch):
    # the rhs gets a tuple of d components, floats in a single run and columns
    # of the running rows in a batch, and may answer with any sequence of d
    # components; tuple, list and ndarray answers run byte for byte, and so
    # does a list the rhs rewrites at every call, in integrate and in
    # order_check's fixed rk4 steps
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    y0 = np.array([0.0, 0.5, 0.0, 0.5])
    # as many rows as components, so a (d,) answer could broadcast over the batch
    y0s = np.array([y0, [0.1, 0.4, -0.1, 0.6], [0.2, 0.5, 0.0, 0.4], [0.0, 0.6, 0.1, 0.5]])
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
    cfg = IntegratorConfig(t_end=5.0, sample_dt=0.25)
    for start in (y0, y0s):
        states.clear()
        runs = [integrate(rhs, start, cfg) for rhs in answers]
        for run in runs[1:]:
            assert np.array_equal(run.states, runs[0].states)
            assert run.stats.keys() == runs[0].stats.keys()
            for key, value in run.stats.items():
                assert np.array_equal(value, runs[0].stats[key])
        assert all(type(y) is tuple and len(y) == 4 for y in states)
        # one call for each row's first slope and each later stage of an
        # attempt; the totals are Python ints
        assert sum(np.size(y[0]) for y in states) == runs[0].stats["rhs_evals"]
        assert all(type(runs[0].stats[key]) is int for key in STAT_KEYS)
        if start.ndim == 1:
            assert all(type(v) is float for y in states for v in y)
        else:
            assert all(type(v) is np.ndarray and v.shape == y[0].shape == (len(y[0]),)
                       for y in states for v in y)
    states.clear()
    estimates = [order_check(rhs, y0, 0.0, 5.0, [0.2, 0.1, 0.05]) for rhs in answers]
    assert all(estimate == estimates[0] for estimate in estimates[1:])
    assert not estimates[0].saturated
    assert all(type(y) is tuple and len(y) == 4 and all(type(v) is float for v in y)
               for y in states)

    # d - 1 or d + 1 components, or in a batch a constant (d,) answer, at the
    # first call or at any stage of the first step, raise ValueError before
    # any sample is written (every run writes its samples through the patched
    # fill, as the valid runs at the end show)
    fills = []
    monkeypatch.setattr(integrate_module, "_hermite_fill", lambda *args: fills.append(args))

    def late(answer, call):
        """The field, but its call number ``call`` (0 the first slope, s the
        stage s of the first step) gives ``answer``."""
        calls = []

        def rhs(t, y):
            calls.append(t)
            return answer(full_rhs(t, y, p)) if len(calls) == call + 1 else full_rhs(t, y, p)
        return rhs

    short, long, constant = lambda f: f[:3], lambda f: f + (f[0],), lambda f: np.array(f)[:, 0]
    stages = len(integrate_module._TABLEAU.a)
    for start in (y0, y0s):
        for answer in (short, long, constant) if start.ndim == 2 else (short, long):
            for call in range(stages + 1):
                with pytest.raises(ValueError):
                    integrate(late(answer, call), start, cfg)
    assert fills == []
    for start in (y0, y0s):
        integrate(answers[0], start, cfg)
        assert fills
        fills.clear()
    # and so do order_check's rk4 steps, at any stage
    for answer in (short, long):
        for call in range(len(integrate_module._RK4)):  # call 0 is stage 1 here
            with pytest.raises(ValueError):
                integrate_module._rk4_step(late(answer, call), 0.0, 0.1, tuple(y0.tolist()),
                                           full_rhs(0.0, tuple(y0.tolist()), p))


def test_span_below_step_floor_reaches_t_end():
    # the step-size floor 1e-14*max(1, |t|) exceeds the whole span: the run
    # reaches t_end in one step and must not report an underflow after it
    cfg = IntegratorConfig(t_end=1e-300, sample_dt=1e-300)
    traj = integrate(harmonic, np.array([1.0, 0.0]), cfg)
    assert np.array_equal(traj.times, [0.0, 1e-300])
    assert traj.stats["accepted"] == 1
    batch = integrate(harmonic, np.array([[1.0, 0.0], [0.0, 2.0]]), cfg)
    assert batch.stats["failures"] == []
    assert np.all(np.isfinite(batch.states))
    # a span of two ulps: t0 stands for t_end, so the grid holds one sample
    # and no step has one to fill
    cfg = IntegratorConfig(t0=1.0, t_end=1.0 + 2**-51, sample_dt=1.0)
    for start in (np.array([1.0, 0.0]), np.array([[1.0, 0.0]])):
        traj = integrate(harmonic, start, cfg)
        assert np.array_equal(traj.times, [1.0]) and np.array_equal(traj.states[..., 0, :], start)
        assert traj.stats["accepted"] == 1


def test_span_clamp_holds_the_next_step_under_the_step_floor():
    # an accepted step's successor is clamped to the span. From t0 = 1000 a
    # span of 8e-12 lies below the step floor 1e-14*|t| = 1e-11: y' = -2.5e9 y
    # takes a first step of about 4e-12, short of t_end, and the clamp holds
    # the next one under the floor, so the run stops with an underflow, a
    # single run and its batch row alike (without the clamp the step would
    # grow past the floor and reach t_end). The stop is wanted: the span is
    # 70 ulps of 1000, so t + h rounds by 0.5 % of the first step, and a run
    # let through (no clamp, and the floor tested only on a step shorter
    # than the time left) ends at 0.98025 against the exact 0.98030, an
    # error of 5e-5 at rtol 1e-6. The batch row fills no sample
    # past its failure: its sample at t_end is NaN, not an extrapolation of
    # its last step
    cfg = IntegratorConfig(t0=1000.0, t_end=1000.0 + 8e-12, sample_dt=8e-12, rtol=1e-6)

    def rhs(t, y):
        return (-2.5e9 * y[0],)

    with pytest.raises(IntegrationError) as err:
        integrate(rhs, np.array([1.0]), cfg)
    assert err.value.reason == "underflow" and 1000.0 < err.value.t_last < cfg.t_end
    batch = integrate(rhs, np.array([[1.0]]), cfg)
    assert batch.stats["failures"] == [(0, str(err.value))]
    assert batch.stats["accepted"] == 1
    assert batch.states[0, 0, 0] == 1.0 and np.isnan(batch.states[0, -1, 0])


def test_step_floor_stops_a_run_at_t_zero():
    # the floor is 1e-14*max(1, |t|), not 1e-14*|t|: y' is 0 before t = 1e-20
    # and 1e6 after, so from t0 = 0 every attempt fails its error test until
    # the step falls below 1e-14, and both loops stop at t = 0 with an
    # underflow (on a floor of 1e-14*|t| alone, zero at t = 0, the step
    # would shrink under 1e-20 and the run complete)
    cfg = IntegratorConfig(t_end=1.0, sample_dt=0.5)

    def rhs(t, y):  # a float in a single run, an array in a batch
        return (np.where(t < 1e-20, 0.0, 1e6) if type(t) is np.ndarray
                else 0.0 if t < 1e-20 else 1e6,)

    with pytest.raises(IntegrationError) as err:
        integrate(rhs, np.array([0.0]), cfg)
    assert err.value.reason == "underflow" and err.value.t_last == 0.0
    batch = integrate(rhs, np.array([[0.0]]), cfg)
    assert batch.stats["failures"] == [(0, str(err.value))]
    assert batch.stats["accepted"] == 0 and np.isnan(batch.states[0, 1:]).all()


def test_overflowing_finiteness_sum_is_not_a_non_finite_step():
    # a single run tests finiteness on the sum of the new state and the last
    # stage, and only an infinite sum on every value: from (1e308, 1e308) the
    # sum of the new state overflows though every value is finite, so the run
    # completes in one step, as its batch row does
    cfg = IntegratorConfig(t_end=1.0, sample_dt=1.0)

    def rhs(t, y):
        return tuple(-1e-3 * v for v in y)

    single = integrate(rhs, np.array([1e308, 1e308]), cfg)
    assert single.stats["accepted"] == 1 and single.stats["rejected"] == 0
    assert np.isfinite(single.states).all() and single.states[-1, 0] < 1e308
    batch = integrate(rhs, np.array([[1e308, 1e308]]), cfg)
    assert batch.stats["failures"] == []
    assert np.array_equal(batch.states[0], single.states)


def test_non_finite_streak_limit():
    # y' is NaN for t > 0 and 0 at t = 0: every attempt meets NaN and retries
    # with a quarter of its step, from 1e-6 of the span (the first slope is
    # zero). The 41st non-finite attempt in a row stops the run while its
    # step, 1e11 / 4**41 = 2e-14, is still above the step floor of 1e-14
    cfg = IntegratorConfig(t_end=1e17, sample_dt=1e16)
    calls = []

    def rhs(t, y):  # a float in a single run, an array in a batch
        calls.append(t)
        return (np.where(t > 0.0, math.nan, 0.0) if type(t) is np.ndarray
                else math.nan if t > 0.0 else 0.0,)

    batch = integrate(rhs, np.array([[1.0]]), cfg)
    assert batch.stats["row_rejected_nonfinite"].tolist() == [41]
    calls.clear()
    with pytest.raises(IntegrationError) as err:
        integrate(rhs, np.array([1.0]), cfg)
    assert err.value.reason == "nonfinite" and err.value.t_last == 0.0
    assert batch.stats["failures"] == [(0, str(err.value))]
    assert len(calls) == 1 + 6 * 41  # the first slope, then six stages per attempt


def _step_starts(monkeypatch, rhs, y0, cfg):
    """The start times of the steps of the single Taylor run of ``rhs`` from
    y0 that hold a sample, as its fills see them."""
    starts = []
    fill = taylor_module._taylor_fill
    monkeypatch.setattr(taylor_module, "_taylor_fill",
                        lambda *args: starts.extend(args[5].tolist()) or fill(*args))
    integrate(rhs, y0, cfg)
    monkeypatch.setattr(taylor_module, "_taylor_fill", fill)
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
    assert taylor_module._taylor_order(cfg.rtol) == 13
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


@pytest.mark.parametrize("n", [2, 3, 32, 1024])
def test_add_reduce_adds_rows_in_order(n):
    # the batch writes each Cauchy sum of three terms or more as
    # np.add.reduce over axis 0 of the (terms, n) products of two series'
    # rows, one of them reversed, and relies on numpy adding the rows one
    # after another, in every column, as the single run's sum does. Up to
    # 17 terms (p = 16 at rtol 1e-13), on terms of mixed signs from 1e-8 to
    # 1e8, whose sums move with the order: a numpy that adds in another
    # order fails here
    rng = np.random.default_rng(n)
    size = 18

    def draw(shape):
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)

    # a stored series (its own rows) and a state series (a view of the
    # coefficient array, as the batched step holds it)
    x, y = draw((size, n)), draw((size, 4, n))[:, 1]
    reordered = 0
    for terms in range(3, size):
        for lo in (0, 1):
            hi = lo + terms - 1
            k = lo + hi
            products = x[lo:hi + 1] * y[k - lo:lo - 1 if lo else None:-1]
            sums = np.add.reduce(products, 0)
            for j in range(n):
                column = [x[i, j] * y[k - i, j] for i in range(lo, hi + 1)]
                forward = backward = 0.0
                for term in column:
                    forward += term
                for term in reversed(column):
                    backward += term
                assert sums[j] == forward, (terms, lo, j)
                reordered += backward != forward
    assert reordered > 0
    # the batched step sums this way, and no more with cumsum
    code = taylor_module._taylor_step_code(4, FULL_EQUATIONS, 16)
    step = next(const for const in code.co_consts if isinstance(const, types.CodeType))
    assert "add_reduce" in step.co_names and "cumsum" not in step.co_names


@pytest.mark.parametrize("d", [1, 4, 5])
def test_taylor_fill_matches_per_sample_horner_bitwise(d):
    # both paths into the Taylor fill, a batch's block of row-steps
    # (_taylor_fill) and a single run's block of flat floats (the first
    # sample, the stop, t and the terms coefficients, each as its d
    # components: _fill_taylor_steps), write each step's samples with the
    # bits of Horner's rule in plain Python, per sample and component; the
    # steps hold 0, 1 and many samples, and no other sample is written
    rng = np.random.default_rng(d)
    ts = np.sort(rng.uniform(0.0, 10.0, 400))
    for terms in (3, 17):
        # (row, first sample, stop): t0 lies just before the first sample
        steps = [(1, 10, 10), (0, 10, 11), (1, 20, 250), (0, 20, 390), (1, 300, 301)]
        rows, idx, stop = (np.array(column, dtype=np.intp) for column in zip(*steps))
        t0 = ts[idx] - rng.uniform(1e-9, 1e-3, len(steps))
        coeffs = rng.normal(size=(len(steps), terms, d)) * 10.0 ** rng.uniform(
            -3.0, 3.0, (len(steps), terms, 1))
        ref = np.zeros((2, len(ts), d))
        written = np.zeros((2, len(ts)), dtype=bool)
        for i, (row, first, end) in enumerate(steps):
            for j in range(first, end):
                s = float(ts[j]) - float(t0[i])
                for c in range(d):
                    value = float(coeffs[i, -1, c])
                    for k in range(terms - 2, -1, -1):
                        value = value * s + float(coeffs[i, k, c])
                    ref[row, j, c] = value
            written[row, first:end] = True
        batch = np.zeros_like(ref)
        taylor_module._taylor_fill(batch, ts, rows, idx, stop, t0, coeffs)
        single = np.zeros_like(ref)
        for row in (0, 1):
            block = []
            for i in np.flatnonzero(rows == row).tolist():
                block += [idx[i], stop[i], t0[i], *coeffs[i].ravel().tolist()]
            taylor_module._fill_taylor_steps(single[row], ts, block, terms)
        for out in (batch, single):
            assert np.array_equal(out, ref)
            assert np.array_equal(out.any(axis=2), written)


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
    fill = taylor_module._taylor_fill
    for cap in (10**9, 10, 1):
        monkeypatch.setattr(integrate_module, "_FILL_BLOCK", cap)
        calls = []  # the steps of each fill
        monkeypatch.setattr(taylor_module, "_taylor_fill",
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
    order = taylor_module._taylor_order
    assert [order(rtol) for rtol in (1e-13, 1e-10, 1e-9, 1e-6, 0.5, 1e3)] == [16, 13, 12, 8, 2, 2]
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    cfg = IntegratorConfig(t_end=5.0, sample_dt=1.0, rtol=1e-6)
    assert integrate(_inline(p), np.array([0.0, 0.5, 0.0, 0.5]), cfg).stats["order"] == 8


def test_taylor_non_finite_coefficients_count_as_non_finite_attempt():
    # u1' = u1^2 from 1e200: every coefficient past the first is +inf, the
    # step rule gives a zero step, and Horner's rule gives NaN (inf times
    # zero), so the one attempt is non-finite and the run stops at t0 on
    # non-finite values, its batch row beside a quiet one too. In the full
    # model from q1 = 1e200 the coefficients are NaN, which bound no step:
    # the attempts retry with a quarter of their step until it is below the
    # step floor, and the run stops on non-finite values as well
    p = ModelParams(1.0, 1.0, 0.75, 1.5, omega=2.0, epsilon=0.1, n=2)
    body = ("d1 = u1 * u1", "d2 = u2", "d3 = u3", "d4 = u4", "d5 = u5")
    quiet = [0.0, 0.5, 0.0, 0.5, 0.0]
    cfg = IntegratorConfig(t0=1.0, t_end=5.0, sample_dt=1.0)
    for rhs, y0, attempts in ((_test_field(body), np.array([1e200, 0.0, 0.0, 0.0, 0.0]), 1),
                              (_inline(p), np.array([1e200, 0.0, 0.0, 0.0]), 25)):
        with pytest.raises(IntegrationError) as err:
            integrate(rhs, y0, cfg)
        assert err.value.reason == "nonfinite" and err.value.t_last == 1.0
        assert np.array_equal(err.value.y_last, y0)
        batch = integrate(rhs, np.array([y0, quiet[:len(y0)]]), cfg)
        assert batch.stats["failures"] == [(0, str(err.value))]
        assert batch.stats["row_rejected_nonfinite"].tolist() == [attempts, 0]
        assert batch.stats["row_rejected_error"].tolist() == [0, 0]
        assert np.isnan(batch.states[0, 1:]).all() and np.isfinite(batch.states[1]).all()


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


def _test_field(body, flag=True):
    """An InlineRhs of five components from ``body``, with the parameters k
    = 1 and ``flag``; its call is never made."""
    def never(t, y):
        raise AssertionError("the Taylor method calls no right-hand side")

    equations = Equations(state=("u1", "u2", "u3", "u4", "u5"),
                          rates=("d1", "d2", "d3", "d4", "d5"), params=("k", "flag"),
                          body=body, guard=())
    return InlineRhs(never, equations, {"k": 1.0, "flag": flag})


def test_taylor_emitter_rules_reach_exact_solutions():
    # each rule of the emitter on a field with a known solution, from
    # (1, 0, 0, 1, 0) over [0, 3]: the Cauchy product under unary minus
    # (u1 = 1/(1+t)), exp of a state (u2 = ln(1+t)), a scalar over a series
    # of t and a series over a series (u3 = ln(1+t), u4 = 1+t or, with flag
    # false, e^(2t)), a conditional on a parameter, and a rate of the
    # parameters alone (u5 = 2t); a batch row equals its single run
    body = ("two = 2.0 * k",
            "d1 = -(u1 * u1)",
            "d2 = exp(-u2)",
            "d3 = 1.0 / (1.0 + t)",
            "d4 = u4 / (1.0 + t) if flag else two * u4",
            "d5 = two")
    cfg = IntegratorConfig(t_end=3.0, sample_dt=0.25)
    y0 = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
    for flag, u4 in ((True, lambda t: 1.0 + t), (False, lambda t: np.exp(2.0 * t))):
        traj = integrate(_test_field(body, flag), y0, cfg)
        t = traj.times
        exact = np.column_stack([1.0 / (1.0 + t), np.log1p(t), np.log1p(t), u4(t), 2.0 * t])
        assert np.max(np.abs(traj.states - exact) / (1.0 + np.abs(exact))) < 1e-9
        batch = integrate(_test_field(body, flag), np.array([y0, y0 * 0.5]), cfg)
        assert np.array_equal(batch.states[0], traj.states)


def test_taylor_emitter_rejects_other_constructs():
    # a construct the emitter has no recurrence for, on a series, is a
    # ValueError at generation that names the statement; so is a rate that
    # no statement assigns. Constructs on parameters alone run as written
    good = ("two = 2.0 * k ** 2", "d1 = u1", "d2 = u2", "d3 = u3", "d4 = u4", "d5 = two")
    cfg = IntegratorConfig(t_end=1.0, sample_dt=0.5)
    assert integrate(_test_field(good), np.ones(5), cfg).states[-1, 4] == 3.0
    for statement in ("d1 = u1 ** 2", "d1 = u1 if u1 > 0.0 else -u1", "d1 = abs(u1)",
                      "d1 = exp(u1, 2.0)", "d1 = u1 // 2.0"):
        field = _test_field((statement, *good[2:]))
        for y0 in (np.ones(5), np.ones((2, 5))):
            with pytest.raises(ValueError, match=re.escape(repr(statement))):
                integrate(field, y0, cfg)
    with pytest.raises(ValueError, match="no statement assigns the rate 'd1'"):
        integrate(_test_field(good[2:]), np.ones(5), cfg)
    with pytest.raises(ValueError):  # five equations for a state of four
        integrate(_test_field(good), np.ones(4), cfg)
