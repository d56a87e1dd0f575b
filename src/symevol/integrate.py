"""Time stepper: a fixed-order Taylor method for a right-hand side given by
its equations (:class:`InlineRhs`, which is how the full model always
comes, ``experiments.full_field``), and adaptive Dormand-Prince 5(4)
(``_TABLEAU``) for any other callable; :func:`order_check` takes classical
RK4 steps of its own, in plain Python. The method follows from the form of
the right-hand side; there is no method knob. The Taylor method lives in
:mod:`symevol.taylor` and shares this module's stop rule, failures and
stats.

The right-hand side takes a state as a tuple of its d components and answers
with a sequence of d components. A component is a float in a single run, and
an array with one entry per running row in a batch. A single run is one
generated loop over Python floats: the attempt's straight-line statements,
the step size, the sample test and the stop rule are written in place, and
the state stays in locals across steps. A batch of independent initial
states (``y0`` of shape (N, d)) holds the rows as columns of a (d, n) array;
every row keeps its own time and step size, and its step is generated from
the same description as the single run's: for Dormand-Prince, one emitter
writes the stage and error sums of the single run's loop and of the batched
step, which call the right-hand side at every stage (a batch once per stage
for all rows). Both loops test finiteness on the new state and the last
stage, take the step factor from libm's pow and share the controller.

So for either method a batch row equals the single-row run byte for byte.
Neither single-row loop makes a numpy call, or a ``min``, ``max`` or other
Python call, per step but on a step that holds a sample.

Both loops hold their accepted steps in a block, a single run only the steps
that hold a sample, and fill the block's samples through one numpy kernel
per method (:func:`_hermite_fill`, Dormand-Prince's cubic Hermite
interpolant, and ``taylor._taylor_fill``) once it holds a bounded number of
row-steps (a batch) or samples (a single run), and at the end, so that the
memory the fill holds stays bounded. The returned sample times are exactly
the requested grid and never constrain the step size. Every sample gets the
bits of its own evaluation, whatever the block. Integrations are
deterministic: identical inputs produce bit-identical trajectories on one
platform.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


__all__ = ["IntegratorConfig", "Trajectory", "IntegrationError", "integrate",
           "order_check", "OrderEstimate", "MAX_GRID_POINTS", "InlineRhs"]


class _Tableau(NamedTuple):
    """Explicit Runge-Kutta tableau with an embedded error estimate: stage
    s > 0 is the slope at t + c[s] h, y + h (a[s-1] @ k[:s]). The last row of
    ``a`` holds the solution weights (first same as last), ``e`` the error
    weights over every stage."""

    c: np.ndarray
    a: tuple
    e: np.ndarray


# Dormand & Prince 5(4), the method of a called right-hand side: the
# fifth-order solution is propagated; the difference to the embedded
# fourth-order one estimates the local error
_TABLEAU = _Tableau(
    c=np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]),
    a=(np.array([1 / 5]),
       np.array([3 / 40, 9 / 40]),
       np.array([44 / 45, -56 / 15, 32 / 9]),
       np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
       np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
       np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])),
    e=np.array([35 / 384 - 5179 / 57600, 0.0, 500 / 1113 - 7571 / 16695,
                125 / 192 - 393 / 640, -2187 / 6784 + 92097 / 339200,
                11 / 84 - 187 / 2100, -1 / 40]))

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9

# The stop rule both loops of both methods share: a run short of t_end stops
# on a step below _STEP_FLOOR max(1, |t|), an underflow, or at the attempt
# past _MAX_STREAK non-finite ones in a row, each of which retries with
# _SHRINK of its step. One text, written with & and |, so that it is a bool
# on the single run's floats and one bool per row on the batch's columns.
_STEP_FLOOR = 1e-14
_MAX_STREAK = 40
_SHRINK = 0.25
_STOP_RULE = (f"(t < t_end) & ((h < {_STEP_FLOOR!r}) | (h < {_STEP_FLOOR!r} * abs(t))"
              f" | (streak > {_MAX_STREAK!r}))")

# Most points a uniform time grid (output samples or fixed steps) may have: 320 MB of 4-vectors.
MAX_GRID_POINTS = 10_000_000

# Most row-steps a batch, and most samples a single run, hold before they fill
# their samples, so that the memory the fill holds is bounded whatever the row
# count and horizon.
_FILL_BLOCK = 4096

# Smallest rtol: below it the error test asks for less than rounding can give
# (scipy's solve_ivp uses the same floor).
_MIN_RTOL = 100 * np.finfo(float).eps


class IntegrationError(RuntimeError):
    """Integration aborted; carries the last successfully reached state."""

    def __init__(self, message: str, t_last: float, y_last: np.ndarray, reason: str):
        super().__init__(_failure_text(message, t_last))
        self.t_last = t_last
        self.y_last = y_last
        self.reason = reason


def _failure_text(message: str, t_last: float) -> str:
    return f"{message} (last good time t = {t_last:.6g})"


# why an adaptive run stops, by whether its last attempt met non-finite values
_STOP = {False: ("step size underflow", "underflow"),
         True: ("non-finite values in right-hand side", "nonfinite")}


# whether each batch row stops short of t_end; the single run's loop writes
# the same rule into its source (_LOOP)
_stops = eval(f"lambda t, h, streak, t_end: {_STOP_RULE}", {})


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and time grid of one run.

    The run covers [t0, t_end]; samples are produced every ``sample_dt``
    starting from t0 (the end time is always included). The samples may not
    number more than ``MAX_GRID_POINTS``, and ``rtol`` may not be below 100
    machine epsilons.
    """

    t_end: float
    sample_dt: float
    rtol: float = 1e-10
    atol: float = 1e-12
    t0: float = 0.0

    def __post_init__(self):
        if not -math.inf < self.t0 < self.t_end < math.inf:
            raise ValueError(f"need finite t0 < t_end, got t0 = {self.t0!r}, "
                             f"t_end = {self.t_end!r}")
        for name in ("sample_dt", "rtol", "atol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.rtol < _MIN_RTOL:
            raise ValueError(f"rtol must be at least 100*eps = {_MIN_RTOL:.3g}, got {self.rtol!r}")
        if (self.t_end - self.t0) / self.sample_dt > MAX_GRID_POINTS:
            raise ValueError(f"[{self.t0:g}, {self.t_end:g}] at sample_dt {self.sample_dt!r} "
                             f"gives over {MAX_GRID_POINTS} samples")


@dataclass
class Trajectory:
    """Sampled solution: strictly increasing times, states row per sample
    (for a batch, ``states[i]`` is the solution of row i)."""

    times: np.ndarray
    states: np.ndarray
    stats: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.times)


def _sample_grid(t0: float, t_end: float, dt: float) -> np.ndarray:
    span = t_end - t0
    n = int(math.floor(span / dt + 1e-9))
    ts = t0 + dt * np.arange(n + 1)
    ts[0] = t0
    # the last grid point stands for t_end only when it lies within rounding
    # of it: a tolerance relative to the span, and at least a few ulps
    if ts[-1] < t_end - max(1e-12 * span, 4.0 * math.ulp(t_end)):
        ts = np.append(ts, t_end)
    else:
        ts[-1] = min(ts[-1], t_end)
    return ts


def _hermite(th, h, y0, y1, f0, f1):
    """Cubic Hermite interpolant at the step fractions ``th`` (shape (m,)),
    one sample per entry: ``h`` has shape (m,), the step's end states and
    slopes (m, d); one output row of d values per sample. The only Hermite
    formula, evaluated by :func:`_hermite_fill` for both loops. The
    arithmetic is elementwise, so every sample gets the bits of a
    one-sample evaluation, whatever the block it is filled in."""
    th2 = th * th
    th3 = th2 * th
    return ((2 * th3 - 3 * th2 + 1)[:, None] * y0 + ((th3 - 2 * th2 + th) * h)[:, None] * f0
            + (-2 * th3 + 3 * th2)[:, None] * y1 + ((th3 - th2) * h)[:, None] * f1)


def _block_samples(idx, stop):
    """The samples a block of steps fills, step i those from ``idx[i]`` up
    to ``stop[i]``: for each sample, in step order, its step and its index."""
    counts = stop - idx
    pair = np.repeat(np.arange(len(idx)), counts)
    first = np.cumsum(counts) - counts
    return pair, idx[pair] + np.arange(len(pair)) - first[pair]


def _hermite_fill(out, ts, rows, idx, stop, t0, h, y0, y1, f0, f1):
    """Fill the samples of a block of m steps with each step's cubic Hermite
    interpolant. Step i writes ``out[rows[i]]``, of shape (samples, d), at
    the samples ``idx[i]`` up to ``stop[i]`` (those on (t0[i], t0[i] +
    h[i]]). ``rows``, ``idx``, ``stop``, ``t0`` and ``h`` have shape (m,),
    the end states and slopes (m, d). Both loops fill through it: a batch
    into its (N, samples, d) output, a single run as row 0 of
    ``out[None]``."""
    pair, sample = _block_samples(idx, stop)
    if len(pair):
        hp = h[pair]
        out[rows[pair], sample] = _hermite((ts[sample] - t0[pair]) / hp, hp, y0[pair],
                                           y1[pair], f0[pair], f1[pair])


def _row_rms(x):
    """Root mean square over the d components, the first axis, of a (d,) or
    (d, n) array."""
    sq = x * x
    acc = sq[0]
    for j in range(1, len(x)):
        acc = acc + sq[j]
    return np.sqrt(acc / len(x))


def _initial_step(y0, f0, rtol, atol, span):
    """First trial step of a (d,) state or per column of a (d, n) batch; the
    loops clamp each step to the time left."""
    scale = atol + rtol * np.abs(y0)
    d0 = _row_rms(y0 / scale)
    d1 = _row_rms(f0 / scale)
    return np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6 * span, 0.01 * d0 / d1)


def integrate(rhs, y0, config: IntegratorConfig) -> Trajectory:
    """Integrate y' = rhs(t, y) over [config.t0, config.t_end] with dense
    sampling.

    An :class:`InlineRhs` runs a Taylor method of order
    p = max(2, ceil(-ln(rtol) / 2) + 1), 13 at the default rtol 1e-10,
    generated from its equations; its steps take no error test, their size
    comes from the last two Taylor coefficients, and the samples are the
    steps' own polynomials. Any other ``rhs`` runs adaptive Dormand-Prince
    5(4) with cubic Hermite samples.

    ``rhs(t, y)`` gets the state ``y`` as a tuple of its d components and
    returns a sequence of d components (a tuple, a list, an ndarray). For a
    1-D ``y0`` of d values a component is a float and ``t`` is a float. For
    a 2-D ``y0`` of shape (N, d), N independent rows run at once: a component
    is an array of shape (n,) holding the n rows still running, ``t`` is the
    array of their times, and the answer must have shape (d, n). ``rhs`` must
    treat rows independently. An answer of another length or shape, or an
    :class:`InlineRhs` whose equations have another number of components,
    raises ValueError before any sample is written.

    Each accepted step fills the samples after its start and at or before
    its end. A run short of t_end stops on step-size underflow (a step below
    1e-14 max(1, |t|)) or on persistent non-finite values (the attempt past
    40 non-finite ones in a row), by one rule that both loops of both methods
    read. A single run raises :class:`IntegrationError`; the exception
    carries the last good (t, y), with y an ndarray. ``states`` has shape
    (samples, d).

    A batch keeps each row's own time and step size, and a row's result
    does not depend on the other rows. ``states`` has shape (N, samples, d).
    A failing row does not raise: it is listed in ``stats["failures"]`` as
    ``(row, message)``, with the message the single-row run would raise,
    and its samples past the last good time are NaN.

    ``stats`` names the ``method`` (``"taylor"``, with its ``order``, or
    ``"rk45"``), and counts the ``accepted`` steps, the ``rejected`` ones,
    split into ``rejected_error`` (error test failed; always 0 for the Taylor
    method, which has no error test) and ``rejected_nonfinite`` (non-finite
    values met), and the ``rhs_evals``: for rk45 the first slope and every
    stage past the first of every attempt, for the Taylor method one
    evaluation of the coefficients' recurrence per attempt. ``h_min``,
    ``h_max`` and ``h_final`` are the smallest, the largest and the last
    accepted step; the last ends at t_end. A batch gives the counts' totals
    over its rows and each step size's ``min``, ``median`` and ``max`` over
    the rows that accepted a step (None if none did), and, under the same
    names prefixed ``row_``, one value per row, each that of the single-row
    run (NaN step sizes for a row that accepted no step). A batch row equals
    the single-row run of its state byte for byte.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim not in (1, 2) or y0.shape[-1] == 0:
        raise ValueError(f"y0 must have shape (d,) or (N, d) with d >= 1, got {y0.shape}")
    ts = _sample_grid(config.t0, config.t_end, config.sample_dt)
    if isinstance(rhs, InlineRhs):
        from . import taylor  # which imports this module's shared parts
        run_single, run_rows = taylor.run_single, taylor.run_rows
    else:
        run_single, run_rows = _run_single, _run_rows
    if y0.ndim == 2:
        out = np.full((y0.shape[0], len(ts), y0.shape[1]), np.nan)
        out[:, 0] = y0
        run = run_rows
    else:
        out = np.empty((len(ts), len(y0)))
        out[0] = y0
        run = run_single
    stats = run(rhs, y0, config, ts, out)
    return Trajectory(times=ts, states=out, stats=stats)


def _run_single(rhs, y0, config, ts, out):
    d = len(y0)
    t0, t_end = config.t0, config.t_end
    y = tuple(y0.tolist())
    f = tuple(rhs(t0, y))  # the block may hold it past the rhs's next call
    if len(f) != d:
        raise ValueError(f"rhs returned {len(f)} values for a state of {d}")
    run = _loop_function(d)
    # the sample times, read as floats, and past the last one a time no step reaches
    samples = memoryview(np.append(ts, math.inf))
    with np.errstate(all="ignore"):  # non-finite values are tested once per step
        h = float(_initial_step(y0, np.asarray(f, dtype=float), config.rtol, config.atol,
                                t_end - t0))
        accepted, rejected_error, rejected_nonfinite, *steps = run(
            rhs, t0, h, y, f, t_end, t_end - t0, config.rtol, config.atol, samples, out, ts)
    return _stats({"method": "rk45"}, accepted, rejected_error, rejected_nonfinite,
                  _rk45_evals(accepted, rejected_error, rejected_nonfinite), *steps)


def _failure(t, y, streak) -> IntegrationError:
    """The error of a single run that stops short at t, in the state y: its
    last attempt met non-finite values when ``streak`` > 0."""
    message, reason = _STOP[streak > 0]
    return IntegrationError(message, t, np.array(y, dtype=float), reason)


def _fill_steps(out, ts, block):
    """Fill the samples of the rk45 steps a single run holds in ``block``, a
    flat list of 4 + 4d numbers per step: its first sample and the sample
    past its last, t and h, then the d components each of y, y_new, f and
    f_new."""
    d = out.shape[1]
    steps = np.fromiter(block, float, len(block)).reshape(-1, 4 + 4 * d)
    idx, stop = steps[:, :2].T.astype(np.intp)
    y0, y1, f0, f1 = (steps[:, i:i + d] for i in range(4, 4 + 4 * d, d))
    _hermite_fill(out[None], ts, np.zeros(len(steps), dtype=np.intp), idx, stop,
                  steps[:, 2], steps[:, 3], y0, y1, f0, f1)


# the step sizes of Trajectory.stats: a batch gives their spread over its
# rows, where it totals the counts
_STEP_SIZES = ("h_min", "h_max", "h_final")


def _rk45_evals(accepted, rejected_error, rejected_nonfinite):
    """The rk45 right-hand-side evaluations: every attempt evaluates each
    stage past the first slope, which the run evaluates once."""
    return 1 + len(_TABLEAU.a) * (accepted + rejected_error + rejected_nonfinite)


def _stats(method, accepted, rejected_error, rejected_nonfinite, rhs_evals,
           h_min, h_max, h_final) -> dict:
    """The stats of a run from its counters and step sizes, ints and floats
    in a single run and arrays of one entry per row in a batch; ``method``
    names the method and a Taylor method's order."""
    return {**method, "accepted": accepted, "rejected": rejected_error + rejected_nonfinite,
            "rejected_error": rejected_error, "rejected_nonfinite": rejected_nonfinite,
            "rhs_evals": rhs_evals, "h_min": h_min, "h_max": h_max, "h_final": h_final}


def _batch_stats(rows: dict, failures) -> dict:
    """A batch's stats from the per-row ones of :func:`_stats`: the method,
    each count's total, each step size's min, median and max over the rows
    that accepted a step, every per-row array under its name prefixed
    ``row_`` (NaN step sizes for a row that accepted none), and the
    failures."""
    moved = rows["accepted"] > 0
    stats = {}
    for key, value in rows.items():
        if not isinstance(value, np.ndarray):
            stats[key] = value
            continue
        if key in _STEP_SIZES:
            value[~moved] = np.nan
            kept = value[moved]
            stats[key] = {"min": float(kept.min()), "median": float(np.median(kept)),
                          "max": float(kept.max())} if kept.size else None
        else:
            stats[key] = int(value.sum())
        stats[f"row_{key}"] = value
    return {**stats, "failures": sorted(failures)}


def _power(x, exponent):
    """x**exponent of every entry of an array by libm's pow, ``math.pow``
    mapped over the entries, so that a batch row takes the bits of the single
    run's ``**`` on a float (numpy's power differs from libm's in the last
    bit of ~5 % of inputs)."""
    return np.fromiter(map(math.pow, x.tolist(), itertools.repeat(exponent)), float, x.size)


def _error_power(err_norm):
    """err_norm**-0.2 of every entry of an array by :func:`_power`, the rk45
    step factor. An entry that is not positive, a zero or NaN error, gives
    1.0: a zero error takes the largest factor and a non-finite step a
    quarter of its size, so no row uses that entry."""
    return _power(np.where(err_norm > 0.0, err_norm, 1.0), -0.2)


def _weighted_source(weights, terms) -> str:
    """A weighted sum as an expression: left to right, zero weights included.
    Every stage and error sum of the single run's loop and of the batched
    step is written by it."""
    return "(" + " + ".join(f"{float(w)!r} * {x}" for w, x in zip(weights, terms)) + ")"


def _sum_source(name, terms) -> list:
    """Statements summing ``terms`` into ``name`` left to right, 64 terms per
    statement, so that no expression nests too deep to compile."""
    lines = [f"{name} = {' + '.join(terms[:64])}"]
    for i in range(64, len(terms), 64):
        lines.append(f"{name} = {name} + {' + '.join(terms[i:i + 64])}")
    return lines


def _names(prefix, d) -> str:
    """``prefix0, ..., prefix<d-1>,``: d names as a tuple's items."""
    return " ".join(f"{prefix}{j}," for j in range(d))


def _indented(lines, depth) -> list:
    """``lines`` indented by ``depth`` levels of four spaces."""
    return ["    " * depth + line for line in lines]


class InlineRhs(NamedTuple):
    """A right-hand side with its source text, from which both loops write a
    Taylor method (:class:`symevol.taylor._TaylorEmitter`).

    ``call(t, y)`` is the right-hand side itself, and calling the record
    calls it (the fixed RK4 steps of :func:`order_check` do); the Taylor
    loops never do. ``equations`` is its source, as
    :class:`symevol.model.Equations`: straight-line ``body`` statements that,
    at the time ``t`` with the state components in the names ``state``,
    assign their rates to the names ``rates``, each name once, and ``guard``
    statements. The body's statements fall in two classes. Those that read
    neither ``t`` nor a state name, directly or through an earlier
    statement, run once per run, when the loop or the batched step is bound,
    in the namespace that holds ``bindings``, and so does the guard, with
    ``t`` the run's start time. Every other statement assigns a Taylor series
    and may use only the constructs ``taylor._TaylorEmitter`` lists.
    ``bindings`` holds every other name they read but ``exp``, which each
    loop binds to libm's exp (``math.exp``, in a batch ``model._exp``).

    The statements' names share the generated code's namespace, so they must
    differ from its own: every name that starts with an underscore, ``t``
    (the time), ``y``, ``h``, ``cap``, ``t_end``, ``t_new``, ``rtol``,
    ``atol``, ``finite``, ``clamped``, ``inf``, ``exp``, ``isfinite``,
    ``where``, ``power``, ``empty``, ``cumsum`` and the names of the single
    run's loop in ``taylor._TAYLOR_LOOP``.
    """

    call: object
    equations: object
    bindings: dict

    def __call__(self, t, y):
        return self.call(t, y)


def _stage_lines(d: int) -> list:
    """One rk45 attempt on d floats, as straight-line statements: from the
    state in ``y<j>``, its slope in ``k0_<j>``, the time ``t`` and the step
    ``h``, they assign the stages ``k<s>_<j>``, each a call of ``rhs``, the
    new state ``z<j>``, whether every stage and the new state are finite
    (``finite``) and the error norm (``err_norm``). Its sums are those of
    :func:`_rows_step_code`, so a single run equals its batch row bit for bit.

    Finiteness is tested on the new state and the last stage only. The new
    state's sum takes every other stage with its weight, zero weights
    included, and 0·inf is NaN, so a non-finite earlier stage makes the new
    state non-finite. The error norm's ``max(|y|, |z|)`` is written as
    ``max``'s own rule, ``b if b > a else a``, which gives its result for
    ±0.0 and NaN too, without the call.
    """
    c, a, e = _TABLEAU
    comps = range(d)
    lines = []
    for s, a_s in enumerate(a, 1):
        for j in comps:
            lines.append(f"z{j} = y{j} + h * "
                         + _weighted_source(a_s, [f"k{r}_{j}" for r in range(s)]))
        lines.append(f"{_names(f'k{s}_', d)} = rhs((t + {float(c[s])!r} * h), ({_names('z', d)}))")
    # the last stage input is the solution (first same as last); a finite
    # sum proves every value finite, and only a non-finite one is looked into
    values = [f"k{len(a)}_{j}" for j in comps] + [f"z{j}" for j in comps]
    lines += _sum_source("total", values)
    lines.append(f"finite = isfinite(total) or all(map(isfinite, ({', '.join(values)},)))")
    for j in comps:  # the error norm of _row_rms
        lines += [f"ay{j} = abs(y{j})", f"az{j} = abs(z{j})",
                  f"x{j} = h * {_weighted_source(e, [f'k{r}_{j}' for r in range(len(c))])}"
                  f" / (atol + rtol * (az{j} if az{j} > ay{j} else ay{j}))"]
    lines += _sum_source("sq", [f"x{j} * x{j}" for j in comps])
    lines.append(f"err_norm = sqrt(sq / {d})")
    return lines


# A single run's rk45 loop over floats, as _loop_code fills it in: the
# attempt's statements, the controller, the sample test, the stop rule (the
# text _STOP_RULE, which _stops reads too) and the step's bookkeeping, with
# the state and the slope at its start (first same as last) in locals across
# steps. It calls out only on a step that holds a sample (bisect_right, and
# fill_steps once the block holds fill_block samples or the grid's last) and
# at the end. The clamps are written as the builtins' own rules, the same
# bits without a call per step. An accepted step has 0 < err_norm <= 1, so
# its factor is at least the safety factor and needs no floor.
_LOOP = """\
def run(rhs, t, h, y, f, t_end, span, rtol, atol, samples, out, ts):
    {y} = y
    {k0} = f
    last_sample = len(ts)
    idx = 1
    t_next = samples[1]
    accepted = rejected_error = rejected_nonfinite = streak = 0
    h_min = inf
    h_max = h_last = 0.0
    block = []
    while t < t_end:
        if h >= t_end - t:
            h = t_end - t
            t_new = t_end
        else:
            t_new = t + h
{attempt}
        if not finite:
            streak += 1
            rejected_nonfinite += 1
            h *= {shrink!r}
        elif err_norm <= 1.0:
            streak = 0
            # most steps hold no sample: a step joins the block only when the
            # next sample lies at or before its end. It joins in two parts:
            # CPython 3.11 never reuses a freed tuple of 20 items, the length
            # of one part at d = 4, and holds up to 2000 of them until a full
            # collection
            if t_next <= t_new:
                stop = bisect_right(samples, t_new, idx)
                block += idx, stop, t, h
                block += {y} {z} {k0} {k_last}
                idx = stop
                t_next = samples[idx]
                if idx == last_sample or idx - block[0] >= fill_block:
                    fill_steps(out, ts, block)
                    block = []
            t = t_new
{advance}
            accepted += 1
            h_min = h if h < h_min else h_min
            h_max = h if h > h_max else h_max
            h_last = h
            if err_norm == 0.0:
                h *= {max_factor!r}
            else:
                factor = {safety!r} * err_norm ** -0.2
                h *= factor if factor < {max_factor!r} else {max_factor!r}
            if span < h:
                h = span
        else:
            streak = 0
            rejected_error += 1
            factor = {safety!r} * err_norm ** -0.2
            h *= factor if factor > {min_factor!r} else {min_factor!r}
        if {stop_rule}:
            raise failure(t, ({y}), streak)
    return accepted, rejected_error, rejected_nonfinite, h_min, h_max, h_last
"""


@functools.cache
def _loop_code(d: int):
    """A single run's whole rk45 loop on d floats, as compiled code:
    :data:`_LOOP` around the attempt of :func:`_stage_lines`. ``run(rhs, t,
    h, y, f, t_end, span, rtol, atol, samples, out, ts)`` integrates from t
    with the first trial step h, the state ``y`` and its slope ``f`` as
    sequences of d floats, fills ``out`` at the times ``ts`` (``samples`` is
    ``ts`` and inf past it) and returns the counts of accepted,
    error-rejected and non-finite attempts and the smallest, largest and
    last accepted step, or raises :class:`IntegrationError`. Its controller
    is that of :func:`_run_rows`, and its stop rule the text
    :data:`_STOP_RULE` that ``_stops`` reads. Cached, one entry per
    dimension: a loop compiled per run costs more than it saves."""
    last = len(_TABLEAU.a)
    code = _LOOP.format(
        y=_names("y", d), z=_names("z", d), k0=_names("k0_", d), k_last=_names(f"k{last}_", d),
        attempt="\n".join(_indented(_stage_lines(d), 2)),
        advance="\n".join(_indented([*(f"y{j} = z{j}" for j in range(d)),
                                     *(f"k0_{j} = k{last}_{j}" for j in range(d))], 3)),
        safety=_SAFETY, min_factor=_MIN_FACTOR, max_factor=_MAX_FACTOR, shrink=_SHRINK,
        stop_rule=_STOP_RULE)
    return compile(code, "<loop>", "exec")


def _loop_function(d: int):
    """The rk45 loop of :func:`_loop_code`, bound. It reads ``_FILL_BLOCK``
    when bound, and ``_hermite_fill`` at every fill."""
    namespace = {"isfinite": math.isfinite, "sqrt": math.sqrt, "inf": math.inf,
                 "bisect_right": bisect.bisect_right, "fill_steps": _fill_steps,
                 "fill_block": _FILL_BLOCK, "failure": _failure}
    exec(_loop_code(d), namespace)
    return namespace["run"]


@functools.cache
def _rows_step_code():
    """One rk45 attempt over a batch, as compiled code: ``step(rhs, t, h, y,
    f, rtol, atol)``, which takes ``y`` and ``f`` as (d, n) arrays, a column
    per row, ``t`` and ``h`` as (n,) arrays, and returns the new state, the
    slope there (the last stage), ``finite`` and the error norm, both per
    row. One statement per stage sum, with the single run's sums; each stage
    calls ``rhs``, and its answer passes :func:`_columns`."""
    c, a, e = _TABLEAU
    lines = ["def step(rhs, t, h, y, f, rtol, atol):",
             "    k0 = f"]
    for s, a_s in enumerate(a, 1):
        lines += [f"    z = y + h * {_weighted_source(a_s, [f'k{r}' for r in range(s)])}",
                  f"    k{s} = columns(rhs(t + {float(c[s])!r} * h, tuple(z)), y.shape)"]
    lines += [f"    finite = isfinite(z).all(axis=0) & isfinite(k{len(a)}).all(axis=0)",
              f"    x = h * {_weighted_source(e, [f'k{r}' for r in range(len(c))])}"
              " / (atol + rtol * maximum(abs(y), abs(z)))",
              f"    return z, k{len(a)}, finite, row_rms(x)"]
    return compile("\n".join(lines), "<batch step>", "exec")


def _rows_step_function():
    """The batched rk45 step of :func:`_rows_step_code`, bound."""
    namespace = {"columns": _columns, "isfinite": np.isfinite, "maximum": np.maximum,
                 "row_rms": _row_rms}
    exec(_rows_step_code(), namespace)
    return namespace["step"]


def _columns(answer, shape):
    """A batch rhs answer as a (d, n) array; another shape is a ValueError."""
    k = np.asarray(answer, dtype=float)
    if k.shape != shape:
        raise ValueError(f"rhs returned values of shape {k.shape} for states of shape {shape}")
    return k


def _run_rows(rhs, y0, config, ts, out):
    step = _rows_step_function()
    t0, t_end = config.t0, config.t_end
    rtol, atol = config.rtol, config.atol
    span = t_end - t0
    n_rows = len(y0)
    accepted = np.zeros(n_rows, dtype=np.int64)
    rejected_error = np.zeros(n_rows, dtype=np.int64)
    rejected_nonfinite = np.zeros(n_rows, dtype=np.int64)
    h_min, h_max, h_last = np.full(n_rows, math.inf), np.zeros(n_rows), np.full(n_rows, math.nan)
    failures = []
    # live rows only, one column each, compressed whenever rows finish or fail
    rows = np.arange(n_rows)
    t = np.full(n_rows, float(t0))
    y = y0.T.copy()
    idx = np.ones(n_rows, dtype=np.intp)
    streak = np.zeros(n_rows, dtype=np.int64)
    # the steps whose samples are not filled yet: no array they hold is
    # written in place afterwards, so they are held without a copy
    block, held = [], 0
    with np.errstate(all="ignore"):
        f = _columns(rhs(t, tuple(y)), y.shape)
        h = _initial_step(y, f, rtol, atol, span)
        while rows.size:
            clamped = h >= t_end - t
            h = np.where(clamped, t_end - t, h)
            y_new, f_new, finite, err_norm = step(rhs, t, h, y, f, rtol, atol)
            ok = finite & (err_norm <= 1.0)
            factor = _SAFETY * _error_power(err_norm)
            # an accepted row has 0 < err_norm <= 1, so its factor needs no floor
            grow = np.where(err_norm == 0.0, _MAX_FACTOR, np.minimum(_MAX_FACTOR, factor))
            t_new = np.where(clamped, t_end, t + h)
            stop = np.searchsorted(ts, t_new, side="right")
            accepted[rows] += ok
            h_min[rows] = np.where(ok & (h < h_min[rows]), h, h_min[rows])
            h_max[rows] = np.where(ok & (h > h_max[rows]), h, h_max[rows])
            h_last[rows] = np.where(ok, h, h_last[rows])
            h_new = np.minimum(h * grow, span)
            if not ok.all():
                # a rejected row keeps its state with a smaller step, and fills no sample
                rejected_error[rows] += finite & ~ok
                rejected_nonfinite[rows] += ~finite
                h_new = np.where(ok, h_new, np.where(finite, h * np.maximum(_MIN_FACTOR, factor),
                                                     h * _SHRINK))
                t_new, y_new, f_new, stop = (np.where(ok, new, old) for new, old in
                                             ((t_new, t), (y_new, y), (f_new, f), (stop, idx)))
            block.append((rows, idx, stop, t, h, y, y_new, f, f_new))
            held += rows.size
            h, t, y, f, idx = h_new, t_new, y_new, f_new, stop
            streak = np.where(finite, 0, streak + 1)
            failed = _stops(t, h, streak, t_end)
            failures += _failed_rows(rows, t, streak, failed)
            live = (t < t_end) & ~failed
            if not live.all():
                rows, t, h, idx, streak = (v[live] for v in (rows, t, h, idx, streak))
                y, f = y[:, live], f[:, live]
            if held >= _FILL_BLOCK or not rows.size:
                columns = list(zip(*block))
                _hermite_fill(out, ts, *(np.concatenate(column) for column in columns[:5]),
                              *(np.concatenate(column, axis=1).T for column in columns[5:]))
                block, held = [], 0
    return _batch_stats(_stats({"method": "rk45"}, accepted, rejected_error, rejected_nonfinite,
                               _rk45_evals(accepted, rejected_error, rejected_nonfinite),
                               h_min, h_max, h_last), failures)


def _failed_rows(rows, t, streak, failed) -> list:
    """``(row, message)`` of every batch row that ``failed``, stopped short
    of t_end by :data:`_STOP_RULE`, with the message its single run raises."""
    return [(int(rows[i]), _failure_text(_STOP[bool(streak[i])][0], float(t[i])))
            for i in np.flatnonzero(failed).tolist()]


# Classical RK4, whose fixed steps order_check takes: each stage's time
# fraction and its weights on the slopes before it; the last row holds the
# solution weights, and its slope is the next step's first
_RK4 = ((0.5, (0.5,)), (0.5, (0.0, 0.5)), (1.0, (0.0, 0.0, 1.0)),
        (1.0, (1 / 6, 1 / 3, 1 / 3, 1 / 6)))


def _rk4_step(rhs, t, h, y, f):
    """One step of ``_RK4`` from the state ``y`` at t, with its slope ``f``,
    both tuples of floats: the new state, and its slope at t + h (the last
    stage). Each stage input sums every earlier slope with its weight, left
    to right with zero weights included, so a non-finite slope makes the new
    state non-finite. An answer of another length raises ValueError."""
    k = [f]
    for c, weights in _RK4:
        z = []
        for j, y_j in enumerate(y):
            acc = weights[0] * k[0][j]
            for w, k_r in zip(weights[1:], k[1:]):
                acc = acc + w * k_r[j]
            z.append(y_j + h * acc)
        k.append(tuple(rhs(t + c * h, tuple(z))))
        if len(k[-1]) != len(y):
            raise ValueError(f"rhs returned {len(k[-1])} values for a state of {len(y)}")
    return tuple(z), k[-1]


@dataclass(frozen=True)
class OrderEstimate:
    """Least-squares convergence order, or a saturation flag at the error floor."""

    order: float | None
    saturated: bool
    step_sizes: tuple
    errors: tuple


def order_check(rhs, y0, t0: float, t_end: float, steps) -> OrderEstimate:
    """Measure the fixed-step RK4 convergence order on [t0, t_end] against
    an adaptive reference solution at tight tolerance.

    A nominal step h takes n = max(1, round(span/h)) steps of span/n, step i
    from t0 + i span/n, at most ``MAX_GRID_POINTS``; the fit and the report
    use those step sizes taken, of which there must be at least three
    distinct ones (geometric progressions work best), checked before anything
    is integrated. A non-finite step raises :class:`IntegrationError`.
    """
    reference = IntegratorConfig(t0=t0, t_end=t_end, sample_dt=t_end - t0,
                                 rtol=1e-13, atol=1e-15)
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1:
        raise ValueError(f"order_check takes one state of shape (d,), got {y0.shape}")
    span = t_end - t0
    counts = []
    for h in map(float, steps):
        if not 0.0 < h < math.inf or span / h > MAX_GRID_POINTS:
            raise ValueError(f"a step must be positive, finite and take at most "
                             f"{MAX_GRID_POINTS} steps over [{t0:g}, {t_end:g}], got {h!r}")
        counts.append(max(1, round(span / h)))
    steps = [span / n for n in counts]
    if len(set(steps)) < 3:
        raise ValueError("need at least three distinct step sizes; over a span of "
                         f"{span:g} the steps taken are {', '.join(f'{h:g}' for h in steps)}")
    y_ref = integrate(rhs, y0, reference).states[-1]
    start = tuple(y0.tolist())
    f0 = tuple(rhs(t0, start))
    errors = []
    for n, h in zip(counts, steps):
        y, f = start, f0
        for i in range(n):
            z, f = _rk4_step(rhs, t0 + i * h, h, y, f)
            if not all(map(math.isfinite, (*z, *f))):
                raise IntegrationError("non-finite values in fixed-step solution",
                                       t0 + i * h, np.array(y, dtype=float), "nonfinite")
            y = z
        errors.append(float(np.max(np.abs(np.array(y) - y_ref))))
    floor = 5e-13 * (1.0 + float(np.max(np.abs(y_ref))))
    if min(errors) < floor:
        return OrderEstimate(None, True, tuple(steps), tuple(errors))
    slope = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
    return OrderEstimate(slope, False, tuple(steps), tuple(errors))
