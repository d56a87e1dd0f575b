"""Time stepper: a fixed-order Taylor method for a right-hand side given by
its equations, an :class:`InlineRhs` (every field the package integrates
comes as one, made by :meth:`symevol.model.Equations.at`);
:func:`order_check` takes classical RK4 steps of its own, in plain Python.

:class:`_TaylorEmitter` reads the equations' statements with ``ast`` and
writes the recurrences of their Taylor coefficients, one coefficient at a
time, as straight-line statements: locals of floats in the single run's loop
(:data:`_TAYLOR_LOOP`), rows in the batched step, with the same operations in
the same order, so a batch row equals its single run bit for bit. A series
times itself sums each symmetric pair once (the square rule of Jorba & Zou
and of TIDES), and the subexpressions of the parameters alone run once per
run, under names of their own. No text adds a negation: -a + b is written
b - a, and -(a s) for a scalar a is (-a) s, with -a once per run, bit for
bit. The batched step (:class:`_BatchStep`) gives each op of an order a
dependency level and makes one numpy call per run of like ops of a level
whose rows are consecutive, on views of one buffer of rows that it
allocates and views once per row count, laid out for those runs: its
Cauchy sums, and the halves of its squares, of two terms or more are
``np.add.reduce`` over axis 0 of their products, one or several sums of
equal length at once, which adds them in the single run's order from two
columns on, so it never steps fewer than two columns
(:meth:`_TaylorEmitter.dot`). The order p follows from rtol
(:func:`_taylor_order`), and the step size from the last two coefficients,
capped at a fraction of the series' estimated radius of convergence
(:func:`_step_rule_lines`); there is no error test. The new state and the
dense output (:func:`_taylor_fill`) are Horner's rule on the step's own
polynomial. Each step takes one libm ``exp`` per ``exp`` of the equations,
of its first coefficient (``math.exp``, in a batch ``model._exp``, mapped
over the entries), and its step size from libm's ``pow`` (``**``, in a batch
``math.pow`` mapped over the entries).

A single run is one generated loop over Python floats: the attempt's
straight-line statements, the step size, the sample test and the stop rule
are written in place, and the state stays in locals across steps; it makes
no numpy call, and no ``abs``, ``min``, ``max``, ``isfinite`` or other Python
call, per step but on a step that holds a sample. A batch of independent
initial states (``y0`` of shape (N, d)) holds the rows as columns of a (d, n)
array; every row keeps its own time and step size. Both loops hold their
accepted steps in a block, a batch each with a copy of its coefficients,
which the step's next call overwrites, and a single run only the steps that
hold a sample, as floats; they fill the block's samples
through :func:`_taylor_fill` once it holds a bounded number of row-steps (a
batch) or samples (a single run), and at the end, so that the memory the
fill holds stays bounded. The returned sample times are exactly the
requested grid and never constrain the step size. Every sample gets the bits
of its own evaluation, whatever the block. Integrations are deterministic:
identical inputs produce bit-identical trajectories on one platform.

References: A. Jorba and M. Zou, "A software package for the numerical
integration of ODEs by means of high-order Taylor methods", Exp. Math. 14
(2005); A. Abad et al., "TIDES", ACM TOMS 39 (2012).
"""

from __future__ import annotations

import ast
import bisect
import collections
import functools
import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .model import InlineRhs, _check_names, _exp


__all__ = ["IntegratorConfig", "Trajectory", "IntegrationError", "integrate",
           "order_check", "OrderEstimate", "MAX_GRID_POINTS", "InlineRhs"]


# The underflow rule both loops share: a run short of t_end stops on a step
# below _STEP_FLOOR max(1, |t|). One text, written with & and |, so that it is
# a bool on the single run's floats and one bool per row on the batch's
# columns. A non-finite attempt stops its run as well.
_STEP_FLOOR = 1e-14
_STOP_RULE = f"(t < _t_end) & ((_h < {_STEP_FLOOR!r}) | (_h < {_STEP_FLOOR!r} * _abs(t)))"

# Most intervals a uniform time grid (of output samples or of fixed steps) may
# have: 320 MB of 4-vectors.
MAX_GRID_POINTS = 10_000_000

# Most row-steps a batch, and most samples a single run, hold before they fill
# their samples, so that the memory the fill holds is bounded whatever the row
# count and horizon.
_FILL_BLOCK = 4096

# Smallest rtol: below it the step's tolerance asks for less than rounding
# can give (scipy's solve_ivp uses the same floor).
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


# why a run stops, by whether its last attempt met non-finite values
_STOP = {False: ("step size underflow", "underflow"),
         True: ("non-finite values in right-hand side", "nonfinite")}


# whether each batch row's step underflows short of t_end; the single run's
# loop writes the same rule into its source (_TAYLOR_LOOP)
_stops = eval(f"lambda t, _h, _t_end: {_STOP_RULE}", {"_abs": abs})


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and time grid of one run.

    The run covers [t0, t_end]; samples are produced every ``sample_dt``
    starting from t0 (the end time is always included). The sample grid may
    not have more than ``MAX_GRID_POINTS`` intervals, counted as the grid
    is made (:func:`_grid_steps`, a last short interval a whole one), and
    ``rtol`` may not be below 100 machine epsilons.
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
        # a grid too fine to count is over the ceiling too
        if not (self.t_end - self.t0) / self.sample_dt < math.inf \
                or sum(_grid_steps(self.t0, self.t_end, self.sample_dt)) > MAX_GRID_POINTS:
            raise ValueError(f"[{self.t0:g}, {self.t_end:g}] at sample_dt {self.sample_dt!r} "
                             f"gives over {MAX_GRID_POINTS} sample intervals")


@dataclass
class Trajectory:
    """Sampled solution: strictly increasing times, states row per sample
    (for a batch, ``states[i]`` is the solution of row i)."""

    times: np.ndarray
    states: np.ndarray
    stats: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.times)


def _grid_steps(t0: float, t_end: float, dt: float) -> tuple[int, bool]:
    """(n, short): the whole steps of dt of the sample grid of [t0, t_end], and
    whether t_end lies beyond rounding (relative, and a few ulps) of t0 + n*dt."""
    span = t_end - t0
    n = int(math.floor(span / dt + 1e-9))
    return n, t0 + dt * n < t_end - max(1e-12 * span, 4.0 * math.ulp(t_end))


def _sample_grid(t0: float, t_end: float, dt: float) -> np.ndarray:
    n, short = _grid_steps(t0, t_end, dt)
    ts = t0 + dt * np.arange(n + 1)
    ts[0] = t0
    if short:
        ts = np.append(ts, t_end)
    else:
        ts[-1] = min(ts[-1], t_end)
    return ts


def _block_samples(idx, stop):
    """The samples a block of steps fills, step i those from ``idx[i]`` up
    to ``stop[i]``: for each sample, in step order, its step and its index."""
    counts = stop - idx
    pair = np.repeat(np.arange(len(idx)), counts)
    first = np.cumsum(counts) - counts
    return pair, idx[pair] + np.arange(len(pair)) - first[pair]


def integrate(rhs: InlineRhs, y0, config: IntegratorConfig) -> Trajectory:
    """Integrate y' = rhs(t, y) over [config.t0, config.t_end] with dense
    sampling, by the Taylor method of order p = max(2, ceil(-ln(rtol) / 2)
    + 1), 13 at the default rtol 1e-10, generated from the equations of
    ``rhs``, an :class:`InlineRhs`; any other ``rhs`` raises TypeError. Its
    steps take no error test, their size comes from the last two Taylor
    coefficients, and the samples are the steps' own polynomials.

    A 1-D ``y0`` of d values is one run. A 2-D ``y0`` of shape (N, d) runs N
    independent rows at once. An :class:`InlineRhs` whose equations have
    another number of components raises ValueError before any sample is
    written.

    Each accepted step fills the samples after its start and at or before
    its end. A run short of t_end stops on step-size underflow (a step below
    1e-14 max(1, |t|)), by one rule that both loops read, or on non-finite
    values, at its first attempt whose new state is not finite. A single
    run raises :class:`IntegrationError`; the exception carries the last
    good (t, y), with y an ndarray. ``states`` has shape (samples, d).

    A batch keeps each row's own time and step size, and a row's result
    does not depend on the other rows. ``states`` has shape (N, samples, d).
    A failing row does not raise: it is listed in ``stats["failures"]`` as
    ``(row, message)``, with the message the single-row run would raise,
    and its samples past the last good time are NaN.

    ``stats`` names the ``method`` (``"taylor"``) and its ``order``, and
    counts the ``accepted`` steps, the ``rejected`` ones, split into
    ``rejected_error`` (always 0, as the method has no error test) and
    ``rejected_nonfinite`` (1 for a row stopped by non-finite values, else
    0), and the ``rhs_evals``, one evaluation of the coefficients'
    recurrence per attempt. ``h_min``, ``h_max`` and ``h_final`` are the
    smallest, the largest and the last accepted step; the last ends at
    t_end. A batch gives the counts' totals over its rows and each step
    size's ``min``, ``median`` and ``max`` over the rows that accepted a
    step (None if none did), and, under the same names prefixed ``row_``,
    one value per row, each that of the single-row run (NaN step sizes for
    a row that accepted no step). ``row_t_last`` holds each row's last good
    time: t_end for a row that completed, else the ``t_last`` its single
    run's IntegrationError carries. A batch row equals the single-row run of
    its state byte for byte.
    """
    if not isinstance(rhs, InlineRhs):
        raise TypeError(f"integrate takes an InlineRhs (Equations.at), got {type(rhs).__name__}")
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim not in (1, 2) or y0.shape[-1] == 0:
        raise ValueError(f"y0 must have shape (d,) or (N, d) with d >= 1, got {y0.shape}")
    ts = _sample_grid(config.t0, config.t_end, config.sample_dt)
    if y0.ndim == 2:
        out = np.full((y0.shape[0], len(ts), y0.shape[1]), np.nan)
        out[:, 0] = y0
        run = _run_rows
    else:
        out = np.empty((len(ts), len(y0)))
        out[0] = y0
        run = _run_single
    stats = run(rhs, y0, config, ts, out)
    return Trajectory(times=ts, states=out, stats=stats)


def _failure(t, y, finite) -> IntegrationError:
    """The error of a single run that stops short at t, in the state y, by
    whether its last attempt was ``finite``."""
    message, reason = _STOP[not finite]
    return IntegrationError(message, t, np.array(y, dtype=float), reason)


# the step sizes of Trajectory.stats: a batch gives their spread over its
# rows, where it totals the counts
_STEP_SIZES = ("h_min", "h_max", "h_final")


def _stats(p, accepted, rejected, h_min, h_max, h_final) -> dict:
    """The stats of a run of order p from its counters and step sizes, ints
    and floats in a single run and arrays of one entry per row in a batch.
    Every rejected attempt met non-finite values, as the method has no error
    test, and every attempt evaluates the recurrences once."""
    return {"method": "taylor", "order": p, "accepted": accepted, "rejected": rejected,
            "rejected_error": 0 * rejected, "rejected_nonfinite": rejected,
            "rhs_evals": accepted + rejected, "h_min": h_min, "h_max": h_max, "h_final": h_final}


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
    values = map(math.pow, x.ravel().tolist(), itertools.repeat(exponent))
    return np.fromiter(values, float, x.size).reshape(x.shape)


def _sum_source(name, terms) -> list:
    """Statements summing ``terms`` into ``name`` left to right, 64 terms per
    statement, so that no expression nests too deep to compile."""
    lines = [f"{name} = {' + '.join(terms[:64])}"]
    for i in range(64, len(terms), 64):
        lines.append(f"{name} = {name} + {' + '.join(terms[i:i + 64])}")
    return lines


def _indented(lines, depth) -> list:
    """``lines`` indented by ``depth`` levels of four spaces."""
    return ["    " * depth + line for line in lines]


def _failed_rows(rows, t, finite, failed, t_last) -> list:
    """``(row, message)`` of every batch row that ``failed``, stopped short
    of t_end by :data:`_STOP_RULE` or by an attempt that was not ``finite``,
    with the message its single run raises; the row's stop time goes into
    its entry of ``t_last``."""
    failures = []
    for i in np.flatnonzero(failed).tolist():
        t_last[rows[i]] = t[i]
        failures.append((int(rows[i]), _failure_text(_STOP[not finite[i]][0], float(t[i]))))
    return failures


# The Taylor step size (_step_rule_lines): this fraction of the step at
# which the last two terms reach the tolerance, and at most this fraction
# of the estimated radius of convergence (Jorba & Zou, Exp. Math. 14, 2005,
# take e^-2 for both; e^-2 alone takes about six times the steps at rtol
# 1e-10 on the fig1 model)
_TAYLOR_SAFETY = 0.8
_RADIUS_FRACTION = math.exp(-2.0)


def _taylor_order(rtol: float) -> int:
    """The Taylor method's order at rtol, Jorba & Zou's p = ceil(-ln(rtol)/2)
    + 1, and at least 2, as the step rule reads the last two coefficients:
    13 at rtol 1e-10, 16 at 1e-13."""
    return max(2, math.ceil(-math.log(rtol) / 2.0) + 1)


def _assignment(statement):
    """The target name and the expression node of ``statement``, an
    assignment to one name; any other statement is a ValueError."""
    body = ast.parse(statement).body
    if len(body) != 1 or not isinstance(body[0], ast.Assign) or len(body[0].targets) != 1 \
            or not isinstance(body[0].targets[0], ast.Name):
        raise ValueError(f"not an assignment to one name: {statement!r}")
    return body[0].targets[0].id, body[0].value


def _reads(node) -> set:
    """The names an expression node reads."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class _Series:
    """A Taylor series in the step variable s, t = t_n + s, in the generated
    code: its coefficients up to ``degree``, the higher ones known zeros,
    coefficient k the expression ``expression(k)``. A stored series
    (``name`` set) is written once per coefficient into its storage: the
    locals ``_<name>_<k>`` in a single run, the rows ``_<name>[k]`` of an
    array in a batch. Any other is written into the one expression that reads
    it, so it takes no statement of its own. A series an emitter writes (one
    of its ``ops``) names its storage in :meth:`store`, once every reader is
    known; a ``stored`` one, a recurrence, which reads its own coefficients,
    always has storage."""

    def __init__(self, degree, expression, name=None, stored=False):
        self.degree, self.expression, self.name, self.stored = degree, expression, name, stored
        self.factors = None  # a scaled series' scalar and series, in the product's order
        self.reads = 0  # coefficientwise readers: two or more need storage
        self.copies = {}  # k -> the other series' coefficient that coefficient k is

    def store(self, emitter):
        """Name this series' storage in ``emitter.storage``, if it takes any:
        a coefficient of a series read twice or more that is only another's
        stored coefficient goes to ``copies``, not into storage, and a series
        of such coefficients only takes none."""
        if self.stored:
            self.name = f"s{len(emitter.storage)}"
        elif self.reads > 1:
            values = [self.expression(k) for k in range(self.degree + 1)]
            self.copies = {k: value for k, value in enumerate(values)
                           if value and _COEFFICIENT.fullmatch(value)}
            if any(value and k not in self.copies for k, value in enumerate(values)):
                self.name = f"s{len(emitter.storage)}"
        if self.name:
            emitter.storage[self.name] = self.degree

    def lines(self, emitter, k):
        """The statement that writes coefficient k into storage, if any."""
        written = self.name and k <= self.degree and k not in self.copies
        value = self.expression(k) if written else None
        return [] if value is None else [f"{emitter.coef(self, k)} = {value}"]


# a stored coefficient of a series, as the generated code reads it
_COEFFICIENT = re.compile(r"_[sy]\d+(_\d+|\[\d+\])")


class _TaylorEmitter:
    """The recurrences of the Taylor coefficients of the rates of
    ``equations`` up to order p, as straight-line statements: on floats in
    locals for a single run's loop, on the (n,) rows of arrays for a batched
    step (``batch``), which :class:`_BatchStep` parses into grouped numpy
    calls. Both forms take the same operations in the same order, so every
    entry of a batch gets the single run's bits.

    Each name the body's statements assign from ``t`` or a state name,
    directly or through an earlier statement, becomes a series; every other
    statement reads the parameters only, stays a scalar and runs once per
    run, in body order, as one of :attr:`once_per_run`. So does every
    subexpression of scalars in a series' statement, other than a name or an
    expression of constants, as the statement ``_f<i> = <text>`` (one per
    distinct text), so ``epsilon * a1 * q1q1`` multiplies each coefficient
    once by ``_f0 = epsilon * a1``; one that raises (a division by zero, say)
    raises when the run is bound, as a statement of the parameters does. The
    emitter tracks each series' degree in s (``t`` is linear, a product adds
    the degrees) and writes no product with a known zero, and no literal
    factor or divisor 1.0, which leaves the other operand exact. The series
    other than the state take the coefficients up to p - 1, all the rates
    need. The rules:

    - ``+``, ``-`` and unary ``-``: coefficientwise, a negation that is
      added folded into a subtraction, and the negation of a scaled series
      into its scalar;
    - a scalar times a series, or a series over a scalar: a scaled series;
    - a series times a series: the Cauchy product, and a series times
      itself the square, which sums each symmetric pair once
      (:meth:`square`);
    - anything over a series: the division recurrence;
    - ``exp`` of a series: the exponential recurrence, which takes one
      ``exp``, of the first coefficient.

    Any other construct on a series raises ValueError, naming the statement.
    A series is stored when a product or a recurrence reads its coefficients
    (the batch sums long products over rows of its storage), when two
    expressions read it, and when it is the state or a recurrence; the rest
    are written into their one reader. A stored series' coefficient that is
    only another's stored coefficient (``-tau``'s k = 1 term in
    ``exp(-tau)``'s recurrence) is not written: its readers read the other.
    """

    def __init__(self, equations, p: int, batch: bool):
        _check_names(equations)
        self.p, self.batch = p, batch
        self.ops = []  # the series written, in dependency order
        self.hoisted = {}  # the text of each scalar subexpression run once per run -> its name
        self.state = [_Series(p, None, f"y{j}") for j in range(len(equations.state))]
        time = _Series(1, lambda k: "t" if k == 0 else "1.0")  # t_n + s
        self.series = {"t": time, **dict(zip(equations.state, self.state))}
        fixed, scalars = [], set()  # the statements of the parameters only, and their names
        for statement in equations.body:
            target, node = _assignment(statement)
            if not _reads(node) & self.series.keys():
                fixed.append(statement)
                scalars.add(target)
                continue
            try:
                self.series[target] = self._convert(node)
            except ValueError as exc:
                raise ValueError(f"no Taylor recurrence for {statement!r}: {exc}") from None
        self.rates = []
        for rate in equations.rates:
            if rate not in self.series and rate not in scalars:
                raise ValueError(f"no statement assigns the rate {rate!r}")
            self.rates.append(self._read(self.series.get(rate, rate)))
        for series in reversed(self.ops):  # a scaled series none reads (one folded into
            if series.factors and not series.reads:  # a negation's scalar) reads nothing
                for factor in series.factors:
                    self._read(factor, -1)
        self.storage = {}  # the name of every stored series but the state -> its degree
        for series in self.ops:
            series.store(self)
        # what the generated loop or batched step runs when it is bound, with
        # ``t`` the run's start time: the body's statements that read only the
        # parameters, the guard, then the hoisted scalars
        self.once_per_run = [*fixed, *equations.guard,
                             *(f"{name} = {text}" for text, name in self.hoisted.items())]

    def lines(self) -> list:
        """The statements of every coefficient, order by order
        (:meth:`order`)."""
        return [line for k in range(self.p) for line in self.order(k)]

    def order(self, k) -> list:
        """The statements of order k: each stored series' coefficient k,
        then each state component's coefficient k + 1, its rate's
        coefficient k over k + 1. Coefficient 0 of the state is the state at
        the step's start."""
        lines = []
        for series in self.ops:
            lines += series.lines(self, k)
        for state, rate in zip(self.state, self.rates):
            x = self.coef(rate, k)
            value = _over(x, f"{k + 1}.0") if x else "0.0"
            lines.append(f"{self.coef(state, k + 1)} = {value}")
        return lines

    def coef(self, x, k):
        """Coefficient k of x, a series or a scalar (a series of degree 0),
        as an expression; None for a known zero."""
        if isinstance(x, str):
            return x if k == 0 else None
        if k > x.degree:
            return None
        if x.name and k not in x.copies:
            return f"_{x.name}[{k}]" if self.batch else f"_{x.name}_{k}"
        value = x.copies.get(k) or x.expression(k)
        return f"({value})" if " " in value else value

    def dot(self, x, y, lo, hi, k) -> str:
        """The sum of x_i y_(k-i) over i = lo, ..., hi, left to right; in a
        batch, of two terms or more, as ``add_reduce`` (``np.add.reduce``)
        of the products over axis 0, which the batched step runs on the
        (terms, n) products of one sum or the (terms, S, n) products of S
        sums of equal length (:class:`_BatchStep`). With n >= 2 columns
        numpy adds the terms in that order, for every entry, and so it does
        on one column for S >= 2 sums; one sum on one column it adds
        pairwise, so :func:`_run_rows` never binds fewer than two columns
        (``test_add_reduce_adds_rows_in_order`` pins the order). The time,
        which has no storage, and a series with a coefficient in another's
        storage (``copies``) have no rows to slice; their sums are written
        out, in the same order."""
        if self.batch and hi - lo >= 1 and x.name and y.name and not (x.copies or y.copies):
            end = k - hi - 1
            return (f"add_reduce(_{x.name}[{lo}:{hi + 1}] * _{y.name}[{k - lo}:"
                    f"{end if end >= 0 else ''}:-1], 0)")
        return "(" + " + ".join(_times(self.coef(x, i), self.coef(y, k - i))
                                for i in range(lo, hi + 1)) + ")"

    def square(self, x, lo, k) -> str:
        """Coefficient k of x times itself, the sum of x_i x_(k-i) over i =
        lo, ..., k - lo, with each symmetric pair summed once (Jorba & Zou;
        TIDES): 2.0 times the half below k/2 (:meth:`dot`, so a batch sums
        two terms or more with ``add_reduce``), then plus x_(k/2)^2 when k
        is even. A batch row takes the single run's operations in this
        order."""
        terms = []
        if lo <= (k - 1) // 2:
            terms.append(f"2.0 * {self.dot(x, x, lo, (k - 1) // 2, k)}")
        if k % 2 == 0:
            middle = self.coef(x, k // 2)
            terms.append(_times(middle, middle))
        return " + ".join(terms)

    def _read(self, x, times=1):
        """x, read coefficientwise ``times`` more times."""
        if isinstance(x, _Series):
            x.reads += times
        return x

    def _summed(self, x):
        """x, which a product or a recurrence reads: stored, if an op writes
        it (the time and the state have storage or need none)."""
        return self._read(x, 2)

    def _op(self, degree, expression, stored=False) -> _Series:
        """A series of ``degree``, at most p - 1, whose coefficient k is the
        expression ``expression(s, k)``, s the series itself. No statement
        where the expression is None."""
        series = _Series(min(degree, self.p - 1), None, stored=stored)
        series.expression = functools.partial(expression, series)
        self.ops.append(series)
        return series

    def _scalar(self, node) -> str:
        """The expression the generated code reads for a scalar node: a name
        or a constant as written, an expression of constants, which the
        compiler folds, in place, and any other the name of its statement in
        :attr:`once_per_run`."""
        text = ast.unparse(node)
        if isinstance(node, (ast.Name, ast.Constant)):
            return text
        if not _reads(node):
            return f"({text})"
        return self.hoisted.setdefault(text, f"_f{len(self.hoisted)}")

    def _convert(self, node):
        """The scalar (an expression) or the series of an expression node,
        appending the ops that write the series."""
        if not _reads(node) & self.series.keys():
            return self._scalar(node)
        if isinstance(node, ast.Name):
            return self.series[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            x = self._convert(node.operand)
            if isinstance(node.op, ast.UAdd):
                return x
            if x.factors:  # -(a s) is (-a) s bit for bit, and -a runs once per run
                return self._binary(ast.Mult(), *(self._scalar(ast.UnaryOp(
                    ast.USub(), ast.parse(f, mode="eval").body)) if isinstance(f, str) else f
                    for f in x.factors))
            self._read(x)
            return self._op(x.degree, lambda s, k: f"-{self.coef(x, k)}")
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult,
                                                                ast.Div)):
            # -a + b is b - a, a + -b is a - b and a - -b is a + b, bit for bit
            # (IEEE addition commutes and negation is exact), with no negation
            left, right = map(self._negated, (node.left, node.right))
            if left and isinstance(node.op, ast.Add):
                a = self._convert(left)
                return self._binary(ast.Sub(), self._convert(node.right), a)
            if right and isinstance(node.op, (ast.Add, ast.Sub)):
                return self._binary(ast.Add() if isinstance(node.op, ast.Sub) else ast.Sub(),
                                    self._convert(node.left), self._convert(right))
            return self._binary(node.op, self._convert(node.left), self._convert(node.right))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "exp" and len(node.args) == 1 and not node.keywords):
            return self._exp(self._convert(node.args[0]))
        raise ValueError(f"{ast.unparse(node)!r} is not a construct the Taylor method writes")

    def _negated(self, node):
        """The operand of ``node`` if it is a unary minus of a series."""
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) \
                and _reads(node) & self.series.keys():
            return node.operand
        return None

    def _binary(self, op, a, b) -> _Series:
        da, db = _degree(a), _degree(b)
        if isinstance(op, (ast.Add, ast.Sub)):
            add = isinstance(op, ast.Add)
            self._read(a), self._read(b)

            def term(s, k):
                x, y = self.coef(a, k), self.coef(b, k)
                if x is None:
                    return y if add else f"-{y}"
                return x if y is None else f"{x} {'+' if add else '-'} {y}"
            return self._op(max(da, db), term)
        if isinstance(op, ast.Mult) and (isinstance(a, str) or isinstance(b, str)):
            self._read(a), self._read(b)  # a scaled series
            scaled = self._op(max(da, db), lambda s, k: _times(_scale(a, self.coef(a, k)),
                                                               _scale(b, self.coef(b, k))))
            scaled.factors = a, b
            return scaled
        if isinstance(op, ast.Mult) and a is b:  # the square
            self._summed(a)
            return self._op(2 * da, lambda s, k: self.square(a, max(0, k - da), k))
        if isinstance(op, ast.Mult):  # the Cauchy product
            self._summed(a), self._summed(b)
            return self._op(da + db, lambda s, k: self.dot(a, b, max(0, k - db), min(k, da), k))
        if isinstance(b, str):
            self._read(a)
            return self._op(da, lambda s, k: _over(self.coef(a, k), b))

        def quotient(s, k):  # a = s b, solved for s_k
            x, b0 = self.coef(a, k), self.coef(b, 0)
            if k == 0:
                return _over(x, b0)
            rest = self.dot(b, s, 1, min(k, db), k)
            return _over(f"({x} - {rest})" if x else f"-{rest}", b0)
        self._read(a), self._summed(b)
        return self._op(self.p, quotient, stored=True)

    def _exp(self, u) -> _Series:
        # e' = u' e: k e_k is the sum of j u_j e_(k-j) over j = 1, ..., k
        du = u.degree
        self._read(u, 2)
        v = self._summed(self._op(du, lambda s, k: _times(f"{k}.0", self.coef(u, k))
                                  if k else None))
        return self._op(self.p, lambda s, k: f"exp({self.coef(u, 0)})" if k == 0
                        else _over(self.dot(v, s, 1, min(k, du), k), f"{k}.0"), stored=True)


def _degree(x) -> int:
    """The degree of a series, 0 for a scalar."""
    return 0 if isinstance(x, str) else x.degree


def _scale(x, coefficient):
    """The factor of a scaled series' coefficient: a scalar itself, or the
    series' coefficient."""
    return x if isinstance(x, str) else coefficient


def _times(a, b) -> str:
    """The product of the expressions a and b, without a literal factor 1.0,
    by which the product is the other factor exactly."""
    return b if a == "1.0" else a if b == "1.0" else f"{a} * {b}"


def _over(a, b) -> str:
    """The quotient of the expressions a and b, without a literal divisor
    1.0, by which the quotient is a exactly."""
    return a if b == "1.0" else f"{a} / {b}"


def _step_rule_lines(emitter, d: int, p: int) -> list:
    """The step ``_h`` of a single run's Taylor attempt from its coefficients
    c_k: with tol = atol + rtol ||y||, ||.|| the largest component's size,
    the step at which each of the last two terms, ||c_k|| h^k for k = p - 1
    and p, is tol, times _TAYLOR_SAFETY; at most _RADIUS_FRACTION of the
    radius of convergence each estimates, (||y|| / ||c_k||)^(1/k). A zero
    norm bounds nothing, and so does a NaN one. The batched step takes the
    same rule on its arrays (:func:`_batch_rule`).

    The sizes, the norms' maxima and the clamps are conditional expressions,
    the builtins' own rules, so the run makes no ``abs``, ``min`` or ``max``
    call, and the powers libm's ``**``. A size of -0.0 or -NaN, where
    ``abs`` gives 0.0 or NaN, leaves h as it is: a zero or NaN norm bounds
    nothing whatever its sign, and adds nothing to tol."""
    def pick(condition, a, b):
        return f"{a} if {condition} else {b}"

    def size(x):
        return pick(f"{x} >= 0.0", x, f"-{x}")

    def power(x, exponent):
        return f"({x}) ** {exponent!r}"

    lines = []
    for norm, k in (("_ny", 0), ("_na", p - 1), ("_nb", p)):
        lines.append(f"{norm} = {size(emitter.coef(emitter.state[0], k))}")
        for state in emitter.state[1:]:
            lines += [f"_x = {size(emitter.coef(state, k))}",
                      f"{norm} = {pick(f'_x > {norm}', '_x', norm)}"]
    lines += ["_tol = _atol + _rtol * _ny", f"_ry = {pick('_ny > 0.0', '_ny', '_inf')}",
              "_h = _inf"]
    for norm, k in (("_na", p - 1), ("_nb", p)):
        for fraction, size in ((_TAYLOR_SAFETY, "_tol"), (_RADIUS_FRACTION, "_ry")):
            bound = f"{fraction!r} * {power(f'{size} / {norm}', 1.0 / k)}"
            lines += [f"_x = {pick(f'{norm} > 0.0', bound, '_inf')}",
                      f"_h = {pick('_x < _h', '_x', '_h')}"]
    return lines


# A single run's Taylor loop over floats, as _taylor_loop_code fills it in:
# the attempt (the coefficients, the step rule, the clamp to t_end, the new
# state by Horner's rule and its finiteness test), the sample test, the stop
# rule (the text _STOP_RULE, which _stops reads too) and the step's
# bookkeeping, with the state, coefficient 0, in locals across steps. A
# non-finite attempt ends the run at its start: the attempt's coefficients
# depend on that state alone, so no step from it is finite. A division by
# zero or an exp above ~709.78 raises on floats where the batch's arrays give
# inf or NaN: such an attempt is non-finite too, so the run stops at the time
# its batch row stops, on non-finite values. An attempt calls nothing but
# exp (the equations' own) and libm's pow (**), and the loop calls out only on
# a step that holds a sample (_bisect_right, and _fill_steps once the block
# holds _fill_block samples or the grid's last) and at the end. It shares the
# text's namespace, so each of its own names, the builtins it calls
# included, starts with an underscore, as the batched step's do
# (model._check_names keeps a text from those names).
_TAYLOR_LOOP = """\
def _run(t, _y, _t_end, _rtol, _atol, _samples, _out, _ts):
    {y} = _y
    _last_sample = _len(_ts)
    _idx = 1
    _t_next = _samples[1]
    _accepted = 0
    _h_min = _inf
    _h_max = 0.0
    _block = []
    while t < _t_end:
        try:
{attempt}
        except (_ZeroDivisionError, _OverflowError):
            _finite = False
        if not _finite:
            break
        if _t_next <= _t_new:
            _stop = _bisect_right(_samples, _t_new, _idx)
            _block += _idx, _stop, t
            _block += {coefficients}
            _idx = _stop
            _t_next = _samples[_idx]
            if _idx == _last_sample or _idx - _block[0] >= _fill_block:
                _fill_steps(_out, _ts, _block, {terms})
                _block = []
        t = _t_new
{advance}
        _accepted += 1
        _h_min = _h if _h < _h_min else _h_min
        _h_max = _h if _h > _h_max else _h_max
        if {stop_rule}:
            break
    if t < _t_end:
        raise _failure(t, ({y}), _finite)
    return _accepted, _h_min, _h_max, _h
"""


def _taylor_loop_source(d: int, equations, p: int) -> str:
    """A single run's whole Taylor loop of order p on d floats, as source
    text: the emitter's ``once_per_run`` statements, then
    :data:`_TAYLOR_LOOP`. ``_run(t, y, t_end, rtol, atol, samples, out,
    ts)`` integrates from t and the state ``y``, a sequence of d floats,
    fills ``out`` at the times ``ts`` (``samples`` is ``ts`` and inf past it) and
    returns the counts of accepted steps and the smallest, largest and last
    accepted step, or raises :class:`IntegrationError`. Its new state is the
    batch's, :func:`_taylor_step_code`, bit for bit."""
    emitter = _TaylorEmitter(equations, p, batch=False)
    values = [f"_z{j}" for j in range(d)]
    attempt = [*emitter.lines(), *_step_rule_lines(emitter, d, p),
               "if _h >= _t_end - t:", "    _h = _t_end - t", "    _t_new = _t_end",
               "else:", "    _t_new = t + _h"]
    for j in range(d):  # Horner's rule
        value = f"_y{j}_{p}"
        for k in range(p - 1, -1, -1):
            value = f"({value}) * _h + _y{j}_{k}"
        attempt.append(f"_z{j} = {value}")
    # a finite sum proves every value finite (x - x is 0.0 for a finite x and
    # NaN for inf or NaN), and only a non-finite one is looked into. A
    # non-finite coefficient past the first (the state) makes the new state
    # non-finite: Horner's rule takes it times h > 0, or times h = 0, which
    # gives NaN
    attempt += _sum_source("_total", values)
    attempt.append(f"_finite = _total - _total == 0.0 "
                   f"or _all(_map(_isfinite, ({', '.join(values)},)))")
    code = _TAYLOR_LOOP.format(
        y=" ".join(f"_y{j}_0," for j in range(d)), attempt="\n".join(_indented(attempt, 3)),
        coefficients=" ".join(f"_y{j}_{k}," for k in range(p + 1) for j in range(d)),
        terms=p + 1, advance="\n".join(_indented([f"_y{j}_0 = _z{j}" for j in range(d)], 2)),
        stop_rule=_STOP_RULE)
    return "\n".join([*emitter.once_per_run, code])


@functools.cache
def _taylor_loop_code(d: int, equations, p: int):
    """:func:`_taylor_loop_source`, compiled. The code depends on the source
    only, never on the values bound to its names, so it is cached, one
    entry per dimension, source and order."""
    return compile(_taylor_loop_source(d, equations, p), "<taylor loop>", "exec")


# the ufunc, as the batched step names it, of each operator of a statement
_UFUNCS = {ast.Add: "_add", ast.Sub: "_subtract", ast.Mult: "_multiply", ast.Div: "_divide",
           ast.USub: "_negative"}


class _Op:
    """One operation of a batched step's order on rows of its buffer:
    ``kind`` (a ufunc's name in the step, ``dot``, ``exp`` or ``copy``) of
    ``args``, each a row, another op or a scalar's text (a dot's are the
    columns of its two series and its first and last term), after the ops
    it ``reads``, at its ``level``: one past the highest of theirs, 0 if it
    reads none. It writes ``row``: a statement's target (``top``), or one
    the layout gives it (:meth:`_BatchStep.runs`)."""

    def __init__(self, kind, args, reads):
        self.kind, self.args, self.reads = kind, args, reads
        self.level = 1 + max((op.level for op in reads), default=-1)
        self.row, self.top = None, False

    def like(self):
        """What ops of one level share to run as one call: a dot its terms,
        any other op its kind and which of its arguments are scalars."""
        if self.kind == "dot":
            return "dot", *self.args[2:]
        return self.kind, *(isinstance(arg, str) for arg in self.args)


def _on_arrays(text) -> str:
    """The scalar expression ``text``, if more than a name or a constant,
    with each name and constant a 0-d array: it follows the rows' rules (a
    division by zero is inf or NaN), where on floats it raises."""
    node = ast.parse(text, mode="eval").body
    for n in ast.walk(node):
        for name, value in ast.iter_fields(n):
            if isinstance(value, (ast.Name, ast.Constant)) and name != "func":
                setattr(n, name, ast.Call(ast.Name("_array"), [value, ast.Name("_float")], []))
    return text if isinstance(node, (ast.Name, ast.Constant)) else ast.unparse(node)


def _places(op) -> list:
    """What a run's members hold side by side, one view each: the op (its
    row), then each argument that is a row or an op (a dot's columns)."""
    return [op, *(op.args[:2] if op.kind == "dot" else
                  (arg for arg in op.args if not isinstance(arg, str)))]


def _row(place):
    """The row of a place (:func:`_places`), None for an op with none yet."""
    return place.row if isinstance(place, _Op) else place


def _join(run, op, taken):
    """The rows that ``op`` gives to ops with none as it joins ``run`` (like
    ops of one level) as its next member, or None if it cannot: each place
    in the row past the last member's, where neither has a row an op the run
    holds nowhere, and where one has none, that op takes the row next to the
    other's if it is not ``taken``; a dot's columns evenly spaced."""
    held = [place for member in run for place in _places(member) if isinstance(place, _Op)]
    last, rows = _places(run[-1]), {}
    for i, place in enumerate(_places(op)):
        if op.kind == "dot" and i:
            step = last[i] - _places(run[-2])[i] if len(run) > 1 else place - last[i]
            if place - last[i] != step:
                return None
            continue
        a, b = _row(last[i]), _row(place)
        if a is None and b is None:
            if place in held:
                return None
        elif b is None:
            rows[place] = a + 1
        elif a is None:
            rows.update((_places(member)[i], b - len(run) + j) for j, member in enumerate(run))
        elif b != a + 1:
            return None
    if any(held.count(x) > 1 or taken(row) for x, row in rows.items()) \
            or len(set(rows.values())) < len(rows):
        return None
    return rows


class _BatchStep:
    """The source of a batched Taylor step (:func:`_taylor_step_source`).

    Every row the step writes is a row of one buffer, ``_w``, of shape
    (rows, n): first coefficient k of every stored series, row k R + c for
    column c (the state's d components, d free columns, then the emitter's
    stored series, R columns), viewed as ``_a`` of shape (p + 1, R, n); then
    the time; then the intermediate values of an order. Each statement of an
    order (:meth:`_TaylorEmitter.order`) is parsed into ops (:meth:`lower`),
    one per operator, ``exp`` and ``add_reduce``, so each entry takes the
    statement's operations in its order. Each op has a dependency level,
    and the like ops of a level run as one numpy call per run of
    consecutive rows (:meth:`runs`) on views bound once per row count; a
    statement that writes a scalar runs once, then. A strided view costs
    numpy more than the calls it saves, so the rows are laid out for the
    runs, from the last level down, with free columns next to the state's.
    """

    def __init__(self, emitter, d, p):
        self.emitter, self.d, self.p = emitter, d, p
        state = [f"_y{j}" for j in range(d)]
        series = [f"_{name}" for name in emitter.storage]
        # d columns between the state's and the others' are rows for ops
        self.width = 2 * d + len(series)
        self.time = (p + 1) * self.width
        self.columns = {name: j for j, name in enumerate(state + [None] * d + series) if name}
        self.fills = []
        # the state's columns in the order in which the last order's levels
        # write them, the others' in the emitter's
        ops, first = self.lower(p - 1), {}
        for i, op in enumerate(ops):
            first.setdefault((op.level, op.like()), i)
        written = [state[op.row % self.width] for op in sorted(
            (op for op in ops if op.top and op.row % self.width < d),
            key=lambda op: (op.level, first[op.level, op.like()]))]
        self.columns = {name: j for j, name in enumerate(
            written + [name for name in state if name not in written] + [None] * d + series)
            if name}
        self.size, self.fills = self.time + 1, []  # the buffer's rows, past every order's
        self.orders = [self.runs(self.lower(k)) for k in range(p)]
        self.products, self.views, self.constants = 0, {}, {}  # dot products' rows

    def view(self, text) -> str:
        """The name the step reads the view ``text`` of the buffer by."""
        return self.views.setdefault(text, f"_v{len(self.views)}")

    def rows(self, rows) -> str:
        """The view of the consecutive ``rows`` of the buffer."""
        return self.view(f"_w[{rows[0]}]" if len(rows) == 1 else f"_w[{rows[0]}:{rows[-1] + 1}]")

    def terms(self, columns, first, last) -> str:
        """The view of coefficients first, ..., last (either way) of the
        series in the evenly spaced ``columns``: (terms, n) for one series,
        (terms, 1, n) for one read by every member, else (terms, S, n)."""
        down = last < first
        stop = last - 1 if down else last + 1
        span = f"{first}:{stop if stop >= 0 else ''}{':-1' if down else ''}"
        step = columns[1] - columns[0] if len(columns) > 1 else 0
        if len(columns) == 1:
            return self.view(f"_a[{span}, {columns[0]}]")
        if step == 0:
            return self.view(f"_a[{span}, {columns[0]}, None]")
        stop = columns[0] + step * len(columns)
        return self.view(f"_a[{span}, {columns[0]}:{stop if stop >= 0 else ''}:{step}]")

    def scalar(self, texts) -> str:
        """The name of the scalars ``texts`` of a run's members, bound
        once: a 0-d array if they are one, else one row of each."""
        if len(set(texts)) == 1:
            text = f"_array({_on_arrays(texts[0])}, _float)"
        else:
            text = f"_array([{', '.join(map(_on_arrays, texts))}], _float)[:, None].repeat(_n, 1)"
        return self.constants.setdefault(text, f"_k{len(self.constants)}")

    def lower(self, k) -> list:
        """The ops of order k in statement order, each operator's after its
        operands'; a statement that writes a scalar goes to ``fills``."""
        ops, writers = [], {}

        def op(kind, args, reads=None):  # reads: the rows it reads, if not its args
            if reads is None:
                reads = [arg for arg in args if isinstance(arg, int)]
            new = _Op(kind, args, {writers[row] for row in reads if row in writers}
                      | {arg for arg in args if isinstance(arg, _Op)})
            ops.append(new)
            return new

        def row(node):  # coefficient node.slice of the series node.value
            return node.slice.value * self.width + self.columns[node.value.id]

        def value(node):
            if not any(isinstance(n, ast.Subscript) or (isinstance(n, ast.Name) and n.id == "t")
                       for n in ast.walk(node)):
                return ast.unparse(node)
            if isinstance(node, ast.Name):
                return self.time
            if isinstance(node, ast.Subscript):
                return row(node)
            if isinstance(node, ast.Call) and node.func.id == "add_reduce":
                x, y = node.args[0].left, node.args[0].right
                lo, hi = x.slice.lower.value, x.slice.upper.value - 1
                cx, cy = self.columns[x.value.id], self.columns[y.value.id]
                return op("dot", [cx, cy, lo, hi],
                          [j * self.width + c for i in range(lo, hi + 1)
                           for j, c in ((i, cx), (k - i, cy))])
            if isinstance(node, ast.Call):
                return op("exp", [value(node.args[0])])
            operands = [node.operand] if isinstance(node, ast.UnaryOp) else [node.left, node.right]
            return op(_UFUNCS[type(node.op)], list(map(value, operands)))

        for statement in self.emitter.order(k):
            assign = ast.parse(statement).body[0]
            target, result = row(assign.targets[0]), value(assign.value)
            if isinstance(result, str):
                self.fills.append(f"_w[{target}] = {_on_arrays(result)}")
                continue
            if isinstance(result, int):
                result = op("copy", [result])
            result.row, result.top = target, True
            writers[target] = result
        return ops

    def runs(self, ops) -> list:
        """The ops of one order as runs, each one numpy call, level by level.
        Each op starts at its earliest level and, from the last op back,
        moves to the level in its readers' reach with the most like ops
        (:meth:`_Op.like`, targets or not alike). It joins the first run of
        its level's like ops that it can (:func:`_join`), by its rows. From
        the last level down, a run's targets and multi-member operands with
        no row take a block of new rows past the time's, a spare row between
        blocks. No run needs splitting later: :func:`_join` keeps each of a
        run's places either rowless in every member or on consecutive rows,
        the block then places every rowless one of a run of two members or
        more, and no row, once placed, moves."""
        last = max((op.level for op in ops), default=0)
        readers = {op: [] for op in ops}
        for op in ops:
            for read in op.reads:
                readers[read].append(op)
        for op in reversed(ops):
            reach = range(op.level, min((reader.level for reader in readers[op]),
                                        default=last + 1))
            like = collections.Counter(other.level for other in ops if other is not op
                                       and other.level in reach and other.top == op.top
                                       and other.like() == op.like())
            if like:
                op.level = max(like, key=lambda level: (like[level], level))
        groups, runs, used = {}, [], {self.time}

        def taken(row):  # no row, a row of a series or the time, or an op's
            return row < 0 or row <= self.time and not self.d <= row % self.width < 2 * self.d \
                or row in used
        for op in ops:
            groups.setdefault((op.level, op.like()), []).append(op)

        def block(places):
            start = max(used) + 2
            for row, place in enumerate(places, start):
                place.row = row
                used.add(row)

        for key in sorted(groups, key=lambda key: -key[0]):
            parts = []
            for op in sorted(groups[key], key=lambda op: [
                    math.inf if _row(place) is None else _row(place)
                    for place in _places(op)[1:] + _places(op)[:1]]):
                for part in parts:
                    rows = _join(part, op, taken)
                    if rows is not None:
                        for place, row in rows.items():
                            place.row = row
                            used.add(row)
                        part.append(op)
                        break
                else:
                    parts.append([op])
            for part in parts:
                for i, places in enumerate(zip(*map(_places, part))):
                    if (i == 0 or len(part) > 1) and all(isinstance(place, _Op)
                                                         and place.row is None
                                                         for place in places):
                        block(places)
            runs += parts
        self.size = max(self.size, max(used) + 1)
        return runs[::-1]

    def call(self, run, k) -> list:
        """The statements of one run: its numpy call on views."""
        first, size = run[0], len(run)
        out = self.rows([op.row for op in run])
        if first.kind == "dot":
            lo, hi = first.args[2:]
            x = self.terms([op.args[0] for op in run], lo, hi)
            y = self.terms([op.args[1] for op in run], k - lo, k - hi)
            terms = hi - lo + 1
            self.products = max(self.products, terms * size)
            products = self.view(f"_pr[:{terms}]" if size == 1
                                 else f"_pr[:{terms * size}].reshape({terms}, {size}, _n)")
            return [f"_multiply({x}, {y}, {products})", f"_add_reduce({products}, 0, None, {out})"]
        args = [self.scalar([op.args[i] for op in run]) if isinstance(arg, str)
                else self.rows([_row(op.args[i]) for op in run])
                for i, arg in enumerate(first.args)]
        if first.kind == "copy":
            return [f"_copyto({out}, {args[0]})"]
        if first.kind == "exp":
            return [f"_copyto({out}, exp({args[0]}))"]
        return [f"{first.kind}({', '.join(args)}, {out})"]

    def source(self) -> str:
        """The step's text: each order's runs, the step rule, the clamp
        and Horner's rule, in ``_step``, and the buffers and views they read
        in ``_bind``; ``_state_columns`` holds each state component's
        column."""
        d, p, emitter = self.d, self.p, self.emitter
        body = []
        for k, runs in enumerate(self.orders):
            for run in runs:
                body += self.call(run, k)
        horner = [self.view(f"_a[{k}, :{d}]") for k in range(p + 1)]
        column = [self.columns[f"_y{j}"] for j in range(d)]  # each state component's
        rule_buffers, rule = _batch_rule(d, p, horner, column)
        step = ["_t[:_m] = _time", f"{horner[0]}[:, :_m] = _state", *body, *rule,
                f"_multiply({horner[p]}, _hd, _z)", f"_add(_z, {horner[p - 1]}, _z)",
                *(line for k in range(p - 2, -1, -1)
                  for line in ("_multiply(_z, _hd, _z)", f"_add(_z, {horner[k]}, _z)")),
                "_isfinite(_z, _fz)",
                "return _c[:, :, :_m].copy(), _h[:_m], _tn[:_m].copy(), _z[:, :_m], "
                "_fz[:, :_m].all(0)"]
        bind = [f"_w = _zeros(({self.size}, _n))",
                f"_a = _w[:{self.time}].reshape({p + 1}, {self.width}, _n)",
                f"_c = _a[:, :{d}]",
                f"_t = _w[{self.time}]",
                f"_pr = _empty(({max(self.products, 1)}, _n))",
                *(f"{name} = {text}" for text, name in self.views.items()),
                *(f"{name} = {text}" for text, name in self.constants.items()),
                *self.fills, *rule_buffers]
        return "\n".join([*emitter.once_per_run, f"_state_columns = {column}", "def _bind(_n):",
                          *_indented(bind, 1),
                          "    def _step(_time, _state, _t_end, _rtol, _atol):",
                          "        _m = _len(_time)",
                          *_indented(step, 2),
                          "    return _step"])


def _batch_rule(d, p, coefficients, column) -> tuple:
    """The step rule of :func:`_step_rule_lines`, the clamp to t_end and h
    per component, on the batched step's buffers, in fewer calls: the sizes
    of coefficients 0, p - 1 and p at once, the three norms (``_ny``,
    ``_na``, ``_nb``) at once, and each norm's pair of bounds (tol and the
    radius) with one ``_power``. A norm is the largest size by ``fmax``,
    which skips NaN sizes, then NaN where component 0's size is NaN (by
    ``maximum``): the single run's running maximum from component 0, which
    a NaN size later on does not move and a NaN first one holds. The single
    run's ``where`` that makes the bound of a norm that is not positive inf
    goes: such a bound is inf (a zero norm, as tol and the radius are
    positive) or NaN (a NaN norm), and h is the least bound by ``fmin``
    from inf, which skips a NaN one, so neither moves h, as the single
    run's inf does not. The lines that bind the buffers, then the step's;
    ``coefficients`` names the view of each coefficient's components, and
    ``column`` holds each component's column."""
    bind = [f"_sz = _empty((3, {d}, _n))", "_sz0 = _sz[0]", "_sz12 = _sz[1:]",
            f"_first = _sz[:, {column[0]}]", f"_cq = _a[{p - 1}:, :{d}]",
            "_nrm = _empty((3, _n))", "_ny = _nrm[0]", "_nab = _nrm[1:, None]",
            "_pos = _empty(_n, _bool)",
            "_size = _empty((2, _n))", "_tol, _ry = _size",
            "_ratio = _empty((2, 2, _n))", "_ratio0, _ratio1 = _ratio",
            f"_frac = _array({[_TAYLOR_SAFETY, _RADIUS_FRACTION]!r}, _float)[:, None].repeat(_n, 1)",
            "_bound = _empty((2, 2, _n))", "_bound0, _bound1 = _bound",
            "_h, _dt, _tn = _empty((3, _n))", "_clamped = _empty(_n, _bool)",
            f"_hd, _z = _empty((2, {d}, _n))", f"_fz = _empty(({d}, _n), _bool)"]
    step = [f"_absolute({coefficients[0]}, _sz0)", "_absolute(_cq, _sz12)",
            "_fmax_reduce(_sz, 1, None, _nrm)", "_maximum(_first, _nrm, out=_nrm)",
            "_multiply(_rtol, _ny, _tol)", "_add(_atol, _tol, _tol)",
            "_greater(_ny, 0.0, _pos)", "_copyto(_ry, _inf)", "_copyto(_ry, _ny, where=_pos)",
            "_divide(_size, _nab, _ratio)",
            f"_multiply(_frac, _power(_ratio0, {1.0 / (p - 1)!r}), _bound0)",
            f"_multiply(_frac, _power(_ratio1, {1.0 / p!r}), _bound1)",
            "_fmin_reduce(_bound, (0, 1), None, _h, initial=_inf)",
            "_subtract(_t_end, _t, _dt)", "_greater_equal(_h, _dt, _clamped)",
            "_copyto(_h, _dt, where=_clamped)", "_add(_t, _h, _tn)",
            "_copyto(_tn, _t_end, where=_clamped)", "_copyto(_hd, _h)"]
    return bind, step


def _taylor_step_source(d: int, equations, p: int) -> str:
    """A batched Taylor attempt of order p, as source text: the emitter's
    ``once_per_run`` statements, then ``_bind(n)``, which allocates the
    step's buffers for n columns (:class:`_BatchStep`) and returns
    ``_step(t, y, t_end, rtol, atol)``. That takes ``y`` as a (d, m) array, a
    column per row, and ``t`` as an (m,) array, m <= n, and returns the
    coefficients as a (p + 1, d, m) array, the step, its end, the new state
    and whether the attempt is finite, per row; the coefficients and the new
    state are views of the buffers, which its next call overwrites. The
    statements are the single run's, written by the same emitter on rows,
    and each row gets the single run's operations in its order, so its bits;
    Horner's rule runs over all components at once."""
    return _BatchStep(_TaylorEmitter(equations, p, batch=True), d, p).source()


@functools.cache
def _taylor_step_code(d: int, equations, p: int):
    """:func:`_taylor_step_source`, compiled, and cached as the loop's is."""
    return compile(_taylor_step_source(d, equations, p), "<taylor step>", "exec")


def _taylor_function(generate, name, rhs, d, p, t0, namespace):
    """The function ``name`` of the code ``generate(d, equations, p)`` for
    ``rhs``, an :class:`InlineRhs` of d components, on a run from t0, once
    the code has run in ``namespace`` with the names of rhs's source and
    ``t`` = t0: running it evaluates the source's parameter-only statements
    and the emitter's hoisted subexpressions of the parameters once, and its
    guard at t0."""
    equations = rhs.equations
    if len(equations.state) != d or len(equations.rates) != d:
        raise ValueError(f"rhs returns {len(equations.rates)} values of {len(equations.state)} "
                         f"components for a state of {d}")
    namespace.update(rhs.bindings, t=t0, _inf=math.inf)
    exec(generate(d, equations, p), namespace)
    return namespace[name]


def _run_single(rhs, y0, config, ts, out):
    """Integrate the (d,) state ``y0`` of ``rhs`` over ``config`` into
    ``out``, the samples at ``ts``, and return the run's stats: the loop of
    :func:`_taylor_loop_code`, bound."""
    d, p = len(y0), _taylor_order(config.rtol)
    run = _taylor_function(_taylor_loop_code, "_run", rhs, d, p, config.t0,
                           {"exp": math.exp, "_isfinite": math.isfinite, "_len": len,
                            "_all": all, "_map": map, "_abs": abs,
                            "_ZeroDivisionError": ZeroDivisionError,
                            "_OverflowError": OverflowError,
                            "_bisect_right": bisect.bisect_right,
                            "_fill_steps": _fill_taylor_steps, "_fill_block": _FILL_BLOCK,
                            "_failure": _failure})
    # the sample times, read as floats, and past the last one a time no step reaches
    samples = memoryview(np.append(ts, math.inf))
    with np.errstate(all="ignore"):  # the fill evaluates steps of any size
        accepted, *steps = run(config.t0, tuple(y0.tolist()), config.t_end,
                               config.rtol, config.atol, samples, out, ts)
    return _stats(p, accepted, 0, *steps)


def _run_rows(rhs, y0, config, ts, out):
    """Integrate the (N, d) rows ``y0`` of ``rhs`` over ``config`` into
    ``out``, of shape (N, samples, d), and return the batch's stats: the
    step of :func:`_taylor_step_code` over the running rows, with the single
    run's bookkeeping per row: each running row's counts and step sizes are
    kept beside it and go to the per-row arrays as it leaves. The step's
    buffers have a column for each running row, and at least two: numpy
    adds the terms of a sum in order over two columns or more
    (:meth:`_TaylorEmitter.dot`), so a last running row steps beside a
    stale column. They are bound again, with a column per row, when the
    running rows outgrow them or fill half of them or fewer, so a batch
    binds them a few times at most, and a column past the running rows
    only repeats a stale attempt, which no row reads. The step's columns
    hold the state's components in its own order (``_state_columns``), and
    the fill puts them back in the state's."""
    n_rows, d = y0.shape
    p = _taylor_order(config.rtol)
    namespace = {
        "exp": _exp, "_len": len, "_float": float, "_bool": bool, "_power": _power,
        "_zeros": np.zeros,
        "_empty": np.empty, "_array": np.array, "_copyto": np.copyto, "_add": np.add,
        "_subtract": np.subtract, "_multiply": np.multiply, "_divide": np.divide,
        "_negative": np.negative, "_absolute": np.absolute, "_greater": np.greater,
        "_greater_equal": np.greater_equal, "_isfinite": np.isfinite, "_maximum": np.maximum,
        "_add_reduce": np.add.reduce, "_fmin_reduce": np.fmin.reduce,
        "_fmax_reduce": np.fmax.reduce}
    bind = _taylor_function(_taylor_step_code, "_bind", rhs, d, p, config.t0, namespace)
    columns = namespace["_state_columns"]
    t_end, rtol, atol = config.t_end, config.rtol, config.atol
    accepted = np.zeros(n_rows, dtype=np.int64)
    rejected = np.zeros(n_rows, dtype=np.int64)
    h_min, h_max, h_last = np.full(n_rows, math.inf), np.zeros(n_rows), np.full(n_rows, math.nan)
    failures, t_last = [], np.full(n_rows, float(t_end))
    # live rows only, one column each, with their counts and step sizes,
    # compressed whenever rows finish or fail; a row's go to the per-row
    # arrays as it leaves
    rows = np.arange(n_rows)
    t = np.full(n_rows, float(config.t0))
    y = np.empty((d, n_rows))  # the state's components in the step's columns
    y[columns] = y0.T
    idx = np.ones(n_rows, dtype=np.intp)
    live_accepted = np.zeros(n_rows, dtype=np.int64)
    live_h = [h_min.copy(), h_max.copy(), h_last.copy()]
    # the steps whose samples are not filled yet, each with its own copy of
    # the coefficients, which the step's next call overwrites
    block, held = [], 0
    step, width = None, 0
    with np.errstate(all="ignore"):
        while rows.size:
            if not width // 2 < max(rows.size, 2) <= width:
                width = max(rows.size, 2)
                step = bind(width)
            coeffs, h, t_new, y_new, finite = step(t, y, t_end, rtol, atol)
            stop = np.searchsorted(ts, t_new, side="right")
            live_accepted += finite
            np.minimum(live_h[0], h, out=live_h[0], where=finite)
            np.maximum(live_h[1], h, out=live_h[1], where=finite)
            np.copyto(live_h[2], h, where=finite)
            failed = _stops(t_new, h, t_end)
            if not finite.all():
                # a non-finite row stops at its start and fills no sample
                failed |= ~finite
                t_new, stop = np.where(finite, t_new, t), np.where(finite, stop, idx)
            block.append((rows, idx, stop, t, coeffs))
            held += rows.size
            t, y, idx = t_new, y_new, stop
            live = (t < t_end) & ~failed
            if not live.all():
                failures += _failed_rows(rows, t, finite, failed, t_last)
                gone = ~live
                leaving = rows[gone]
                accepted[leaving], rejected[leaving] = live_accepted[gone], ~finite[gone]
                for per_row, value in zip((h_min, h_max, h_last), live_h):
                    per_row[leaving] = value[gone]
                rows, t, idx, live_accepted = (v[live] for v in (rows, t, idx, live_accepted))
                live_h = [value[live] for value in live_h]
                y = y[:, live]
            if held >= _FILL_BLOCK or not rows.size:
                *steps, coeffs = zip(*block)
                coeffs = np.concatenate(coeffs, axis=2).transpose(2, 0, 1)[..., columns]
                _taylor_fill(out, ts, *map(np.concatenate, steps), coeffs)
                block, held = [], 0
    return {**_batch_stats(_stats(p, accepted, rejected, h_min, h_max, h_last), failures),
            "row_t_last": t_last}


def _taylor_fill(out, ts, rows, idx, stop, t0, coeffs):
    """Fill the samples of a block of m Taylor steps with each step's own
    polynomial. Step i writes ``out[rows[i]]``, of shape (samples, d), at the
    samples ``idx[i]`` up to ``stop[i]`` (those on (t0[i], t0[i] + h[i]]),
    from its coefficients ``coeffs[i]``, of shape (p + 1, d): the value at
    ``ts[j]`` is Horner's rule in s = ts[j] - t0[i], the rule each loop's
    step takes for its new state. Each pass gathers one coefficient of every
    sample's step with ``take`` and updates the values in place, times s
    laid out as the values are, one copy per component, so that no pass
    broadcasts it; the kernel holds (samples, d) arrays, never the block's
    coefficients once per sample. The values go into ``out``, which is
    C-contiguous, through one flat index of their (row, sample) pairs. Both
    loops fill through it: a batch into its (N, samples, d) output, a single
    run as row 0 of ``out[None]``."""
    pair, sample = _block_samples(idx, stop)
    if len(pair):
        samples, d = out.shape[1:]
        s = (ts[sample] - t0[pair]).repeat(d).reshape(-1, d)
        c = coeffs.transpose(1, 0, 2)  # coefficient k of every step: c[k], (m, d)
        value = c[-1].take(pair, 0)
        for k in range(len(c) - 2, -1, -1):
            value *= s
            value += c[k].take(pair, 0)
        out.reshape(-1, d)[rows[pair] * samples + sample] = value


def _fill_taylor_steps(out, ts, block, terms):
    """Fill the samples of the Taylor steps a single run holds in ``block``,
    a flat list of 3 + terms d numbers per step: its first sample and the
    sample past its last, its start t, then its ``terms`` coefficients, each
    as its d components."""
    d = out.shape[1]
    steps = np.fromiter(block, float, len(block)).reshape(-1, 3 + terms * d)
    idx, stop = steps[:, :2].T.astype(np.intp)
    _taylor_fill(out[None], ts, np.zeros(len(steps), dtype=np.intp), idx, stop, steps[:, 2],
                 steps[:, 3:].reshape(-1, terms, d))


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


def order_check(rhs: InlineRhs, y0, t0: float, t_end: float, steps) -> OrderEstimate:
    """Measure the fixed-step RK4 convergence order of ``rhs``, whose steps
    call it, on [t0, t_end] against the Taylor run of its equations at rtol
    1e-13 and atol 1e-15.

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
