"""The Taylor method of a right-hand side given by its equations
(:class:`symevol.integrate.InlineRhs`), which :func:`symevol.integrate.integrate`
runs for it: a single run through :func:`run_single`, a batch of rows
through :func:`run_rows`.

:class:`_TaylorEmitter` reads the equations' statements with ``ast`` and
writes the recurrences of their Taylor coefficients, one coefficient at a
time, as straight-line statements: locals of floats in the single run's loop
(:data:`_TAYLOR_LOOP`), rows of arrays in the batched step, with the same
operations in the same order, so a batch row equals its single run bit for
bit. A batch writes each Cauchy sum of three terms or more as one
``np.add.reduce`` over the rows of the products, which adds them in the
single run's order from two columns on, so it never steps fewer than two
columns (:meth:`_TaylorEmitter.dot`). The order p follows from rtol
(:func:`_taylor_order`), and the step size from the last two coefficients,
capped at a fraction of the series' estimated radius of convergence
(:func:`_step_rule_lines`); there is no error test. The new state and the
dense output (:func:`_taylor_fill`) are Horner's rule on the step's own
polynomial. Each step takes one libm ``exp`` of the decay law at its start
(``math.exp``, in a batch ``model._exp``, mapped over the entries) and its
step size from libm's ``pow`` (``**``, in a batch ``math.pow`` mapped over
the entries). The stop rule, the failures and the stats are those of
:mod:`symevol.integrate`.

References: A. Jorba and M. Zou, "A software package for the numerical
integration of ODEs by means of high-order Taylor methods", Exp. Math. 14
(2005); A. Abad et al., "TIDES", ACM TOMS 39 (2012).
"""

from __future__ import annotations

import ast
import bisect
import functools
import importlib
import math
from typing import NamedTuple

import numpy as np

from .integrate import (_SHRINK, _STOP_RULE, _batch_stats, _block_samples, _failed_rows,
                        _failure, _indented, _names, _power, _stats, _stops, _sum_source)
from .model import _exp

__all__ = ["run_single", "run_rows"]

# the module, for the fill block size it reads at every run (the package
# exports the function integrate under the module's name)
_integrate = importlib.import_module(".integrate", __package__)

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


def _split_body(equations):
    """The statements of ``equations.body`` in two parts, each in body order:
    those that read neither ``t`` nor a state name, directly or through an
    earlier statement, the same for the whole run, and the rest."""
    fixed, rest = [], []
    moving = {"t", *equations.state}
    for statement in equations.body:
        target, expression = _assignment(statement)
        if _reads(expression) & moving:
            rest.append(statement)
            moving.add(target)
        else:
            fixed.append(statement)
    return fixed, rest


def _once_per_run(equations) -> list:
    """The statements the generated loop or batched step runs when it is
    bound, with ``t`` the run's start time: the body's statements that read
    only the parameters, then the guard."""
    return [*_split_body(equations)[0], *equations.guard]


class _Series:
    """A Taylor series in the step variable s, t = t_n + s, in the generated
    code: its coefficients up to ``degree``, the higher ones known zeros,
    coefficient k the expression ``expression(k)``. A stored series
    (``name`` set) is written once per coefficient into its storage: the
    locals ``_<name>_<k>`` in a single run, the rows ``_<name>[k]`` of an
    array in a batch. Any other is written into the one expression that reads
    it, so it takes no statement of its own."""

    def __init__(self, degree, expression, name=None):
        self.degree, self.expression, self.name = degree, expression, name
        self.reads = 0  # coefficientwise readers: two or more need storage


class _TaylorEmitter:
    """The recurrences of the Taylor coefficients of the rates of
    ``equations`` up to order p, as straight-line statements: on floats in
    locals for a single run's loop, on the (n,) rows of arrays for a batched
    step (``batch``). Both forms take the same operations in the same order,
    so every entry of a batch gets the single run's bits.

    Each name the body's statements assign from ``t`` or a state name,
    directly or through an earlier statement, becomes a series; every other
    name (a parameter, or a statement of the parameters only, which
    :func:`_once_per_run` evaluates) stays a scalar, and so does every
    subexpression of scalars. The emitter tracks each series' degree in s
    (``t`` is linear, a product adds the degrees) and writes no product with
    a known zero. The series other than the state take the coefficients up
    to p - 1, all the rates need. The rules:

    - ``+``, ``-`` and unary ``-``: coefficientwise;
    - a scalar times a series, or a series over a scalar: a scaled series;
    - a series times a series: the Cauchy product;
    - anything over a series: the division recurrence;
    - ``exp`` of a series: the exponential recurrence, which takes one
      ``exp``, of the first coefficient;
    - ``a if c else b`` with a scalar ``c``: both branches are written,
      behind one ``if`` per coefficient.

    Any other construct on a series raises ValueError, naming the statement.
    A series is stored when a product or a recurrence reads its coefficients
    (the batch sums long products over rows of its storage), when two
    expressions read it, and when it is the state, a recurrence or a
    conditional; the rest are written into their one reader.
    """

    def __init__(self, equations, p: int, batch: bool):
        self.p, self.batch = p, batch
        self.ops = []  # in dependency order, each writing coefficient k: k -> statements
        self.state = [_Series(p, None, f"y{j}") for j in range(len(equations.state))]
        time = _Series(1, lambda k: "t" if k == 0 else "1.0")  # t_n + s
        self.series = {"t": time, **dict(zip(equations.state, self.state))}
        fixed, rest = _split_body(equations)
        for statement in rest:
            target, node = _assignment(statement)
            try:
                self.series[target] = self._convert(node)
            except ValueError as exc:
                raise ValueError(f"no Taylor recurrence for {statement!r}: {exc}") from None
        scalars = {_assignment(statement)[0] for statement in fixed}
        self.rates = []
        for rate in equations.rates:
            if rate not in self.series and rate not in scalars:
                raise ValueError(f"no statement assigns the rate {rate!r}")
            self.rates.append(self._read(self.series.get(rate, rate)))
        self.storage = {}  # the name of every stored series but the state -> its degree
        for op in self.ops:
            op.store(self)

    def lines(self) -> list:
        """The statements of every coefficient: for k = 0, ..., p - 1, each
        stored series' coefficient k, then each state component's
        coefficient k + 1, its rate's coefficient k over k + 1. Coefficient 0
        of the state is the state at the step's start."""
        lines = []
        for k in range(self.p):
            for op in self.ops:
                lines += op.lines(self, k)
            for state, rate in zip(self.state, self.rates):
                x = self.coef(rate, k)
                lines.append(f"{self.coef(state, k + 1)} = {f'{x} / {k + 1}.0' if x else '0.0'}")
        return lines

    def coef(self, x, k):
        """Coefficient k of x, a series or a scalar (a series of degree 0),
        as an expression; None for a known zero."""
        if isinstance(x, str):
            return x if k == 0 else None
        if k > x.degree:
            return None
        if x.name:
            return f"_{x.name}[{k}]" if self.batch else f"_{x.name}_{k}"
        value = x.expression(k)
        return f"({value})" if " " in value else value

    def dot(self, x, y, lo, hi, k) -> str:
        """The sum of x_i y_(k-i) over i = lo, ..., hi, left to right; in a
        batch, of three terms or more, as ``add_reduce`` (``np.add.reduce``)
        of the (terms, n) products over axis 0. With n >= 2 columns numpy
        adds the rows in that order, one column at a time; one column it
        sums pairwise, so :func:`run_rows` never steps fewer than two
        (``test_add_reduce_adds_rows_in_order`` pins the order)."""
        if self.batch and hi - lo >= 2:
            end = k - hi - 1
            return (f"add_reduce(_{x.name}[{lo}:{hi + 1}] * _{y.name}[{k - lo}:"
                    f"{end if end >= 0 else ''}:-1], 0)")
        return "(" + " + ".join(f"{self.coef(x, i)} * {self.coef(y, k - i)}"
                                for i in range(lo, hi + 1)) + ")"

    def _read(self, x, times=1):
        """x, read coefficientwise ``times`` more times."""
        if isinstance(x, _Series):
            x.reads += times
        return x

    def _summed(self, x):
        """x, which a product or a recurrence reads: stored, if an op writes
        it (the time and the state have storage or need none)."""
        return self._read(x, 2)

    def _op(self, degree, out, expression, stored=False) -> _Series:
        """A series of ``degree``, at most p - 1, whose coefficient k is the
        expression ``expression(s, k)``, s the series itself; into the
        storage of the conditional ``out``, if given. No statement where the
        expression is None."""
        series = _Series(min(degree, self.p - 1), None)
        series.expression = functools.partial(expression, series)
        self.ops.append(_Write(series, out, stored))
        return series

    def _into(self, x, out):
        """x held in the storage of ``out``: x itself when ``out`` is None,
        else a copy."""
        if out is None:
            return x
        self._read(x)
        return self._op(_degree(x), out, lambda s, k: self.coef(x, k))

    def _convert(self, node, out=None):
        """The scalar (an expression) or the series of an expression node,
        appending the ops that write the series; into ``out`` if given."""
        if not _reads(node) & self.series.keys():
            return self._into(f"({ast.unparse(node)})", out)
        if isinstance(node, ast.Name):
            return self._into(self.series[node.id], out)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            x = self._convert(node.operand)
            if isinstance(node.op, ast.UAdd):
                return self._into(x, out)
            self._read(x)
            return self._op(x.degree, out, lambda s, k: f"-{self.coef(x, k)}")
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult,
                                                                ast.Div)):
            return self._binary(node.op, self._convert(node.left), self._convert(node.right),
                                out)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "exp" and len(node.args) == 1 and not node.keywords):
            return self._exp(self._convert(node.args[0]), out)
        if isinstance(node, ast.IfExp) and not _reads(node.test) & self.series.keys():
            return self._if(f"({ast.unparse(node.test)})", node.body, node.orelse, out)
        raise ValueError(f"{ast.unparse(node)!r} is not a construct the Taylor method writes")

    def _binary(self, op, a, b, out) -> _Series:
        da, db = _degree(a), _degree(b)
        if isinstance(op, (ast.Add, ast.Sub)):
            add = isinstance(op, ast.Add)
            self._read(a), self._read(b)

            def term(s, k):
                x, y = self.coef(a, k), self.coef(b, k)
                if x is None:
                    return y if add else f"-{y}"
                return x if y is None else f"{x} {'+' if add else '-'} {y}"
            return self._op(max(da, db), out, term)
        if isinstance(op, ast.Mult) and (isinstance(a, str) or isinstance(b, str)):
            self._read(a), self._read(b)  # a scaled series
            return self._op(max(da, db), out,
                            lambda s, k: f"{_scale(a, self.coef(a, k))} * "
                                         f"{_scale(b, self.coef(b, k))}")
        if isinstance(op, ast.Mult):  # the Cauchy product
            self._summed(a), self._summed(b)
            return self._op(da + db, out,
                            lambda s, k: self.dot(a, b, max(0, k - db), min(k, da), k))
        if isinstance(b, str):
            self._read(a)
            return self._op(da, out, lambda s, k: f"{self.coef(a, k)} / {b}")

        def quotient(s, k):  # a = s b, solved for s_k
            x, b0 = self.coef(a, k), self.coef(b, 0)
            if k == 0:
                return f"{x} / {b0}"
            rest = self.dot(b, s, 1, min(k, db), k)
            return f"({x} - {rest}) / {b0}" if x else f"-{rest} / {b0}"
        self._read(a), self._summed(b)
        return self._op(self.p, out, quotient, stored=True)

    def _exp(self, u, out) -> _Series:
        # e' = u' e: k e_k is the sum of j u_j e_(k-j) over j = 1, ..., k
        du = u.degree
        self._read(u, 2)
        v = self._summed(self._op(du, None, lambda s, k: f"{k}.0 * {self.coef(u, k)}"
                                  if k else None))
        return self._op(self.p, out, lambda s, k: f"exp({self.coef(u, 0)})" if k == 0
                        else f"{self.dot(v, s, 1, min(k, du), k)} / {k}.0", stored=True)

    def _if(self, test, body, orelse, out) -> _Series:
        ops, branches = self.ops, []
        series = _Series(0, None)
        for node in (body, orelse):
            self.ops = []
            branches.append((self.ops, _degree(self._convert(node, series))))
        self.ops = ops
        series.degree = min(max(degree for _, degree in branches), self.p - 1)
        self.ops.append(_Conditional(series, out, test, branches))
        return series


class _Write(NamedTuple):
    """The op that writes ``series``: its statements, one per coefficient,
    when the series is stored (into the storage of the conditional ``out``,
    if given), none when its reader takes its expression."""

    series: _Series
    out: _Series | None
    stored: bool

    def store(self, emitter):
        series = self.series
        if self.out is not None:
            series.name = self.out.name
        elif self.stored or series.reads > 1:
            series.name = f"s{len(emitter.storage)}"
        if series.name:
            emitter.storage[series.name] = max(series.degree,
                                               emitter.storage.get(series.name, 0))

    def lines(self, emitter, k):
        series = self.series
        value = series.expression(k) if series.name and k <= series.degree else None
        return [] if value is None else [f"{emitter.coef(series, k)} = {value}"]


class _Conditional(NamedTuple):
    """The op that writes the conditional ``series``, always stored: its
    branches' ops behind one ``if test`` per coefficient, each writing into
    the series' storage, and zeros past a branch's degree."""

    series: _Series
    out: _Series | None
    test: str
    branches: list

    def store(self, emitter):
        _Write(self.series, self.out, True).store(emitter)
        for ops, _ in self.branches:
            for op in ops:
                op.store(emitter)

    def lines(self, emitter, k):
        if k > self.series.degree:
            return []
        written = []
        for ops, degree in self.branches:
            block = [line for op in ops for line in op.lines(emitter, k)]
            if k > degree:  # a known zero of this branch
                block.append(f"{emitter.coef(self.series, k)} = 0.0")
            written.append(_indented(block or ["pass"], 1))
        return [f"if {self.test}:", *written[0], "else:", *written[1]]


def _degree(x) -> int:
    """The degree of a series, 0 for a scalar."""
    return 0 if isinstance(x, str) else x.degree


def _scale(x, coefficient):
    """The factor of a scaled series' coefficient: a scalar itself, or the
    series' coefficient."""
    return x if isinstance(x, str) else coefficient


def _step_rule_lines(emitter, d: int, p: int) -> list:
    """The step ``h`` of a Taylor attempt from its coefficients c_k: with
    tol = atol + rtol ||y||, ||.|| the largest component's size, the step at
    which each of the last two terms, ||c_k|| h^k for k = p - 1 and p, is
    tol, times _TAYLOR_SAFETY; at most _RADIUS_FRACTION of the radius of
    convergence each estimates, (||y|| / ||c_k||)^(1/k); at most ``cap``. A
    zero norm bounds nothing, and so does a NaN one.

    The norms' maxima and the clamps are conditional expressions, the
    builtins' own rules (``where`` in a batch), so the single run makes no
    ``min`` or ``max`` call, and the powers libm's: ``**`` on floats,
    ``power`` per entry in a batch."""
    def pick(condition, a, b):
        return f"where({condition}, {a}, {b})" if emitter.batch else f"{a} if {condition} else {b}"

    def power(x, exponent):
        return f"power({x}, {exponent!r})" if emitter.batch else f"({x}) ** {exponent!r}"

    lines = []
    for norm, k in (("_ny", 0), ("_na", p - 1), ("_nb", p)):
        lines.append(f"{norm} = abs({emitter.coef(emitter.state[0], k)})")
        for state in emitter.state[1:]:
            lines += [f"_x = abs({emitter.coef(state, k)})",
                      f"{norm} = {pick(f'_x > {norm}', '_x', norm)}"]
    lines += ["_tol = atol + rtol * _ny", f"_ry = {pick('_ny > 0.0', '_ny', 'inf')}", "h = cap"]
    for norm, k in (("_na", p - 1), ("_nb", p)):
        for fraction, size in ((_TAYLOR_SAFETY, "_tol"), (_RADIUS_FRACTION, "_ry")):
            bound = f"{fraction!r} * {power(f'{size} / {norm}', 1.0 / k)}"
            lines += [f"_x = {pick(f'{norm} > 0.0', bound, 'inf')}",
                      f"h = {pick('_x < h', '_x', 'h')}"]
    return lines


# A single run's Taylor loop over floats, as _taylor_loop_code fills it in:
# the attempt (the coefficients, the step rule, the clamp to t_end, the new
# state by Horner's rule and its finiteness test), the sample test, the stop
# rule (the text _STOP_RULE, which _stops reads too) and the step's
# bookkeeping, with the state, coefficient 0, in locals across steps. A
# non-finite attempt retries from the same state under a cap of a quarter of
# its step. A division by zero or an exp above ~709.78 raises on floats where
# the batch's arrays give inf or NaN: such an attempt is non-finite too, with
# a zero step, as no step from its state is finite, so the stop rule ends the
# run at the time its batch row stops, on non-finite values. It calls out
# only on a step that holds a sample (bisect_right, and fill_steps once the
# block holds fill_block samples or the grid's last) and at the end.
_TAYLOR_LOOP = """\
def run(t, y, t_end, rtol, atol, samples, out, ts):
    {y} = y
    last_sample = len(ts)
    idx = 1
    t_next = samples[1]
    accepted = rejected_nonfinite = streak = 0
    h_min = cap = inf
    h_max = 0.0
    block = []
    while t < t_end:
        try:
{attempt}
        except (ZeroDivisionError, OverflowError):
            finite = False
            h = 0.0
        if not finite:
            streak += 1
            rejected_nonfinite += 1
            h *= {shrink!r}
            cap = h
        else:
            streak = 0
            cap = inf
            if t_next <= t_new:
                stop = bisect_right(samples, t_new, idx)
                block += idx, stop, t
                block += {coefficients}
                idx = stop
                t_next = samples[idx]
                if idx == last_sample or idx - block[0] >= fill_block:
                    fill_steps(out, ts, block, {terms})
                    block = []
            t = t_new
{advance}
            accepted += 1
            h_min = h if h < h_min else h_min
            h_max = h if h > h_max else h_max
        if {stop_rule}:
            raise failure(t, ({y}), streak)
    return accepted, rejected_nonfinite, h_min, h_max, h
"""


@functools.cache
def _taylor_loop_code(d: int, equations, p: int):
    """A single run's whole Taylor loop of order p on d floats, as compiled
    code: :func:`_once_per_run`, then :data:`_TAYLOR_LOOP`. ``run(t, y,
    t_end, rtol, atol, samples, out, ts)`` integrates from t and the state
    ``y``, a sequence of d floats, fills ``out`` at the times ``ts``
    (``samples`` is ``ts`` and inf past it) and returns the counts of
    accepted and non-finite attempts and the smallest, largest and last
    accepted step, or raises :class:`IntegrationError`. Its new state is
    the batch's, :func:`_taylor_step_code`, bit for bit. The code depends
    on the source only, never on the values bound to its names, so it is
    cached, one entry per dimension, source and order."""
    emitter = _TaylorEmitter(equations, p, batch=False)
    values = [f"_z{j}" for j in range(d)]
    attempt = [*emitter.lines(), *_step_rule_lines(emitter, d, p),
               "if h >= t_end - t:", "    h = t_end - t", "    t_new = t_end",
               "else:", "    t_new = t + h"]
    for j in range(d):  # Horner's rule
        value = f"_y{j}_{p}"
        for k in range(p - 1, -1, -1):
            value = f"({value}) * h + _y{j}_{k}"
        attempt.append(f"_z{j} = {value}")
    # a finite sum proves every value finite, and only a non-finite one is
    # looked into. A non-finite coefficient past the first (the state) makes
    # the new state non-finite: Horner's rule takes it times h > 0, or times
    # h = 0, which gives NaN
    attempt += _sum_source("_total", values)
    attempt.append(f"finite = isfinite(_total) or all(map(isfinite, ({', '.join(values)},)))")
    code = _TAYLOR_LOOP.format(
        y=" ".join(f"_y{j}_0," for j in range(d)), attempt="\n".join(_indented(attempt, 3)),
        coefficients=" ".join(f"_y{j}_{k}," for k in range(p + 1) for j in range(d)),
        terms=p + 1, advance="\n".join(_indented([f"_y{j}_0 = _z{j}" for j in range(d)], 3)),
        shrink=_SHRINK, stop_rule=_STOP_RULE)
    return compile("\n".join([*_once_per_run(equations), code]), "<taylor loop>", "exec")


@functools.cache
def _taylor_step_code(d: int, equations, p: int):
    """One Taylor attempt of order p over a batch, as compiled code:
    :func:`_once_per_run`, then ``step(t, cap, y, t_end, rtol, atol)``,
    which takes ``y`` as a (d, n) array, a column per row, and ``t`` and
    ``cap`` as (n,) arrays, and returns the coefficients as a (p + 1, d, n)
    array, the step, its end, the new state and whether the attempt is
    finite, per row. The statements are the single run's, written by the
    same emitter on the rows of arrays (the state's series are views of the
    coefficient array), and Horner's rule runs over all components at once,
    with the same operations per entry."""
    emitter = _TaylorEmitter(equations, p, batch=True)
    lines = ["def step(t, cap, y, t_end, rtol, atol):",
             f"    _c = empty(({p + 1}, {d}, len(t)))",
             "    _c[0] = y",
             f"    {_names('_y', d)} = _c.transpose(1, 0, 2)",
             *(f"    _{name} = empty(({degree + 1}, len(t)))"
               for name, degree in emitter.storage.items()),
             *_indented([*emitter.lines(), *_step_rule_lines(emitter, d, p)], 1),
             "    clamped = h >= t_end - t",
             "    h = where(clamped, t_end - t, h)",
             "    t_new = where(clamped, t_end, t + h)",
             f"    _z = _c[{p}] * h + _c[{p - 1}]",
             *(f"    _z = _z * h + _c[{k}]" for k in range(p - 2, -1, -1)),
             "    finite = isfinite(_z).all(axis=0)",
             "    return _c, h, t_new, _z, finite"]
    return compile("\n".join([*_once_per_run(equations), *lines]), "<taylor step>", "exec")


def _taylor_function(generate, name, rhs, d, p, t0, namespace):
    """The function ``name`` of the code ``generate(d, equations, p)`` for
    ``rhs``, an :class:`InlineRhs` of d components, on a run from t0, once
    the code has run in ``namespace`` with the names of rhs's source and
    ``t`` = t0: running it evaluates the source's parameter-only statements
    once, and its guard at t0."""
    equations = rhs.equations
    if len(equations.state) != d or len(equations.rates) != d:
        raise ValueError(f"rhs returns {len(equations.rates)} values of {len(equations.state)} "
                         f"components for a state of {d}")
    namespace.update(rhs.bindings, t=t0, inf=math.inf)
    exec(generate(d, equations, p), namespace)
    return namespace[name]


def run_single(rhs, y0, config, ts, out):
    """Integrate the (d,) state ``y0`` of ``rhs`` over ``config`` into
    ``out``, the samples at ``ts``, and return the run's stats: the loop of
    :func:`_taylor_loop_code`, bound."""
    d, p = len(y0), _taylor_order(config.rtol)
    run = _taylor_function(_taylor_loop_code, "run", rhs, d, p, config.t0,
                           {"isfinite": math.isfinite, "exp": math.exp,
                            "bisect_right": bisect.bisect_right,
                            "fill_steps": _fill_taylor_steps, "fill_block": _integrate._FILL_BLOCK,
                            "failure": _failure})
    # the sample times, read as floats, and past the last one a time no step reaches
    samples = memoryview(np.append(ts, math.inf))
    with np.errstate(all="ignore"):  # the fill evaluates steps of any size
        accepted, rejected, *steps = run(config.t0, tuple(y0.tolist()), config.t_end,
                                         config.rtol, config.atol, samples, out, ts)
    return _stats({"method": "taylor", "order": p}, accepted, 0, rejected, accepted + rejected,
                  *steps)


def run_rows(rhs, y0, config, ts, out):
    """Integrate the (N, d) rows ``y0`` of ``rhs`` over ``config`` into
    ``out``, of shape (N, samples, d), and return the batch's stats: the
    step of :func:`_taylor_step_code` over the running rows, with the single
    run's bookkeeping per row. A last running row steps as two copies of its
    column, whose sums numpy adds in order (:meth:`_TaylorEmitter.dot`)."""
    n_rows, d = y0.shape
    p = _taylor_order(config.rtol)
    step = _taylor_function(_taylor_step_code, "step", rhs, d, p, config.t0,
                            {"isfinite": np.isfinite, "exp": _exp, "where": np.where,
                             "power": _power, "empty": np.empty,
                             "add_reduce": np.add.reduce})
    t_end, rtol, atol = config.t_end, config.rtol, config.atol
    accepted = np.zeros(n_rows, dtype=np.int64)
    rejected = np.zeros(n_rows, dtype=np.int64)
    h_min, h_max, h_last = np.full(n_rows, math.inf), np.zeros(n_rows), np.full(n_rows, math.nan)
    failures = []
    # live rows only, one column each, compressed whenever rows finish or fail
    rows = np.arange(n_rows)
    t = np.full(n_rows, float(config.t0))
    y = y0.T.copy()
    idx = np.ones(n_rows, dtype=np.intp)
    streak = np.zeros(n_rows, dtype=np.int64)
    cap = np.full(n_rows, math.inf)
    # the steps whose samples are not filled yet, held without a copy
    block, held = [], 0
    with np.errstate(all="ignore"):
        while rows.size:
            if rows.size > 1:
                coeffs, h, t_new, y_new, finite = step(t, cap, y, t_end, rtol, atol)
            else:  # a last row steps as two copies of its column (see dot)
                coeffs, h, t_new, y_new, finite = (
                    v[..., :1] for v in step(t.repeat(2), cap.repeat(2), y.repeat(2, axis=1),
                                             t_end, rtol, atol))
            stop = np.searchsorted(ts, t_new, side="right")
            accepted[rows] += finite
            h_min[rows] = np.where(finite & (h < h_min[rows]), h, h_min[rows])
            h_max[rows] = np.where(finite & (h > h_max[rows]), h, h_max[rows])
            h_last[rows] = np.where(finite, h, h_last[rows])
            if not finite.all():
                # a non-finite row keeps its state, fills no sample and
                # retries under a cap of a quarter of its step
                rejected[rows] += ~finite
                h = np.where(finite, h, h * _SHRINK)
                t_new, y_new, stop = (np.where(finite, new, old) for new, old in
                                      ((t_new, t), (y_new, y), (stop, idx)))
            cap = np.where(finite, math.inf, h)
            block.append((rows, idx, stop, t, coeffs.transpose(2, 0, 1)))
            held += rows.size
            t, y, idx = t_new, y_new, stop
            streak = np.where(finite, 0, streak + 1)
            failed = _stops(t, h, streak, t_end)
            failures += _failed_rows(rows, t, streak, failed)
            live = (t < t_end) & ~failed
            if not live.all():
                rows, t, idx, streak, cap = (v[live] for v in (rows, t, idx, streak, cap))
                y = y[:, live]
            if held >= _integrate._FILL_BLOCK or not rows.size:
                _taylor_fill(out, ts, *(np.concatenate(column) for column in zip(*block)))
                block, held = [], 0
    return _batch_stats(_stats({"method": "taylor", "order": p}, accepted, np.zeros_like(accepted),
                               rejected, accepted + rejected, h_min, h_max, h_last), failures)


def _taylor_fill(out, ts, rows, idx, stop, t0, coeffs):
    """Fill the samples of a block of m Taylor steps with each step's own
    polynomial. Step i writes ``out[rows[i]]``, of shape (samples, d), at the
    samples ``idx[i]`` up to ``stop[i]`` (those on (t0[i], t0[i] + h[i]]),
    from its coefficients ``coeffs[i]``, of shape (p + 1, d): the value at
    ``ts[j]`` is Horner's rule in s = ts[j] - t0[i], the rule each loop's
    step takes for its new state. Each pass gathers one coefficient of every
    sample's step with ``take`` and updates the values in place, so the
    kernel holds (samples, d) arrays, never the block's coefficients once
    per sample. Both loops fill through it: a batch into its (N, samples, d)
    output, a single run as row 0 of ``out[None]``."""
    pair, sample = _block_samples(idx, stop)
    if len(pair):
        s = (ts[sample] - t0[pair])[:, None]
        c = coeffs.transpose(1, 0, 2)  # coefficient k of every step: c[k], (m, d)
        value = c[-1].take(pair, 0)
        for k in range(len(c) - 2, -1, -1):
            value *= s
            value += c[k].take(pair, 0)
        out[rows[pair], sample] = value


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
