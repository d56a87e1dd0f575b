"""Time steppers: adaptive Dormand-Prince 5(4) and fixed-step classical RK4.

Both methods deliver dense output by cubic Hermite interpolation on the
accepted steps, so the returned sample times are exactly the requested grid
and never constrain the step-size control. Integrations are deterministic:
identical inputs produce bit-identical trajectories on one platform.

Dormand-Prince also integrates a batch of independent initial states at
once (``y0`` of shape (N, d)); every row keeps its own time and step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["IntegratorConfig", "Trajectory", "IntegrationError", "integrate",
           "order_check", "OrderEstimate", "MAX_GRID_POINTS"]

# Dormand-Prince 5(4) tableau. The fifth-order solution is propagated; the
# difference to the embedded fourth-order one estimates the local error.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_E = np.array([35 / 384 - 5179 / 57600, 0.0, 500 / 1113 - 7571 / 16695,
                  125 / 192 - 393 / 640, -2187 / 6784 + 92097 / 339200,
                  11 / 84 - 187 / 2100, -1 / 40])

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9

# Most points a uniform time grid (output samples or fixed steps) may have: 320 MB of 4-vectors.
MAX_GRID_POINTS = 10_000_000


class IntegrationError(RuntimeError):
    """Integration aborted; carries the last successfully reached state."""

    def __init__(self, message: str, t_last: float, y_last: np.ndarray, reason: str):
        super().__init__(_failure_text(message, t_last))
        self.t_last = t_last
        self.y_last = y_last
        self.reason = reason


def _failure_text(message: str, t_last: float) -> str:
    return f"{message} (last good time t = {t_last:.6g})"


@dataclass(frozen=True)
class IntegratorConfig:
    """Stepper selection, tolerances and time grid of one run.

    The run covers [t0, t_end]; samples are produced every ``sample_dt``
    starting from t0 (the end time is always included). ``step`` applies to
    the fixed-step method, ``rtol``/``atol`` to the adaptive one. Neither
    the samples nor the fixed steps may number more than ``MAX_GRID_POINTS``.
    """

    t_end: float
    sample_dt: float
    method: str = "rk45"
    rtol: float = 1e-10
    atol: float = 1e-12
    step: float | None = None
    t0: float = 0.0

    def __post_init__(self):
        if self.method not in ("rk45", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        if not -math.inf < self.t0 < self.t_end < math.inf:
            raise ValueError(f"need finite t0 < t_end, got t0 = {self.t0!r}, "
                             f"t_end = {self.t_end!r}")
        for name in ("sample_dt", "rtol", "atol", "step"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.method == "rk4" and self.step is None:
            raise ValueError("fixed-step method needs a step size")
        span = self.t_end - self.t0
        if span / self.sample_dt > MAX_GRID_POINTS:
            raise ValueError(f"[{self.t0:g}, {self.t_end:g}] at sample_dt {self.sample_dt!r} "
                             f"gives over {MAX_GRID_POINTS} samples")
        if self.method == "rk4" and span / self.step > MAX_GRID_POINTS:
            raise ValueError(f"[{self.t0:g}, {self.t_end:g}] at step {self.step!r} "
                             f"needs over {MAX_GRID_POINTS} steps")


@dataclass
class Trajectory:
    """Sampled solution: strictly increasing times, states row per sample
    (for a batch, ``states[i]`` is the solution of row i)."""

    times: np.ndarray
    states: np.ndarray
    stats: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.times)

    def column(self, index: int) -> np.ndarray:
        return self.states[..., index]


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
    """Cubic Hermite interpolant of one step (or one step per row) at the
    step fractions ``th`` (shape (m,)); one output row per fraction.

    ``h`` is a scalar or has shape (m,); the end values and slopes have shape
    (d,) or (m, d). The arithmetic is elementwise, so every sample gets the
    bits of a one-sample evaluation."""
    th2 = th * th
    th3 = th2 * th
    return ((2 * th3 - 3 * th2 + 1)[:, None] * y0 + ((th3 - 2 * th2 + th) * h)[:, None] * f0
            + (-2 * th3 + 3 * th2)[:, None] * y1 + ((th3 - th2) * h)[:, None] * f1)


def _hermite_fill(out, ts, idx, t0, h, y0, y1, f0, f1, t1):
    """Fill samples with the cubic Hermite interpolant on (t0, t1]; returns
    the next sample index."""
    tol = t1 + 1e-14 * max(1.0, abs(t1))
    if idx >= len(ts) or ts[idx] > tol:  # most steps hold no sample
        return idx
    stop = int(np.searchsorted(ts, tol, side="right"))
    out[idx:stop] = _hermite((ts[idx:stop] - t0) / h, h, y0, y1, f0, f1)
    return stop


def _initial_step(rhs, t0, y0, f0, rtol, atol, span):
    scale = atol + rtol * np.abs(y0)
    d0 = math.sqrt(float(np.mean((y0 / scale) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 * span if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    return min(h0, span)


def integrate(rhs, y0, config: IntegratorConfig) -> Trajectory:
    """Integrate y' = rhs(t, y) over [config.t0, config.t_end] with dense
    sampling.

    Raises :class:`IntegrationError` on step-size underflow or persistent
    non-finite values; the exception carries the last good (t, y).

    A 2-D ``y0`` of shape (N, d) integrates N independent rows in one
    Dormand-Prince run (rk45 only; rk4 raises ValueError). ``rhs`` is then
    called with a time array of shape (n,) and states of shape (n, d) for
    the n rows still running, and must treat rows independently. Each row
    keeps its own time and step size, and its result does not depend on the
    other rows of the batch. ``states`` has shape (N, samples, d). A failing
    row does not raise: it is listed in ``stats["failures"]`` as
    ``(row, message)``, with the message the single-row run would raise,
    and its samples past the failure are NaN. ``stats`` holds the totals
    ``accepted``/``rejected``/``rhs_evals`` and the per-row counts
    ``row_accepted``/``row_rejected``/``row_rhs_evals``. A batch evaluates
    all six stages of every attempted step, where a single-row run stops at
    the first non-finite stage, so ``row_rhs_evals`` of a row that met
    non-finite values exceeds the single-row count.
    """
    y0 = np.asarray(y0, dtype=float)
    ts = _sample_grid(config.t0, config.t_end, config.sample_dt)
    if y0.ndim == 2:
        if config.method != "rk45":
            raise ValueError(f"method {config.method!r} cannot integrate a batch of states")
        out = np.full((y0.shape[0], len(ts), y0.shape[1]), np.nan)
        out[:, 0] = y0
        run = _run_rk45_rows
    else:
        out = np.empty((len(ts), len(y0)))
        out[0] = y0
        run = _run_rk4 if config.method == "rk4" else _run_rk45
    stats = run(rhs, y0, config, ts, out)
    return Trajectory(times=ts, states=out, stats=stats)


def _run_rk45(rhs, y0, config, ts, out):
    t0, t_end = config.t0, config.t_end
    rtol, atol = config.rtol, config.atol
    hmax = t_end - t0
    t = t0
    y = y0.copy()
    f = np.asarray(rhs(t, y), dtype=float)
    evals = 1
    accepted = rejected = 0
    idx = 1
    h = _initial_step(rhs, t0, y0, f, rtol, atol, hmax)
    k = np.empty((7, len(y0)))
    nonfinite_streak = 0

    while t < t_end:
        clamped = h >= t_end - t
        if clamped:
            h = t_end - t
        k[0] = f
        broke = False
        for s in range(1, 7):
            ys = y + h * (_DP_A[s] @ k[:s])
            if not np.all(np.isfinite(ys)):
                broke = True
                break
            k[s] = rhs(t + _DP_C[s] * h, ys)
            evals += 1
        if broke or not np.all(np.isfinite(k)):
            nonfinite_streak += 1
            rejected += 1
            h *= 0.25
            if nonfinite_streak > 40 or h < 1e-14 * max(1.0, abs(t)):
                raise IntegrationError("non-finite values in right-hand side", t, y, "nonfinite")
            continue
        nonfinite_streak = 0
        y_new = ys  # stage 7 input equals the fifth-order solution (FSAL)
        err = h * (_DP_E @ k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = math.sqrt(float(np.mean((err / scale) ** 2)))
        if err_norm <= 1.0:
            t_new = t_end if clamped else t + h
            idx = _hermite_fill(out, ts, idx, t, h, y, y_new, k[0], k[6], t_new)
            t = t_new
            y = y_new
            f = k[6].copy()
            accepted += 1
            factor = _MAX_FACTOR if err_norm == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm**-0.2))
            h = min(h * factor, hmax)
        else:
            rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err_norm**-0.2)
        if t < t_end and h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError("step size underflow", t, y, "underflow")
    return {"accepted": accepted, "rejected": rejected, "rhs_evals": evals}


# The batched loop below repeats _run_rk45 row by row: same tableau,
# controller, initial step, non-finite streak limit and underflow test. Its
# stage and error sums and its norms are fixed-order elementwise sums, not
# dot products or reductions, so a row's arithmetic never depends on how
# many rows share the batch.

def _weighted_sum(weights, k):
    acc = weights[0] * k[0]
    for w, kj in zip(weights[1:], k[1:]):
        acc = acc + w * kj
    return acc


def _row_rms(x):
    """Root mean square over the last axis of an (n, d) array."""
    sq = x * x
    acc = sq[:, 0]
    for j in range(1, x.shape[1]):
        acc = acc + sq[:, j]
    return np.sqrt(acc / x.shape[1])


def _hermite_fill_rows(out, rows, ts, idx, t0, h, y0, y1, f0, f1, t1, mask):
    """Vectorized :func:`_hermite_fill` over the rows selected by ``mask``:
    batch row i writes ``out[rows[i]]`` at its samples on (t0[i], t1[i]].
    Returns the next sample index of every row."""
    stop = np.searchsorted(ts, t1 + 1e-14 * np.maximum(1.0, np.abs(t1)), side="right")
    counts = np.where(mask, stop - idx, 0)
    total = int(counts.sum())
    if total:
        pair = np.repeat(np.arange(len(idx)), counts)
        first = np.cumsum(counts) - counts
        sample = idx[pair] + np.arange(total) - first[pair]
        hp = h[pair]
        out[rows[pair], sample] = _hermite((ts[sample] - t0[pair]) / hp, hp,
                                           y0[pair], y1[pair], f0[pair], f1[pair])
    return np.where(mask, stop, idx)


def _run_rk45_rows(rhs, y0, config, ts, out):
    t0, t_end = config.t0, config.t_end
    rtol, atol = config.rtol, config.atol
    hmax = t_end - t0
    n_rows = len(y0)
    accepted = np.zeros(n_rows, dtype=np.int64)
    rejected = np.zeros(n_rows, dtype=np.int64)
    evals = np.ones(n_rows, dtype=np.int64)
    failures = []
    # live rows only, compressed whenever rows finish or fail
    rows = np.arange(n_rows)
    t = np.full(n_rows, float(t0))
    y = y0.copy()
    idx = np.ones(n_rows, dtype=np.intp)
    streak = np.zeros(n_rows, dtype=np.int64)
    with np.errstate(all="ignore"):
        f = np.asarray(rhs(t, y), dtype=float)
        scale = atol + rtol * np.abs(y)
        d0 = _row_rms(y / scale)
        d1 = _row_rms(f / scale)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6 * (t_end - t0), 0.01 * d0 / d1)
        h = np.minimum(h0, hmax)
        while rows.size:
            clamped = h >= t_end - t
            h = np.where(clamped, t_end - t, h)
            hc = h[:, None]
            k = [f]
            finite = np.ones(rows.size, dtype=bool)
            for s in range(1, 7):
                ys = y + hc * _weighted_sum(_DP_A[s], k)
                finite &= np.isfinite(ys).all(axis=1)
                k.append(np.asarray(rhs(t + _DP_C[s] * h, ys), dtype=float))
            finite &= np.isfinite(k[6]).all(axis=1)
            evals[rows] += 6
            y_new = ys  # stage 7 input equals the fifth-order solution (FSAL)
            err = hc * _weighted_sum(_DP_E, k)
            err_norm = _row_rms(err / (atol + rtol * np.maximum(np.abs(y), np.abs(y_new))))
            ok = finite & (err_norm <= 1.0)
            factor = _SAFETY * err_norm**-0.2
            grow = np.where(err_norm == 0.0, _MAX_FACTOR,
                            np.minimum(_MAX_FACTOR, np.maximum(_MIN_FACTOR, factor)))
            t_new = np.where(clamped, t_end, t + h)
            idx = _hermite_fill_rows(out, rows, ts, idx, t, h, y, y_new, f, k[6], t_new, ok)
            accepted[rows] += ok
            rejected[rows] += ~ok
            h = np.where(ok, np.minimum(h * grow, hmax),
                         np.where(finite, h * np.maximum(_MIN_FACTOR, factor), h * 0.25))
            t = np.where(ok, t_new, t)
            y = np.where(ok[:, None], y_new, y)
            f = np.where(ok[:, None], k[6], f)
            streak = np.where(finite, 0, streak + 1)
            tiny = (t < t_end) & (h < 1e-14 * np.maximum(1.0, np.abs(t)))
            failed = np.where(finite, tiny, (streak > 40) | tiny)
            for i in np.flatnonzero(failed).tolist():
                why = ("step size underflow" if finite[i]
                       else "non-finite values in right-hand side")
                failures.append((int(rows[i]), _failure_text(why, float(t[i]))))
            live = (t < t_end) & ~failed
            if not live.all():
                rows, t, y, f, h, idx, streak = (
                    a[live] for a in (rows, t, y, f, h, idx, streak))
    return {"accepted": int(accepted.sum()), "rejected": int(rejected.sum()),
            "rhs_evals": int(evals.sum()), "row_accepted": accepted,
            "row_rejected": rejected, "row_rhs_evals": evals,
            "failures": sorted(failures)}


def _run_rk4(rhs, y0, config, ts, out):
    t0, t_end = config.t0, config.t_end
    span = t_end - t0
    n_steps = max(1, round(span / config.step))
    h = span / n_steps
    t = t0
    y = y0.copy()
    f = np.asarray(rhs(t, y), dtype=float)
    evals = 1
    idx = 1
    for i in range(n_steps):
        k1 = f
        k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k1), dtype=float)
        k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2), dtype=float)
        k4 = np.asarray(rhs(t + h, y + h * k3), dtype=float)
        y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        evals += 3
        if not np.all(np.isfinite(y_new)):
            raise IntegrationError("non-finite values in fixed-step solution", t, y, "nonfinite")
        t_new = t_end if i == n_steps - 1 else t0 + (i + 1) * h
        f_new = np.asarray(rhs(t_new, y_new), dtype=float)
        evals += 1
        idx = _hermite_fill(out, ts, idx, t, h, y, y_new, k1, f_new, t_new)
        t = t_new
        y = y_new
        f = f_new
    return {"accepted": n_steps, "rejected": 0, "rhs_evals": evals}


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

    ``steps`` must contain at least three distinct step sizes (geometric
    progressions work best), checked before anything is integrated.
    """
    steps = [float(h) for h in steps]
    if len(set(steps)) < 3:
        raise ValueError("need at least three distinct step sizes")
    span = t_end - t0
    configs = [IntegratorConfig(t0=t0, t_end=t_end, sample_dt=span, method="rk4", step=h)
               for h in steps]
    cfg = IntegratorConfig(t0=t0, t_end=t_end, sample_dt=span, rtol=1e-13, atol=1e-15)
    y_ref = integrate(rhs, y0, cfg).states[-1]
    errors = []
    for cfg in configs:
        y_h = integrate(rhs, y0, cfg).states[-1]
        errors.append(float(np.max(np.abs(y_h - y_ref))))
    floor = 5e-13 * (1.0 + float(np.max(np.abs(y_ref))))
    if min(errors) < floor:
        return OrderEstimate(None, True, tuple(steps), tuple(errors))
    slope = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
    return OrderEstimate(slope, False, tuple(steps), tuple(errors))
