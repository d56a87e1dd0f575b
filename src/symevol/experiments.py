"""Scenario drivers: full-vs-averaged comparison, invariant drift, ensemble
statistics and the stabilization time of a figure run.

All drivers are deterministic: ensembles draw initial conditions from a
counter-based generator keyed by (seed, particle index) and integrate them
in one batched run whose rows do not interact, so reports do not depend on
batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .averaged import polar_to_slow_cart, slow_cart_amplitudes
from .integrate import (MAX_GRID_POINTS, InlineRhs, IntegratorConfig, Trajectory, _grid_steps,
                        integrate)
from .model import FULL_EQUATIONS, CartesianState, ModelParams
from .resonance import averaged_system, cartesian_invariant
from .transforms import mode_actions, polar_coordinates, wrap_angle

__all__ = [
    "ScenarioConfig",
    "EnsembleSpec",
    "DistributionReport",
    "EnsembleFailure",
    "InvariantReport",
    "ComparisonResult",
    "full_field",
    "run_scenario",
    "polar_amplitude_series",
    "phase_series",
    "invariant_drift",
    "compare_full_vs_averaged",
    "run_ensemble",
    "stabilization_time",
]

@dataclass(frozen=True)
class ScenarioConfig:
    """A single run: model, initial state, and the time grid with its
    tolerances, which starts at the initial state's time."""

    params: ModelParams
    initial: CartesianState
    integrator: IntegratorConfig
    label: str = ""

    def __post_init__(self):
        if self.integrator.t0 != self.initial.t:
            raise ValueError(f"the grid starts at t0 = {self.integrator.t0!r}, "
                             f"the initial state at t = {self.initial.t!r}")


# below this amplitude a mode's phase is not taken as defined
_MIN_AMPLITUDE = 1e-8


def polar_amplitude_series(traj: Trajectory, omega: float):
    """Mode amplitudes along a Cartesian trajectory (phase-free, safe at
    normal modes)."""
    return polar_coordinates(traj.times, traj.states, omega)[::2]


def phase_series(traj: Trajectory, omega: float):
    """Continuously lifted slow phases (psi1, psi2) along a trajectory.

    Requires both amplitudes to stay at or above 1e-8; near a normal mode
    the phase is meaningless and polar analyses are disabled.
    """
    r1, psi1, r2, psi2 = polar_coordinates(traj.times, traj.states, omega)
    if np.min(r1) < _MIN_AMPLITUDE or np.min(r2) < _MIN_AMPLITUDE:
        raise ValueError("amplitude too close to a normal mode for phase extraction")
    return np.unwrap(psi1), np.unwrap(psi2)


def full_field(p: ModelParams) -> InlineRhs:
    """The full system at p as :func:`integrate` takes it: the
    :class:`InlineRhs` of the text of p's decay law in
    :data:`symevol.model.FULL_EQUATIONS`, from whose equations single runs
    and batches generate their Taylor method. The record's call, the text's
    ``full_rhs``, serves callers that evaluate the field, such as the fixed
    RK4 steps of ``order_check``; the Taylor runs make no call.
    """
    return FULL_EQUATIONS[p.alpha_kind].at(p)


def run_scenario(sc: ScenarioConfig) -> Trajectory:
    """Integrate the full system over the scenario's grid."""
    return integrate(full_field(sc.params), sc.initial.as_array(), sc.integrator)


@dataclass(frozen=True)
class InvariantReport:
    """Initial value, extrema and drift of a conserved-quantity series."""

    name: str
    initial: float
    minimum: float
    maximum: float
    max_drift: float
    normalized_drift: float


def invariant_drift(traj: Trajectory, names, params: ModelParams) -> list[InvariantReport]:
    """Drift statistics of the named invariants along a full-system trajectory.

    The drift is normalized by the trajectory's energy scale (its initial
    E1 + E2) so reports are comparable across invariants.
    """
    e1, e2 = mode_actions(traj.states[0], params.omega)
    scale = abs(float(e1 + e2))
    reports = []
    for name in names:
        series = cartesian_invariant(name, traj.states, params)
        drift = float(np.max(np.abs(series - series[0])))
        reports.append(InvariantReport(
            name=name,
            initial=float(series[0]),
            minimum=float(np.min(series)),
            maximum=float(np.max(series)),
            max_drift=drift,
            normalized_drift=drift / max(scale, 1e-300),
        ))
    return reports


@dataclass(frozen=True)
class ComparisonResult:
    """Sup-norm discrepancies between the full and averaged descriptions,
    with the ``Trajectory.stats`` of the full and the averaged run."""

    resonance: str
    horizon: float
    sup_r1: float
    sup_r2: float
    sup_E1: float
    sup_E2: float
    full_stats: dict
    averaged_stats: dict

    @property
    def sup_amplitude(self) -> float:
        return max(self.sup_r1, self.sup_r2)


def compare_full_vs_averaged(params: ModelParams, initial: CartesianState,
                             L: float = 1.0, resonance: str | None = None,
                             rtol: float = IntegratorConfig.rtol,
                             atol: float = IntegratorConfig.atol) -> ComparisonResult:
    """Integrate full and averaged systems from the same polar data and
    compare amplitudes and actions over [0, L/epsilon], sampled every 0.1.

    The averaged system runs in the regular slow-Cartesian chart, so it may
    pass through a normal mode. Initial data too close to a normal mode is
    rejected (its polar phases are undefined), and so is a window that
    :class:`IntegratorConfig` rejects. With epsilon = 0 a fixed default
    window is used and both systems coincide.
    """
    resonance, equations = averaged_system(params.omega, resonance)
    horizon = L / params.epsilon if params.epsilon > 0 else 50.0
    r1, psi1, r2, psi2 = polar_coordinates(initial.t, initial.as_array(), params.omega)
    if min(r1, r2) < _MIN_AMPLITUDE:
        raise ValueError("normal-mode initial data: polar comparison undefined")
    polar = [r1, wrap_angle(psi1), r2, wrap_angle(psi2), params.delta * initial.t]

    cfg = IntegratorConfig(t0=initial.t, t_end=initial.t + horizon, sample_dt=0.1,
                           rtol=rtol, atol=atol)
    full = integrate(full_field(params), initial.as_array(), cfg)
    r1_full, r2_full = polar_amplitude_series(full, params.omega)

    avg = integrate(equations.at(params), polar_to_slow_cart(polar), cfg)
    r1_avg, r2_avg = slow_cart_amplitudes(avg.states)

    w2 = params.omega**2
    return ComparisonResult(
        resonance=resonance,
        horizon=horizon,
        sup_r1=float(np.max(np.abs(r1_full - r1_avg))),
        sup_r2=float(np.max(np.abs(r2_full - r2_avg))),
        sup_E1=float(np.max(np.abs(0.5 * r1_full**2 - 0.5 * r1_avg**2))),
        sup_E2=float(np.max(np.abs(0.5 * w2 * r2_full**2 - 0.5 * w2 * r2_avg**2))),
        full_stats=full.stats,
        averaged_stats=avg.stats,
    )


# --------------------------------------------------------------------------
# Ensembles
# --------------------------------------------------------------------------

# kind -> (how many numbers its spec takes, the draw from them, the
# standard deviation of that draw)
_SAMPLERS = {
    "fixed": (1, lambda rng, value: value, lambda value: 0.0),
    "uniform": (2, lambda rng, lo, hi: rng.uniform(lo, hi),
                lambda lo, hi: (hi - lo) / math.sqrt(12.0)),
    "normal": (2, lambda rng, mean, sigma: rng.normal(mean, sigma), lambda mean, sigma: sigma),
}
_COORDS = ("q1", "v1", "q2", "v2")
_HISTOGRAM_BINS = 64  # uniform bins per velocity component in an ensemble report


def _sampler_ok(spec) -> bool:
    """Whether spec is a known kind with as many finite numbers as it takes
    and a finite, non-negative standard deviation: SIGMA >= 0, and LO <= HI
    with a finite HI - LO."""
    kind, *values = spec or (None,)
    arity, _, sigma = _SAMPLERS.get(kind, (None, None, None))
    return (len(values) == arity
            and all(isinstance(x, Real) and math.isfinite(x) for x in values)
            and 0.0 <= sigma(*values) < math.inf)


@dataclass(frozen=True)
class EnsembleSpec:
    """Ensemble of independently integrated particles.

    ``samplers`` maps each coordinate (q1, v1, q2, v2) to a distribution
    tuple: ("fixed", value), ("uniform", lo, hi) or ("normal", mean, sigma),
    with finite numbers, lo <= hi, a finite hi - lo and sigma >= 0. A
    coordinate left out is fixed at its value in ``scenario.initial``; after
    construction ``samplers`` holds all four.
    Sampling uses a counter-based generator keyed by (seed, particle index):
    one Philox per run, re-keyed for each particle, so the draw for particle
    i never depends on the other particles. All
    particles' sample intervals together, ``count`` times the intervals of
    each particle's grid (at least one), may not exceed
    ``MAX_GRID_POINTS``; the generator's key takes a seed in [0, 2**64).
    """

    scenario: ScenarioConfig
    samplers: dict
    count: int
    seed: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        grid = self.scenario.integrator
        n, short = _grid_steps(grid.t0, grid.t_end, grid.sample_dt)
        intervals = max(1, n + short)
        if self.count * intervals > MAX_GRID_POINTS:
            raise ValueError(f"{self.count} particles of {intervals} sample "
                             f"intervals give over {MAX_GRID_POINTS} sample intervals")
        initial = self.scenario.initial
        samplers = {coord: self.samplers.get(coord, ("fixed", getattr(initial, coord)))
                    for coord in _COORDS}
        for coord, spec in samplers.items():
            if not _sampler_ok(spec):
                raise ValueError(f"bad sampler spec {spec!r} for {coord} (want fixed V, "
                                 "uniform LO HI or normal MEAN SIGMA with finite numbers, "
                                 "LO <= HI, a finite HI - LO and SIGMA >= 0)")
        object.__setattr__(self, "samplers", samplers)


class EnsembleFailure(RuntimeError):
    """Every particle of an ensemble failed to integrate."""


@dataclass
class DistributionReport:
    """Per-time velocity statistics and histograms of an ensemble."""

    times: np.ndarray
    mean_v1: np.ndarray
    mean_v2: np.ndarray
    disp_v1: np.ndarray
    disp_v2: np.ndarray
    mean_E1: np.ndarray
    mean_E2: np.ndarray
    hist_edges_v1: np.ndarray
    hist_edges_v2: np.ndarray
    hist_v1: np.ndarray
    hist_v2: np.ndarray
    count: int
    failures: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)


def _draw_initial(samplers: dict, seed: int, particles) -> np.ndarray:
    """The initial states of the ``particles``, a sequence of indices, one
    row each: particle i's draws, in the order of ``_COORDS``, from Philox
    keyed by (seed, i). One generator serves them all, re-keyed for each
    particle to the state a fresh ``Generator(Philox(key=[seed, i]))``
    starts in, so the draws are that generator's. It is built here, not at
    import: ``numpy.random`` loads on the first ensemble, and a run of
    another command never loads it."""
    philox = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng = np.random.Generator(philox)
    # the fresh state: counter 0 and an empty buffer (buffer_pos 4, has_uint32 0)
    state = philox.state
    key = state["state"]["key"]
    draws = [(_SAMPLERS[kind][1], values) for kind, *values in map(samplers.get, _COORDS)]
    out = np.empty((len(particles), 4))
    for row, index in enumerate(particles):
        key[1] = index
        philox.state = state
        out[row] = [draw(rng, *values) for draw, values in draws]
    return out


def run_ensemble(spec: EnsembleSpec) -> DistributionReport:
    """Draw every particle's initial state from one generator, re-keyed
    per particle, integrate them in one batched run and reduce to per-time
    stats. The reduction reads the run's (count, samples, 4) cube in place,
    and a copy of the completed particles' rows only when one failed.

    Histogram bins are fixed: ``_HISTOGRAM_BINS`` (64) uniform bins spanning
    three times the ensemble's initial rms velocity (per component, about
    zero, falling back to the sampler's offset scale); out-of-range values
    accumulate in the edge bins so the histogram mass always equals the
    particle count. Failed particles are recorded with their integrator
    message and excluded from the statistics. ``stats`` names the
    integrator's method and order, totals its step counts over all
    particles, gives the spread (min, median, max) over the particles that
    took a step of their smallest, largest and last step, and the fewest and
    most accepted steps of a particle that completed.
    """
    sc = spec.scenario
    p = sc.params
    y0 = _draw_initial(spec.samplers, spec.seed, range(spec.count))
    traj = integrate(full_field(p), y0, sc.integrator)
    failures = traj.stats["failures"]
    ok = np.ones(spec.count, dtype=bool)
    ok[[i for i, _ in failures]] = False
    good = traj.states[ok] if failures else traj.states
    if good.shape[0] == 0:
        row, message = failures[0]
        raise EnsembleFailure(f"every particle integration failed; particle {row}: {message}")
    accepted = traj.stats["row_accepted"][ok]
    stats = {key: traj.stats[key] for key in ("method", "order", "accepted", "rejected",
                                              "rejected_error", "rejected_nonfinite",
                                              "rhs_evals", "h_min", "h_max", "h_final")}
    stats["min_accepted"] = int(accepted.min())
    stats["max_accepted"] = int(accepted.max())

    v1 = good[:, :, 1]
    v2 = good[:, :, 3]
    e1, e2 = mode_actions(good, sc.params.omega)
    edges_v1 = _velocity_edges(v1[:, 0], spec.samplers["v1"])
    edges_v2 = _velocity_edges(v2[:, 0], spec.samplers["v2"])
    return DistributionReport(
        times=traj.times,
        mean_v1=v1.mean(axis=0),
        mean_v2=v2.mean(axis=0),
        # shifted variance: exact zero for identical particles, neutral otherwise
        disp_v1=(v1 - v1[:1]).std(axis=0),
        disp_v2=(v2 - v2[:1]).std(axis=0),
        mean_E1=e1.mean(axis=0),
        mean_E2=e2.mean(axis=0),
        hist_edges_v1=edges_v1,
        hist_edges_v2=edges_v2,
        hist_v1=_histogram_series(v1, edges_v1),
        hist_v2=_histogram_series(v2, edges_v2),
        count=int(good.shape[0]),
        failures=failures,
        stats=stats,
    )


def _velocity_edges(v0: np.ndarray, sampler) -> np.ndarray:
    rms = float(np.sqrt(np.mean(v0**2)))
    if rms == 0.0:
        kind, *values = sampler
        rms = max(_SAMPLERS[kind][2](*values), 1.0)
    return np.linspace(-3.0 * rms, 3.0 * rms, _HISTOGRAM_BINS + 1)


def _histogram_series(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Counts per (sample, bin) of ``values`` of shape (particles, samples),
    as ``np.histogram`` per sample would give them after clipping into the
    edge bins. ``edges`` are uniform, so each value's bin is computed, then
    moved by one bin where the computed edges disagree with ``edges``, as
    ``np.histogram`` does for uniform bins: edges[i] <= value < edges[i + 1]."""
    bins = len(edges) - 1
    samples = values.shape[1]
    lo = edges[0] + 1e-12 * (edges[1] - edges[0])
    hi = edges[-1] - 1e-12 * (edges[1] - edges[0])
    clipped = np.clip(values, lo, hi)
    which = ((clipped - edges[0]) * (bins / (edges[-1] - edges[0]))).astype(np.intp)
    np.minimum(which, bins - 1, out=which)
    which -= clipped < edges[which]
    which += clipped >= edges[which + 1]
    flat = np.arange(samples) * bins + which
    return np.bincount(flat.ravel(), minlength=samples * bins).reshape(samples, bins)


# --------------------------------------------------------------------------
# Figure runs
# --------------------------------------------------------------------------

def stabilization_time(times: np.ndarray, E1: np.ndarray, E2: np.ndarray,
                       fraction: float = 0.10) -> float:
    """First time after which both actions stay within fraction*E0 of their
    remaining range, E0 = E1[0] + E2[0]; inf if the run never settles."""
    spreads = []
    for series in (E1, E2):
        suffix_max = np.maximum.accumulate(series[::-1])[::-1]
        suffix_min = np.minimum.accumulate(series[::-1])[::-1]
        spreads.append(suffix_max - suffix_min)
    both = np.maximum(spreads[0], spreads[1])
    idx = np.nonzero(both < fraction * float(E1[0] + E2[0]))[0]
    return float(times[idx[0]]) if len(idx) else math.inf
