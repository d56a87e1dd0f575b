"""Workload table, seeded inputs, scipy references and output checks.

Every workload drives one public CLI command on the fig1 model (the
canonical 1:2 scenario at decay exponent n = 2). A workload run executes
the same few cases over and over; each case is one CLI invocation whose
inputs come from the benchmark seed only.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Beyond this absolute deviation from the reference an output is wrong.
ACCURACY_GATE = 1e-6

REF_RTOL = 1e-13
REF_ATOL = 1e-15

FIG1_MODEL = """[model]
a1 = 1
a2 = 1
a3 = 0.75
a4 = 1.5
omega = 2
epsilon = 0.1
n = 2
alpha_kind = exponential

[initial]
t0 = 0
q1 = 0
v1 = {v1!r}
q2 = 0
v2 = {v2!r}

[integrator]
method = rk45
rtol = 1e-10
atol = 1e-12
sample_dt = 0.25

[scenario]
horizon = 1000
observables = actions,velocities,invariants
label = fig1
"""

ENSEMBLE_SECTION = """
[ensemble]
count = {count}
seed = 0
workers = 1
q1 = fixed 0
v1 = normal 0.5 0.05
q2 = fixed 0
v2 = uniform 0.4 0.6
"""

SIMULATE_COLUMNS = ["t", "q1", "v1", "q2", "v2", "E1", "E2"]
MOMENT_COLUMNS = ["t", "mean_v1", "disp_v1", "mean_v2", "disp_v2", "mean_E1", "mean_E2"]


@dataclass(frozen=True)
class Workload:
    """One CLI command at a fixed size.

    ``cases`` distinct inputs are drawn from the seed and run in turn, so a
    metric taken over a run does not hang on a single draw.
    """

    name: str
    command: str
    horizon: float
    sample_dt: float
    cases: int
    particles: int = 1


WORKLOADS = {
    "fig1": Workload("fig1", "simulate", horizon=100.0, sample_dt=0.25, cases=8),
    "ensemble": Workload("ensemble", "ensemble", horizon=3.0, sample_dt=0.01, cases=4,
                         particles=32),
    "dense-output": Workload("dense-output", "simulate", horizon=10.0, sample_dt=0.001,
                             cases=4),
}

TINY = {
    "fig1": Workload("fig1", "simulate", horizon=5.0, sample_dt=0.25, cases=2),
    "ensemble": Workload("ensemble", "ensemble", horizon=0.5, sample_dt=0.01, cases=2,
                         particles=3),
    "dense-output": Workload("dense-output", "simulate", horizon=0.5, sample_dt=0.001,
                             cases=2),
}


def sample_grid(horizon: float, dt: float) -> np.ndarray:
    """The documented output grid: every sample_dt from 0, end time included."""
    n = int(math.floor(horizon / dt + 1e-9))
    ts = dt * np.arange(n + 1)
    if ts[-1] < horizon - 1e-12 * max(1.0, horizon):
        ts = np.append(ts, horizon)
    return ts


def make_cases(wl: Workload, seed: int, workdir: Path) -> list[dict]:
    """Write each case's config into ``workdir`` and return the case specs.

    simulate: the seed draws initial velocities near the canonical
    (0.5, 0.5). ensemble: the ensemble seed of case k is seed * cases + k,
    passed on the command line as ``--seed``.
    """
    rng = np.random.default_rng([seed, 7919])
    cases = []
    for k in range(wl.cases):
        out = workdir / f"out{k}"
        config = workdir / f"case{k}.ini"
        argv = [wl.command, str(config), "--out", str(out),
                "--horizon", repr(wl.horizon), "--sample-dt", repr(wl.sample_dt)]
        overrides = {"horizon": wl.horizon, "sample_dt": wl.sample_dt}
        if wl.command == "simulate":
            v1, v2 = (0.5 + float(x) for x in rng.uniform(-0.02, 0.02, size=2))
            config.write_text(FIG1_MODEL.format(v1=v1, v2=v2))
            data_files = ["trajectory.csv"]
            case_seed = None
            initial = [0.0, v1, 0.0, v2]
        else:
            config.write_text(FIG1_MODEL.format(v1=0.5, v2=0.5)
                              + ENSEMBLE_SECTION.format(count=wl.particles))
            case_seed = seed * wl.cases + k
            argv += ["--seed", str(case_seed)]
            overrides["seed"] = case_seed
            data_files = ["moments.csv", "histograms.json"]
            initial = None
        cases.append({"kind": wl.command, "config": str(config), "out": str(out),
                      "argv": argv, "overrides": overrides, "data_files": data_files,
                      "seed": case_seed, "initial": initial, "text": config.read_text(),
                      "model_time": wl.horizon * wl.particles})
    return cases


# --------------------------------------------------------------------------
# References
# --------------------------------------------------------------------------

def _ensemble_initial(seed: int, index: int) -> np.ndarray:
    """Particle draw of the documented counter-based generator keyed by
    (seed, particle): v1 ~ normal(0.5, 0.05), then v2 ~ uniform(0.4, 0.6)."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    v1 = rng.normal(0.5, 0.05)
    v2 = rng.uniform(0.4, 0.6)
    return np.array([0.0, v1, 0.0, v2])


def _reference_states(y0: np.ndarray, ts: np.ndarray) -> np.ndarray:
    from scipy.integrate import solve_ivp
    from symevol import ModelParams, full_rhs

    params = ModelParams(a1=1.0, a2=1.0, a3=0.75, a4=1.5, omega=2.0, epsilon=0.1, n=2)
    sol = solve_ivp(lambda t, y: full_rhs(t, y, params), (ts[0], ts[-1]), y0,
                    method="DOP853", rtol=REF_RTOL, atol=REF_ATOL, t_eval=ts)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


def _reference_table(wl: Workload, case: dict) -> np.ndarray:
    """Expected data columns of one case, in CSV column order."""
    ts = sample_grid(wl.horizon, wl.sample_dt)
    if wl.command == "simulate":
        s = _reference_states(np.array(case["initial"]), ts)
        q1, v1, q2, v2 = s.T
        return np.column_stack([ts, q1, v1, q2, v2, 0.5 * (v1**2 + q1**2),
                                0.5 * (v2**2 + 4.0 * q2**2)])
    cube = np.stack([_reference_states(_ensemble_initial(case["seed"], i), ts)
                     for i in range(wl.particles)])
    q1, v1, q2, v2 = (cube[:, :, i] for i in range(4))
    return np.column_stack([
        ts, v1.mean(axis=0), (v1 - v1[:1]).std(axis=0), v2.mean(axis=0),
        (v2 - v2[:1]).std(axis=0), (0.5 * (v1**2 + q1**2)).mean(axis=0),
        (0.5 * (v2**2 + 4.0 * q2**2)).mean(axis=0)])


def case_key(wl: Workload, case: dict) -> str:
    """Cache key of a case: its inputs, sizes and the reference settings."""
    blob = json.dumps([wl.__dict__, case["text"], case["seed"], REF_RTOL, REF_ATOL],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def reference(wl: Workload, case: dict, cache: Path) -> np.ndarray:
    """Reference table of a case, computed once and cached in ``cache``."""
    path = cache / f"ref-{wl.name}-{case_key(wl, case)}.npy"
    if path.is_file():
        return np.load(path)
    table = _reference_table(wl, case)
    cache.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp.npy")
    np.save(tmp, table)
    tmp.replace(path)
    return table


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------

def check_case(wl: Workload, case: dict, ref: np.ndarray) -> tuple[list[str], float]:
    """Check the data files a case left in its output directory.

    Returns (problems, max_abs_err). The error is taken over every written
    data column against the reference; times must match the grid.
    """
    out = Path(case["out"])
    problems = []
    csv_path = out / ("trajectory.csv" if wl.command == "simulate" else "moments.csv")
    expected = SIMULATE_COLUMNS if wl.command == "simulate" else MOMENT_COLUMNS
    try:
        with open(csv_path) as fh:
            header = fh.readline().strip().split(",")
        table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"{csv_path.name}: unreadable ({exc})"], math.inf
    if header != expected:
        problems.append(f"{csv_path.name}: columns {header} != {expected}")
    if table.shape != ref.shape:
        return problems + [f"{csv_path.name}: shape {table.shape} != {ref.shape}"], math.inf
    if not np.all(np.isfinite(table)):
        problems.append(f"{csv_path.name}: non-finite values")
    if np.max(np.abs(table[:, 0] - ref[:, 0])) > 1e-9:
        problems.append(f"{csv_path.name}: sample times off the grid")
    err = float(np.max(np.abs(table[:, 1:] - ref[:, 1:])))
    if not err <= ACCURACY_GATE:
        problems.append(f"{csv_path.name}: max_abs_err {err:.3g} > gate {ACCURACY_GATE:g}")
    if wl.command == "ensemble":
        problems += _check_histograms(out / "histograms.json", wl.particles, len(ref))
    return problems, err


def _check_histograms(path: Path, particles: int, samples: int) -> list[str]:
    try:
        data = json.loads(path.read_text())
        masses = [np.asarray(data[k]).sum(axis=1) for k in ("v1_counts", "v2_counts")]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    problems = []
    for name, mass in zip(("v1", "v2"), masses):
        if mass.shape != (samples,) or np.any(mass != particles):
            problems.append(f"{path.name}: {name} histogram mass != {particles} particles")
    return problems
