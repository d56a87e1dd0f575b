"""The workload's own process: imports symevol from the checkout, times its
set-up, then calls ``symevol.cli.main`` in-process over and over.

    python3 benchmarks/worker.py SPEC RESULT [--seconds S] [--trace 0|1] [--setup-only]

SPEC is the JSON case list written by run.py; the result goes to RESULT as
JSON. With --trace 1 untraced and traced calls alternate, so the tracing
overhead is measured on the same process, and one last call runs under
tracemalloc for the peak of traced allocations.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

clock = time.perf_counter

# A run measures at least this many calls, so that the highest percentile
# with ten samples beyond it exists.
MIN_CALLS = 11


# Dormand-Prince 5(4) nodes and stage weights, for the calibration loop.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = ((), (1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
      (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))


def calibrate(steps: int = 300) -> float:
    """Seconds taken by a fixed loop of explicit Runge-Kutta steps of a
    cubic oscillator on 4-element numpy arrays: code of the same kind as
    the program's stepper, but part of the benchmark and never changed
    with the program.

    Run next to each measurement it reads the machine's momentary speed,
    by which run.py rescales the measurement.
    """
    import math

    import numpy as np

    tableau = [np.array(row) for row in _A]

    def f(t, y):
        q1, v1, q2, v2 = float(y[0]), float(y[1]), float(y[2]), float(y[3])
        decay = math.exp(-0.01 * t)
        return np.array([v1, -q1 + 0.1 * (q1 * q1 + q2 * q2) + 0.3 * decay * q1 * q2,
                         v2, -4.0 * q2 + 0.2 * q1 * q2
                         + 0.1 * decay * (0.75 * q2 * q2 + 1.5 * q1 * q1)])

    y = np.array([0.0, 0.5, 0.0, 0.5])
    k = np.empty((7, 4))
    t, h = 0.0, 0.01
    start = clock()
    for _ in range(steps):
        k[0] = f(t, y)
        for s in range(1, 7):
            ys = y + h * (tableau[s] @ k[:s])
            if not np.all(np.isfinite(ys)):
                raise FloatingPointError("calibration loop diverged")
            k[s] = f(t + _C[s] * h, ys)
        scale = 1e-12 + 1e-10 * np.maximum(np.abs(y), np.abs(ys))
        math.sqrt(float(np.mean((h * (k[6] - k[0]) / scale) ** 2)))
        y = ys
        t += h
    return clock() - start


def _setup(spec: dict) -> float:
    """Import, config load and scenario build: what the CLI does before it
    first integrates. Returns the seconds taken."""
    t0 = clock()
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import symevol.cli  # noqa: F401  (the import is what is timed)
    from symevol import config

    loaded = os.path.realpath(symevol.cli.__file__)
    if not loaded.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"symevol was imported from {loaded}, not from the checkout")
    case = spec["cases"][0]
    cfg = config.load_config(config.resolve_config_path(case["config"]))
    build = config.build_ensemble if case["kind"] == "ensemble" else config.build_scenario
    build(cfg, dict(case["overrides"]))
    return clock() - t0


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _call(cli, case: dict) -> tuple[int, float, str]:
    """One CLI invocation; returns (exit code, wall seconds, error text)."""
    error = ""
    start = clock()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(case["argv"]))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed call, not a failed benchmark
        code, error = 1, f"{type(exc).__name__}: {exc}"
    return code, clock() - start, error


def _outputs(case: dict) -> dict:
    """Digests of the data files, bytes of every file written, and the
    particle failures an ensemble reports in its manifest."""
    out = case["out"]
    record = {"hashes": {}, "bytes": 0, "particle_failures": 0}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        path = os.path.join(out, name)
        record["bytes"] += os.path.getsize(path)
        if name in case["data_files"]:
            record["hashes"][name] = _digest(path)
    try:
        with open(os.path.join(out, "manifest.json")) as fh:
            record["particle_failures"] = int(json.load(fh).get("failures", 0))
    except (OSError, ValueError):
        pass
    return record


def _peak_rss_mb() -> float:
    """High-water RSS of this process. ru_maxrss is not used: Linux carries
    the parent's high-water mark across fork and exec into it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(spec: dict, seconds: float, trace: bool, first_cal: float) -> dict:
    import symevol.cli as cli
    from tracer import Tracer, op_layers

    cases = spec["cases"]
    tracer = Tracer()
    calls = []
    speed = [first_cal]

    def call(index: int, mode: str):
        case = cases[index % len(cases)]
        root = None
        if mode == "traced":
            tracer.install()
            root = tracer.open("cli", "cli.main", op=len(calls))
        try:
            code, wall, error = _call(cli, case)
        finally:
            if root is not None:
                tracer.close(root)
                tracer.uninstall()
        speed.append(calibrate())
        record = {"case": index % len(cases), "mode": mode, "wall": wall, "code": code,
                  "error": error, "cal": (speed[-2] + speed[-1]) / 2, **_outputs(case)}
        if root is not None:
            record["layers"] = op_layers(tracer.spans, root["op"])
        calls.append(record)

    call(0, "warmup")
    deadline = clock() + seconds
    i = 0
    while i < MIN_CALLS or clock() < deadline:
        call(i, "plain")
        if trace:
            call(i, "traced")
        i += 1
    peak_rss_mb = _peak_rss_mb()
    alloc_peak_mb = None
    if trace:
        import tracemalloc

        tracemalloc.start()
        try:
            call(0, "tracemalloc")
            alloc_peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        tracer.write(os.path.join(spec["workdir"], "spans.json"))
    return {"calls": calls, "calibration": speed, "peak_rss_mb": peak_rss_mb,
            "alloc_peak_mb": alloc_peak_mb, "symevol_version": cli.__version__}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("spec")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    with open(args.spec) as fh:
        spec = json.load(fh)
    try:
        setup_s = _setup(spec)
    except ImportError as exc:
        print(f"worker: cannot import symevol: {exc}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s, "setup_cal": calibrate()}
    if not args.setup_only:
        result.update(run(spec, args.seconds, bool(args.trace), result["setup_cal"]))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
