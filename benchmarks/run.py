"""symevol benchmark entry point.

    python3 benchmarks/run.py --workload fig1 --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py and README.md) in a worker process of
its own that calls the public CLI in-process, checks every output against a
scipy DOP853 reference and across repeated calls, and prints one JSON line
with ``correct``, ``attempted``, ``failed`` and ``metrics`` last. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from the traced calls. Everything it writes stays under
benchmarks/.work and benchmarks/.cache in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CACHE = HERE / ".cache"

# Set-up is timed in this many fresh processes besides the measuring one.
SETUP_PROBES = 6
# The whole run must end within this many seconds.
DEADLINE_S = 170.0
# Reported times are normalised to a machine on which worker.calibrate()
# takes this long (an Intel Xeon 2-core virtual machine with no neighbour load).
# Neighbours on a shared host slow every process up to twofold for tens of
# seconds; the same calibration loop run next to each measurement cancels
# that, and leaves the figures in seconds on such a quiet machine.
REFERENCE_CAL_S = 0.017

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
# A non-integer value crashes the ensemble's worker resolution; the
# benchmark always runs one worker per workload.
os.environ.pop("SYMEVOL_THREADS", None)


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _worker(spec_path: Path, result_path: Path, extra: list[str], started: float) -> dict:
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchmarkError("out of time before the worker started")
    cmd = [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker did not finish within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
    with open(result_path) as fh:
        return json.load(fh)


def _source_digest() -> str:
    """Digest of the program's source, so cached output digests from one
    version of the program are never compared with another's."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(symevol_version: str) -> dict:
    import numpy
    import scipy

    return {"git_commit": _git_commit(), "symevol": symevol_version,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": _cpu_model()}


def _tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11]


def rescaled(seconds: float, cal: float) -> float:
    """Seconds rescaled to the reference machine speed: seconds * C_REF / cal,
    where cal is the calibration loop's time next to the measurement."""
    return seconds * REFERENCE_CAL_S / cal


def rescaled_walls(calls, mode: str) -> list[float]:
    return [rescaled(c["wall"], c["cal"]) for c in calls if c["mode"] == mode]


def end_to_end(cases, calls, setups, result, errors) -> dict:
    plain = [c for c in calls if c["mode"] == "plain"]
    walls = rescaled_walls(calls, "plain")
    rates = [cases[c["case"]]["model_time"] / wall for c, wall in zip(plain, walls)]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "wall_s_tail": (_tail(walls), "s"),
        "model_time_per_s": (statistics.median(rates), "t/s"),
        "setup_s": (statistics.median([rescaled(s, cal) for s, cal in setups]), "s"),
        # an unreadable output has no finite error, and JSON no infinity
        "max_abs_err": (min(max(errors), sys.float_info.max), "abs"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(calls, result) -> dict:
    traced = [c["layers"] for c in calls if c["mode"] == "traced"]

    def med(fn):
        return statistics.median([fn(t) for t in traced])

    def self_s(layer):
        return med(lambda t: t["self"].get(layer, 0.0))

    def per(num, den, scale=1e6):
        return med(lambda t: scale * num(t) / den(t) if den(t) else 0.0)

    bytes_written = statistics.median([c["bytes"] for c in calls if c["mode"] == "traced"])
    particles = med(lambda t: t["particles"])
    samples = med(lambda t: t["ensemble_samples"])
    return {
        "model.rhs_calls": (med(lambda t: t["rhs_calls"]), "count"),
        "model.rhs_s": (med(lambda t: t["rhs_s"]), "s"),
        "model.rhs_us_per_call": (per(lambda t: t["rhs_s"], lambda t: t["rhs_calls"]), "us"),
        "integrate.calls": (med(lambda t: t["integrate_calls"]), "count"),
        "integrate.steps": (med(lambda t: t["steps"]), "count"),
        "integrate.rejected": (med(lambda t: t["rejected"]), "count"),
        "integrate.accept_ratio": (per(lambda t: t["steps"],
                                       lambda t: t["steps"] + t["rejected"], 1.0), "ratio"),
        "integrate.self_s": (self_s("integrate"), "s"),
        "integrate.us_per_step": (per(lambda t: t["self"].get("integrate", 0.0),
                                      lambda t: t["steps"]), "us"),
        "integrate.dense_samples": (med(lambda t: t["dense_samples"]), "count"),
        "integrate.dense_s": (med(lambda t: t["dense_s"]), "s"),
        "integrate.dense_us_per_sample": (per(lambda t: t["dense_s"],
                                              lambda t: t["dense_samples"]), "us"),
        "experiments.observables_s": (self_s("experiments.observables"), "s"),
        "experiments.reduce_s": (self_s("experiments.reduce"), "s"),
        "experiments.cube_mb": (particles * samples * 4 * 8 / 1e6, "MB"),
        "experiments.alloc_peak_mb": (result["alloc_peak_mb"], "MB"),
        "experiments.particles": (particles, "count"),
        "experiments.particles_failed": (med(lambda t: t["particles_failed"]), "count"),
        "config.load_s": (self_s("config"), "s"),
        "cli.write_s": (self_s("cli.write"), "s"),
        "cli.rows": (med(lambda t: t["rows"]), "count"),
        "cli.bytes": (bytes_written, "bytes"),
        "cli.us_per_row": (per(lambda t: t["self"].get("cli.write", 0.0),
                               lambda t: t["rows"]), "us"),
        "trace.overhead_s": (statistics.median(rescaled_walls(calls, "traced"))
                             - statistics.median(rescaled_walls(calls, "plain")), "s"),
    }


def coverage(calls) -> float:
    """Median share of a traced call's wall time that a named layer's self
    time accounts for (everything but the CLI residue)."""
    shares = []
    for c in calls:
        if c["mode"] == "traced":
            t = c["layers"]
            shares.append(1.0 - t["self"].get("cli", 0.0) / t["wall"])
    return statistics.median(shares)


def _check_determinism(calls, case_keys: list[str]) -> dict[int, str]:
    """Problems per case: every call of a case, traced or not, must leave
    byte-identical data files, and so must earlier runs of the same
    program source on the same case."""
    source = _source_digest()
    seen: dict = {}
    problems: dict[int, str] = {}
    for c in calls:
        if c["code"] != 0:
            continue
        first = seen.setdefault(c["case"], c["hashes"])
        if c["hashes"] != first:
            problems[c["case"]] = f"{c['mode']} call wrote different data files"
    for index, hashes in seen.items():
        path = CACHE / f"digests-{source}-{case_keys[index]}.json"
        if path.is_file():
            if json.loads(path.read_text()) != hashes:
                problems.setdefault(index, "data files differ from an earlier run")
        elif index not in problems:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(hashes))
    return problems


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; the figures mean nothing")
    args = parser.parse_args(argv)
    if args.seed < 0:
        raise BenchmarkError("--seed must be a non-negative integer")
    if not (SRC / "symevol" / "__init__.py").is_file():
        raise BenchmarkError(f"no symevol source under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    table = workloads.TINY if args.tiny else workloads.WORKLOADS
    if args.workload not in table:
        raise BenchmarkError(f"unknown workload {args.workload!r}; know {sorted(table)}")
    wl = table[args.workload]
    tag = f"{wl.name}-s{args.seed}{'-tiny' if args.tiny else ''}"
    workdir = WORK / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cases = workloads.make_cases(wl, args.seed, workdir)
    refs = [workloads.reference(wl, case, CACHE) for case in cases]

    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps({"root": str(ROOT), "workdir": str(workdir),
                                     "cases": cases}))
    setups = []
    for k in range(1 if args.tiny else SETUP_PROBES):
        probe = _worker(spec_path, workdir / f"setup{k}.json", ["--setup-only"], started)
        setups.append((probe["setup_s"], probe["setup_cal"]))
    result = _worker(spec_path, workdir / "result.json",
                     ["--seconds", repr(args.seconds), "--trace", str(args.trace)], started)
    setups.append((result["setup_s"], result["setup_cal"]))
    calls = result["calls"]

    problems: dict[int, list[str]] = {k: [] for k in range(len(cases))}
    errors = []
    for k, (case, ref) in enumerate(zip(cases, refs)):
        found, err = workloads.check_case(wl, case, ref)
        problems[k] += found
        errors.append(err)
    keys = [f"{wl.name}-{workloads.case_key(wl, case)}" for case in cases]
    for k, why in _check_determinism(calls, keys).items():
        problems[k].append(why)
    failed_calls = [c for c in calls
                    if c["code"] != 0 or c["particle_failures"] or problems[c["case"]]]

    if args.trace:
        metrics = per_layer(calls, result)
    else:
        metrics = end_to_end(cases, calls, setups, result, errors)
    plain = [c["wall"] for c in calls if c["mode"] == "plain"]
    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "samples": len(plain), "wall_s_raw": statistics.median(plain),
        "fail_ratio": len(failed_calls) / len(calls),
        "problems": {k: v for k, v in problems.items() if v},
        "call_errors": sorted({c["error"] for c in calls if c["error"]}),
        "max_abs_err_per_case": errors, "setup_samples": [s for s, _ in setups],
        "provenance": provenance(result["symevol_version"]),
    }
    if args.trace:
        detail["trace_coverage"] = coverage(calls)
    (workdir / "record.json").write_text(json.dumps({"detail": detail, "metrics": metrics},
                                                    indent=2))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failed_calls,
        "attempted": len(calls),
        "failed": len(failed_calls),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        sys.exit(1)
