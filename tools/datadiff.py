#!/usr/bin/env python3
"""Rerun one fixed list of commands on two source trees and report which
data files moved.

    python tools/datadiff.py OLD_TREE NEW_TREE

Each command runs as ``python -m symevol ...`` with ``PYTHONPATH=<tree>/src``
in a temporary directory, one output directory per command; its stdout and
exit status are kept there as ``stdout.txt``, its stderr as ``stderr.txt``. Every file is then reported
as ``identical`` or with the largest absolute and relative difference of
the numbers in it. A manifest is compared without ``tool_version`` and
``wall_time_s``. The script exits 1 when a file moved and
``symevol.__version__`` is the same in both trees.

Run both trees on one machine: numpy's SIMD paths may differ across CPUs,
so no golden bytes are stored.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# the 1:3 ladder config of the CI checks; the 1:1 one differs in omega and state
_W3 = """[model]
a1 = 1
a2 = 1
a3 = 0.75
a4 = 1.5
omega = 3
epsilon = 0.1
[initial]
q1 = 0
v1 = 0.5
q2 = 0
v2 = 0.5
[scenario]
horizon = 10
"""
_W1 = (_W3.replace("omega = 3", "omega = 1").replace("q1 = 0\n", "q1 = -0.135\n")
       .replace("v1 = 0.5", "v1 = -0.395").replace("q2 = 0\n", "q2 = 0.129\n")
       .replace("v2 = 0.5", "v2 = 0.427"))

# the benchmark's ensemble workload: 32 particles near the fig1 state
_ENSEMBLE = """[model]
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
v1 = 0.5
q2 = 0
v2 = 0.5

[integrator]
rtol = 1e-10
atol = 1e-12
sample_dt = 0.01

[scenario]
horizon = 3

[ensemble]
count = 32
q1 = fixed 0
v1 = normal 0.5 0.05
q2 = fixed 0
v2 = uniform 0.4 0.6
"""

# twelve particles at epsilon = 0.9, part of which escape and leave the batch
# mid-run by failure (run at --horizon 30)
_ENSEMBLE_FAILING = """[model]
a1 = 1
a2 = 1
a3 = 0.75
a4 = 1.5
omega = 2
epsilon = 0.9
n = 2

[initial]
q1 = 0
v1 = 0.5
q2 = 0
v2 = 0.5

[scenario]
horizon = 5

[integrator]
rtol = 1e-9
atol = 1e-11
sample_dt = 0.5

[ensemble]
count = 12
seed = 42
q1 = uniform 0 3.2
v1 = fixed 0.1
q2 = fixed 0.1
v2 = fixed 0.1
"""

# single runs of the fig1 model off the presets' settings
_SIMULATE = (_ENSEMBLE[:_ENSEMBLE.index("[ensemble]")]
             .replace("sample_dt = 0.01", "sample_dt = 0.25")
             .replace("horizon = 3", "horizon = 50"))

CONFIGS = {"w1.ini": _W1, "w3.ini": _W3, "ens.ini": _ENSEMBLE,
           "ens-fail.ini": _ENSEMBLE_FAILING,
           # the same ensemble under the polynomial decay law
           "ens-poly.ini": _ENSEMBLE.replace("alpha_kind = exponential",
                                             "alpha_kind = polynomial"),
           # a single run under the polynomial decay, and one that starts late
           "sim-poly.ini": _SIMULATE.replace("alpha_kind = exponential",
                                             "alpha_kind = polynomial"),
           "sim-t0.ini": _SIMULATE.replace("t0 = 0", "t0 = 2.5"),
           # a single run that fails: from q1 = 5 it escapes, and the step size
           # underflows before horizon 30 (exit 3, the last good time on stderr)
           "sim-fail.ini": (_SIMULATE.replace("q1 = 0\n", "q1 = 5\n").replace("v1 = 0.5", "v1 = 0.1")
                            .replace("q2 = 0\n", "q2 = 0.1\n").replace("v2 = 0.5", "v2 = 0.1")
                            .replace("horizon = 50", "horizon = 30")),
           # a single run that fails on non-finite values: from q1 = 1e200 the
           # first attempt's coefficients are NaN (exit 3 at t = 0)
           "sim-nonfinite.ini": _SIMULATE.replace("q1 = 0\n", "q1 = 1e200\n")}

# name: arguments after ``python -m symevol``; ``--out`` is added to commands that take it
COMMANDS = {
    "simulate-fig1": ["simulate", "fig1", "--horizon", "100"],
    "simulate-fig1-dense": ["simulate", "fig1", "--horizon", "10", "--sample-dt", "0.001"],
    "simulate-polynomial": ["simulate", "sim-poly.ini"],
    "simulate-t0": ["simulate", "sim-t0.ini"],
    "simulate-failing": ["simulate", "sim-fail.ini"],
    "simulate-nonfinite": ["simulate", "sim-nonfinite.ini"],
    "reproduce-fig1": ["reproduce-figure", "--which", "fig1", "--horizon", "50"],
    "reproduce-fig2": ["reproduce-figure", "--which", "fig2", "--horizon", "50"],
    "compare-11": ["compare", "w1.ini", "--eps-list", "0.1,0.05"],
    "compare-12": ["compare", "fig1", "--eps-list", "0.1,0.05"],
    "compare-12-second": ["compare", "fig1", "--eps-list", "0.1,0.05", "--resonance", "12-second"],
    "compare-13": ["compare", "w3.ini", "--eps-list", "0.1,0.05"],
    "ensemble-seed0": ["ensemble", "ens.ini", "--seed", "0"],
    "ensemble-seed8": ["ensemble", "ens.ini", "--seed", "8"],
    # the largest seed the generator's uint64 key takes
    "ensemble-seed-max": ["ensemble", "ens.ini", "--seed", "18446744073709551615"],
    "ensemble-polynomial": ["ensemble", "ens-poly.ini", "--seed", "0"],
    "ensemble-failing": ["ensemble", "ens-fail.ini", "--horizon", "30"],
    "resonance-1": ["resonance", "--omega", "1"],
    # the 1:1 classification on each threshold of p = a1/(3*a2) (-1/3 twice,
    # 2/15, 2/3) and between them
    **{f"resonance-1-a1={a1},a2={a2}": ["resonance", "--omega", "1", f"--a1={a1}", f"--a2={a2}"]
       for a1, a2 in (("-1", "1"), ("2", "5"), ("2", "1"), ("1", "-1"), ("0", "1"),
                      ("3", "5"), ("3", "2"), ("3", "1"), ("-3", "1"))},
    "resonance-2": ["resonance", "--omega", "2"],
    "resonance-3": ["resonance", "--omega", "3"],
    "order-check": ["order-check"],
}
_NO_OUT = ("resonance", "order-check")

MANIFEST_SKIP = ("tool_version", "wall_time_s")

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf|NaN|Infinity)")


def _numbers(text: str):
    """The numbers of ``text`` and the text between them."""
    return [float(x) for x in _NUMBER.findall(text)], _NUMBER.split(text)


def compare_file(old: Path, new: Path) -> str:
    """``identical``, or how ``new`` differs from ``old``: the largest
    absolute and relative difference of their numbers when only numbers
    differ, else a word on what does."""
    if not old.exists() or not new.exists():
        return "only in new" if new.exists() else "only in old"
    texts = [old.read_text(), new.read_text()]
    if old.name == "manifest.json":
        texts = [json.dumps({k: v for k, v in json.loads(t).items() if k not in MANIFEST_SKIP},
                            indent=2, sort_keys=True) for t in texts]
    if texts[0] == texts[1]:
        return "identical"
    (a, rest_a), (b, rest_b) = (_numbers(t) for t in texts)
    if rest_a != rest_b:
        return "text differs"
    worst_abs = worst_rel = 0.0
    for x, y in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if math.isfinite(x) and math.isfinite(y):
            diff = abs(x - y)
            rel = diff / max(abs(x), abs(y))
        else:  # a non-finite value on one side only, or infinities of opposite sign
            diff = rel = math.inf
        worst_abs = max(worst_abs, diff)
        worst_rel = max(worst_rel, rel)
    return f"max abs diff {worst_abs:.3g}, max rel diff {worst_rel:.3g}"


def report(old_root: Path, new_root: Path):
    """One line per file found under either root, and whether any moved."""
    names = sorted({p.relative_to(root).as_posix() for root in (old_root, new_root)
                    for p in root.rglob("*") if p.is_file()})
    lines = [f"{name}: {compare_file(old_root / name, new_root / name)}" for name in names]
    return lines, any(not line.endswith(": identical") for line in lines)


def _run_tree(tree: Path, root: Path) -> str:
    """Write the configs and run every command on ``tree`` under ``root``;
    returns the tree's ``symevol.__version__``."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    work = root / "work"
    work.mkdir(parents=True)
    for name, text in CONFIGS.items():
        (work / name).write_text(text)
    probe = subprocess.run([sys.executable, "-c", "import symevol; print(symevol.__version__); "
                            "print(symevol.__file__)"], env=env, cwd=work, check=True,
                           capture_output=True, text=True).stdout.split("\n")
    if not Path(probe[1]).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"symevol imports from {probe[1]}, not from {tree}")
    for name, args in COMMANDS.items():
        out = root / "data" / name
        out.mkdir(parents=True)
        argv = [sys.executable, "-m", "symevol", *args]
        if args[0] not in _NO_OUT:
            argv += ["--out", str(out)]
        run = subprocess.run(argv, env=env, cwd=work, capture_output=True, text=True)
        (out / "stdout.txt").write_text(f"{run.stdout}[exit status {run.returncode}]\n")
        (out / "stderr.txt").write_text(run.stderr)
    return probe[0]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (Path(a) for a in args)
    with tempfile.TemporaryDirectory() as tmp:
        versions = [_run_tree(tree, Path(tmp) / label) for tree, label in ((old, "old"),
                                                                          (new, "new"))]
        lines, moved = report(Path(tmp) / "old" / "data", Path(tmp) / "new" / "data")
    print("\n".join(lines))
    print(f"symevol version {versions[0]} -> {versions[1]}")
    if moved and versions[0] == versions[1]:
        print("data moved without a version change", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
