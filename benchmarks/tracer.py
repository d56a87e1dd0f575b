"""Spans and counters at the module boundaries of symevol.

The tracer rebinds, for the length of one traced CLI call, the names that
the calling modules look up at call time (for example ``run_scenario`` in
``symevol.cli`` or ``full_rhs`` in ``symevol.experiments``); the program's
source is never changed and :meth:`Tracer.uninstall` restores every
original binding. Coarse calls get a span each, with its parent; the RHS
and the Hermite fill run hundreds of thousands of times and only get
counters and summed time. Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.perf_counter

# (module, global name, layer) of each traced call. ``symevol/__init__``
# re-exports the function ``integrate``, so that module is reached through
# sys.modules rather than as an attribute of the package.
SPANNED = [
    ("symevol.cli", "resolve_config_path", "config"),
    ("symevol.cli", "load_config", "config"),
    ("symevol.cli", "build_scenario", "config"),
    ("symevol.cli", "build_ensemble", "config"),
    ("symevol.cli", "config_digest", "config"),
    ("symevol.cli", "run_scenario", "experiments.observables"),
    ("symevol.cli", "run_ensemble", "experiments.reduce"),
    ("symevol.experiments", "integrate", "integrate"),
    ("symevol.cli", "_write_csv", "cli.write"),
    ("symevol.cli", "_write_manifest", "cli.write"),
]
RHS = ("symevol.experiments", "full_rhs")
DENSE = ("symevol.integrate", "_hermite_fill")
JSON = ("symevol.cli", "json")


class _JsonProxy:
    """Stands in for the ``json`` module inside ``symevol.cli`` so that
    serialising the JSON outputs is timed; everything else passes through."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """Records spans and counters for the CLI calls it is installed around."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: list[tuple] = []
        # [count, seconds]: RHS calls, and samples the Hermite fill wrote
        self.rhs = [0, 0.0]
        self.dense = [0, 0.0]

    # -- installation -----------------------------------------------------

    def install(self):
        for module_name, name, layer in SPANNED:
            self._rebind(module_name, name, lambda fn, n=name, l=layer: self._spanned(l, n, fn))
        self._rebind(*RHS, self._counted_rhs)
        self._rebind(*DENSE, self._counted_dense)
        self._rebind(*JSON, lambda mod: _JsonProxy(self._spanned("cli.write", "json.dumps",
                                                                  mod.dumps)))

    def uninstall(self):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _rebind(self, module_name, name, make):
        module = sys.modules.get(module_name)
        original = getattr(module, name, None)
        if original is None:
            return
        self._saved.append((module, name, original))
        setattr(module, name, make(original))

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, layer, name, fn):
        def wrapper(*args, **kwargs):
            span = self.open(layer, name)
            try:
                result = fn(*args, **kwargs)
                _annotate(span, name, args, result)
                return result
            finally:
                self.close(span)
        return wrapper

    def _counted_rhs(self, fn):
        acc = self.rhs

        def rhs(*args, **kwargs):
            t = clock()
            result = fn(*args, **kwargs)
            acc[1] += clock() - t
            acc[0] += 1
            return result
        return rhs

    def _counted_dense(self, fn):
        acc = self.dense

        def fill(*args, **kwargs):
            t = clock()
            result = fn(*args, **kwargs)
            acc[1] += clock() - t
            # _hermite_fill(out, ts, idx, ...) returns the next sample index
            if isinstance(result, int) and len(args) > 2 and isinstance(args[2], int):
                acc[0] += result - args[2]
            return result
        return fill

    # -- spans -------------------------------------------------------------

    def open(self, layer: str, name: str, op: int | None = None) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {"id": len(self.spans), "parent": parent["id"] if parent else None,
                "op": op if parent is None else parent["op"], "layer": layer,
                "name": name, "start": clock(), "end": None,
                "rhs": list(self.rhs), "dense": list(self.dense)}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict):
        span["end"] = clock()
        for name, now in (("rhs", self.rhs), ("dense", self.dense)):
            span[name] = [n - then for n, then in zip(now, span[name])]
        self._stack.pop()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _annotate(span, name, args, result):
    if name == "integrate":
        stats = getattr(result, "stats", None) or {}
        span["steps"] = int(stats.get("accepted", 0))
        span["rejected"] = int(stats.get("rejected", 0))
    elif name == "run_ensemble":
        span["particles"] = int(getattr(args[0], "count", 0))
        span["particles_failed"] = len(getattr(result, "failures", ()))
        span["samples"] = len(getattr(result, "times", ()))
    elif name == "_write_csv" and len(args) > 2 and args[2]:
        span["rows"] = len(args[2][0])


def op_layers(spans: list[dict], op: int) -> dict:
    """Self time per layer of one traced CLI call, plus its counts.

    A span's self time is its duration minus its children's durations and
    minus the RHS and Hermite-fill time counted inside it but outside them.
    The root span's self time is the CLI work no other layer accounts for.
    """
    mine = [s for s in spans if s["op"] == op]
    children: dict = {}
    for s in mine:
        children.setdefault(s["parent"], []).append(s)
    layers: dict = {}
    for s in mine:
        kids = children.get(s["id"], [])
        duration = s["end"] - s["start"]
        counted = sum(s[c][1] - sum(k[c][1] for k in kids) for c in ("rhs", "dense"))
        own = duration - sum(k["end"] - k["start"] for k in kids) - counted
        layers[s["layer"]] = layers.get(s["layer"], 0.0) + own
    root = next(s for s in mine if s["parent"] is None)
    integrates = [s for s in mine if s["name"] == "integrate"]
    ensembles = [s for s in mine if s["name"] == "run_ensemble"]
    return {
        "wall": root["end"] - root["start"],
        "self": layers,
        "rhs_calls": root["rhs"][0],
        "rhs_s": root["rhs"][1],
        "dense_samples": root["dense"][0],
        "dense_s": root["dense"][1],
        "integrate_calls": len(integrates),
        # a call that raised has no annotations
        "steps": sum(s.get("steps", 0) for s in integrates),
        "rejected": sum(s.get("rejected", 0) for s in integrates),
        "particles": sum(s.get("particles", 0) for s in ensembles),
        "particles_failed": sum(s.get("particles_failed", 0) for s in ensembles),
        "ensemble_samples": sum(s.get("samples", 0) for s in ensembles),
        "rows": sum(s.get("rows", 0) for s in mine),
    }
