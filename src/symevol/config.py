"""Flat INI-style run configuration: parsing, validation and digesting.

A config has one section per concern ([model], [initial], [integrator],
[scenario], [ensemble], [compare]); values are plain typed scalars. Each
builder resolves the file, the command-line overrides and the defaults into
one frozen run record, and the manifest digest is taken over that record, so
every spelling of one run has one digest.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
from importlib import resources
from pathlib import Path

from .experiments import EnsembleSpec, ScenarioConfig
from .integrate import IntegratorConfig
from .model import CartesianState, ModelParams
from .resonance import averaged_system

__all__ = ["ConfigError", "PRESETS", "preset_path", "load_config", "resolve_config_path",
           "run_digest", "build_params", "build_initial",
           "build_scenario", "build_ensemble", "build_compare"]

PRESETS = ("fig1", "fig2")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def preset_path(name: str) -> Path:
    """Path of the bundled preset ``name`` (fig1, fig2)."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; known: {', '.join(PRESETS)}")
    return Path(str(resources.files("symevol").joinpath(f"presets/{name}.ini")))


def resolve_config_path(name_or_path: str) -> Path:
    """Resolve a user-supplied config argument: a real file wins, otherwise
    a bundled preset name (fig1, fig2)."""
    p = Path(name_or_path)
    if p.is_file():
        return p
    if name_or_path in PRESETS:
        return preset_path(name_or_path)
    raise ConfigError(f"config file not found: {name_or_path}")


def load_config(path) -> dict:
    """Read an INI config into {section: {key: string}}."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    return {section: dict(parser[section]) for section in parser.sections()}


def run_digest(record) -> str:
    """SHA-256 of a built run record (a ScenarioConfig, an EnsembleSpec or
    what :func:`build_compare` returns) written as JSON with sorted keys.
    Floats are written by ``repr``, so two records share a digest exactly
    when they hold the same settings."""
    text = json.dumps(record, default=dataclasses.asdict, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_REQUIRED = object()


def _get(cfg: dict, section: str, key: str, cast, default=_REQUIRED, override=None):
    try:
        raw = cfg[section][key] if override is None else override
    except KeyError:
        if default is not _REQUIRED:
            return default
        raise ConfigError(f"missing required key [{section}] {key}") from None
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def build_params(cfg: dict) -> ModelParams:
    try:
        return ModelParams(
            a1=_get(cfg, "model", "a1", float),
            a2=_get(cfg, "model", "a2", float),
            a3=_get(cfg, "model", "a3", float),
            a4=_get(cfg, "model", "a4", float),
            omega=_get(cfg, "model", "omega", float),
            epsilon=_get(cfg, "model", "epsilon", float),
            n=_get(cfg, "model", "n", int, default=2),
            alpha_kind=_get(cfg, "model", "alpha_kind", str, default="exponential"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_initial(cfg: dict) -> CartesianState:
    """The initial state; its time t0 (default 0) may not precede the start
    of the decay at t = 0."""
    try:
        initial = CartesianState(
            t=_get(cfg, "initial", "t0", float, default=0.0),
            q1=_get(cfg, "initial", "q1", float),
            v1=_get(cfg, "initial", "v1", float),
            q2=_get(cfg, "initial", "q2", float),
            v2=_get(cfg, "initial", "v2", float),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if initial.t < 0.0:
        raise ConfigError(f"[initial] t0 must be >= 0, where the decay starts; got {initial.t!r}")
    return initial


def _tolerances(cfg: dict, overrides: dict) -> dict:
    """rtol and atol of the config's integrator, which must be rk45."""
    if _get(cfg, "integrator", "method", str, default="rk45") != "rk45":
        raise ConfigError("[integrator] method must be rk45, the only method that runs")
    return {name: _get(cfg, "integrator", name, float, getattr(IntegratorConfig, name),
                       overrides.get(name)) for name in ("rtol", "atol")}


def build_scenario(cfg: dict, overrides: dict | None = None) -> ScenarioConfig:
    """The run a config describes; an override that is not None wins."""
    overrides = overrides or {}
    params = build_params(cfg)
    initial = build_initial(cfg)
    horizon = _get(cfg, "scenario", "horizon", float, override=overrides.get("horizon"))
    try:
        grid = IntegratorConfig(
            t0=initial.t,
            t_end=initial.t + horizon,
            **_tolerances(cfg, overrides),
            sample_dt=_get(cfg, "integrator", "sample_dt", float, 0.25, overrides.get("sample_dt")),
        )
        return ScenarioConfig(params, initial, grid,
                              label=_get(cfg, "scenario", "label", str, default=""))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _split_sampler(coord: str, raw: str) -> tuple:
    """The sampler spec 'KIND NUMBER...' of coord as (kind, floats...), for
    :class:`EnsembleSpec` to check."""
    kind, *numbers = raw.split() or [""]
    try:
        return (kind.lower(), *map(float, numbers))
    except ValueError:
        raise ConfigError(f"bad sampler spec {raw!r} for {coord} "
                          "(want a kind and numbers)") from None


def _eps_list(text: str) -> list[float]:
    eps = [float(s) for s in text.split(",") if s.strip()]
    if not eps or not all(0 < e <= 1 for e in eps):
        raise ValueError(text)
    return eps


def build_compare(cfg: dict, overrides: dict | None = None):
    """The run of ``compare``: the model of each rung of the epsilon ladder
    (default 0.1), the initial state, and the keyword settings of every rung:
    rtol, atol, the window L of [0, L/epsilon] (default 1) and the averaged
    system, resolved by :func:`symevol.resonance.averaged_system` (so an
    omitted system and omega's default named make one run). It reads no
    [scenario], and the config's own epsilon runs in no rung."""
    overrides = overrides or {}
    params = build_params(cfg)
    eps_list = _get(cfg, "compare", "eps_list", _eps_list, [0.1], overrides.get("eps_list"))
    resonance = _get(cfg, "compare", "resonance", str, None, overrides.get("resonance"))
    try:
        resonance = averaged_system(params.omega, resonance)[0]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return (tuple(params.replace(epsilon=eps, delta=None) for eps in eps_list),
            build_initial(cfg),
            {**_tolerances(cfg, overrides),
             "L": _get(cfg, "compare", "window", float, 1.0, overrides.get("window")),
             "resonance": resonance})


def build_ensemble(cfg: dict, overrides: dict | None = None) -> EnsembleSpec:
    overrides = overrides or {}
    if "ensemble" not in cfg:
        raise ConfigError("missing [ensemble] section")
    samplers = {coord: _split_sampler(coord, cfg["ensemble"][coord])
                for coord in ("q1", "v1", "q2", "v2") if coord in cfg["ensemble"]}
    try:
        return EnsembleSpec(
            scenario=build_scenario(cfg, overrides),
            samplers=samplers,
            count=_get(cfg, "ensemble", "count", int),
            seed=_get(cfg, "ensemble", "seed", int, 0, overrides.get("seed")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
