"""Flat INI-style run configuration: parsing, validation and digesting.

A config has one section per concern ([model], [initial], [integrator],
[scenario], [ensemble], [compare]); values are plain typed scalars, and
``_KEYS`` holds every key once, as section -> key -> (cast, default), a key
without a default being required. Each builder resolves the file, the
command-line overrides and those defaults into one frozen run record, and
the manifest digest is taken over that record, so every spelling of one run
has one digest. Unknown keys are ignored, except in [ensemble]; a
[DEFAULT] section is an error.
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
    """Read an INI config into {section: {key: string}}; a [DEFAULT] section is an error.
    Every error is a :class:`ConfigError` of one line."""
    # no section can be named "", so [DEFAULT] is read as an ordinary section, not copied into all
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        if parser.has_section(configparser.DEFAULTSECT):
            raise ConfigError("a [DEFAULT] section is not supported; "
                              "write each key in the section that reads it")
        # reading a value interpolates it, which can raise too
        return {section: dict(parser[section]) for section in parser.sections()}
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        # configparser writes the line number and the offending line on lines of
        # their own; the CLI reports an error on one line, so join them
        text = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"cannot parse config: {text}") from exc


def run_digest(record) -> str:
    """SHA-256 of a built run record (a ScenarioConfig, an EnsembleSpec or
    what :func:`build_compare` returns) written as JSON with sorted keys.
    Floats are written by ``repr``, so two records share a digest exactly
    when they hold the same settings."""
    text = json.dumps(record, default=dataclasses.asdict, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sampler(text: str) -> tuple:
    """The sampler spec 'KIND NUMBER...' as (kind, floats...), for
    :class:`EnsembleSpec` to check."""
    kind, *numbers = text.split() or [""]
    return (kind.lower(), *map(float, numbers))


def _eps_list(text: str) -> list[float]:
    eps = [float(s) for s in text.split(",") if s.strip()]
    if not eps or not all(0 < e <= 1 for e in eps):
        raise ValueError(text)
    return eps


# section -> key -> (cast, default); a key without a default is required
_KEYS = {
    "model": {"a1": (float,), "a2": (float,), "a3": (float,), "a4": (float,),
              "omega": (float,), "epsilon": (float,), "n": (int, ModelParams.n),
              "alpha_kind": (str, ModelParams.alpha_kind)},
    "initial": {"t0": (float, IntegratorConfig.t0),
                "q1": (float,), "v1": (float,), "q2": (float,), "v2": (float,)},
    # retired: the method follows from the field; rk45 is accepted, as the
    # benchmark's configs write it, and ignored
    "integrator": {"method": (str, "rk45"),
                   "rtol": (float, IntegratorConfig.rtol),
                   "atol": (float, IntegratorConfig.atol), "sample_dt": (float, 0.25)},
    "scenario": {"horizon": (float,), "label": (str, ScenarioConfig.label)},
    "ensemble": {"count": (int,), "seed": (int, 0),
                 **dict.fromkeys(("q1", "v1", "q2", "v2"), (_sampler, None)),
                 "workers": (str, None)},  # retired: accepted and ignored
    "compare": {"eps_list": (_eps_list, (0.1,)), "window": (float, 1.0),
                "resonance": (str, None)},
}


def _read(cfg: dict, section: str, overrides: dict | None = None) -> dict:
    """Every key of ``section`` in ``_KEYS``, cast: an override that is not
    None wins over the file, and a key given in neither takes its default."""
    given, overrides = cfg.get(section, {}), overrides or {}
    values = {}
    for key, (cast, *default) in _KEYS[section].items():
        raw = overrides.get(key)
        raw = given.get(key) if raw is None else raw
        if raw is None and not default:
            raise ConfigError(f"missing required key [{section}] {key}")
        try:
            values[key] = default[0] if raw is None else cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    return values


def build_params(cfg: dict) -> ModelParams:
    try:
        return ModelParams(**_read(cfg, "model"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_initial(cfg: dict) -> CartesianState:
    """The initial state; its time t0 (default 0) may not precede the start
    of the decay at t = 0."""
    values = _read(cfg, "initial")
    try:
        initial = CartesianState(t=values.pop("t0"), **values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if initial.t < 0.0:
        raise ConfigError(f"[initial] t0 must be >= 0, where the decay starts; got {initial.t!r}")
    return initial


def _integrator(cfg: dict, overrides: dict | None) -> dict:
    """The config's [integrator] settings but its method, a retired key that
    accepts rk45 only and is ignored: the full model runs the Taylor method,
    the averaged fields rk45."""
    values = _read(cfg, "integrator", overrides)
    if values.pop("method") != "rk45":
        raise ConfigError("[integrator] method is retired and accepts only rk45; "
                          "the method follows from the field")
    return values


def build_scenario(cfg: dict, overrides: dict | None = None) -> ScenarioConfig:
    """The run a config describes; an override that is not None wins."""
    params, initial = build_params(cfg), build_initial(cfg)
    scenario = _read(cfg, "scenario", overrides)
    integrator = _integrator(cfg, overrides)
    try:
        grid = IntegratorConfig(t0=initial.t, t_end=initial.t + scenario["horizon"],
                                **integrator)
        return ScenarioConfig(params, initial, grid, label=scenario["label"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_compare(cfg: dict, overrides: dict | None = None):
    """The run of ``compare``: the model of each rung of the epsilon ladder
    (default 0.1), the initial state, and the keyword settings of every rung:
    rtol, atol, the window L of [0, L/epsilon] (default 1) and the averaged
    system, resolved by :func:`symevol.resonance.averaged_system` (so an
    omitted system and omega's default named make one run). It reads no
    [scenario], and the config's own epsilon runs in no rung."""
    params = build_params(cfg)
    settings = _read(cfg, "compare", overrides)
    try:
        resonance = averaged_system(params.omega, settings["resonance"])[0]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    integrator = _integrator(cfg, overrides)
    return (tuple(params.replace(epsilon=eps, delta=None) for eps in settings["eps_list"]),
            build_initial(cfg),
            {"rtol": integrator["rtol"], "atol": integrator["atol"],
             "L": settings["window"], "resonance": resonance})


def build_ensemble(cfg: dict, overrides: dict | None = None) -> EnsembleSpec:
    """The ensemble run a config describes; a key of [ensemble] that
    ``_KEYS`` does not hold, such as a misspelt coordinate, is an error."""
    if "ensemble" not in cfg:
        raise ConfigError("missing [ensemble] section")
    unknown = [key for key in cfg["ensemble"] if key not in _KEYS["ensemble"]]
    if unknown:
        raise ConfigError(f"unknown key [ensemble] {', '.join(unknown)}; "
                          f"known: {', '.join(_KEYS['ensemble'])}")
    values = _read(cfg, "ensemble", overrides)
    samplers = {coord: values[coord] for coord in ("q1", "v1", "q2", "v2")
                if values[coord] is not None}
    try:
        return EnsembleSpec(build_scenario(cfg, overrides), samplers,
                            values["count"], values["seed"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
