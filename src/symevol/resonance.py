"""Per-resonance knowledge, resonance-manifold location and
normal-mode/periodic-orbit stability.

:data:`RESONANCES` holds one record per tabulated omega (1:1, 1:2, 1:3);
every omega-dependent choice in the package reads it.

Amplitude-ratio conditions are linear in (r1^2, r2^2), so manifolds have
closed-form ratios; integer or Fraction coefficients are propagated exactly.
The 1:1 classification follows the parameter a1/(3*a2); a numerical
verifier integrates the averaged 1:1 flow to cross-check each verdict.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .averaged import (AVG11, AVG12_FIRST, AVG12_SECOND, AVG13, _chi3_paper_coeffs,
                       _exact_or_float, _phase_drifts_11, _phase_drifts_12,
                       polar_to_slow_cart, slow_cart_amplitudes)
from .integrate import IntegratorConfig, integrate
from .model import ModelParams
from .transforms import mode_actions, wrap_angle

__all__ = [
    "Resonance",
    "RESONANCES",
    "SYSTEM_OMEGA",
    "resonance_for",
    "averaged_system",
    "cartesian_invariant",
    "combination_angle",
    "ResonanceManifold",
    "StabilityReport",
    "locate_12_first",
    "locate_12_second",
    "locate_13",
    "classify_11",
    "verify_stability_numerically",
]


@dataclass(frozen=True)
class ResonanceManifold:
    """Location and asymptotic size/timescale of a resonance manifold.

    ``amplitude_ratio`` is r1^2/r2^2 (exact Fraction when the inputs were
    exact), or None when no manifold exists. ``size_order`` and
    ``timescale_order`` are the exponents k, m in width O(eps^k) and
    interaction time 1/eps^m.
    """

    resonance: str
    exists: bool
    amplitude_ratio: object | None
    angles: tuple
    size_order: int
    timescale_order: int
    angle_stability: dict | None = None
    degenerate: bool = False
    r1_sq: float | None = None
    r2_sq: float | None = None


@dataclass(frozen=True)
class StabilityReport:
    """Existence/stability of a 1:1 normal mode or periodic solution.

    ``stable`` is True, False, ``"boundary"`` at an interval endpoint, or
    None when the solution does not exist. ``parameter`` is a1/(3*a2).
    """

    mode: str
    exists: bool
    stable: object
    parameter: float
    a1: float
    a2: float


def locate_12_first(E0) -> ResonanceManifold:
    """First-order 1:2 manifold: chi in {0, pi} with r1^2 = 8*r2^2.

    On the surface r1^2/2 + 2*r2^2 = E0 this fixes r2^2 = E0/6. The
    manifold is a family of constant-amplitude solutions (width exponent 0)
    interacting on times of order 1/eps.
    """
    if E0 < 0:
        raise ValueError("E0 must be non-negative")
    if E0 == 0:
        return ResonanceManifold("1:2 first order", False, None, (0.0, math.pi), 0, 1,
                                 r1_sq=0.0, r2_sq=0.0)
    ratio, e0 = _exact_or_float(8, E0)
    r2_sq = e0 / 6
    return ResonanceManifold("1:2 first order", True, ratio, (0.0, math.pi), 0, 1,
                             r1_sq=8 * r2_sq, r2_sq=r2_sq)


def _drift_zero(c_u, c_w):
    """Where the drift c_u*r1^2 + c_w*r2^2 vanishes at positive amplitudes:
    (r1^2/r2^2 or None, degenerate). A ratio needs coefficients of opposite
    sign; both zero is the degenerate drift. Fractions stay exact."""
    if c_u == 0 and c_w == 0:
        return None, True
    if c_u != 0 and c_w != 0 and (c_u > 0) != (c_w > 0):
        return -c_w / c_u, False
    return None, False


def _chi2_coeffs(a1, a2):
    """(c_u, c_w) of the chi2 drift eps^2*(c_u*r1^2 + c_w*r2^2) of the
    second-order 1:2 field at alpha = 0; exact for integer or Fraction coefficients."""
    m1, m2 = RESONANCES[2.0].angles["chi2"]
    a1, a2, zero = _exact_or_float(a1, a2, 0)
    drifts = (_phase_drifts_12(u, w, zero, a1, a2, zero, zero) for u, w in ((1, zero), (zero, 1)))
    return tuple(-(m1 * phi1 + m2 * phi2) for phi1, phi2 in drifts)


def locate_12_second(a1, a2) -> ResonanceManifold:
    """Second-order 1:2 manifold from the zero of the chi2 drift.

    The drift is c_u*r1^2 + c_w*r2^2, so a manifold needs coefficients of
    opposite sign; chi2 = 0 hosts stable resonant periodic orbits, chi2 = pi
    unstable ones. Width O(eps), interaction time 1/eps^3.
    """
    ratio, degenerate = _drift_zero(*_chi2_coeffs(a1, a2))
    return ResonanceManifold("1:2 second order", ratio is not None, ratio, (0.0, math.pi), 1, 3,
                             angle_stability={0.0: "stable", math.pi: "unstable"},
                             degenerate=degenerate)


def locate_13(a1, a2) -> ResonanceManifold:
    """1:3 manifold from the zero of the chi3 drift, chi3 in {0, pi}.

    The drift is the paper's reading -eps^2*(c_u*r1^2 - c_w*r2^2)
    (:func:`symevol.averaged._chi3_paper_coeffs`), not a view of the 1:3 field; a
    positive ratio needs both coefficients non-zero with equal sign. Width
    O(eps^2), interaction time 1/eps^4.
    """
    c_u, c_w = _chi3_paper_coeffs(a1, a2)
    ratio, degenerate = _drift_zero(-c_u, c_w)
    return ResonanceManifold("1:3", ratio is not None, ratio, (0.0, math.pi), 2, 4,
                             degenerate=degenerate)


def _to_float(x) -> float:
    """float(x) of an exact (or float) value; ValueError when a non-zero x
    lands below the smallest normal float, where a float keeps too few
    correct digits (or none), as float() itself raises OverflowError beyond
    the float range."""
    f = float(x)
    if abs(f) < sys.float_info.min and x != 0:
        raise ValueError("a non-zero value underflows a float "
                         f"(below {sys.float_info.min:.3g} in magnitude)")
    return f


# The 1:1 classification in the parameter p = a1/(3*a2), one row per
# solution: (mode, the p it exists below or None when it always exists, open
# intervals of p, whether it is stable inside them or outside them). A
# threshold and an interval end are flagged "boundary".
_MODES_11 = (
    ("q1-normal-mode", None,
     ((Fraction(-1, 3), Fraction(2, 15)), (Fraction(1, 3), Fraction(2, 3))), False),
    ("q2-normal-mode", None, ((Fraction(-1, 3), Fraction(1, 3)),), False),
    ("in-phase", Fraction(2, 3), ((Fraction(-1, 3), Fraction(2, 3)),), True),
    ("out-of-phase", Fraction(2, 15), (), False),
)

_BOUNDARY_TOL = 1e-9


def _near(p, value) -> bool:
    if isinstance(p, Fraction):
        return p == value
    return abs(p - float(value)) <= _BOUNDARY_TOL


def _interval_state(p, intervals):
    """'inside', 'outside' or 'boundary' for open intervals of p."""
    for lo, hi in intervals:
        if _near(p, lo) or _near(p, hi):
            return "boundary"
    for lo, hi in intervals:
        if float(lo) < float(p) < float(hi):
            return "inside"
    return "outside"


def classify_11(a1, a2) -> list[StabilityReport]:
    """Stability table of the symmetric 1:1 system at parameter p = a1/(3*a2).

    One report per row of :data:`_MODES_11`, the classification of the
    averaged 1:1 flow: the q1 and q2 normal modes always exist; in-phase
    (chi = 0, pi) and out-of-phase (chi = +-pi/2) periodic solutions exist
    only below a threshold of p. p is exact for integer or Fraction
    coefficients.
    """
    if a2 == 0:
        raise ValueError("classification undefined for a2 = 0 (parameter a1/(3*a2))")
    a1x, a2x = _exact_or_float(a1, a2)
    p = a1x / (3 * a2x)
    a1f, a2f, pf = _to_float(a1), _to_float(a2), _to_float(p)
    reports = []
    for mode, exists_below, intervals, stable_inside in _MODES_11:
        if exists_below is not None and _near(p, exists_below):
            stable = "boundary"
        elif exists_below is not None and not float(p) < float(exists_below):
            stable = None
        else:
            state = _interval_state(p, intervals)
            stable = "boundary" if state == "boundary" else (state == "inside") == stable_inside
        reports.append(StabilityReport(mode, stable is not None, stable, pf, a1f, a2f))
    return reports


def _orbit_ratio(params, cos2chi):
    """r1^2/r2^2 of the constant-amplitude symmetric 1:1 solutions at
    cos(2*chi) = +-1, or None: the zero of the chi drift, which is linear in
    (r1^2, r2^2), here without its factor eps^2."""
    def chi_drift(u, w):
        m1, m2 = RESONANCES[1.0].angles["chi11"]
        phi1, phi2, k = _phase_drifts_11(u, w, 0.0, params.a1, params.a2, params.a3, params.a4)
        return -(m1 * phi1 + m2 * phi2) + k * (w - u) * cos2chi

    return _drift_zero(chi_drift(1.0, 0.0), chi_drift(0.0, 1.0))[0]


def _integrate_avg11(y0_polar, params, horizon):
    """The averaged 1:1 flow from polar data, run in the regular chart."""
    cfg = IntegratorConfig(t_end=horizon, sample_dt=horizon / 2000.0, rtol=1e-8, atol=1e-10)
    return integrate(AVG11.at(params), polar_to_slow_cart(y0_polar), cfg)


_GROWN = 30.0
_BOUNDED = 10.0
_PERTURBATION = 1e-3


def _growth_verdict(growth, claim_stable):
    if claim_stable == "boundary" or claim_stable is None:
        return "indeterminate"
    if claim_stable:
        if growth < _BOUNDED:
            return "consistent"
        if growth > _GROWN:
            return "inconsistent"
    else:
        if growth > _GROWN:
            return "consistent"
        if growth < _BOUNDED:
            return "inconsistent"
    return "indeterminate"


def verify_stability_numerically(report: StabilityReport, E0: float, epsilon: float) -> str:
    """Cross-check a 1:1 stability claim by integrating the averaged flow.

    Seeds the mode/orbit with a relative perturbation of 1e-3 and follows
    the symmetric averaged system over 50/(epsilon^2 * E0) time units;
    returns "consistent", "inconsistent" or "indeterminate" (the latter also
    for boundary claims). E0 and epsilon must be positive, else ValueError.
    """
    if E0 <= 0.0:
        raise ValueError("need E0 > 0")
    if epsilon <= 0.0:
        raise ValueError("need epsilon > 0")
    params = ModelParams(report.a1, report.a2, 0.0, 0.0, omega=1.0,
                         epsilon=epsilon, n=2)
    radius = math.sqrt(2.0 * E0)
    horizon = 50.0 / (epsilon**2 * E0)
    chi0 = 0.7  # generic angle, away from the sin(2*chi) zeros

    if report.mode in ("q1-normal-mode", "q2-normal-mode"):
        seed = _PERTURBATION * radius
        big = math.sqrt(2.0 * E0 - seed * seed)
        if report.mode == "q1-normal-mode":
            y0 = np.array([big, chi0, seed, 0.0, 0.0])
        else:
            y0 = np.array([seed, chi0, big, 0.0, 0.0])
        r1, r2 = slow_cart_amplitudes(_integrate_avg11(y0, params, horizon).states)
        small = r2 if report.mode == "q1-normal-mode" else r1
        growth = float(np.max(small)) / seed
        return _growth_verdict(growth, report.stable)

    cos2chi = 1.0 if report.mode == "in-phase" else -1.0
    chi_star = 0.0 if report.mode == "in-phase" else 0.5 * math.pi
    ratio = _orbit_ratio(params, cos2chi)
    found = ratio is not None and ratio > 0.0
    if not report.exists:
        return "consistent" if not found else "inconsistent"
    if not found:
        return "inconsistent"
    r2_star = math.sqrt(2.0 * E0 / (1.0 + ratio))
    r1_star = math.sqrt(2.0 * E0 * ratio / (1.0 + ratio))
    r1 = r1_star * (1.0 + _PERTURBATION)
    r2 = math.sqrt(max(2.0 * E0 - r1 * r1, 1e-12 * E0))
    y0 = np.array([r1, chi_star + _PERTURBATION, r2, 0.0, 0.0])
    x1, y1, x2, y2 = _integrate_avg11(y0, params, horizon).states[:, :4].T
    dr = (np.hypot(x1, y1) - r1_star) / radius
    chi = combination_angle("chi11", np.arctan2(y1, x1), np.arctan2(y2, x2))
    dchi = wrap_angle(chi - chi_star)
    dev = np.hypot(dr, dchi)
    growth = float(np.max(dev) / max(dev[0], 1e-300))
    return _growth_verdict(growth, report.stable)


# --------------------------------------------------------------------------
# Resonance table
# --------------------------------------------------------------------------

def _manifold_json(m: ResonanceManifold, **extra) -> dict:
    ratio = "none"
    if m.exists:
        ratio = {"value": _to_float(m.amplitude_ratio)}
        if isinstance(m.amplitude_ratio, Fraction):
            ratio["exact"] = f"{m.amplitude_ratio.numerator}/{m.amplitude_ratio.denominator}"
    return {"ratio": ratio, "angles": list(m.angles), "size_order": m.size_order,
            "timescale_order": m.timescale_order, **extra}


def _report_11(a1, a2, e0) -> dict:
    return {"classification": [{"mode": r.mode, "exists": r.exists, "stable": r.stable,
                                "parameter": r.parameter} for r in classify_11(a1, a2)]}


def _report_12(a1, a2, e0) -> dict:
    first = locate_12_first(e0)
    second = locate_12_second(a1, a2)
    stability = {f"{k:g}": v for k, v in (second.angle_stability or {}).items()}
    return {"first_order": _manifold_json(first, r1_sq=_to_float(first.r1_sq),
                                          r2_sq=_to_float(first.r2_sq)),
            "second_order": _manifold_json(second, angle_stability=stability)}


def _report_13(a1, a2, e0) -> dict:
    return {"resonance_13": _manifold_json(locate_13(a1, a2))}


def _energy(states, p: ModelParams):
    """E0, the sum of the mode actions."""
    return sum(mode_actions(states, p.omega))


def _i3_12(states, p: ModelParams):
    """I3 = a4*r1^2*r2*cos(chi12) of the first-order 1:2 flow."""
    q1, v1, q2, v2 = np.moveaxis(np.asarray(states, dtype=float), -1, 0)
    return p.a4 * ((q1 * q1 - v1 * v1) * q2 + q1 * v1 * v2)


def _i3_11(states, p: ModelParams):
    """The Hamiltonian of avg11_cart at alpha = 0 without its eps^2,
    k*r1^2*r2^2*cos(2*chi11) - (r1^2*phi1 + r2^2*phi2)/2 with the 1:1 drifts;
    k multiplies rather than divides, so the invariant is defined at k = 0."""
    q1, v1, q2, v2 = np.moveaxis(np.asarray(states, dtype=float), -1, 0)
    u, w = q1 * q1 + v1 * v1, q2 * q2 + v2 * v2
    phi1, phi2, k = _phase_drifts_11(u, w, 0.0, p.a1, p.a2, 0.0, 0.0)
    return k * ((q1 * q2 + v1 * v2) ** 2 - (q1 * v2 - v1 * q2) ** 2) - (u * phi1 + w * phi2) / 2


@dataclass(frozen=True)
class Resonance:
    """What the package knows about one resonance omega:1.

    ``systems`` maps each averaged-system name to the
    :class:`symevol.model.Equations` text of its field in the regular
    slow-Cartesian chart; ``invariants`` each adiabatic invariant's name to
    its function ``f(states, p)`` of (..., 4) states [q1, v1, q2, v2];
    ``angles`` each slow angle m1*psi1 + m2*psi2 to (m1, m2);
    ``report(a1, a2, e0)`` builds the ``resonance`` command's JSON body.
    """

    systems: dict
    default_system: str
    invariants: dict
    angles: dict
    report: Callable[..., dict]


RESONANCES = {
    1.0: Resonance({"11": AVG11}, "11", {"E0_11": _energy, "I3_11": _i3_11},
                   {"chi11": (1, -1)}, _report_11),
    2.0: Resonance({"12-first": AVG12_FIRST, "12-second": AVG12_SECOND}, "12-first",
                   {"E0_12": _energy, "I3_12": _i3_12}, {"chi12": (2, -1), "chi2": (4, -2)},
                   _report_12),
    3.0: Resonance({"13": AVG13}, "13", {}, {"chi3": (6, -2)}, _report_13),
}

SYSTEM_OMEGA = {name: omega for omega, entry in RESONANCES.items() for name in entry.systems}


def resonance_for(omega: float) -> Resonance:
    """The table entry for omega; ValueError when omega has none."""
    try:
        return RESONANCES[omega]
    except KeyError:
        raise ValueError(f"no averaged system or resonance analysis for omega = {omega:g} "
                         f"(tabulated: {', '.join(f'{w:g}' for w in RESONANCES)})") from None


def averaged_system(omega: float, name: str | None = None):
    """(name, equations) of the averaged system ``name`` of omega; an omitted
    name means omega's default system. ValueError when omega has no entry
    or the name is not one of omega's systems."""
    entry = resonance_for(omega)
    name = entry.default_system if name is None else name
    if name not in SYSTEM_OMEGA:
        raise ValueError(f"unknown averaged system {name!r}; known: {', '.join(SYSTEM_OMEGA)}")
    if name not in entry.systems:
        raise ValueError(f"resonance {name!r} needs omega = {SYSTEM_OMEGA[name]:g}")
    return name, entry.systems[name]


def cartesian_invariant(name: str, states, p: ModelParams):
    """The adiabatic invariant ``name`` of p.omega's record at (..., 4)
    states [q1, v1, q2, v2]; ValueError when that record has no such one."""
    invariants = resonance_for(p.omega).invariants
    if name not in invariants:
        raise ValueError(f"omega = {p.omega:g} has no invariant {name!r}; "
                         f"its invariants: {', '.join(invariants) or 'none'}")
    return invariants[name](states, p)


def combination_angle(kind: str, psi1, psi2):
    """The slow angle ``kind`` of a record, m1*psi1 + m2*psi2, wrapped to (-pi, pi]."""
    for entry in RESONANCES.values():
        if kind in entry.angles:
            m1, m2 = entry.angles[kind]
            return wrap_angle(m1 * np.asarray(psi1) + m2 * np.asarray(psi2))
    raise ValueError(f"unknown combination angle kind {kind!r}")
