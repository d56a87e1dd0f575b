"""Averaged (normal form) vector fields for the 1:2, 1:3 and 1:1 resonances.

Every system comes in two charts. The ``*_cart`` fields act on the regular
slow-Cartesian state [x1, y1, x2, y2, tau] with A_k = x_k + i*y_k =
r_k*exp(i*psi_k); averaged resonant normal forms are polynomial in A_k, so
these fields pass smoothly through the normal modes (A_k = 0), and every
averaged run integrates them. The ``*_rhs`` fields act on the polar state
[r1, psi1, r2, psi2, tau] used by :func:`symevol.transforms.slow_rhs`; they
are singular on the normal modes and serve as the reference forms of the
invariants and the oracles. The slow time obeys tau' = delta and the decay
factor enters as exp(-tau). The epsilon^2 phase drifts of each system are
written once, in a helper that both of its charts call. A Gauss-Legendre
quadrature oracle (:func:`average_slow_field`,
:func:`second_order_average`) recomputes the averages numerically so the
closed forms can be validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import CartesianState, ModelParams
from .transforms import PolarState, mode_actions, slow_rhs, _gauss_nodes

__all__ = [
    "ZeroAmplitudeError",
    "INVARIANT_NAMES",
    "avg12_first_rhs",
    "chi12_rhs",
    "avg12_second_rhs",
    "chi2_rhs",
    "avg13_rhs",
    "chi3_rhs",
    "avg11_rhs",
    "avg12_first_cart",
    "avg12_second_cart",
    "avg13_cart",
    "avg11_cart",
    "polar_to_slow_cart",
    "slow_cart_amplitudes",
    "invariant",
    "cartesian_invariant",
    "average_slow_field",
    "second_order_average",
    "fit_I3_11",
    "I3FitResult",
]

_INVARIANT_OMEGA = {"E0_12": 2.0, "I3_12": 2.0, "E0_11": 1.0, "I3_11": 1.0}
INVARIANT_NAMES = tuple(_INVARIANT_OMEGA)


class ZeroAmplitudeError(ValueError):
    """Polar averaged equations are singular on the normal modes."""


def _check_amplitudes(r1, r2):
    if r1 <= 0.0 or r2 <= 0.0:
        raise ZeroAmplitudeError("averaged polar fields need r1 > 0 and r2 > 0")


def _require_omega(p: ModelParams, omega: float, what: str):
    if p.omega != omega:
        raise ValueError(f"{what} applies to omega = {omega:g}, params have omega = {p.omega:g}")


def _require_exponential(p: ModelParams):
    if p.alpha_kind != "exponential":
        raise ValueError("averaged systems support the exponential decay law only")


def avg12_first_rhs(t, y, p: ModelParams) -> np.ndarray:
    """First-order averaged 1:2 field; chi = 2*psi1 - psi2 is the slow angle.

    Conserves E0 = r1^2/2 + 2*r2^2 and I3 = a4*r1^2*r2*cos(chi) exactly.
    """
    _require_omega(p, 2.0, "the first-order averaged 1:2 system")
    _require_exponential(p)
    r1, psi1, r2, psi2, tau = (float(v) for v in y[:5])
    _check_amplitudes(r1, r2)
    chi = 2.0 * psi1 - psi2
    k = p.epsilon * math.exp(-tau) * p.a4
    s, c = math.sin(chi), math.cos(chi)
    return np.array([
        -0.5 * k * r1 * r2 * s,
        -0.5 * k * r2 * c,
        0.125 * k * r1 * r1 * s,
        -0.125 * k * (r1 * r1 / r2) * c,
        p.delta,
    ])


def chi12_rhs(y, p: ModelParams) -> float:
    """Drift of chi = 2*psi1 - psi2 under the first-order averaged 1:2 flow.

    Vanishes on the resonance manifold r1^2 = 8*r2^2 (any chi) and for
    chi = +-pi/2 (any amplitudes).
    """
    _require_omega(p, 2.0, "the first-order averaged 1:2 system")
    _require_exponential(p)
    r1, psi1, r2, psi2, tau = (float(v) for v in y[:5])
    if r2 <= 0.0:
        raise ZeroAmplitudeError("chi drift is singular at r2 = 0")
    chi = 2.0 * psi1 - psi2
    return p.epsilon * p.a4 * math.exp(-tau) * (-r2 + 0.125 * r1 * r1 / r2) * math.cos(chi)


def avg12_second_rhs(t, y, p: ModelParams) -> np.ndarray:
    """Second-order averaged 1:2 field.

    The amplitude equations are unchanged from first order; the phases gain
    epsilon^2 drifts, with the decayed contributions carrying exp(-2*tau).
    Passing tau = inf gives the autonomous symmetric limit.
    """
    _require_omega(p, 2.0, "the second-order averaged 1:2 system")
    _require_exponential(p)
    r1, psi1, r2, psi2, tau = (float(v) for v in y[:5])
    base = avg12_first_rhs(t, y, p)
    phi1, phi2 = _phase_drifts_12(r1 * r1, r2 * r2, tau, p)
    base[1] += phi1
    base[3] += phi2
    return base


def _phase_drifts_12(u, w, tau, p: ModelParams):
    """epsilon^2 phase drifts (phi1, phi2) of the second-order 1:2 system at
    r1^2 = u, r2^2 = w; the decayed contributions carry exp(-2*tau)."""
    a1, a2, a3, a4 = p.a1, p.a2, p.a3, p.a4
    e2 = p.epsilon**2
    em2 = math.exp(-2.0 * tau)
    phi1 = -e2 * (a1 * a1 * u / 24.0 + 0.5 * a1 * a2 * w
                  + em2 * (a3 * a4 * w / 8.0 + a4 * a4 * (9.0 * u + 4.0 * w) / 64.0))
    phi2 = -e2 * (0.25 * a1 * a2 * u + a2 * a2 * u / 30.0 + 29.0 * a2 * a2 * w / 120.0
                  + em2 * (a3 * a4 * u / 16.0 + a4 * a4 * u / 32.0 + 5.0 * a3 * a3 * w / 96.0))
    return phi1, phi2


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _chi2_coeffs(a1, a2):
    """(c_u, c_w) of the chi2 drift eps^2*(c_u*r1^2 + c_w*r2^2); exact for
    integer or Fraction coefficients."""
    exact = _is_exact(a1) and _is_exact(a2)
    a1, a2 = (Fraction(a1), Fraction(a2)) if exact else (float(a1), float(a2))
    return (-a1 * a1 / 6 + a1 * a2 / 2 + a2 * a2 / 15,
            -2 * a1 * a2 + 29 * a2 * a2 / 60)


def chi2_rhs(r1, r2, p: ModelParams) -> float:
    """Drift of chi2 = 4*psi1 - 2*psi2 in the late (symmetric) 1:2 regime.

    Equals 4*psi1' - 2*psi2' of the second-order field at tau = inf; a zero
    at positive amplitudes marks a second-order resonance manifold.
    """
    c_u, c_w = _chi2_coeffs(p.a1, p.a2)
    return p.epsilon**2 * (c_u * r1 * r1 + c_w * r2 * r2)


def avg13_rhs(t, y, p: ModelParams) -> np.ndarray:
    """Second-order averaged 1:3 field: amplitudes are frozen at this order,
    only the phases drift."""
    _require_omega(p, 3.0, "the averaged 1:3 system")
    _require_exponential(p)
    r1, psi1, r2, psi2, tau = (float(v) for v in y[:5])
    phi1, phi2 = _phase_drifts_13(r1 * r1, r2 * r2, p)
    return np.array([0.0, phi1, 0.0, phi2, p.delta])


def _phase_drifts_13(u, w, p: ModelParams):
    """epsilon^2 phase drifts (phi1, phi2) of the averaged 1:3 system at
    r1^2 = u, r2^2 = w.

    These are the second-order average of the symmetric system (alpha = 0);
    the terms in the decaying coefficients a3, a4 are not part of this field.
    """
    a1, a2 = p.a1, p.a2
    e2 = p.epsilon**2
    return (-e2 * (5.0 * a1 * a1 * u / 12.0 + (0.5 * a1 * a2 + a2 * a2 / 35.0) * w),
            -e2 * ((a1 * a2 / 6.0 + a2 * a2 / 105.0) * u + 23.0 * a2 * a2 * w / 140.0))


def _chi3_coeffs(a1, a2):
    """(c_u, c_w) of the chi3 drift -eps^2*(c_u*r1^2 - c_w*r2^2); exact for
    integer or Fraction coefficients."""
    exact = _is_exact(a1) and _is_exact(a2)
    a1, a2 = (Fraction(a1), Fraction(a2)) if exact else (float(a1), float(a2))
    return (5 * a1 * a1 / 2 - a1 * a2 / 6 - a2 * a2 / 105,
            3 * a1 * a2 + Fraction(47, 140) * (a2 * a2))


def chi3_rhs(r1, r2, p: ModelParams) -> float:
    """Drift of chi3 = 6*psi1 - 2*psi2 at the 1:3 resonance.

    The 47/140 coefficient is paired with a2^2 for dimensional consistency
    with its sibling terms.
    """
    c_u, c_w = _chi3_coeffs(p.a1, p.a2)
    return -p.epsilon**2 * (c_u * r1 * r1 - c_w * r2 * r2)


def avg11_rhs(t, y, p: ModelParams) -> np.ndarray:
    """Second-order averaged 1:1 field; chi = psi1 - psi2 is the slow angle.

    Conserves E0 = (r1^2 + r2^2)/2 exactly, decayed terms included. With
    a3 = a4 = 0 (or tau = inf) this is the symmetric system, which carries
    a second conserved combination fitted by :func:`fit_I3_11`.
    """
    _require_omega(p, 1.0, "the averaged 1:1 system")
    _require_exponential(p)
    r1, psi1, r2, psi2, tau = (float(v) for v in y[:5])
    _check_amplitudes(r1, r2)
    u = r1 * r1
    w = r2 * r2
    phi1, phi2, k = _phase_drifts_11(u, w, tau, p)
    two_chi = 2.0 * (psi1 - psi2)
    s2c, c2c = math.sin(two_chi), math.cos(two_chi)
    return np.array([k * r1 * w * s2c, phi1 + k * w * c2c,
                     -k * u * r2 * s2c, phi2 + k * u * c2c, p.delta])


def _phase_drifts_11(u, w, tau, p: ModelParams):
    """epsilon^2 phase drifts (phi1, phi2) and coupling k of the averaged 1:1
    system at r1^2 = u, r2^2 = w.

    The symmetry-breaking terms are quadratic in (a3, a4), so they carry
    alpha^2 = exp(-2*tau). The terms linear in alpha (products such as
    a1*a4) are not part of this field.
    """
    a1, a2, a3, a4 = p.a1, p.a2, p.a3, p.a4
    e2 = p.epsilon**2
    al2 = math.exp(-2.0 * tau)
    phi1 = -e2 * (5.0 * a1 * a1 * u / 12.0 + (0.5 * a1 * a2 + a2 * a2 / 3.0) * w
                  + al2 * ((0.5 * a3 * a4 + a4 * a4 / 3.0) * w + 5.0 * a4 * a4 * u / 12.0))
    phi2 = -e2 * ((0.5 * a1 * a2 + a2 * a2 / 3.0) * u + 5.0 * a2 * a2 * w / 12.0
                  + al2 * (5.0 * a3 * a3 * w / 12.0 + (0.5 * a3 * a4 + a4 * a4 / 3.0) * u))
    k = e2 * (a1 * a2 / 12.0 - 0.5 * a2 * a2 + al2 * (a3 * a4 / 12.0 - 0.5 * a4 * a4))
    return phi1, phi2, k


def _slow_floats(y):
    """The regular-chart state (x1, y1, x2, y2, tau) as floats; a tuple is
    taken to hold floats already."""
    return y[:5] if type(y) is tuple else tuple(float(v) for v in y[:5])


def _like_state(y, *values):
    """A field's values in the form of its state: a tuple for a tuple of
    floats (the single-row integrator's form), an ndarray otherwise."""
    return values if type(y) is tuple else np.array(values)


def _avg12_first_terms(x1, y1, x2, y2, tau, p: ModelParams):
    """(x1', y1', x2', y2') of the first-order 1:2 field, which both 1:2
    fields contain."""
    kappa = 0.5 * p.epsilon * math.exp(-tau) * p.a4
    return (kappa * (x1 * y2 - y1 * x2), -kappa * (x1 * x2 + y1 * y2),
            0.5 * kappa * x1 * y1, -0.25 * kappa * (x1 * x1 - y1 * y1))


def avg12_first_cart(t, y, p: ModelParams):
    """First-order averaged 1:2 field in regular slow-Cartesian coordinates.

    With A1 = x1 + i*y1 = r1*exp(i*psi1) and A2 = x2 + i*y2 the field is
    polynomial (A1' = -i*kappa*conj(A1)*A2, A2' = -i*kappa/4*A1^2 with
    kappa = eps*exp(-tau)*a4/2), so trajectories pass smoothly through
    normal-mode crossings where the polar chart degenerates. Like every
    ``*_cart`` field it answers a tuple of floats with a tuple, any other
    state with an ndarray.
    """
    _require_omega(p, 2.0, "the first-order averaged 1:2 system")
    _require_exponential(p)
    x1, y1, x2, y2, tau = _slow_floats(y)
    return _like_state(y, *_avg12_first_terms(x1, y1, x2, y2, tau, p), p.delta)


def avg12_second_cart(t, y, p: ModelParams):
    """Second-order averaged 1:2 field in regular slow-Cartesian coordinates.

    The epsilon^2 phase drifts act as amplitude-dependent rotations
    A_k' += i*phi_k*A_k, which keeps the field polynomial.
    """
    _require_omega(p, 2.0, "the second-order averaged 1:2 system")
    _require_exponential(p)
    x1, y1, x2, y2, tau = _slow_floats(y)
    dx1, dy1, dx2, dy2 = _avg12_first_terms(x1, y1, x2, y2, tau, p)
    phi1, phi2 = _phase_drifts_12(x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, tau, p)
    return _like_state(y, dx1 - phi1 * y1, dy1 + phi1 * x1, dx2 - phi2 * y2,
                       dy2 + phi2 * x2, p.delta)


def avg13_cart(t, y, p: ModelParams):
    """Averaged 1:3 field in regular slow-Cartesian coordinates: the pure
    rotations A_k' = i*phi_k*A_k."""
    _require_omega(p, 3.0, "the averaged 1:3 system")
    _require_exponential(p)
    x1, y1, x2, y2, tau = _slow_floats(y)
    phi1, phi2 = _phase_drifts_13(x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, p)
    return _like_state(y, -phi1 * y1, phi1 * x1, -phi2 * y2, phi2 * x2, p.delta)


def avg11_cart(t, y, p: ModelParams):
    """Averaged 1:1 field in regular slow-Cartesian coordinates.

    A1' = i*phi1*A1 + i*k*conj(A1)*A2^2 and A2' = i*phi2*A2 + i*k*A1^2*conj(A2),
    the polynomial form of :func:`avg11_rhs`.
    """
    _require_omega(p, 1.0, "the averaged 1:1 system")
    _require_exponential(p)
    x1, y1, x2, y2, tau = _slow_floats(y)
    A1, A2 = complex(x1, y1), complex(x2, y2)
    phi1, phi2, k = _phase_drifts_11(x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, tau, p)
    d1 = 1j * (phi1 * A1 + k * A1.conjugate() * A2 * A2)
    d2 = 1j * (phi2 * A2 + k * A1 * A1 * A2.conjugate())
    return _like_state(y, d1.real, d1.imag, d2.real, d2.imag, p.delta)


def polar_to_slow_cart(y) -> np.ndarray:
    """Map [r1, psi1, r2, psi2, tau] to the regular chart [x1, y1, x2, y2, tau]."""
    r1, psi1, r2, psi2, tau = (float(v) for v in y[:5])
    return np.array([r1 * math.cos(psi1), r1 * math.sin(psi1),
                     r2 * math.cos(psi2), r2 * math.sin(psi2), tau])


def slow_cart_amplitudes(states: np.ndarray):
    """Amplitudes (r1, r2) along a regular-chart trajectory."""
    states = np.asarray(states, dtype=float)
    return (np.hypot(states[..., 0], states[..., 1]),
            np.hypot(states[..., 2], states[..., 3]))


def _check_invariant(name: str, p: ModelParams, i3_coeffs):
    if name not in INVARIANT_NAMES:
        raise ValueError(f"unknown invariant {name!r}; know {INVARIANT_NAMES}")
    _require_omega(p, _INVARIANT_OMEGA[name], name)
    if name == "I3_11" and i3_coeffs is None:
        raise ValueError("I3_11 needs the fitted (alpha, beta) coefficients")


def cartesian_invariant(name: str, states, p: ModelParams, i3_coeffs=None):
    """Conserved quantity of the averaged flows in the original variables,
    vectorized over (..., 4) states ordered [q1, v1, q2, v2].

    E0 is the sum of the mode actions; ``I3_11`` additionally needs the
    fitted coefficients (alpha, beta) from :func:`fit_I3_11`.
    """
    _check_invariant(name, p, i3_coeffs)
    if name in ("E0_12", "E0_11"):
        e1, e2 = mode_actions(states, p.omega)
        return e1 + e2
    q1, v1, q2, v2 = np.moveaxis(np.asarray(states, dtype=float), -1, 0)
    if name == "I3_12":
        return p.a4 * ((q1 * q1 - v1 * v1) * q2 + q1 * v1 * v2)
    ca, cb = (float(c) for c in i3_coeffs)
    u = q1 * q1 + v1 * v1
    return ((q1 * q2 + v1 * v2) ** 2 - (q1 * v2 - v1 * q2) ** 2
            + ca * u * u + cb * u)


def invariant(name: str, state, p: ModelParams, i3_coeffs=None) -> float:
    """Evaluate a conserved quantity of the averaged flows.

    Polar states (PolarState or [r1, psi1, r2, psi2, ...]) use the
    amplitude/phase forms; CartesianState uses :func:`cartesian_invariant`.
    ``I3_11`` additionally needs the fitted coefficients (alpha, beta) from
    :func:`fit_I3_11`.
    """
    if isinstance(state, CartesianState):
        return float(cartesian_invariant(name, state.as_array(), p, i3_coeffs))
    _check_invariant(name, p, i3_coeffs)
    y = state.as_array() if isinstance(state, PolarState) else np.asarray(state, dtype=float)
    r1, psi1, r2, psi2 = (float(v) for v in y[:4])
    if name == "E0_12":
        return 0.5 * r1 * r1 + 2.0 * r2 * r2
    if name == "I3_12":
        return p.a4 * r1 * r1 * r2 * math.cos(2.0 * psi1 - psi2)
    if name == "E0_11":
        return 0.5 * (r1 * r1 + r2 * r2)
    ca, cb = (float(c) for c in i3_coeffs)
    u = r1 * r1
    w = r2 * r2
    return u * w * math.cos(2.0 * (psi1 - psi2)) + ca * u * u + cb * u


def average_slow_field(y, p: ModelParams, nodes: int = 64) -> np.ndarray:
    """Numerical t-average of the polar equations of motion at frozen y.

    Gauss-Legendre quadrature over one common period (2*pi for integer
    omega); the oracle against which the first-order averaged fields are
    checked.
    """
    x, wts = _gauss_nodes(nodes)
    tq = math.pi * (x + 1.0)
    y = np.asarray(y, dtype=float)
    vals = slow_rhs(tq, y, p)
    return (vals @ wts) * 0.5


def second_order_average(y, p: ModelParams, al: float = 0.0,
                         nodes: int = 48, inner_nodes: int = 10) -> np.ndarray:
    """Numerical second-order average of the 1:1 or 1:3 polar system at
    frozen alpha.

    The first-order average vanishes identically at omega = 1 and 3, so the
    epsilon^2 field is the t-average of Df(t,y).u(t,y) with
    u(t,y) = int_0^t f(s,y) ds, independent of the antiderivative's
    integration constant. Jacobians are computed by complex step; returns
    the epsilon^2-scaled 4-component field for direct comparison with
    :func:`avg11_rhs` and :func:`avg13_rhs`.
    """
    if p.omega not in (1.0, 3.0):
        raise ValueError(f"the second-order oracle applies to omega = 1 or 3, "
                         f"params have omega = {p.omega:g}")
    y4 = np.asarray(y, dtype=float)[:4]
    xg, wg = _gauss_nodes(nodes)
    tq = math.pi * (xg + 1.0)
    # eps scaled out, alpha frozen at al through the slow time tau
    unit = p.replace(epsilon=1.0, alpha_kind="exponential")
    tau = -math.log(al) if al > 0.0 else math.inf

    def f(t, x):
        # complex-safe in x, so the Jacobian can be taken by complex step
        return slow_rhs(t, (x[0], x[1], x[2], x[3], tau), unit)[:4]

    # u at the outer nodes, built up segment by segment.
    xs, ws = _gauss_nodes(inner_nodes)
    u_nodes = np.empty((nodes, 4))
    acc = np.zeros(4)
    prev = 0.0
    for i, tk in enumerate(tq):
        half = 0.5 * (tk - prev)
        mid = 0.5 * (tk + prev)
        svals = f(mid + half * xs, y4[:, None])
        acc = acc + half * (svals @ ws)
        u_nodes[i] = acc
        prev = tk

    # Jacobian columns at all outer nodes via complex step.
    h = 1e-100
    jac = np.empty((nodes, 4, 4))
    for j in range(4):
        xc = y4.astype(complex)[:, None]
        xc[j] += 1j * h
        jac[:, :, j] = (f(tq, xc).imag / h).T

    dfu = np.einsum("kij,kj->ki", jac, u_nodes)
    avg = (wg @ dfu) * 0.5
    return p.epsilon**2 * avg


@dataclass(frozen=True)
class I3FitResult:
    """Least-squares coefficients of the symmetric 1:1 invariant."""

    alpha: float
    beta: float
    residual: float


def fit_I3_11(samples, min_samples: int = 200) -> I3FitResult:
    """Fit (alpha, beta) so r1^2*r2^2*cos(2*chi) + alpha*r1^4 + beta*r1^2 is
    constant along a symmetric 1:1 averaged trajectory.

    ``samples`` is the (m, >=4) polar state history. The residual is the
    standard deviation of the fitted combination normalized by the standard
    deviation of the cos(2*chi) term. Degenerate (normal mode) trajectories
    are rejected.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim != 2 or s.shape[0] < min_samples:
        raise ValueError(f"need at least {min_samples} polar samples")
    r1 = s[:, 0]
    r2 = s[:, 2]
    if np.min(r1) < 1e-8 or np.min(r2) < 1e-8:
        raise ValueError("degenerate trajectory (normal mode); no two-parameter fit")
    chi = s[:, 1] - s[:, 3]
    yv = r1**2 * r2**2 * np.cos(2.0 * chi)
    x1 = r1**4
    x2 = r1**2
    yc = yv - yv.mean()
    design = np.column_stack([x1 - x1.mean(), x2 - x2.mean()])
    sv = np.linalg.svd(design, compute_uv=False)
    if sv[-1] < 1e-9 * max(sv[0], 1e-30):
        raise ValueError("degenerate trajectory: amplitude variation too small to fit")
    coeffs, *_ = np.linalg.lstsq(design, -yc, rcond=None)
    ca, cb = float(coeffs[0]), float(coeffs[1])
    combo = yv + ca * x1 + cb * x2
    scale = max(float(np.std(yv)), 1e-300)
    return I3FitResult(ca, cb, float(np.std(combo)) / scale)
