"""Averaged (normal form) vector fields for the 1:2, 1:3 and 1:1 resonances.

Each system is held once, as its ``*_cart`` field on the regular
slow-Cartesian state [x1, y1, x2, y2, tau] with A_k = x_k + i*y_k =
r_k*exp(i*psi_k); averaged resonant normal forms are polynomial in A_k, so
these fields pass smoothly through the normal modes (A_k = 0), and every
averaged run integrates them. Its epsilon^2 phase drifts are written once,
in a helper exact for Fraction arguments, which the resonance-manifold
ratios and the 1:1 invariant I3_11 read. :func:`polar_view` gives any of them on the polar state
[r1, psi1, r2, psi2, tau] of :func:`symevol.transforms.slow_rhs`, through
the chain rule, for r1, r2 > 0 only. The slow time obeys
tau' = delta and the decay factor enters as exp(-tau). A Gauss-Legendre
quadrature oracle (:func:`average_slow_field`,
:func:`second_order_average`) recomputes the averages numerically so the
closed forms can be validated.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .model import ModelParams
from .transforms import mode_actions, slow_rhs

__all__ = [
    "ZeroAmplitudeError",
    "INVARIANT_NAMES",
    "avg12_first_cart",
    "avg12_second_cart",
    "avg13_cart",
    "avg11_cart",
    "polar_view",
    "polar_to_slow_cart",
    "slow_cart_amplitudes",
    "cartesian_invariant",
    "average_slow_field",
    "second_order_average",
]

_INVARIANT_OMEGA = {"E0_12": 2.0, "I3_12": 2.0, "E0_11": 1.0, "I3_11": 1.0}
INVARIANT_NAMES = tuple(_INVARIANT_OMEGA)


class ZeroAmplitudeError(ValueError):
    """Polar averaged equations are singular on the normal modes."""


def _require_omega(p: ModelParams, omega: float, what: str):
    if p.omega != omega:
        raise ValueError(f"{what} applies to omega = {omega:g}, params have omega = {p.omega:g}")


def _require_system(p: ModelParams, omega: float, what: str, tau):
    """Checks shared by the ``*_cart`` fields; ``tau`` is the state's last
    component, a float, since the fields run one state at a time."""
    if isinstance(tau, np.ndarray):
        raise ValueError("the averaged *_cart fields take a state of five floats, "
                         "one run at a time, not batch columns")
    _require_omega(p, omega, what)
    if p.alpha_kind != "exponential":
        raise ValueError("averaged systems support the exponential decay law only")


# The drift helpers give psi_k' = -eps^2*phi_k (1:1 coupling eps^2*k). Their
# constants are integers, so Fraction arguments give exact results.


def _phase_drifts_12(u, w, al2, a1, a2, a3, a4):
    """Phase drifts (phi1, phi2) of the second-order 1:2 system at r1^2 = u,
    r2^2 = w and alpha^2 = al2."""
    return (a1 * a1 * u / 24 + a1 / 2 * a2 * w
            + al2 * (a3 * a4 * w / 8 + a4 * a4 * (9 * u + 4 * w) / 64),
            a1 / 4 * a2 * u + a2 * a2 * u / 30 + 29 * a2 * a2 * w / 120
            + al2 * (a3 * a4 * u / 16 + a4 * a4 * u / 32 + 5 * a3 * a3 * w / 96))


def _phase_drifts_13(u, w, a1, a2):
    """Phase drifts (phi1, phi2) of the averaged 1:3 system at r1^2 = u,
    r2^2 = w.

    These are the second-order average of the symmetric system (alpha = 0);
    the terms in the decaying coefficients a3, a4 are not part of this field.
    """
    return (5 * a1 * a1 * u / 12 + (a1 / 2 * a2 + a2 * a2 / 35) * w,
            (a1 * a2 / 6 + a2 * a2 / 105) * u + 23 * a2 * a2 * w / 140)


def _phase_drifts_11(u, w, al2, a1, a2, a3, a4):
    """Phase drifts (phi1, phi2) and coupling k of the averaged 1:1 system at
    r1^2 = u, r2^2 = w and alpha^2 = al2.

    The symmetry-breaking terms are quadratic in (a3, a4), so they carry
    alpha^2. The terms linear in alpha (products such as a1*a4) are not part
    of this field.
    """
    cross, cross_al = a1 / 2 * a2 + a2 * a2 / 3, a3 / 2 * a4 + a4 * a4 / 3
    return (5 * a1 * a1 * u / 12 + cross * w + al2 * (cross_al * w + 5 * a4 * a4 * u / 12),
            cross * u + 5 * a2 * a2 * w / 12 + al2 * (5 * a3 * a3 * w / 12 + cross_al * u),
            a1 * a2 / 12 - a2 / 2 * a2 + al2 * (a3 * a4 / 12 - a4 / 2 * a4))


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _exact_or_float(*xs) -> tuple:
    """xs as Fractions when every x is an int or a Fraction (a bool is
    neither), else as floats."""
    kind = Fraction if all(map(_is_exact, xs)) else float
    return tuple(map(kind, xs))


def _chi2_coeffs(a1, a2):
    """(c_u, c_w) of the chi2 drift eps^2*(c_u*r1^2 + c_w*r2^2), which is
    4*psi1' - 2*psi2' of the second-order 1:2 field at alpha = 0; exact for
    integer or Fraction coefficients."""
    a1, a2, zero = _exact_or_float(a1, a2, 0)
    drifts = (_phase_drifts_12(u, w, zero, a1, a2, zero, zero) for u, w in ((1, zero), (zero, 1)))
    return tuple(2 * phi2 - 4 * phi1 for phi1, phi2 in drifts)


def _chi3_paper_coeffs(a1, a2):
    """(c_u, c_w) of the paper's reading of the chi3 drift,
    -eps^2*(c_u*r1^2 - c_w*r2^2); exact for integer or Fraction
    coefficients.

    This reading is not 6*psi1' - 2*psi2' of :func:`avg13_cart`. At
    a1 = a2 = 1 the field gives -eps^2*(451/210*r1^2 + 199/70*r2^2), whose
    coefficients share one sign, so it has no positive-amplitude zero; this
    reading gives the paper's manifold ratio r1^2/r2^2 = 1401/976. The
    disagreement is recorded in the FOUND line on the chi3 drift in
    CHANGES.md. The 47/140 coefficient is paired with a2^2 for dimensional
    consistency with its sibling terms.
    """
    a1, a2 = _exact_or_float(a1, a2)
    return (5 * a1 * a1 / 2 - a1 * a2 / 6 - a2 * a2 / 105,
            3 * a1 * a2 + Fraction(47, 140) * (a2 * a2))


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
    ``*_cart`` field it takes the state as a sequence of its five float
    components and answers the tuple of their rates.

    Conserves E0 = r1^2/2 + 2*r2^2 and I3 = a4*r1^2*r2*cos(chi), where
    chi = 2*psi1 - psi2 is the slow angle; the drift of chi vanishes on the
    resonance manifold r1^2 = 8*r2^2 (any chi) and at chi = +-pi/2.
    """
    x1, y1, x2, y2, tau = y
    _require_system(p, 2.0, "the first-order averaged 1:2 system", tau)
    return (*_avg12_first_terms(x1, y1, x2, y2, tau, p), p.delta)


def avg12_second_cart(t, y, p: ModelParams):
    """Second-order averaged 1:2 field in regular slow-Cartesian coordinates.

    The amplitude equations are those of first order; the epsilon^2 phase
    drifts, whose decayed contributions carry exp(-2*tau), act as
    amplitude-dependent rotations A_k' += i*phi_k*A_k, which keeps the field
    polynomial. tau = inf gives the autonomous symmetric limit.
    """
    x1, y1, x2, y2, tau = y
    _require_system(p, 2.0, "the second-order averaged 1:2 system", tau)
    dx1, dy1, dx2, dy2 = _avg12_first_terms(x1, y1, x2, y2, tau, p)
    e2 = p.epsilon**2
    phi1, phi2 = _phase_drifts_12(x1 * x1 + y1 * y1, x2 * x2 + y2 * y2,
                                  math.exp(-2.0 * tau), p.a1, p.a2, p.a3, p.a4)
    phi1, phi2 = -e2 * phi1, -e2 * phi2
    return dx1 - phi1 * y1, dy1 + phi1 * x1, dx2 - phi2 * y2, dy2 + phi2 * x2, p.delta


def avg13_cart(t, y, p: ModelParams):
    """Averaged 1:3 field in regular slow-Cartesian coordinates: the pure
    rotations A_k' = i*phi_k*A_k, so the amplitudes are frozen at this
    order."""
    x1, y1, x2, y2, tau = y
    _require_system(p, 3.0, "the averaged 1:3 system", tau)
    e2 = p.epsilon**2
    phi1, phi2 = _phase_drifts_13(x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, p.a1, p.a2)
    phi1, phi2 = -e2 * phi1, -e2 * phi2
    return -phi1 * y1, phi1 * x1, -phi2 * y2, phi2 * x2, p.delta


def avg11_cart(t, y, p: ModelParams):
    """Second-order averaged 1:1 field in regular slow-Cartesian coordinates.

    A1' = i*phi1*A1 + i*k*conj(A1)*A2^2 and A2' = i*phi2*A2 + i*k*A1^2*conj(A2);
    chi = psi1 - psi2 is the slow angle. Conserves E0 = (r1^2 + r2^2)/2
    exactly, decayed terms included. With a3 = a4 = 0 (or tau = inf) this is
    the symmetric system, a Hamiltonian flow whose Hamiltonian is the second
    invariant ``I3_11`` of :func:`cartesian_invariant`.
    """
    x1, y1, x2, y2, tau = y
    _require_system(p, 1.0, "the averaged 1:1 system", tau)
    e2 = p.epsilon**2
    phi1, phi2, k = _phase_drifts_11(x1 * x1 + y1 * y1, x2 * x2 + y2 * y2,
                                     math.exp(-2.0 * tau), p.a1, p.a2, p.a3, p.a4)
    phi1, phi2, k = -e2 * phi1, -e2 * phi2, e2 * k
    # z1 = k*conj(A1)*A2*A2 and z2 = k*A1*A1*conj(A2) in floats, rounded as
    # Python's complex products round them; complex objects cost more here
    br, bi = k * x1, -(k * y1)
    cr, ci = br * x2 - bi * y2, br * y2 + bi * x2
    z1r, z1i = cr * x2 - ci * y2, cr * y2 + ci * x2
    fr, fi = br * x1 - k * y1 * y1, br * y1 + k * y1 * x1
    z2r, z2i = fr * x2 + fi * y2, fi * x2 - fr * y2
    return (-(phi1 * y1 + z1i), phi1 * x1 + z1r, -(phi2 * y2 + z2i), phi2 * x2 + z2r,
            p.delta)


def polar_view(cart, t, y, p: ModelParams) -> np.ndarray:
    """The Cartesian field ``cart`` (one of the ``*_cart`` fields) in the
    polar chart at [r1, psi1, r2, psi2, tau]: r' = c*x' + s*y' and
    psi' = (c*y' - s*x')/r per mode, with (c, s) = (cos(psi), sin(psi)).
    The chart needs r1 > 0 and r2 > 0."""
    r1, psi1, r2, psi2, tau = (float(v) for v in y[:5])
    if not (r1 > 0.0 and r2 > 0.0):
        raise ZeroAmplitudeError("averaged polar fields need r1 > 0 and r2 > 0")
    c1, s1, c2, s2 = math.cos(psi1), math.sin(psi1), math.cos(psi2), math.sin(psi2)
    dx1, dy1, dx2, dy2, dtau = cart(t, (r1 * c1, r1 * s1, r2 * c2, r2 * s2, tau), p)
    return np.array([c1 * dx1 + s1 * dy1, (c1 * dy1 - s1 * dx1) / r1,
                     c2 * dx2 + s2 * dy2, (c2 * dy2 - s2 * dx2) / r2, dtau])


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


def cartesian_invariant(name: str, states, p: ModelParams):
    """Conserved quantity of the averaged flows in the original variables,
    vectorized over (..., 4) states ordered [q1, v1, q2, v2].

    E0 is the sum of the mode actions. ``I3_11`` is the Hamiltonian of
    :func:`avg11_cart` at alpha = 0 without its factor eps^2,
    k*r1^2*r2^2*cos(2*chi) - (r1^2*phi1 + r2^2*phi2)/2 with (phi1, phi2, k)
    of :func:`_phase_drifts_11`; the coupling k multiplies rather than
    divides, so the invariant stays defined at k = 0.
    """
    if name not in INVARIANT_NAMES:
        raise ValueError(f"unknown invariant {name!r}; know {INVARIANT_NAMES}")
    _require_omega(p, _INVARIANT_OMEGA[name], name)
    if name in ("E0_12", "E0_11"):
        e1, e2 = mode_actions(states, p.omega)
        return e1 + e2
    q1, v1, q2, v2 = np.moveaxis(np.asarray(states, dtype=float), -1, 0)
    if name == "I3_12":
        return p.a4 * ((q1 * q1 - v1 * v1) * q2 + q1 * v1 * v2)
    u, w = q1 * q1 + v1 * v1, q2 * q2 + v2 * v2
    phi1, phi2, k = _phase_drifts_11(u, w, 0.0, p.a1, p.a2, 0.0, 0.0)
    return (k * ((q1 * q2 + v1 * v2) ** 2 - (q1 * v2 - v1 * q2) ** 2)
            - (u * phi1 + w * phi2) / 2)


@functools.cache
def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def average_slow_field(y, p: ModelParams) -> np.ndarray:
    """Numerical t-average of the polar equations of motion at frozen y.

    64-node Gauss-Legendre quadrature over one common period (2*pi for
    integer omega); the oracle against which the first-order averaged
    fields are checked.
    """
    x, wts = _gauss_nodes(64)
    tq = math.pi * (x + 1.0)
    y = np.asarray(y, dtype=float)
    vals = slow_rhs(tq, y, p)
    return (vals @ wts) * 0.5


def second_order_average(y, p: ModelParams, al: float = 0.0) -> np.ndarray:
    """Numerical second-order average of the 1:1 or 1:3 polar system at
    frozen alpha.

    The first-order average vanishes identically at omega = 1 and 3, so the
    epsilon^2 field is the t-average of Df(t,y).u(t,y) with
    u(t,y) = int_0^t f(s,y) ds, independent of the antiderivative's
    integration constant (48 Gauss-Legendre nodes, 10 per segment for u).
    Jacobians are computed by complex step; returns the epsilon^2-scaled
    4-component field for direct comparison with the :func:`polar_view` of
    :func:`avg11_cart` and :func:`avg13_cart`.
    """
    if p.omega not in (1.0, 3.0):
        raise ValueError(f"the second-order oracle applies to omega = 1 or 3, "
                         f"params have omega = {p.omega:g}")
    y4 = np.asarray(y, dtype=float)[:4]
    xg, wg = _gauss_nodes(48)
    tq = math.pi * (xg + 1.0)
    # eps scaled out, alpha frozen at al through the slow time tau
    unit = p.replace(epsilon=1.0, alpha_kind="exponential")
    tau = -math.log(al) if al > 0.0 else math.inf

    def f(t, x):
        # complex-safe in x, so the Jacobian can be taken by complex step
        return slow_rhs(t, (x[0], x[1], x[2], x[3], tau), unit)[:4]

    # u at the outer nodes, built up segment by segment.
    xs, ws = _gauss_nodes(10)
    u_nodes = np.empty((len(tq), 4))
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
    jac = np.empty((len(tq), 4, 4))
    for j in range(4):
        xc = y4.astype(complex)[:, None]
        xc[j] += 1j * h
        jac[:, :, j] = (f(tq, xc).imag / h).T

    dfu = np.einsum("kij,kj->ki", jac, u_nodes)
    avg = (wg @ dfu) * 0.5
    return p.epsilon**2 * avg
