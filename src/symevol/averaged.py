"""Averaged (normal form) vector fields for the 1:2, 1:3 and 1:1 resonances.

Each system is written once, as the :class:`symevol.model.Equations` text of
its field on the regular slow-Cartesian state [x1, y1, x2, y2, tau] with
A_k = x_k + i*y_k = r_k*exp(i*psi_k) (:data:`AVG12_FIRST`,
:data:`AVG12_SECOND`, :data:`AVG13`, :data:`AVG11`); averaged resonant
normal forms are polynomial in A_k, so these fields pass smoothly through
the normal modes (A_k = 0). Every averaged run integrates the Taylor method
generated from the text, and the ``*_cart`` function of each field is
generated from it too. Their epsilon^2 phase drifts are written once, as
statements that the texts splice in and from which helpers exact for
Fraction arguments are compiled, which the resonance-manifold ratios and the
1:1 invariant I3_11 read. :func:`polar_view` gives any field on the polar
state [r1, psi1, r2, psi2, tau] of :func:`symevol.transforms.slow_rhs`,
through the chain rule, for r1, r2 > 0 only. The slow time obeys tau' =
delta and the decay factor enters as exp(-tau). A Gauss-Legendre quadrature
oracle (:func:`average_slow_field`, :func:`second_order_average`) recomputes
the averages numerically so the closed forms can be validated.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .model import Equations, ModelParams, _compiled_on_first_call, _rhs_function
from .transforms import slow_rhs

__all__ = [
    "ZeroAmplitudeError",
    "avg12_first_cart",
    "avg12_second_cart",
    "avg13_cart",
    "avg11_cart",
    "AVG12_FIRST",
    "AVG12_SECOND",
    "AVG13",
    "AVG11",
    "polar_view",
    "polar_to_slow_cart",
    "slow_cart_amplitudes",
    "average_slow_field",
    "second_order_average",
]


class ZeroAmplitudeError(ValueError):
    """Polar averaged equations are singular on the normal modes."""


# The phase drifts, psi_k' = -eps^2*phi_k (1:1 coupling eps^2*k), each
# system's written once as statements of r1^2 = u, r2^2 = w, alpha^2 = al2
# and the coefficients. The fields splice them into their text, and the
# helpers _phase_drifts_* are compiled from them. Their constants are
# integers, so Fraction arguments give exact results.

# The second-order 1:2 drifts.
_DRIFTS_12 = (
    "phi1 = (a1 * a1 * u / 24 + a1 / 2 * a2 * w"
    " + al2 * (a3 * a4 * w / 8 + a4 * a4 * (9 * u + 4 * w) / 64))",
    "phi2 = (a1 / 4 * a2 * u + a2 * a2 * u / 30 + 29 * a2 * a2 * w / 120"
    " + al2 * (a3 * a4 * u / 16 + a4 * a4 * u / 32 + 5 * a3 * a3 * w / 96))")

# The averaged 1:3 drifts: the second-order average of the symmetric system
# (alpha = 0); the terms in the decaying coefficients a3, a4 are not part of
# this field.
_DRIFTS_13 = (
    "phi1 = 5 * a1 * a1 * u / 12 + (a1 / 2 * a2 + a2 * a2 / 35) * w",
    "phi2 = (a1 * a2 / 6 + a2 * a2 / 105) * u + 23 * a2 * a2 * w / 140")

# The averaged 1:1 drifts and coupling k. The symmetry-breaking terms are
# quadratic in (a3, a4), so they carry alpha^2. The terms linear in alpha
# (products such as a1*a4) are not part of this field.
_DRIFTS_11 = (
    "cross = a1 / 2 * a2 + a2 * a2 / 3",
    "cross_al = a3 / 2 * a4 + a4 * a4 / 3",
    "phi1 = 5 * a1 * a1 * u / 12 + cross * w + al2 * (cross_al * w + 5 * a4 * a4 * u / 12)",
    "phi2 = cross * u + 5 * a2 * a2 * w / 12 + al2 * (5 * a3 * a3 * w / 12 + cross_al * u)",
    "k = a1 * a2 / 12 - a2 / 2 * a2 + al2 * (a3 * a4 / 12 - a4 / 2 * a4)")


def _drift_function(name, args, statements, results):
    """``name(*args)``: the values ``results`` of the drift ``statements``,
    on floats, arrays or Fractions alike, compiled on its first call."""
    lines = [f"def {name}({', '.join(args)}):", *(f"    {s}" for s in statements),
             f"    return {', '.join(results)}"]
    return _compiled_on_first_call(name, lines, {})


_phase_drifts_12 = _drift_function("_phase_drifts_12", ("u", "w", "al2", "a1", "a2", "a3", "a4"),
                                   _DRIFTS_12, ("phi1", "phi2"))
_phase_drifts_13 = _drift_function("_phase_drifts_13", ("u", "w", "a1", "a2"),
                                   _DRIFTS_13, ("phi1", "phi2"))
_phase_drifts_11 = _drift_function("_phase_drifts_11", ("u", "w", "al2", "a1", "a2", "a3", "a4"),
                                   _DRIFTS_11, ("phi1", "phi2", "k"))


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _exact_or_float(*xs) -> tuple:
    """xs as Fractions when every x is an int or a Fraction (a bool is
    neither), else as floats."""
    kind = Fraction if all(map(_is_exact, xs)) else float
    return tuple(map(kind, xs))


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


def _averaged(params, body, rates, omega, what):
    """The Equations of an averaged field on the regular slow-Cartesian state
    [x1, y1, x2, y2, tau], tau' = delta, whose guard requires ``omega`` and
    the exponential decay law."""
    return Equations(
        state=("x1", "y1", "x2", "y2", "tau"), rates=(*rates, "dtau"),
        params=(*params, "omega", "epsilon", "delta", "alpha_kind"),
        body=(*body, "dtau = delta"),
        guard=(f"check_omega(omega, {omega!r}, {what!r})",
               f"check_exponential(alpha_kind, {what!r})"))


# The first-order 1:2 amplitude equations, which both 1:2 fields contain.
_AMPLITUDES_12 = (
    "kappa = 0.5 * epsilon * exp(-tau) * a4",
    "fx1 = kappa * (x1 * y2 - y1 * x2)",
    "fy1 = -kappa * (x1 * x2 + y1 * y2)",
    "fx2 = 0.5 * kappa * x1 * y1",
    "fy2 = -0.25 * kappa * (x1 * x1 - y1 * y1)")

# The squared amplitudes and eps^2, which the drifts read.
_SQUARES = ("e2 = epsilon**2", "u = x1 * x1 + y1 * y1", "w = x2 * x2 + y2 * y2")

AVG12_FIRST = _averaged(("a4",), _AMPLITUDES_12, ("fx1", "fy1", "fx2", "fy2"), 2.0,
                        "the first-order averaged 1:2 system")

AVG12_SECOND = _averaged(
    ("a1", "a2", "a3", "a4"),
    (*_AMPLITUDES_12, *_SQUARES, "al2 = exp(-2.0 * tau)", *_DRIFTS_12,
     "g1 = -e2 * phi1", "g2 = -e2 * phi2",
     "dx1 = fx1 - g1 * y1", "dy1 = fy1 + g1 * x1", "dx2 = fx2 - g2 * y2", "dy2 = fy2 + g2 * x2"),
    ("dx1", "dy1", "dx2", "dy2"), 2.0, "the second-order averaged 1:2 system")

AVG13 = _averaged(
    ("a1", "a2"),
    (*_SQUARES, *_DRIFTS_13, "g1 = -e2 * phi1", "g2 = -e2 * phi2",
     "dx1 = -g1 * y1", "dy1 = g1 * x1", "dx2 = -g2 * y2", "dy2 = g2 * x2"),
    ("dx1", "dy1", "dx2", "dy2"), 3.0, "the averaged 1:3 system")

# z1 = c*conj(A1)*A2*A2 and z2 = c*A1*A1*conj(A2), c = eps^2*k, in real and
# imaginary parts, rounded as Python's complex products round them
AVG11 = _averaged(
    ("a1", "a2", "a3", "a4"),
    (*_SQUARES, "al2 = exp(-2.0 * tau)", *_DRIFTS_11,
     "g1 = -e2 * phi1", "g2 = -e2 * phi2", "c = e2 * k",
     "br = c * x1", "bi = -(c * y1)",
     "cr = br * x2 - bi * y2", "ci = br * y2 + bi * x2",
     "z1r = cr * x2 - ci * y2", "z1i = cr * y2 + ci * x2",
     "fr = br * x1 - c * y1 * y1", "fi = br * y1 + c * y1 * x1",
     "z2r = fr * x2 + fi * y2", "z2i = fi * x2 - fr * y2",
     "dx1 = -(g1 * y1 + z1i)", "dy1 = g1 * x1 + z1r", "dx2 = -(g2 * y2 + z2i)",
     "dy2 = g2 * x2 + z2r"),
    ("dx1", "dy1", "dx2", "dy2"), 1.0, "the averaged 1:1 system")


avg12_first_cart = _rhs_function(AVG12_FIRST, "avg12_first_cart", """\
First-order averaged 1:2 field in regular slow-Cartesian coordinates,
generated from :data:`AVG12_FIRST`.

With A1 = x1 + i*y1 = r1*exp(i*psi1) and A2 = x2 + i*y2 the field is
polynomial (A1' = -i*kappa*conj(A1)*A2, A2' = -i*kappa/4*A1^2 with
kappa = eps*exp(-tau)*a4/2), so trajectories pass smoothly through
normal-mode crossings where the polar chart degenerates. Like every
``*_cart`` field it takes the state as a sequence of its five components,
floats or batch columns, and answers the tuple of their rates.

Conserves E0 = r1^2/2 + 2*r2^2 and I3 = a4*r1^2*r2*cos(chi), where
chi = 2*psi1 - psi2 is the slow angle; the drift of chi vanishes on the
resonance manifold r1^2 = 8*r2^2 (any chi) and at chi = +-pi/2.
""")

avg12_second_cart = _rhs_function(AVG12_SECOND, "avg12_second_cart", """\
Second-order averaged 1:2 field in regular slow-Cartesian coordinates,
generated from :data:`AVG12_SECOND`.

The amplitude equations are those of first order; the epsilon^2 phase
drifts, whose decayed contributions carry exp(-2*tau), act as
amplitude-dependent rotations A_k' += i*phi_k*A_k, which keeps the field
polynomial. tau = inf gives the autonomous symmetric limit.
""")

avg13_cart = _rhs_function(AVG13, "avg13_cart", """\
Averaged 1:3 field in regular slow-Cartesian coordinates, generated from
:data:`AVG13`: the pure rotations A_k' = i*phi_k*A_k, so the amplitudes are
frozen at this order.
""")

avg11_cart = _rhs_function(AVG11, "avg11_cart", """\
Second-order averaged 1:1 field in regular slow-Cartesian coordinates,
generated from :data:`AVG11`.

A1' = i*phi1*A1 + i*k*conj(A1)*A2^2 and A2' = i*phi2*A2 + i*k*A1^2*conj(A2);
chi = psi1 - psi2 is the slow angle. Conserves E0 = (r1^2 + r2^2)/2
exactly, decayed terms included. With a3 = a4 = 0 (or tau = inf) this is
the symmetric system, a Hamiltonian flow whose Hamiltonian is the second
invariant ``I3_11`` of :func:`symevol.resonance.cartesian_invariant`.
""")


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
