"""Amplitude/phase coordinates, actions and the polar equations of motion.

The co-rotating polar chart used throughout is

    q1 = r1*cos(t + psi1),        v1 = -r1*sin(t + psi1),
    q2 = r2*cos(omega*t + psi2),  v2 = -omega*r2*sin(omega*t + psi2),

so that (r1, psi1, r2, psi2) drift slowly when the cubic coupling is weak.
A polar state is the array [r1, psi1, r2, psi2], with the slow time tau
as a fifth component where a field needs it. The chart is evaluated by
:func:`polar_to_cart` and inverted by :func:`polar_coordinates`, each for
one state or a stack of states. Phases are wrapped to (-pi, pi] at
reporting; along trajectories a continuous lift (``np.unwrap``) keeps
combination angles differentiable.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams, alpha

__all__ = [
    "TWO_PI",
    "wrap_angle",
    "polar_coordinates",
    "polar_to_cart",
    "mode_actions",
    "slow_rhs",
]

TWO_PI = 2.0 * math.pi

def wrap_angle(x):
    """Wrap angle(s) to the interval (-pi, pi]."""
    arr = np.asarray(x, dtype=float)
    wrapped = math.pi - np.remainder(math.pi - arr, TWO_PI)
    return float(wrapped) if arr.ndim == 0 else wrapped


def polar_coordinates(t, states, omega: float):
    """Invert the co-rotating polar chart: (r1, psi1, r2, psi2) of states
    ordered [q1, v1, q2, v2] at times t, with the phases not wrapped.

    A single state (shape (4,)) gives floats through math's hypot and atan2;
    a stack (shape (..., 4), t broadcasting against (...)) gives arrays
    through numpy's, which differ from math's in the last bit for some
    arguments.
    """
    y = np.asarray(states, dtype=float)
    single = y.ndim == 1
    hypot, atan2 = (math.hypot, math.atan2) if single else (np.hypot, np.arctan2)
    q1, v1, q2, v2 = y.tolist() if single else np.moveaxis(y, -1, 0)
    p2 = v2 / omega
    return hypot(q1, v1), atan2(-v1, q1) - t, hypot(q2, p2), atan2(-p2, q2) - omega * t


def polar_to_cart(t, y, omega: float) -> np.ndarray:
    """Evaluate the polar chart: the states [q1, v1, q2, v2] at times t of
    polar states [r1, psi1, r2, psi2, ...] (shape (..., 4+), t broadcasting
    against (...)); the forward twin of :func:`polar_coordinates`."""
    r1, psi1, r2, psi2 = np.moveaxis(np.asarray(y, dtype=float)[..., :4], -1, 0)
    th1, th2 = t + psi1, omega * t + psi2
    return np.stack([r1 * np.cos(th1), -r1 * np.sin(th1),
                     r2 * np.cos(th2), -omega * r2 * np.sin(th2)], axis=-1)


def mode_actions(states, omega: float):
    """Actions (E1, E2) of the two modes, vectorized over (..., 4) states
    ordered [q1, v1, q2, v2]."""
    q1, v1, q2, v2 = np.moveaxis(np.asarray(states, dtype=float), -1, 0)
    return 0.5 * (v1**2 + q1**2), 0.5 * (v2**2 + omega**2 * q2**2)


def slow_rhs(t, y, p: ModelParams) -> np.ndarray:
    """Equations of motion in the polar chart, with tau as fifth variable.

    Obtained by variation of constants from the Cartesian equations; exactly
    equivalent to the full system away from the normal modes. Works on
    scalar or array t (amplitudes and phases frozen), and on complex
    amplitudes and phases for derivative checks; the decay factor is
    :func:`symevol.model.alpha` of the real slow time tau.
    """
    r1, psi1, r2, psi2, tau = y[0], y[1], y[2], y[3], y[4]
    al = alpha(tau, p.alpha_kind)
    w = p.omega
    e = p.epsilon
    th1 = t + psi1
    th2 = w * t + psi2
    c1, s1 = np.cos(th1), np.sin(th1)
    c2, s2 = np.cos(th2), np.sin(th2)
    g1 = p.a1 * r1 * r1 * c1 * c1 + p.a2 * r2 * r2 * c2 * c2 + al * 2.0 * p.a4 * r1 * c1 * r2 * c2
    g2 = 2.0 * p.a2 * r1 * c1 * r2 * c2 + al * (p.a3 * r2 * r2 * c2 * c2 + p.a4 * r1 * r1 * c1 * c1)
    dr1 = -e * s1 * g1
    dpsi1 = -e * c1 * g1 / r1
    dr2 = -(e / w) * s2 * g2
    dpsi2 = -(e / w) * c2 * g2 / r2
    dtau = np.zeros_like(dr1) + p.delta
    return np.stack([np.broadcast_to(dr1, dtau.shape), np.broadcast_to(dpsi1, dtau.shape),
                     np.broadcast_to(dr2, dtau.shape), np.broadcast_to(dpsi2, dtau.shape),
                     dtau])

