"""Two degrees-of-freedom cubic oscillator with slowly decaying asymmetry.

A unit-frequency mode q1 is coupled to a mode q2 of frequency omega through
cubic terms. The coefficients a1, a2 multiply terms that are even in q2
(mirror symmetric); a3, a4 multiply the symmetry-breaking terms, which are
damped by a monotone factor alpha(delta*t) so the dynamics drifts toward
the symmetric system as t grows.

First-order equations of motion for y = [q1, v1, q2, v2]:

    q1' = v1
    v1' = -q1          + eps*(a1*q1^2 + a2*q2^2) + eps*alpha(delta*t)*2*a4*q1*q2
    q2' = v2
    v2' = -omega^2*q2  + eps*2*a2*q1*q2          + eps*alpha(delta*t)*(a3*q2^2 + a4*q1^2)

The cubic terms carry the explicit small factor eps; eps = 1 recovers the
unscaled potential. The decay rate defaults to delta = eps**n; delta = 0
freezes alpha at 1 and makes the system conservative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ALPHA_KINDS",
    "ModelParams",
    "CartesianState",
    "alpha",
    "eval_hamiltonian",
    "full_rhs",
    "Equations",
    "FULL_EQUATIONS",
    "dissipative_rhs",
    "dissipative_to_cartesian",
    "cartesian_to_dissipative",
]

ALPHA_KINDS = ("exponential", "polynomial")

# The decay laws of ALPHA_KINDS at the slow time tau, written once: alpha
# evaluates this text, and FULL_EQUATIONS writes it into full_rhs and into the
# Taylor recurrences of the generated steps, so that no step calls alpha.
# ``exp`` is libm's exp: of a float, or of every entry of an array.
_DECAY_LAW = "exp(-tau) if exponential else 1.0 / (1.0 + tau)"


def _exp(x):
    """libm's exp of a float, or of every entry of an array: numpy's exp
    differs from libm's in the last bit of some inputs, and an entry must get
    the float's bits."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return math.exp(x)


def _check_slow_time(tau):
    """ValueError unless the slow time tau, a float or every entry of an
    array, is >= 0."""
    if np.any(tau < 0.0) if isinstance(tau, np.ndarray) else tau < 0.0:
        raise ValueError("slow time tau must be >= 0")


_decay = eval(f"lambda tau, exponential: {_DECAY_LAW}", {"exp": _exp})


def alpha(tau, kind="exponential"):
    """Decay factor of the symmetry-breaking terms at slow time tau >= 0.

    Monotone from alpha(0) = 1 toward 0. "exponential" is exp(-tau);
    "polynomial" is 1/(1 + tau) and is accepted for the full equations of
    motion only (the averaged systems and the dissipative transform assume
    the exponential law). ``tau`` is a float, or an ndarray taken element by
    element: an entry gets the float's value bit for bit.
    """
    if kind not in ALPHA_KINDS:
        raise ValueError(f"unknown alpha kind {kind!r}")
    _check_slow_time(tau)
    return _decay(tau, kind == "exponential")


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the cubic model and of its slow decay.

    The interesting asymmetric regime has a4 != 0. ``delta`` defaults to
    ``epsilon**n``; pass ``delta=0`` for the frozen (conservative) system.
    """

    a1: float
    a2: float
    a3: float
    a4: float
    omega: float
    epsilon: float
    n: int = 2
    alpha_kind: str = "exponential"
    delta: float | None = None

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.omega <= 0.0 or not math.isfinite(self.omega * self.omega):
            raise ValueError(f"omega must be positive with a finite square, got {self.omega}")
        if self.n < 1 or int(self.n) != self.n:
            raise ValueError(f"decay exponent n must be a positive integer, got {self.n}")
        if self.alpha_kind not in ALPHA_KINDS:
            raise ValueError(f"unknown alpha kind {self.alpha_kind!r}")
        if self.delta is None:
            object.__setattr__(self, "delta", float(self.epsilon) ** int(self.n))
        elif not 0.0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")

    def replace(self, **changes) -> "ModelParams":
        from dataclasses import replace as _replace

        return _replace(self, **changes)


@dataclass(frozen=True)
class CartesianState:
    """Time-stamped phase-space point (q1, v1, q2, v2)."""

    t: float
    q1: float
    v1: float
    q2: float
    v2: float

    def __post_init__(self):
        for name in ("t", "q1", "v1", "q2", "v2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite state component {name}")

    def as_array(self) -> np.ndarray:
        return np.array([self.q1, self.v1, self.q2, self.v2])


def eval_hamiltonian(t, y, p: ModelParams):
    """Energy at time t: quadratic part plus the eps-scaled cubic potential."""
    q1, v1, q2, v2 = y
    al = alpha(p.delta * t, p.alpha_kind)
    h2 = 0.5 * (v1 * v1 + q1 * q1) + 0.5 * (v2 * v2 + p.omega**2 * q2 * q2)
    h3 = p.a1 * q1**3 / 3.0 + p.a2 * q1 * q2 * q2
    h3t = p.a3 * q2**3 / 3.0 + p.a4 * q1 * q1 * q2
    return h2 - p.epsilon * (h3 + al * h3t)


class Equations(NamedTuple):
    """A vector field written once, as straight-line source text.

    ``body`` is a sequence of assignments, each to a name no other assigns.
    With the time in ``t`` and the state components in the names ``state``,
    they assign the rates of the components to the names ``rates``. Besides
    their own results they read the fields ``params`` of :class:`ModelParams`
    and libm's ``exp``, which each evaluator binds for its components: floats
    (a single run) or arrays (a batch, and :func:`full_rhs` on arrays).
    ``guard`` holds statements of ``t`` and the parameters that raise
    ValueError where the field is not defined; :func:`full_rhs` runs them at
    every call, a generated step once per run, at its start time, so what
    they test must hold at every later time once it holds at one.

    The Taylor method of :mod:`symevol.integrate` sorts the statements in two
    classes: those that read neither ``t`` nor a state name, directly or
    through an earlier statement, run once per run; every other one assigns
    a Taylor series and may use only ``+``, ``-``, ``*``, ``/``, ``exp`` and
    ``a if c else b`` with ``c`` of the first class. The generated code
    reserves ``t``, every name that starts with an underscore and the names
    that :class:`symevol.integrate.InlineRhs` lists.
    """

    state: tuple
    rates: tuple
    params: tuple
    body: tuple
    guard: tuple

    def bindings(self, p: ModelParams) -> dict:
        """Every name the body and the guard read besides the state, ``t``,
        ``exp`` and the body's own results, bound at p."""
        return {"check_slow_time": _check_slow_time,
                **{name: getattr(p, name) for name in self.params}}


# The full equations of motion. ``full_rhs`` is generated from them, and so is
# the Taylor method of the single-run and batched steps (integrate.InlineRhs).
# The factors that read only the parameters are statements of their own, so
# that the steps evaluate them once per run, and the three quadratic products
# of the coordinates are too, so that the Taylor method takes five Cauchy
# products per coefficient: these three and the decay factor's two. The slow
# time only grows along a run, so the guard holds at every stage once it
# holds at the start.
FULL_EQUATIONS = Equations(
    state=("q1", "v1", "q2", "v2"),
    rates=("dq1", "dv1", "dq2", "dv2"),
    params=("a1", "a2", "a3", "a4", "omega", "epsilon", "delta", "alpha_kind"),
    body=("minus_omega_sq = -omega**2",
          "eps_2a2 = epsilon * 2.0 * a2",
          "eps_2a4 = epsilon * 2.0 * a4",
          "exponential = alpha_kind == 'exponential'",
          "tau = delta * t",
          f"al = {_DECAY_LAW}",
          "q1q1 = q1 * q1",
          "q2q2 = q2 * q2",
          "q1q2 = q1 * q2",
          "dq1 = v1",
          "dv1 = -q1 + epsilon * (a1 * q1q1 + a2 * q2q2) + al * (eps_2a4 * q1q2)",
          "dq2 = v2",
          "dv2 = (minus_omega_sq * q2 + eps_2a2 * q1q2"
          " + al * (epsilon * (a3 * q2q2 + a4 * q1q1)))"),
    guard=("check_slow_time(delta * t)",))


def _rhs_function(equations: Equations, name: str, doc: str):
    """``name(t, y, p)``: the rates of ``equations`` at the state ``y``, a
    sequence of its components, and the parameters p."""
    lines = [f"def {name}(t, y, p):",
             f"    {', '.join(equations.state)} = y",
             *(f"    {param} = p.{param}" for param in equations.params),
             *(f"    {statement}" for statement in (*equations.guard, *equations.body)),
             f"    return {', '.join(equations.rates)}"]
    namespace = {"exp": _exp, "check_slow_time": _check_slow_time, "__name__": __name__}
    exec("\n".join(lines), namespace)
    function = namespace[name]
    function.__doc__ = doc
    return function


full_rhs = _rhs_function(FULL_EQUATIONS, "full_rhs", """\
Right-hand side of the full equations of motion, generated from
:data:`FULL_EQUATIONS`.

``y`` is the state as a sequence of its four components (q1, v1, q2, v2)
and the answer is the tuple of their rates. A component is a float, or an
array with one entry per row of a batch; ``t`` is then a float or an array
of the same shape. The arithmetic is elementwise, so every entry equals the
call on floats bit for bit.
""")


def dissipative_rhs(t, y, p: ModelParams):
    """Autonomous damped form of the intermediate system, z = exp(-delta*t)*q.

    The intermediate system is :func:`full_rhs` at ``p.replace(a1=0.0,
    a2=0.0)``: the symmetric cubic terms removed, so the plane q1 = v1 = 0
    is invariant. Valid for the exponential decay law only; the homogeneity of the cubic
    terms turns the explicit time dependence into linear friction 2*delta:

        z1'' + z1         = -2*delta*z1' - delta^2*z1 + eps*2*a4*z1*z2
        z2'' + omega^2*z2 = -2*delta*z2' - delta^2*z2 + eps*(a3*z2^2 + a4*z1^2)

    Takes and answers states as :func:`full_rhs`.
    """
    if p.alpha_kind != "exponential":
        raise ValueError("dissipative form only exists for the exponential decay law")
    z1, w1, z2, w2 = y
    d = p.delta
    e = p.epsilon
    dw1 = -z1 - 2.0 * d * w1 - d * d * z1 + e * 2.0 * p.a4 * z1 * z2
    dw2 = -p.omega**2 * z2 - 2.0 * d * w2 - d * d * z2 + e * (p.a3 * z2 * z2 + p.a4 * z1 * z1)
    return w1, dw1, w2, dw2


def dissipative_to_cartesian(t, z, delta):
    """Map damped coordinates back to the intermediate system: q = exp(delta*t)*z.

    Accepts a single state (shape (4,)) or a stack of states (shape (m, 4))
    with matching t; at rate -delta it is the inverse map.
    """
    z = np.asarray(z, dtype=float)
    s = np.exp(np.asarray(delta * np.asarray(t, dtype=float)))
    z1, w1, z2, w2 = np.moveaxis(z, -1, 0)
    return np.stack([s * z1, s * (w1 + delta * z1), s * z2, s * (w2 + delta * z2)], axis=-1)


def cartesian_to_dissipative(t, y, delta):
    """Inverse of :func:`dissipative_to_cartesian`: z = exp(-delta*t)*q."""
    return dissipative_to_cartesian(t, y, -delta)
