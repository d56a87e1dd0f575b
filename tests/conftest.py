import importlib

import numpy as np
import pytest

from symevol.model import CartesianState, ModelParams


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def params12():
    """Canonical 1:2 coefficients at eps = 0.1, n = 2."""
    return ModelParams(a1=1.0, a2=1.0, a3=0.75, a4=1.5, omega=2.0, epsilon=0.1, n=2)


def random_polar(rng, tau_max=2.0):
    """Non-degenerate polar point [r1, psi1, r2, psi2, tau]."""
    return np.array([
        rng.uniform(0.2, 1.3),
        rng.uniform(-3.0, 3.0),
        rng.uniform(0.2, 1.3),
        rng.uniform(-3.0, 3.0),
        rng.uniform(0.0, tau_max),
    ])


def fig_params(n: int, epsilon: float = 0.1) -> ModelParams:
    """The presets' canonical 1:2 coefficients (a = 1, 1, 0.75, 1.5) at
    decay exponent n."""
    return ModelParams(a1=1.0, a2=1.0, a3=0.75, a4=1.5, omega=2.0,
                       epsilon=epsilon, n=n)


def fig_initial_state() -> CartesianState:
    """The presets' initial data: at the origin with velocities (0.5, 0.5)."""
    return CartesianState(t=0.0, q1=0.0, v1=0.5, q2=0.0, v2=0.5)


def rk4_steps(rhs, y0, t0, h, n):
    """The states after each of n fixed rk4 steps, step i from t0 + i h, as
    order_check takes them."""
    step = importlib.import_module("symevol.integrate")._rk4_step
    y = tuple(y0.tolist())
    f = tuple(rhs(t0, y))
    states = []
    for i in range(n):
        y, f = step(rhs, t0 + i * h, h, y, f)
        assert np.all(np.isfinite(y + f))
        states.append(y)
    return np.array(states)
