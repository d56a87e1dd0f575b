"""symevol: numerical laboratory for a two degrees-of-freedom cubic
oscillator whose mirror-symmetry breaking decays slowly in time."""

__version__ = "0.19.1"

from .model import (CartesianState, ModelParams, alpha, dissipative_rhs,
                    eval_hamiltonian, full_rhs)
from .transforms import mode_actions, polar_coordinates, slow_rhs, wrap_angle
from .integrate import IntegrationError, IntegratorConfig, Trajectory, integrate, order_check
from .averaged import polar_view
from .resonance import (classify_11, locate_12_first, locate_12_second, locate_13,
                        verify_stability_numerically)
from .experiments import (EnsembleSpec, ScenarioConfig, compare_full_vs_averaged,
                          run_ensemble, run_scenario)

__all__ = [
    "__version__",
    "ModelParams", "CartesianState", "alpha", "eval_hamiltonian", "full_rhs",
    "dissipative_rhs",
    "mode_actions", "polar_coordinates", "slow_rhs", "wrap_angle",
    "IntegratorConfig", "Trajectory", "IntegrationError", "integrate", "order_check",
    "polar_view",
    "locate_12_first", "locate_12_second", "locate_13", "classify_11",
    "verify_stability_numerically",
    "ScenarioConfig", "EnsembleSpec", "run_scenario", "run_ensemble",
    "compare_full_vs_averaged",
]
