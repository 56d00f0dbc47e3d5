"""Noise-resilient amplitude and expectation estimation.

The package simulates the two-state walk circuits exactly or with shot
noise, estimates the walk phase from scale-free ratios of the depth
series t_n measured at depths (n, 2n, 3n), and ships an iterative
amplitude estimation baseline plus first-order perturbation checks for
the noisy channel's eigenstructure.
"""

from .baseline import IqaeResult, iqae_run
from .channels import NoiseSpec, avg_gate_fidelity, noise_superop
from .circuits import (CircuitSimulator, TProvider, exact_provider, perturbed_provider,
                       sampled_provider)
from .config import ExperimentConfig, build_problem, config_from_dict, config_to_dict
from .errors import (ConfigError, DegenerateProblemError, DepthGuardError,
                     EstimationFailure, NonPhysicalChannelError, NrqaeError)
from .estimator import (EstimationResult, candidate_angles, fit_decay, ratio_y,
                        roots_cos, run, seed_theta, select_candidate)
from .experiments import hoeffding_shots
from .model import (EstimationProblem, amplitude_problem, grover, grover_amplitude,
                    grover_observable, observable_problem, reflection_about, rho_tilde,
                    theta_to_value)
from .perturbation import (lemma1_check, lemma2_check, perturbed_steps, subspace_basis,
                           theorem1_check)

__version__ = "0.1.0"

__all__ = [
    "CircuitSimulator", "ConfigError", "DegenerateProblemError", "DepthGuardError",
    "EstimationFailure", "EstimationProblem", "EstimationResult", "ExperimentConfig",
    "IqaeResult", "NoiseSpec", "NonPhysicalChannelError", "NrqaeError", "TProvider",
    "amplitude_problem", "avg_gate_fidelity", "build_problem",
    "candidate_angles", "config_from_dict", "config_to_dict", "exact_provider",
    "fit_decay", "grover", "grover_amplitude", "grover_observable", "hoeffding_shots",
    "iqae_run", "lemma1_check", "lemma2_check", "noise_superop", "observable_problem",
    "perturbed_provider", "perturbed_steps", "ratio_y", "reflection_about", "rho_tilde",
    "roots_cos", "run", "sampled_provider", "seed_theta", "select_candidate",
    "subspace_basis", "theorem1_check", "theta_to_value",
]
