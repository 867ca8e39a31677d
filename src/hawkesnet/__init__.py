"""Sparse + low-rank network inference for multivariate Hawkes processes."""

from .model import (EventData, ModelParams, branching_matrix, intensity_at,
                    mean_stationary_intensity, spectral_radius)
from .simulate import (ScenarioConfig, SimConfig, generate_scenario,
                       scaled_box_ranges, simulate, simulate_replication)
from .features import (PenaltyWeights, Window, compute_stats,
                       constant_weights, practical_weights,
                       theoretical_weights)
from .loss import LossValueGrad, least_squares, neg_log_likelihood_cached
from .penalty import pen_value, prox_l1_nonneg, prox_trace, trace_norm
from .solver import (CVResult, FitConfig, FitResult, cross_validate,
                     fit_fista, fit_hawkes, fit_split)
from .metrics import EvalReport, auc_score, evaluate, relative_error
from .bounds import (BoundReport, NoiseMatrices, check_opnorm_bound,
                     check_pointwise_bound, compute_noise,
                     default_bound_params, opnorm_bound_rhs,
                     pointwise_bound_rhs, wilson_interval)
from .experiment import ExperimentConfig, aggregate, run_experiment

__version__ = "0.1.0"
