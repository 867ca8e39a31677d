"""Monte Carlo validation of the data-driven martingale deviation bounds.

With data simulated from known parameters the true intensity is available,
so the noise matrix

    Z[j, k](T) = sum over events t of node j of H[j, k](t-)
                 - int_0^T H[j, k](s) lambda_j(s) ds

is computable in closed form: it is -(T/2) times the least-squares
gradient in A at the true parameters (no quadrature).  Each replication
checks the observable deviation bounds; empirical violation rates are
compared against the stated probability budgets with Wilson confidence
intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import TAU_LIN_A, TAU_LIN_B, W_A_LIN, FeatureStats, \
    compute_stats, iterated_log_A, iterated_log_opnorm, opnorm_V1, opnorm_V2
from .loss import least_squares, precompute_gram
from .model import EventData, ModelParams
from .simulate import simulate_replication

#: probability budgets of the two deviation bounds
POINTWISE_PROB_CONST = 30.55
OPNORM_PROB_CONST = 84.9


@dataclass(frozen=True)
class NoiseMatrices:
    Z: np.ndarray
    M_T: np.ndarray
    opnorm_Z: float


@dataclass(frozen=True)
class BoundReport:
    bound_id: str  # "pointwise" | "operator-norm"
    x: float
    n_reps: int
    violation_count: int
    stated_bound: float
    empirical_rate: float
    wilson_ci: tuple

    def as_dict(self) -> dict:
        return {
            "bound_id": self.bound_id,
            "x": self.x,
            "n_reps": self.n_reps,
            "violation_count": self.violation_count,
            "stated_bound": self.stated_bound,
            "empirical_rate": self.empirical_rate,
            "wilson_ci": list(self.wilson_ci),
        }

    @property
    def holds(self) -> bool:
        """True when the rate is not significantly above the stated bound."""
        return self.wilson_ci[0] <= self.stated_bound


def compute_noise(params_true: ModelParams, data: EventData) -> NoiseMatrices:
    """Exact compensated noise matrix and compensated counts.

    At the true parameters the least-squares gradient is the noise:
    grad_A = -(2/T) Z and grad_mu = -(2/T) M_T, both closed form for
    exponential kernels.
    """
    T = data.horizon_T
    grad = least_squares(params_true.mu, params_true.A,
                         precompute_gram(data, params_true.alpha))
    Z = -(T / 2) * grad.grad_A
    opnorm_Z = float(np.linalg.norm(Z, 2)) if Z.size else 0.0
    return NoiseMatrices(Z=Z, M_T=-(T / 2) * grad.grad_mu, opnorm_Z=opnorm_Z)


def pointwise_bound_rhs(stats: FeatureStats, x: float) -> np.ndarray:
    """Entrywise deviation bound on Z[j, k](T) / T (union over all pairs)."""
    T, d = stats.horizon_T, stats.d
    L = iterated_log_A(stats.Vhat, stats.B, x, T)
    lev = x + 2 * math.log(d) + L
    return 2 * math.sqrt(2) * np.sqrt(lev * stats.Vhat / T) \
        + W_A_LIN / 2 * lev * stats.B / T


def opnorm_bound_rhs(stats: FeatureStats, x: float) -> float:
    """Deviation bound on the operator norm of Z(T) / T."""
    T, d = stats.horizon_T, stats.d
    lev = x + math.log(d) + iterated_log_opnorm(stats, x)
    vmax = max(opnorm_V1(stats), opnorm_V2(stats))
    return 4 * math.sqrt(lev * vmax / T) + lev * (
        TAU_LIN_A + TAU_LIN_B * stats.sup_H_2inf) / T


def wilson_interval(k: int, n: int, conf: float = 0.99) -> tuple:
    """Wilson score interval for a binomial proportion."""
    from scipy.stats import norm
    if n <= 0:
        raise ValueError("n must be positive")
    z = float(norm.ppf(1 - (1 - conf) / 2))
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def default_bound_params(d: int, mu: float = 0.5, coupling_opnorm: float = 0.5,
                         alpha: float = 1.0) -> ModelParams:
    """Simple deterministic stationary parameters for bound checks."""
    A = np.full((d, d), coupling_opnorm / d)  # operator norm of ones(d) is d
    return ModelParams(mu=np.full(d, mu), A=A, alpha=np.full((d, d), alpha))


def _check(bound_id: str, prob_const: float, params: ModelParams,
           horizon_T: float, x: float, n_reps: int, seed: int,
           violated) -> BoundReport:
    """Count the replications where ``violated(stats, noise)`` holds."""
    if x <= 0 or n_reps < 1:
        raise ValueError("need x > 0 and n_reps >= 1")
    k = 0
    for rep in range(n_reps):
        data = simulate_replication(params, horizon_T, seed, rep)
        stats = compute_stats(data, params.alpha)
        k += bool(violated(stats, compute_noise(params, data)))
    return BoundReport(bound_id=bound_id, x=x, n_reps=n_reps,
                       violation_count=k,
                       stated_bound=min(prob_const * math.exp(-x), 1.0),
                       empirical_rate=k / n_reps,
                       wilson_ci=wilson_interval(k, n_reps))


def check_pointwise_bound(params: ModelParams, horizon_T: float, x: float,
                          n_reps: int, seed: int) -> BoundReport:
    """Violation rate of the entrywise bound, counting |Z| exceedances.

    Both signs of Z are checked (the proof-side usage of the bound is
    two-sided with the same probability budget).
    """
    def violated(stats, noise):
        rhs = pointwise_bound_rhs(stats, x)
        return np.any(np.abs(noise.Z) / horizon_T > rhs)

    return _check("pointwise", POINTWISE_PROB_CONST, params, horizon_T, x,
                  n_reps, seed, violated)


def check_opnorm_bound(params: ModelParams, horizon_T: float, x: float,
                       n_reps: int, seed: int) -> BoundReport:
    """Violation rate of the operator-norm bound on Z(T) / T."""
    def violated(stats, noise):
        return noise.opnorm_Z / horizon_T > opnorm_bound_rhs(stats, x)

    return _check("operator-norm", OPNORM_PROB_CONST, params, horizon_T, x,
                  n_reps, seed, violated)
