"""Monte Carlo validation of the data-driven martingale deviation bounds.

With data simulated from known parameters the true intensity is available,
so the noise matrix

    Z[j, k](T) = sum over events t of node j of H[j, k](t-)
                 - int_0^T H[j, k](s) lambda_j(s) ds

is computable in closed form: it is -(T/2) times the least-squares
gradient in A at the true parameters (no quadrature).  Each replication
checks the observable deviation bounds, which are half the theoretical
weights (``features.theoretical_weights``) the estimator is penalised with;
empirical violation rates are compared against the stated probability
budgets with Wilson confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

from .features import Window, compute_stats, theoretical_weights
# precompute_gram is wrapped here by perfbench/
from .loss import least_squares, precompute_gram  # noqa: F401
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
    #: the window Z was read from, whose statistics the bounds read
    window: Window


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
        """The fields and ``holds``."""
        return {**asdict(self), "holds": self.holds}

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
    window = compute_stats(data, params_true.alpha)
    grad = least_squares(params_true.mu, params_true.A, window)
    Z = -(T / 2) * grad.grad_A
    opnorm_Z = float(np.linalg.norm(Z, 2)) if Z.size else 0.0
    return NoiseMatrices(Z=Z, M_T=-(T / 2) * grad.grad_mu, opnorm_Z=opnorm_Z,
                         window=window)


def pointwise_bound_rhs(stats: Window, x: float) -> np.ndarray:
    """Entrywise deviation bound on Z[j, k](T) / T (union over all pairs):
    half the theoretical weights W."""
    return theoretical_weights(stats, x).W / 2


def opnorm_bound_rhs(stats: Window, x: float) -> float:
    """Deviation bound on the operator norm of Z(T) / T: half the
    theoretical trace-norm coefficient."""
    return theoretical_weights(stats, x).tau / 2


def wilson_interval(k: int, n: int) -> tuple:
    """99% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    z = NormalDist().inv_cdf(0.995)
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def default_bound_params(d: int, mu: float = 0.5, coupling_opnorm: float = 0.5,
                         alpha: float = 1.0) -> ModelParams:
    """The uniform model of the bound checks and of ``simulate``: every
    baseline mu, every decay alpha, and a constant coupling matrix with
    operator norm ``coupling_opnorm``."""
    if d <= 0:
        raise ValueError("d must be positive")
    A = np.full((d, d), coupling_opnorm / d)  # operator norm of ones(d) is d
    return ModelParams(mu=np.full(d, mu), A=A, alpha=np.full((d, d), alpha))


def _check(bound_id: str, prob_const: float, params: ModelParams,
           horizon_T: float, x: float, n_reps: int, seed: int,
           violated) -> BoundReport:
    """Count the replications where ``violated(noise)`` holds."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"x must be finite and positive; got {x}")
    if n_reps < 1:
        raise ValueError("need n_reps >= 1")
    k = 0
    for rep in range(n_reps):
        data = simulate_replication(params, horizon_T, seed, rep)
        k += bool(violated(compute_noise(params, data)))
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
    def violated(noise):
        rhs = pointwise_bound_rhs(noise.window, x)
        return np.any(np.abs(noise.Z) / horizon_T > rhs)

    return _check("pointwise", POINTWISE_PROB_CONST, params, horizon_T, x,
                  n_reps, seed, violated)


def check_opnorm_bound(params: ModelParams, horizon_T: float, x: float,
                       n_reps: int, seed: int) -> BoundReport:
    """Violation rate of the operator-norm bound on Z(T) / T."""
    def violated(noise):
        return noise.opnorm_Z / horizon_T > opnorm_bound_rhs(noise.window, x)

    return _check("operator-norm", OPNORM_PROB_CONST, params, horizon_T, x,
                  n_reps, seed, violated)
