"""Penalized empirical-risk solvers.

Every solver takes the penalty as an argument, its weights
``PenaltyWeights(w, W, tau)``: w . |mu| + W . |A| + tau * ||A||_* over
mu, A >= 0.  ``FitConfig`` holds only the solver settings (loss, iteration
budget, tolerance).  Without a trace norm (tau = 0) FISTA, accelerated
proximal gradient with backtracking and momentum restart, takes exact
weighted-l1 + nonnegativity prox steps.  With tau > 0 Davis-Yin
three-operator splitting (Davis & Yin 2017) solves the same problem
exactly: the loss gradient, the same backtracked prox step and one singular
value thresholding per iteration, with the adaptive step of Pedregosa &
Gidel (2018) for both losses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence, Tuple

import numpy as np

from .features import PenaltyWeights, Window, compute_stats, \
    constant_weights, practical_weights
# build_loglik_cache and precompute_gram are wrapped here by perfbench/
from .loss import build_loglik_cache, least_squares, \
    neg_log_likelihood_cached, precompute_gram  # noqa: F401
from .penalty import pen_value, prox_l1_nonneg, prox_trace

#: first step, backtracking factor and per-iteration step growth
STEP0, SHRINK, GROWTH = 1.0, 0.5, 2.0
#: the values of ``FitConfig.loss_kind``
LOSS_KINDS = ("least-squares", "log-likelihood")


@dataclass(frozen=True)
class FitConfig:
    loss_kind: str = "least-squares"
    max_iter: int = 100
    tol: float = 1e-7

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss_kind {self.loss_kind!r}")


@dataclass
class FitResult:
    mu: np.ndarray
    A: np.ndarray
    objective_trace: list
    iterations_used: int
    converged: bool
    #: the step of the last accepted iterate
    final_step: float
    #: the penalized objective at the returned (mu, A)
    final_objective: float
    solver: str  # "fista" | "split"
    #: no step taken from y = x raised the objective it minimises
    sufficient_decrease_ok: bool

    def as_dict(self) -> dict:
        return {
            "iterations_used": self.iterations_used,
            "converged": self.converged,
            "final_step": self.final_step,
            "solver": self.solver,
            "sufficient_decrease_ok": self.sufficient_decrease_ok,
            "final_objective": self.final_objective,
        }


class LineSearchError(RuntimeError):
    pass


def _inner(dmu, dA, gmu, gA) -> float:
    return float(np.sum(dmu * gmu) + np.sum(dA * gA))


def _sqnorm(dmu, dA) -> float:
    return float(np.sum(dmu * dmu) + np.sum(dA * dA))


def _within_tol(lhs: float, rhs: float) -> bool:
    """lhs <= rhs up to the backtracking tolerance."""
    return bool(lhs <= rhs + 1e-12 * max(1.0, abs(rhs)))


def _backtrack(smooth, weights, y_mu, y_A, f_y, g_mu, g_A, step, u_A=None):
    """Shrink step until the quadratic upper bound holds at the point of the
    weighted-l1 + nonnegativity prox (a projection for zero weights) of y
    moved along the gradient, plus ``u_A`` on A (the bound reads no u_A)."""
    s_A = g_A if u_A is None else g_A + u_A
    while True:
        x_mu = prox_l1_nonneg(y_mu - step * g_mu, weights.w, step)
        x_A = prox_l1_nonneg(y_A - step * s_A, weights.W, step)
        f_new = smooth(x_mu, x_A)[0]
        d_mu, d_A = x_mu - y_mu, x_A - y_A
        bound = f_y + _inner(d_mu, d_A, g_mu, g_A) + _sqnorm(d_mu, d_A) / (2 * step)
        if np.isfinite(f_new) and _within_tol(f_new, bound):
            return x_mu, x_A, f_new, step
        step *= SHRINK
        if step < 1e-16:
            raise LineSearchError("line search failed (step underflow)")


def fit_fista(smooth: Callable, weights: PenaltyWeights,
              mu0: np.ndarray, A0: np.ndarray, config: FitConfig) -> FitResult:
    """Accelerated proximal gradient with backtracking and momentum restart.

    ``smooth(mu, A) -> (value, grad_mu, grad_A)``; the weights carry no
    trace norm (tau = 0), so their prox is exact.  Returns the best iterate
    by penalized objective.  ``sufficient_decrease_ok`` says whether every
    step from y = x (the first, and after each momentum restart) kept the
    objective from rising, as an exact prox does.
    """
    if weights.tau > 0:
        raise ValueError("fit_fista takes no trace norm; use fit_split")
    x_mu, x_A = mu0.copy(), A0.copy()
    y_mu, y_A = x_mu.copy(), x_A.copy()
    t_mom = 1.0
    trial = STEP0
    f0 = smooth(x_mu, x_A)[0]
    if not np.isfinite(f0):
        raise LineSearchError("infeasible starting point")
    obj_prev = f0 + pen_value(x_mu, x_A, weights)
    best = (x_mu.copy(), x_A.copy(), obj_prev)
    trace = []
    decrease_ok = True
    from_x = True
    for _ in range(config.max_iter):
        f_y, g_mu, g_A = smooth(y_mu, y_A)
        if not np.isfinite(f_y):
            # momentum overshot the feasible region; restart from x
            y_mu, y_A = x_mu.copy(), x_A.copy()
            t_mom = 1.0
            from_x = True
            f_y, g_mu, g_A = smooth(y_mu, y_A)
        xn_mu, xn_A, f_new, step = _backtrack(
            smooth, weights, y_mu, y_A, f_y, g_mu, g_A, trial)
        obj = f_new + pen_value(xn_mu, xn_A, weights)
        trace.append(obj)
        if from_x:
            decrease_ok &= _within_tol(obj, obj_prev)
        if obj < best[2]:
            best = (xn_mu.copy(), xn_A.copy(), obj)
        from_x = obj > obj_prev
        if from_x:  # safeguard: restart momentum on objective increase
            t_new = 1.0
            y_mu, y_A = xn_mu.copy(), xn_A.copy()
        else:
            t_new = (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom)) / 2.0
            beta = (t_mom - 1.0) / t_new
            y_mu = xn_mu + beta * (xn_mu - x_mu)
            y_A = xn_A + beta * (xn_A - x_A)
        converged = bool(abs(obj - obj_prev) / max(1.0, abs(obj)) < config.tol)
        if converged:
            break
        x_mu, x_A = xn_mu, xn_A
        t_mom = t_new
        obj_prev = obj
        trial = step * GROWTH
    return FitResult(mu=best[0], A=best[1], objective_trace=trace,
                     iterations_used=len(trace), converged=converged,
                     final_step=step, final_objective=best[2], solver="fista",
                     sufficient_decrease_ok=decrease_ok)


def fit_split(smooth: Callable, weights: PenaltyWeights,
              mu0: np.ndarray, A0: np.ndarray, config: FitConfig) -> FitResult:
    """Davis-Yin three-operator splitting with the adaptive step of
    Pedregosa & Gidel: x is the backtracked weighted-l1 + nonnegativity
    prox of z - step * (grad f(z) + u), z_A the singular value thresholding
    of x_A + step * u, and u += (x - z) / step.  The trace norm acts on A
    only, so z_mu = x_mu.  Returns the best x by penalized objective (it is
    nonnegative); ``sufficient_decrease_ok`` says whether the first step, a
    plain prox-gradient step (u = 0), kept loss + l1 from rising.
    """
    l1 = replace(weights, tau=0.0)
    z_mu, z_A = mu0.copy(), A0.copy()
    u_A = np.zeros_like(z_A)
    f_z, g_mu, g_A = smooth(z_mu, z_A)
    if not np.isfinite(f_z):
        raise LineSearchError("infeasible starting point")
    obj_prev = f_z + pen_value(z_mu, z_A, weights)
    best = (z_mu, z_A, math.inf)
    trace = []
    trial = STEP0
    for k in range(config.max_iter):
        x_mu, x_A, f_x, step = _backtrack(
            smooth, weights, z_mu, z_A, f_z, g_mu, g_A, trial, u_A)
        obj = f_x + pen_value(x_mu, x_A, weights)
        trace.append(obj)
        if k == 0:
            decrease_ok = _within_tol(f_x + pen_value(x_mu, x_A, l1),
                                      f_z + pen_value(z_mu, z_A, l1))
        if obj < best[2]:
            best = (x_mu, x_A, obj)
        converged = bool(abs(obj - obj_prev) / max(1.0, abs(obj)) < config.tol)
        if converged:
            break
        obj_prev = obj
        # a z outside the loss's domain (a log-likelihood intensity <= 0)
        # is rebuilt from the same x and u with a shorter step
        gamma, z_mu = step, x_mu
        while True:
            z_A = prox_trace(x_A + gamma * u_A, gamma * weights.tau)
            f_z, g_mu, g_A = smooth(z_mu, z_A)
            if np.isfinite(f_z):
                break
            gamma *= SHRINK
            if gamma < 1e-16:
                raise LineSearchError("no feasible z (step underflow)")
        u_A = u_A + (x_A - z_A) / gamma
        trial = gamma * GROWTH
    return FitResult(mu=best[0], A=best[1], objective_trace=trace,
                     iterations_used=len(trace), converged=converged,
                     final_step=step, final_objective=best[2], solver="split",
                     sufficient_decrease_ok=decrease_ok)


#: the name the trace-norm dispatch calls (perfbench/ wraps it)
fit_prisma = fit_split


def _make_loss_oracle(window: Window, loss_kind: str):
    def smooth(mu, A):
        loss = least_squares if loss_kind == "least-squares" \
            else neg_log_likelihood_cached
        out = loss(mu, A, window)
        return out.value, out.grad_mu, out.grad_A
    return smooth


def _default_init(window: Window, loss_kind: str):
    d, T = window.d, window.horizon_T
    if loss_kind == "log-likelihood":
        # counts/T keeps every event at positive intensity
        mu0 = np.maximum(window.counts / T, 1e-10)
    else:
        mu0 = np.zeros(d)
    return mu0, np.zeros((d, d))


def _solve(smooth: Callable, weights: PenaltyWeights, mu0: np.ndarray,
           A0: np.ndarray, config: FitConfig) -> FitResult:
    """Three-operator splitting when the weights carry a trace norm
    (tau > 0), else FISTA, which is accelerated and converges faster there.
    The split is called by its name ``fit_prisma``."""
    solve = fit_prisma if weights.tau > 0 else fit_fista
    return solve(smooth, weights, mu0, A0, config)


def fit_hawkes(window: Window, weights: PenaltyWeights,
               config: FitConfig = FitConfig()) -> FitResult:
    """Fit (mu, A) on one window (``compute_stats(data, alpha)``): the
    config's loss plus the weights' penalty."""
    smooth = _make_loss_oracle(window, config.loss_kind)
    return _solve(smooth, weights, *_default_init(window, config.loss_kind),
                  config)


@dataclass(frozen=True)
class CVResult:
    best: Tuple[float, float, float]  # (c1, c2, tau)
    scores: list  # rows of (c1, c2, tau, heldout_loglik)
    fit: FitResult  # refit with the winning constants


def heldout_loglik(mu, A, cache: Window, clip: float = 1e-12) -> float:
    """Log-likelihood of (mu, A) on a held-out window (higher is better).

    ``cache`` is the held-out ``Window``.  Event intensities are clipped at
    ``clip`` so hard-thresholded baselines do not produce -inf for every
    candidate; a node without held-out events contributes only its
    compensator.
    """
    return -cache.horizon_T * neg_log_likelihood_cached(mu, A, cache,
                                                        clip).value


def cross_validate(data, alpha, config: FitConfig,
                   c1_grid: Sequence[float], c2_grid: Sequence[float],
                   tau_grid: Sequence[float] = (0.0,),
                   weighting: str = "practical") -> CVResult:
    """Tune (c1, c2, tau) by a half/half time split of the window.

    Fits on [0, T/2], scores by log-likelihood on the re-based second half
    (cold start: the test window's excitation ignores pre-split events),
    then refits on the full window with the winning constants.  Each of the
    three windows is swept once.
    """
    if not c1_grid or not c2_grid or not tau_grid:
        raise ValueError("grids must be nonempty")
    if weighting not in ("practical", "constant"):
        raise ValueError(f"unknown weighting {weighting!r}")
    T = data.horizon_T
    if T < 2:
        raise ValueError("window too short to split")
    train = data.truncated(T / 2)
    test = data.shifted(T / 2, T / 2)
    if train.total_events() == 0 or test.total_events() == 0:
        raise ValueError("empty train or test half")

    def fit(window, c1, c2, tau):
        weights = practical_weights(window, c1, c2, tau) \
            if weighting == "practical" \
            else constant_weights(window.d, c1, c2, tau)
        return fit_hawkes(window, weights, config)

    train, test = compute_stats(train, alpha), compute_stats(test, alpha)
    scores = []
    best_combo, best_score = None, -np.inf
    for c1, c2, tau in itertools.product(c1_grid, c2_grid, tau_grid):
        res = fit(train, c1, c2, tau)
        score = heldout_loglik(res.mu, res.A, test)
        scores.append((c1, c2, tau, score))
        if score > best_score:  # strict: first grid point wins ties
            best_combo, best_score = (c1, c2, tau), score
    final = fit(compute_stats(data, alpha), *best_combo)
    return CVResult(best=best_combo, scores=scores, fit=final)
