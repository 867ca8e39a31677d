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
from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence, Tuple

import numpy as np

from .features import PROCEDURES, PenaltyWeights, Window, compute_stats, \
    procedure_weights
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
    # the diagnostics, in the order ``as_dict`` reports them
    iterations_used: int
    converged: bool
    #: the step of the last accepted iterate
    final_step: float
    solver: str  # "fista" | "split"
    #: no step taken from y = x raised the objective it minimises
    sufficient_decrease_ok: bool
    #: the penalized objective at the returned (mu, A)
    final_objective: float

    def as_dict(self) -> dict:
        """The diagnostics: every field after the estimate and its trace."""
        return {f.name: getattr(self, f.name) for f in fields(self)[3:]}


class LineSearchError(RuntimeError):
    pass


def _pack(mu, A) -> np.ndarray:
    """The point (mu, A) as one vector (mu, A.ravel())."""
    return np.concatenate((mu, np.ravel(A)))


def _unpack(x, d):
    """The (mu, A) views of a packed point."""
    return x[:d], x[d:].reshape(d, d)


def _loss(smooth, x, d):
    """The loss at the packed point x and its gradient, packed as x is
    (None where the loss gives none)."""
    f, g_mu, g_A = smooth(*_unpack(x, d))
    return f, None if g_mu is None else _pack(g_mu, g_A)


def _within_tol(lhs: float, rhs: float) -> bool:
    """lhs <= rhs up to the backtracking tolerance."""
    return bool(lhs <= rhs + 1e-12 * max(1.0, abs(rhs)))


def _backtrack(smooth, d, w, y, f_y, g, step, u=None):
    """Shrink step until the quadratic upper bound holds at the point of the
    weighted-l1 + nonnegativity prox (weights w, a projection where they are
    zero) of y moved along the gradient g, plus ``u`` (the bound reads no
    u).  Points, weights and gradients are packed; a trial point asks the
    loss for its value only."""
    s = g if u is None else g + u
    while True:
        x = prox_l1_nonneg(y - step * s, w, step)
        f_new = smooth(*_unpack(x, d), grad=False)[0]
        dx = x - y
        bound = f_y + float(dx @ g) + float(dx @ dx) / (2 * step)
        if np.isfinite(f_new) and _within_tol(f_new, bound):
            return x, f_new, step
        step *= SHRINK
        if step < 1e-16:
            raise LineSearchError("line search failed (step underflow)")


def _start(smooth, weights, mu0, A0):
    """The packed start, its loss, gradient and penalized objective, and the
    packed l1 weights."""
    x, d = _pack(mu0, A0), len(mu0)
    f, g = _loss(smooth, x, d)
    if not np.isfinite(f):
        raise LineSearchError("infeasible starting point")
    return x, f, g, f + pen_value(*_unpack(x, d), weights), \
        _pack(weights.w, weights.W)


def _result(best, d, trace, converged, step, solver, decrease_ok):
    """The ``FitResult`` of the best packed point ``best = (x, objective)``."""
    return FitResult(*_unpack(best[0], d), trace, len(trace), converged,
                     step, solver, decrease_ok, best[1])


def fit_fista(smooth: Callable, weights: PenaltyWeights,
              mu0: np.ndarray, A0: np.ndarray, config: FitConfig) -> FitResult:
    """Accelerated proximal gradient with backtracking and momentum restart.

    ``smooth(mu, A, grad=True) -> (value, grad_mu, grad_A)``, with no
    gradient (None) for ``grad=False``; the weights carry no trace norm
    (tau = 0), so their prox is exact.  Each step moves one vector
    (mu, A.ravel()), packed once per fit, whose views the loss and the
    penalty read.  One call at the start gives the value and the gradient
    the first iteration steps from.  Returns the best iterate by penalized
    objective.  ``sufficient_decrease_ok`` says whether every step from
    y = x (the first, and after each momentum restart) kept the objective
    from rising, as an exact prox does.
    """
    if weights.tau > 0:
        raise ValueError("fit_fista takes no trace norm; use fit_split")
    d = len(mu0)
    x, f_y, g, obj_prev, w = _start(smooth, weights, mu0, A0)
    y, t_mom, trial = x, 1.0, STEP0
    best = (x, obj_prev)
    trace = []
    decrease_ok = from_x = True
    for k in range(config.max_iter):
        if k:
            f_y, g = _loss(smooth, y, d)
        if not np.isfinite(f_y):
            # momentum overshot the feasible region; restart from x
            y, t_mom, from_x = x, 1.0, True
            f_y, g = _loss(smooth, y, d)
        xn, f_new, step = _backtrack(smooth, d, w, y, f_y, g, trial)
        obj = f_new + pen_value(*_unpack(xn, d), weights)
        trace.append(obj)
        if from_x:
            decrease_ok &= _within_tol(obj, obj_prev)
        if obj < best[1]:
            best = (xn, obj)
        from_x = obj > obj_prev
        if from_x:  # safeguard: restart momentum on objective increase
            t_new, y = 1.0, xn
        else:
            t_new = (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom)) / 2.0
            y = xn + (t_mom - 1.0) / t_new * (xn - x)
        converged = bool(abs(obj - obj_prev) / max(1.0, abs(obj)) < config.tol)
        if converged:
            break
        x, t_mom, obj_prev, trial = xn, t_new, obj, step * GROWTH
    return _result(best, d, trace, converged, step, "fista", decrease_ok)


def fit_split(smooth: Callable, weights: PenaltyWeights,
              mu0: np.ndarray, A0: np.ndarray, config: FitConfig) -> FitResult:
    """Davis-Yin three-operator splitting with the adaptive step of
    Pedregosa & Gidel on one packed vector (mu, A.ravel()): x is the
    backtracked weighted-l1 + nonnegativity prox of z - step * (grad f(z) +
    u), z is x with its A block replaced by the singular value thresholding
    of that block of x + step * u, and u += (x - z) / step.  The trace norm
    acts on A only, so z_mu = x_mu and u stays 0 on mu.  Returns the best x
    by penalized objective (it is nonnegative); ``sufficient_decrease_ok``
    says whether the first step, a plain prox-gradient step (u = 0), kept
    loss + l1 from rising.
    """
    d = len(mu0)
    l1 = replace(weights, tau=0.0)
    z, f_z, g, obj_prev, w = _start(smooth, weights, mu0, A0)
    u = np.zeros_like(z)
    best, trace, trial = (z, math.inf), [], STEP0
    for k in range(config.max_iter):
        x, f_x, step = _backtrack(smooth, d, w, z, f_z, g, trial, u)
        obj = f_x + pen_value(*_unpack(x, d), weights)
        trace.append(obj)
        if k == 0:
            decrease_ok = _within_tol(f_x + pen_value(*_unpack(x, d), l1),
                                      f_z + pen_value(*_unpack(z, d), l1))
        if obj < best[1]:
            best = (x, obj)
        converged = bool(abs(obj - obj_prev) / max(1.0, abs(obj)) < config.tol)
        if converged:
            break
        obj_prev = obj
        # a z outside the loss's domain (a log-likelihood intensity <= 0)
        # is rebuilt from the same x and u with a shorter step
        gamma = step
        while True:
            z = _pack(x[:d], prox_trace(_unpack(x + gamma * u, d)[1],
                                        gamma * weights.tau))
            f_z, g = _loss(smooth, z, d)
            if np.isfinite(f_z):
                break
            gamma *= SHRINK
            if gamma < 1e-16:
                raise LineSearchError("no feasible z (step underflow)")
        u = u + (x - z) / gamma
        trial = gamma * GROWTH
    return _result(best, d, trace, converged, step, "split", decrease_ok)


#: the name the trace-norm dispatch calls (perfbench/ wraps it)
fit_prisma = fit_split


def _make_loss_oracle(window: Window, loss_kind: str):
    def smooth(mu, A, grad=True):
        loss = least_squares if loss_kind == "least-squares" \
            else neg_log_likelihood_cached
        out = loss(mu, A, window, grad=grad)
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
               config: FitConfig = FitConfig(), start=None) -> FitResult:
    """Fit (mu, A) on one window (``compute_stats(data, alpha)``): the
    config's loss plus the weights' penalty, from ``start = (mu0, A0)``,
    or from ``_default_init`` when no start is given."""
    smooth = _make_loss_oracle(window, config.loss_kind)
    if start is None:
        start = _default_init(window, config.loss_kind)
    return _solve(smooth, weights, *start, config)


#: the constants cross-validation tunes, in the order ``CVResult`` keeps
CONSTANTS = ("c1", "c2", "tau")
#: the floor of every held-out event intensity
HELDOUT_CLIP = 1e-12


@dataclass(frozen=True)
class CVResult:
    best: Tuple[float, float, float]  # (c1, c2, tau)
    scores: list  # rows of (c1, c2, tau, heldout_loglik)
    fit: FitResult  # refit with the winning constants
    #: per constant (c1, c2, tau): the choice is the smallest or the largest
    #: value of a grid with at least 2 distinct values
    on_edge: Tuple[bool, bool, bool]


def heldout_loglik(mu, A, cache: Window) -> float:
    """Log-likelihood of (mu, A) on a held-out window (higher is better).

    ``cache`` is the held-out ``Window``.  Event intensities are clipped at
    ``HELDOUT_CLIP`` so hard-thresholded baselines do not produce -inf for
    every candidate; a node without held-out events adds only its
    compensator.
    """
    return -cache.horizon_T * neg_log_likelihood_cached(
        mu, A, cache, HELDOUT_CLIP, grad=False).value


def split_halves(data):
    """The train half [0, T/2] and the test half (T/2, T] of ``data``,
    re-based to [0, T/2]; ValueError when T < 2 or a half has no events."""
    T = data.horizon_T
    if T < 2:
        raise ValueError("window too short to split")
    train, test = data.truncated(T / 2), data.shifted(T / 2, T / 2)
    if train.total_events() == 0 or test.total_events() == 0:
        raise ValueError("empty train or test half")
    return train, test


def _on_edge(value, grid) -> bool:
    return len(set(grid)) >= 2 and value in (min(grid), max(grid))


def cross_validate(data, alpha, config: FitConfig, procedure: str,
                   c1_grid: Sequence[float], c2_grid: Sequence[float],
                   tau_grid: Sequence[float] = (0.0,), *,
                   windows=None) -> CVResult:
    """Tune the constants (c1, c2, tau) of a penalised ``procedure``, tau = 0
    without the trace norm, by a half/half time split of the window.

    The grid points are fitted on the train half [0, T/2] as one path in
    order of decreasing penalty: tau, then c2, then c1, each from largest
    to smallest.  The first fit starts from ``_default_init`` and each
    later one from the estimate before it; every estimate of the path has
    a finite loss on the train window, so each start is feasible.  After
    the path the estimates are scored, in ``itertools.product`` grid
    order, by log-likelihood on the re-based second half (cold start: the
    test window's excitation ignores pre-split events); the first best
    score wins.  The winning constants are refitted on the full window
    from ``_default_init``.  ``on_edge`` flags each chosen constant that
    is the smallest or the largest value of its grid.

    ``windows`` are the prebuilt (train, test, full) windows of ``data``:
    ``compute_stats`` of the two ``split_halves`` and of ``data``.  Without
    them each of the three is swept here, once.
    """
    weighting, use_trace = PROCEDURES.get(procedure, (None, False))
    if weighting is None:
        raise ValueError(f"no penalty constants to tune for {procedure!r}")
    tau_grid = tau_grid if use_trace else (0.0,)
    if not c1_grid or not c2_grid or not tau_grid:
        raise ValueError("grids must be nonempty")
    if windows is None:
        windows = [compute_stats(w, alpha) for w in (*split_halves(data),
                                                      data)]
    train, test, full = windows

    def fit(window, c1, c2, tau, start=None):
        return fit_hawkes(window, procedure_weights(procedure, window, c1, c2,
                                                    tau), config, start)

    points = list(itertools.product(c1_grid, c2_grid, tau_grid))
    estimates = [None] * len(points)
    start = None
    # the path: largest (tau, c2, c1) first; a stable sort keeps repeats
    for i in sorted(range(len(points)), key=lambda i: points[i][::-1],
                    reverse=True):
        res = fit(train, *points[i], start)
        estimates[i] = start = (res.mu, res.A)
    scores = []
    best_combo, best_score = None, -np.inf
    for combo, (mu, A) in zip(points, estimates):
        score = heldout_loglik(mu, A, test)
        scores.append((*combo, score))
        if score > best_score:  # strict: first grid point wins ties
            best_combo, best_score = combo, score
    return CVResult(best=best_combo, scores=scores, fit=fit(full, *best_combo),
                    on_edge=tuple(_on_edge(v, grid) for v, grid in
                                  zip(best_combo, (c1_grid, c2_grid,
                                                   tau_grid))))
