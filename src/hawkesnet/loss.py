"""Least-squares and negative log-likelihood losses with exact gradients.

Both losses read the parameter-independent ``features.Window`` of the data,
built by one event sweep (``features.compute_stats``), so solver iterations
never touch the raw event stream:

* least squares uses the closed-form Gram integrals G of the excitation
  process H (pairwise products of decaying exponentials integrate
  analytically between consecutive events), one d x d block per distinct
  decay row, with psi = int_H / T and S;
* the log-likelihood uses the per-event left-limits H_at_events plus the
  integrals int_H of H over the window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import Window, compute_stats

# perfbench/ calls and wraps the one window builder under these names too
precompute_gram = build_loglik_cache = compute_stats


@dataclass(frozen=True)
class LossValueGrad:
    value: float
    grad_mu: np.ndarray
    grad_A: np.ndarray


def least_squares(mu, A, window: Window) -> LossValueGrad:
    """Least-squares empirical risk and gradient from the Gram integrals."""
    mu = np.asarray(mu, dtype=float)
    A = np.asarray(A, dtype=float)
    if mu.shape[0] != window.d or A.shape != (window.d, window.d):
        raise ValueError("dimension mismatch with the window")
    T, psi, counts = window.horizon_T, window.psi, window.counts
    GA = window.apply(A)
    value = float(
        np.sum(mu * mu)
        + 2 * np.sum(mu * np.einsum("jk,jk->j", A, psi))
        + np.sum(A * GA)
        - 2 * np.sum(mu * counts) / T
        - 2 * np.sum(A * window.S)
    )
    grad_mu = 2 * (mu + np.einsum("jk,jk->j", A, psi)) - 2 * counts / T
    grad_A = 2 * (mu[:, None] * psi + GA) - 2 * window.S
    return LossValueGrad(value=value, grad_mu=grad_mu, grad_A=grad_A)


def neg_log_likelihood_cached(mu, A, window: Window,
                              clip: float = 0.0) -> LossValueGrad:
    """Negative log-likelihood (normalized by 1/T) and gradient.

    Intensities are taken at event left-limits (predictable convention).
    Returns value = +inf when some event has zero intensity, so line
    searches can backtrack instead of crashing.  A positive ``clip``
    floors every event intensity instead, for scoring held-out windows;
    the gradient then ignores the floor.
    """
    mu = np.asarray(mu, dtype=float)
    A = np.asarray(A, dtype=float)
    d, T = window.d, window.horizon_T
    if mu.shape[0] != d or A.shape != (d, d):
        raise ValueError("dimension mismatch with the window")
    value = 0.0
    grad_mu = np.zeros(d)
    grad_A = np.zeros((d, d))
    for j in range(d):
        H = window.H_at_events[j]
        lam = mu[j] + H @ A[j] if H.size else np.empty(0)
        if clip > 0:
            lam = np.maximum(lam, clip)
        elif np.any(lam <= 0):
            return LossValueGrad(value=np.inf, grad_mu=grad_mu, grad_A=grad_A)
        compensator = mu[j] * T + float(A[j] @ window.int_H[j])
        value -= float(np.log(lam).sum()) - compensator
        inv = 1.0 / lam if lam.size else lam
        grad_mu[j] = -(float(inv.sum()) - T)
        grad_A[j] = -((H.T @ inv if H.size else 0.0) - window.int_H[j])
    return LossValueGrad(value=value / T, grad_mu=grad_mu / T, grad_A=grad_A / T)
