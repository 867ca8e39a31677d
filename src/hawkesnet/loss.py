"""Least-squares and negative log-likelihood losses with exact gradients.

Both losses read the parameter-independent ``features.Window`` of the data,
built by one event sweep (``features.compute_stats``), so solver iterations
never touch the raw event stream:

* least squares uses the closed-form Gram integrals G of the excitation
  process H (pairwise products of decaying exponentials integrate
  analytically between consecutive events), one d x d block per distinct
  decay row, with psi = int_H / T and S: one GEMM through the Gram blocks
  (``Window.apply``) and elementwise d x d algebra;
* the log-likelihood uses the per-event left-limits H_at_events plus the
  integrals int_H of H over the window.  It is one array program over the
  N events of the window, node by node in ``counts`` order: per nonempty
  node j only the two matrix-vector products H_j @ A[j] (its events'
  intensities) and H_j^T @ (1 / lambda_j) (its row of the gradient) run
  in a loop; the baseline, the feasibility check, the clip, the logs, the
  compensator and the baseline gradient are single operations over all
  events or all nodes.

Each loss takes ``grad``: with ``grad=False`` it returns the same value,
computed by the same expressions, and no gradient, which is all a
line-search trial reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .features import Window, compute_stats

# perfbench/ calls and wraps the one window builder under these names too
precompute_gram = build_loglik_cache = compute_stats


@dataclass(frozen=True)
class LossValueGrad:
    value: float
    #: None when the gradient was not asked for or the point is infeasible
    grad_mu: Optional[np.ndarray]
    grad_A: Optional[np.ndarray]


def _checked(mu, A, window: Window):
    mu = np.asarray(mu, dtype=float)
    A = np.asarray(A, dtype=float)
    if mu.shape[0] != window.d or A.shape != (window.d, window.d):
        raise ValueError("dimension mismatch with the window")
    return mu, A


def least_squares(mu, A, window: Window, grad: bool = True) -> LossValueGrad:
    """Least-squares empirical risk and, with ``grad``, its gradient from the
    Gram integrals."""
    mu, A = _checked(mu, A, window)
    T, psi, counts = window.horizon_T, window.psi, window.counts
    GA = window.apply(A)
    A_psi = np.einsum("jk,jk->j", A, psi)
    value = float(
        np.sum(mu * mu)
        + 2 * np.sum(mu * A_psi)
        + np.sum(A * GA)
        - 2 * np.sum(mu * counts) / T
        - 2 * np.sum(A * window.S)
    )
    if not grad:
        return LossValueGrad(value=value, grad_mu=None, grad_A=None)
    grad_mu = 2 * (mu + A_psi) - 2 * counts / T
    grad_A = 2 * (mu[:, None] * psi + GA) - 2 * window.S
    return LossValueGrad(value=value, grad_mu=grad_mu, grad_A=grad_A)


def neg_log_likelihood_cached(mu, A, window: Window, clip: float = 0.0,
                              grad: bool = True) -> LossValueGrad:
    """Negative log-likelihood (normalized by 1/T) and, with ``grad``, its
    gradient.

    Intensities are taken at event left-limits (predictable convention).
    Returns value = +inf (and no gradient) when some event has zero
    intensity, so line searches can backtrack instead of crashing.  A
    positive ``clip`` floors every event intensity instead, for scoring
    held-out windows; the gradient then ignores the floor.  ``grad=False``
    returns the same value and no gradient.
    """
    mu, A = _checked(mu, A, window)
    T, counts, H = window.horizon_T, window.counts, window.H_at_events
    ends = np.cumsum(counts)
    nodes = np.flatnonzero(counts)
    # (node, its first event, one past its last) for every nonempty node
    spans = list(zip(nodes.tolist(), (ends - counts)[nodes].tolist(),
                     ends[nodes].tolist()))
    lam = np.empty(ends[-1])
    for j, lo, hi in spans:
        np.matmul(H[j], A[j], out=lam[lo:hi])
    lam += np.repeat(mu, counts)
    if clip > 0:
        np.maximum(lam, clip, out=lam)
    elif np.any(lam <= 0):
        return LossValueGrad(value=np.inf, grad_mu=None, grad_A=None)
    compensator = np.sum(mu) * T + np.vdot(A, window.int_H)
    value = float(compensator - np.sum(np.log(lam))) / T
    if not grad:
        return LossValueGrad(value=value, grad_mu=None, grad_A=None)
    inv = 1.0 / lam
    grad_mu = -(np.bincount(np.repeat(np.arange(counts.size), counts),
                            weights=inv, minlength=counts.size) - T)
    H_inv = np.zeros_like(A)
    for j, lo, hi in spans:
        np.matmul(H[j].T, inv[lo:hi], out=H_inv[j])
    grad_A = -(H_inv - window.int_H)
    return LossValueGrad(value=value, grad_mu=grad_mu / T, grad_A=grad_A / T)
