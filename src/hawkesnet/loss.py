"""Least-squares and negative log-likelihood losses with exact gradients.

Both losses are evaluated from caches that are independent of the
parameters, so solver iterations never touch the raw event stream.  The
caches are array algebra over the excitation states of
``features.excitation_states`` (one O(N * d) recursion per distinct decay
row of alpha, one in all when alpha is uniform):

* least squares uses closed-form Gram integrals of the excitation process
  H (pairwise products of decaying exponentials integrate analytically
  between consecutive events), one d x d block per distinct decay row;
* the log-likelihood uses the per-event left-limits of H plus the
  integrals of H over the window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import block_states, left_limits_by_node


@dataclass(frozen=True)
class LossValueGrad:
    value: float
    grad_mu: np.ndarray
    grad_A: np.ndarray


@dataclass(frozen=True)
class PrecomputedGram:
    """Normalized integrals entering the least-squares expansion.

    psi[j, k] = (1/T) int_0^T H[j, k](t) dt
    S[j, k]   = (1/T) sum over events t of node j of H[j, k](t-)

    Rows j of H with equal decay rows alpha[j, :] are equal, so the Gram
    integrals are kept once per distinct decay row: row j reads block
    b = row_block[j],

    G[b, k, l] = (1/T) int_0^T H[j, k](t) H[j, l](t) dt,

    a single (1, d, d) block when alpha is uniform.
    """

    horizon_T: float
    psi: np.ndarray
    G: np.ndarray
    row_block: np.ndarray
    S: np.ndarray
    counts: np.ndarray

    @property
    def d(self) -> int:
        return self.psi.shape[0]

    def block(self, j: int) -> np.ndarray:
        """The (d, d) Gram integrals of row j."""
        return self.G[self.row_block[j]]

    def apply(self, A) -> np.ndarray:
        """Each row of A through its Gram block: out[j] = G_j @ A[j]."""
        out = np.empty_like(A)
        for b, G in enumerate(self.G):
            rows = self.row_block == b
            out[rows] = A[rows] @ G.T
        return out


def precompute_gram(data, alpha) -> PrecomputedGram:
    """Closed-form Gram integrals, exact up to floating point."""
    T = data.horizon_T
    states, row_block = block_states(data, alpha)
    H = left_limits_by_node(states, row_block)
    return PrecomputedGram(
        horizon_T=T,
        psi=np.stack([s.integral() for s in states])[row_block] / T,
        G=np.stack([s.gram() for s in states]) / T,
        row_block=row_block,
        S=np.array([h.sum(axis=0) for h in H]) / T,
        counts=data.counts,
    )


def least_squares(mu, A, gram: PrecomputedGram) -> LossValueGrad:
    """Least-squares empirical risk and gradient from cached Gram integrals."""
    mu = np.asarray(mu, dtype=float)
    A = np.asarray(A, dtype=float)
    if mu.shape[0] != gram.d or A.shape != (gram.d, gram.d):
        raise ValueError("dimension mismatch with precomputed Gram")
    T = gram.horizon_T
    GA = gram.apply(A)
    value = float(
        np.sum(mu * mu)
        + 2 * np.sum(mu * np.einsum("jk,jk->j", A, gram.psi))
        + np.sum(A * GA)
        - 2 * np.sum(mu * gram.counts) / T
        - 2 * np.sum(A * gram.S)
    )
    grad_mu = 2 * (mu + np.einsum("jk,jk->j", A, gram.psi)) - 2 * gram.counts / T
    grad_A = 2 * (mu[:, None] * gram.psi + GA) - 2 * gram.S
    return LossValueGrad(value=value, grad_mu=grad_mu, grad_A=grad_A)


@dataclass(frozen=True)
class LogLikCache:
    """Parameter-independent pieces of the log-likelihood.

    H_at_events[j] is the (n_j, d) array of H left-limits at the events of
    node j; int_H[j, k] = int_0^T H[j, k](t) dt.
    """

    horizon_T: float
    H_at_events: tuple
    int_H: np.ndarray
    counts: np.ndarray

    @property
    def d(self) -> int:
        return self.int_H.shape[0]


def build_loglik_cache(data, alpha) -> LogLikCache:
    states, row_block = block_states(data, alpha)
    return LogLikCache(
        horizon_T=data.horizon_T,
        H_at_events=left_limits_by_node(states, row_block),
        int_H=np.stack([s.integral() for s in states])[row_block],
        counts=data.counts)


def neg_log_likelihood_cached(mu, A, cache: LogLikCache,
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
    d, T = cache.d, cache.horizon_T
    if mu.shape[0] != d or A.shape != (d, d):
        raise ValueError("dimension mismatch with log-likelihood cache")
    value = 0.0
    grad_mu = np.zeros(d)
    grad_A = np.zeros((d, d))
    for j in range(d):
        H = cache.H_at_events[j]
        lam = mu[j] + H @ A[j] if H.size else np.empty(0)
        if clip > 0:
            lam = np.maximum(lam, clip)
        elif np.any(lam <= 0):
            return LossValueGrad(value=np.inf, grad_mu=grad_mu, grad_A=grad_A)
        compensator = mu[j] * T + float(A[j] @ cache.int_H[j])
        value -= float(np.log(lam).sum()) - compensator
        inv = 1.0 / lam if lam.size else lam
        grad_mu[j] = -(float(inv.sum()) - T)
        grad_A[j] = -((H.T @ inv if H.size else 0.0) - cache.int_H[j])
    return LossValueGrad(value=value / T, grad_mu=grad_mu / T, grad_A=grad_A / T)
