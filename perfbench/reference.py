"""Reference computations for the benchmark's checks, apart from the program.

Everything here follows from one O(N*d) pass over the merged events of a
window, for a uniform decay alpha.  With a uniform decay the excitation
H[j, k](t) = sum_{t_km < t} exp(-alpha (t - t_km)) is the same for every
row j, so a single state vector g(t) in R^d describes it.  Between events
g decays exactly, so every time integral has a closed form per segment:

    int g     dt = sum_i g_i (1 - e^{-alpha D_i}) / alpha
    int g g^T dt = sum_i g_i g_i^T (1 - e^{-2 alpha D_i}) / (2 alpha)

with g_i the state just after event i and D_i the length of the segment
that follows it.  The formulas below are written from the definitions of
the least-squares contrast, the log-likelihood, the practical weights and
the compensated noise, not from the program's code.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np


def window(events, t0: float, horizon: float):
    """Per-node events in (t0, t0 + horizon], re-based so t0 is the origin."""
    return [np.asarray(e)[(np.asarray(e) > t0) & (np.asarray(e) <= t0 + horizon)] - t0
            for e in events]


class Sweep:
    """Sufficient statistics of one window [0, T] from a single pass.

    ``pre[i]`` is the left limit g(t_i-) at the i-th merged event and
    ``node[i]`` its node; ``I1`` = int_0^T g dt and ``I2`` = int_0^T g g^T dt.
    """

    def __init__(self, events, horizon: float, alpha: float):
        self.d = len(events)
        self.T = float(horizon)
        self.alpha = float(alpha)
        times = np.concatenate([np.asarray(e, dtype=float) for e in events])
        node = np.concatenate([np.full(len(e), j) for j, e in enumerate(events)])
        order = np.argsort(times, kind="stable")
        times, self.node = times[order], node[order].astype(int)
        n, d, a = times.size, self.d, self.alpha

        pre = np.zeros((n, d))
        post = np.zeros((n, d))
        g = np.zeros(d)
        t_prev = 0.0
        for i in range(n):
            g = g * math.exp(-a * (times[i] - t_prev))
            pre[i] = g
            g[self.node[i]] += 1.0
            post[i] = g
            t_prev = times[i]
        seg = np.diff(np.append(times, self.T))
        c1 = -np.expm1(-a * seg) / a
        c2 = -np.expm1(-2 * a * seg) / (2 * a)
        self.pre = pre
        self.I1 = c1 @ post
        self.I2 = (post * c2[:, None]).T @ post
        self.counts = np.bincount(self.node, minlength=d).astype(float)
        onehot = np.zeros((n, d))
        onehot[np.arange(n), self.node] = 1.0
        self.pre_sum = onehot.T @ pre          # [j, k] = sum_{events of j} g_k(t-)
        self.pre_sq_sum = onehot.T @ (pre * pre)

    @property
    def n_events(self) -> int:
        return int(self.node.size)

    def intensity_at_events(self, mu, A) -> np.ndarray:
        """lambda_{node_i}(t_i-) for every merged event."""
        return mu[self.node] + np.einsum("ik,ik->i", A[self.node], self.pre)

    def compensator(self, mu, A) -> np.ndarray:
        """int_0^T lambda_j dt per node."""
        return mu * self.T + A @ self.I1

    def ls_risk(self, mu, A):
        """(1/T) [int sum_j lambda_j^2 dt - 2 sum_i lambda_{node_i}(t_i-)] and its gradient."""
        mu, A = np.asarray(mu, float), np.asarray(A, float)
        T = self.T
        sq = mu * mu * T + 2 * mu * (A @ self.I1) + np.einsum("jk,kl,jl->j", A, self.I2, A)
        value = (sq.sum() - 2 * self.intensity_at_events(mu, A).sum()) / T
        grad_mu = 2 * (mu * T + A @ self.I1 - self.counts) / T
        grad_A = 2 * (np.outer(mu, self.I1) + A @ self.I2 - self.pre_sum) / T
        return value, grad_mu, grad_A

    def neg_loglik(self, mu, A):
        """(1/T) [sum_j int lambda_j dt - sum_i log lambda_{node_i}(t_i-)] and its gradient."""
        mu, A = np.asarray(mu, float), np.asarray(A, float)
        lam = self.intensity_at_events(mu, A)
        if np.any(lam <= 0):
            return math.inf, None, None
        T, d = self.T, self.d
        inv = 1.0 / lam
        value = (self.compensator(mu, A).sum() - np.log(lam).sum()) / T
        grad_mu = (T - np.bincount(self.node, weights=inv, minlength=d)) / T
        inv_sum = np.zeros((d, d))
        np.add.at(inv_sum, self.node, self.pre * inv[:, None])
        grad_A = (self.I1[None, :] - inv_sum) / T
        return value, grad_mu, grad_A

    def heldout_loglik(self, mu, A, clip: float = 1e-12) -> float:
        """Log-likelihood on this window with intensities clipped at ``clip``."""
        mu, A = np.asarray(mu, float), np.asarray(A, float)
        lam = np.maximum(self.intensity_at_events(mu, A), clip)
        return float(np.log(lam).sum() - self.compensator(mu, A).sum())

    def practical_weights(self, c1: float, c2: float):
        """w_j = c1 sqrt(l N_j / T^2), W_jk = c2 sqrt(l V_jk / T), l = log T + log d,
        with V_jk = (1/T) sum over events of j of g_k(t-)^2."""
        T = self.T
        lev = math.log(T) + math.log(self.d)
        w = c1 * np.sqrt(lev * self.counts / T / T)
        W = c2 * np.sqrt(lev * (self.pre_sq_sum / T) / T)
        return w, W

    def noise(self, mu, A):
        """Compensated noise Z[j, k] = sum_{events of j} g_k(t-) - int g_k lambda_j dt
        and compensated counts M_T[j] = N_j(T) - int lambda_j dt, under (mu, A)."""
        mu, A = np.asarray(mu, float), np.asarray(A, float)
        Z = self.pre_sum - np.outer(mu, self.I1) - A @ self.I2
        return Z, self.counts - self.compensator(mu, A)


def penalised_objective(smooth_value: float, mu, A, w, W, tau: float) -> float:
    """Smooth loss + sum w |mu| + sum W |A| + tau * trace norm of A."""
    value = smooth_value + float(np.sum(w * np.abs(mu)) + np.sum(W * np.abs(A)))
    if tau > 0:
        value += tau * float(np.linalg.svd(A, compute_uv=False).sum())
    return value


def relative_error(mu_hat, A_hat, mu, A) -> float:
    """||(mu_hat, A_hat) - (mu, A)||^2 / ||(mu, A)||^2."""
    num = np.sum((np.asarray(mu_hat) - mu) ** 2) + np.sum((np.asarray(A_hat) - A) ** 2)
    return float(num / (np.sum(np.asarray(mu) ** 2) + np.sum(np.asarray(A) ** 2)))


def auc(A_hat, support) -> float:
    """Mann-Whitney AUC: P(score of a true edge > score of a non-edge), ties 1/2."""
    scores = np.asarray(A_hat, float).ravel()
    labels = np.asarray(support, bool).ravel()
    pos, neg = scores[labels], np.sort(scores[~labels])
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return float((below.sum() + 0.5 * tied.sum()) / (pos.size * neg.size))


def wilson_interval(k: int, n: int, conf: float = 0.99):
    """Wilson score interval for k successes in n trials."""
    z = NormalDist().inv_cdf(1 - (1 - conf) / 2)
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)
