import numpy as np
import pytest
from scipy.linalg import expm

from hawkesnet import (EventData, ModelParams, SimConfig, branching_matrix,
                       mean_stationary_intensity, simulate)
from hawkesnet.simulate import SimulationOverflowError


@pytest.fixture
def small_params():
    rng = np.random.default_rng(12)
    d = 3
    return ModelParams(
        mu=rng.uniform(0.1, 0.5, d),
        A=rng.uniform(0.0, 0.2, (d, d)),
        alpha=rng.uniform(0.5, 2.0, (d, d)),
    )


@pytest.fixture
def small_data(small_params):
    return simulate(SimConfig(params=small_params, horizon_T=30.0, seed=1))


def random_instance(seed, d=2, horizon=25.0, max_mu=0.5):
    """A small simulated dataset with random per-pair decays."""
    rng = np.random.default_rng(seed)
    params = ModelParams(
        mu=rng.uniform(0.05, max_mu, d),
        A=rng.uniform(0.0, 0.25, (d, d)),
        alpha=rng.uniform(0.5, 2.0, (d, d)),
    )
    data = simulate(SimConfig(params=params, horizon_T=horizon, seed=seed + 1))
    return params, data


def _uniform_decay(params):
    alpha = float(params.alpha.flat[0])
    assert np.all(params.alpha == alpha), "closed form needs a uniform decay"
    return alpha


def expected_counts(params, horizon):
    """E[N_j(T)] per node for a process started from an empty history.

    With a uniform decay alpha, y(t) = int_0^t exp(-alpha (t - s)) E dN(s)
    solves y' = mu - M y with M = alpha (I - K) and K = A / alpha, so

        E N(T) = mu T + A M^-1 [T I - M^-1 (I - exp(-M T))] mu.
    """
    alpha = _uniform_decay(params)
    eye = np.eye(params.d)
    M = alpha * (eye - branching_matrix(params))
    M_inv = np.linalg.inv(M)
    transient = M_inv @ (eye - expm(-horizon * M))
    return (params.mu * horizon
            + params.A @ M_inv @ (horizon * eye - transient) @ params.mu)


def count_covariance_rate(params):
    """lim Cov(N(T)) / T = (I - K)^-1 diag(m) (I - K)^-T, m the stationary mean.

    Bacry, Delattre, Hoffmann & Muzy (2013), "Some limit theorems for
    Hawkes processes"; uniform decay, as for ``expected_counts``.
    """
    _uniform_decay(params)
    R = np.linalg.inv(np.eye(params.d) - branching_matrix(params))
    return R @ np.diag(mean_stationary_intensity(params)) @ R.T


def reference_least_squares(mu, A, window):
    """The least-squares risk as five separate terms and its gradient,
    (value, grad_mu, grad_A): the oracle of ``loss.packed_least_squares``,
    which takes the same quadratic as x . (Qx - 2b) on the packed point."""
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
    grad_mu = 2 * (mu + A_psi) - 2 * counts / T
    grad_A = 2 * (mu[:, None] * psi + GA) - 2 * window.S
    return value, grad_mu, grad_A


def reference_thinning(params, T, seed, max_events=None):
    """Ogata thinning on a d x d state, one exp, product and row sum per
    candidate: the oracle of ``simulate``, which draws the same random
    numbers in the same order from the same seed."""
    d = params.d
    mu, A, alpha = params.mu, params.A, params.alpha
    rng = np.random.default_rng(seed)

    G = np.zeros((d, d))  # G[j, k] = sum over past events of k of exp(-alpha[j,k] dt)
    lam = mu.copy()
    lam_bar = float(lam.sum())
    t = 0.0
    events = [[] for _ in range(d)]
    n_total = 0

    while True:
        if lam_bar <= 0:
            break
        w = rng.exponential(1.0 / lam_bar)
        t_new = t + w
        if t_new > T:
            break
        G *= np.exp(-alpha * (t_new - t))
        lam = mu + (A * G).sum(axis=1)
        lam_tot = float(lam.sum())
        if not np.isfinite(lam_tot):
            raise SimulationOverflowError("non-finite intensity encountered")
        u = rng.uniform()
        t = t_new
        if u * lam_bar <= lam_tot:
            # accept; attribute the event proportionally to per-node intensities
            node = int(np.searchsorted(np.cumsum(lam), u * lam_bar))
            node = min(node, d - 1)
            events[node].append(t)
            n_total += 1
            if max_events is not None and n_total > max_events:
                raise SimulationOverflowError(
                    f"exceeded max_events={max_events}; "
                    "parameters may be non-stationary"
                )
            G[:, node] += 1.0
            lam = lam + A[:, node]
        lam_bar = float(lam.sum())

    return EventData(T, tuple(np.array(e) for e in events))


def compensator_increments(data, params):
    """Each node's compensator between its consecutive events, from 0 to its
    first: Lambda_j(t) = mu_j t + sum_k A[j,k] / alpha[j,k] * sum_{t_i < t}
    (1 - exp(-alpha[j,k] (t - t_i))), the inner sum over the events t_i of
    node k.  Under the model that drew ``data`` the increments of all nodes
    are i.i.d. Exp(1) (the time-rescaling theorem; Brown, Barbieri,
    Ventura, Kass & Frank 2002).  One d x d state per event: N_k - H[j, k]
    is the inner sum."""
    mu, A, alpha = params.mu, params.A, params.alpha
    d = params.d
    K = A / alpha
    times, nodes = data.merged()
    H = np.zeros((d, d))
    N = np.zeros(d)
    last = np.zeros(d)  # Lambda_j at the last event of node j
    out = np.empty(times.size)
    t_prev = 0.0
    for n, (t, l) in enumerate(zip(times.tolist(), nodes.tolist())):
        H *= np.exp(-alpha * (t - t_prev))
        t_prev = t
        lam = mu[l] * t + K[l] @ (N - H[l])
        out[n] = lam - last[l]
        last[l] = lam
        H[:, l] += 1.0
        N[l] += 1.0
    return out
