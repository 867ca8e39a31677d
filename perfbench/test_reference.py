"""Tests of the benchmark's reference computations against numerical quadrature.

Run with ``python3 -m pytest perfbench/test_reference.py`` from the
repository root.  The instances are tiny and written out by hand, so each
integral can be taken by adaptive quadrature of the brute-force intensity.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from reference import Sweep, auc, penalised_objective, relative_error, \
    wilson_interval, window

EVENTS = [np.array([0.3, 1.1, 2.5]), np.array([0.7, 2.0, 2.05, 2.9])]
T = 3.2
ALPHA = 1.3
MU = np.array([0.2, 0.4])
A = np.array([[0.3, 0.1], [0.25, 0.05]])


def g(t):
    """Brute-force excitation state, strictly past events only."""
    return np.array([np.exp(-ALPHA * (t - e[e < t])).sum() for e in EVENTS])


def lam(j, t, mu=MU, A=A):
    return mu[j] + A[j] @ g(t)


def quad(f):
    pts = sorted(np.concatenate(EVENTS))
    return integrate.quad(f, 0.0, T, points=pts, limit=200, epsabs=1e-13,
                          epsrel=1e-12)[0]


@pytest.fixture(scope="module")
def sweep():
    return Sweep(EVENTS, T, ALPHA)


def test_integrals(sweep):
    for k in range(2):
        assert sweep.I1[k] == pytest.approx(quad(lambda t: g(t)[k]), rel=1e-10)
        for l in range(2):
            assert sweep.I2[k, l] == pytest.approx(
                quad(lambda t: g(t)[k] * g(t)[l]), rel=1e-10)


def test_ls_risk_value(sweep):
    at_events = sum(lam(j, t) for j, e in enumerate(EVENTS) for t in e)
    expected = (sum(quad(lambda t: lam(j, t) ** 2) for j in range(2))
                - 2 * at_events) / T
    assert sweep.ls_risk(MU, A)[0] == pytest.approx(expected, rel=1e-10)


def test_neg_loglik_value(sweep):
    log_at_events = sum(math.log(lam(j, t)) for j, e in enumerate(EVENTS) for t in e)
    expected = (sum(quad(lambda t: lam(j, t)) for j in range(2))
                - log_at_events) / T
    assert sweep.neg_loglik(MU, A)[0] == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("loss", ["ls_risk", "neg_loglik"])
def test_gradients_match_finite_differences(sweep, loss):
    f = getattr(sweep, loss)
    _, g_mu, g_A = f(MU, A)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (f(MU + e, A)[0] - f(MU - e, A)[0]) / (2 * h)
        assert g_mu[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)
        for k in range(2):
            E = np.zeros((2, 2))
            E[j, k] = h
            fd = (f(MU, A + E)[0] - f(MU, A - E)[0]) / (2 * h)
            assert g_A[j, k] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_neg_loglik_infeasible(sweep):
    assert sweep.neg_loglik(np.zeros(2), np.zeros((2, 2)))[0] == math.inf


def test_noise(sweep):
    Z, M = sweep.noise(MU, A)
    for j in range(2):
        assert M[j] == pytest.approx(len(EVENTS[j]) - quad(lambda t: lam(j, t)),
                                     abs=1e-10)
        for k in range(2):
            expected = sum(g(t)[k] for t in EVENTS[j]) - quad(
                lambda t: g(t)[k] * lam(j, t))
            assert Z[j, k] == pytest.approx(expected, abs=1e-10)


def test_practical_weights(sweep):
    w, W = sweep.practical_weights(2.0, 3.0)
    lev = math.log(T) + math.log(2)
    for j in range(2):
        assert w[j] == pytest.approx(2.0 * math.sqrt(lev * len(EVENTS[j]) / T / T))
        for k in range(2):
            V = sum(g(t)[k] ** 2 for t in EVENTS[j]) / T
            assert W[j, k] == pytest.approx(3.0 * math.sqrt(lev * V / T), rel=1e-12)


def test_heldout_loglik_and_clip(sweep):
    log_at_events = sum(math.log(lam(j, t)) for j, e in enumerate(EVENTS) for t in e)
    expected = log_at_events - sum(quad(lambda t: lam(j, t)) for j in range(2))
    assert sweep.heldout_loglik(MU, A) == pytest.approx(expected, rel=1e-10)
    n = sum(len(e) for e in EVENTS)
    assert sweep.heldout_loglik(np.zeros(2), np.zeros((2, 2))) == \
        pytest.approx(n * math.log(1e-12))


def test_window():
    w = window(EVENTS, 1.1, 1.5)
    np.testing.assert_allclose(w[0], [1.4])
    np.testing.assert_allclose(w[1], [0.9, 0.95])


def test_penalised_objective():
    M = np.array([[3.0, 0.0], [0.0, -4.0]])
    value = penalised_objective(1.0, np.array([1.0, -2.0]), M,
                                np.array([0.5, 0.5]), np.ones((2, 2)), 0.1)
    assert value == pytest.approx(1.0 + 1.5 + 7.0 + 0.1 * 7.0)


def test_relative_error():
    assert relative_error(np.zeros(2), np.zeros((2, 2)), MU, A) == pytest.approx(1.0)
    assert relative_error(MU, A, MU, A) == 0.0


def test_auc_matches_pairwise_count():
    rng = np.random.default_rng(3)
    scores = rng.integers(0, 4, (6, 6)).astype(float)
    support = rng.uniform(size=(6, 6)) < 0.4
    pos, neg = scores[support], scores[~support]
    pairs = [(p > q) + 0.5 * (p == q) for p in pos for q in neg]
    assert auc(scores, support) == pytest.approx(np.mean(pairs))


@pytest.mark.parametrize("k,n", [(0, 10), (3, 40), (40, 40)])
def test_wilson_interval(k, n):
    z = norm.ppf(0.995)
    p = k / n
    c = (p + z * z / (2 * n)) / (1 + z * z / n)
    h = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    lo, hi = wilson_interval(k, n)
    assert lo == pytest.approx(max(0.0, c - h), abs=1e-12)
    assert hi == pytest.approx(min(1.0, c + h), abs=1e-12)
