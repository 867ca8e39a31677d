import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from hawkesnet import (EventData, ModelParams, SimConfig, compute_stats,
                       default_bound_params, least_squares,
                       neg_log_likelihood_cached, simulate)
from hawkesnet.features import excitation_states
from hawkesnet.loss import packed_least_squares
from tests.conftest import random_instance, reference_least_squares


def H_jk(data, alpha, j, k, t):
    ev = data.events[k]
    past = ev[ev < t]
    return float(np.sum(np.exp(-alpha[j, k] * (t - past))))


def fd_check(value_at, mu, A, grad_mu, grad_A, h=1e-6, rtol=1e-5):
    d = mu.shape[0]
    for j in range(d):
        e = np.zeros(d); e[j] = h
        fd = (value_at(mu + e, A) - value_at(mu - e, A)) / (2 * h)
        assert fd == pytest.approx(grad_mu[j], rel=rtol, abs=1e-8)
    for j in range(d):
        for k in range(d):
            E = np.zeros((d, d)); E[j, k] = h
            fd = (value_at(mu, A + E) - value_at(mu, A - E)) / (2 * h)
            assert fd == pytest.approx(grad_A[j, k], rel=rtol, abs=1e-8)


class TestPrecomputeGram:
    def test_no_events_all_zero(self):
        data = EventData(4.0, (np.empty(0), np.empty(0)))
        g = compute_stats(data, np.ones((2, 2)))
        assert np.all(g.psi == 0) and np.all(g.G == 0) and np.all(g.S == 0)
        assert np.all(g.counts == 0)

    def test_single_event_hand_integrals(self):
        data = EventData(3.0, (np.array([1.0]),))
        g = compute_stats(data, np.ones((1, 1)))
        assert g.psi[0, 0] == pytest.approx((1 - math.exp(-2)) / 3, rel=1e-12)
        assert g.block(0)[0, 0] == pytest.approx((1 - math.exp(-4)) / 6,
                                             rel=1e-12)
        assert g.block(0)[0, 0] == pytest.approx(0.16361, abs=5e-6)
        assert g.S[0, 0] == 0.0
        assert g.counts[0] == 1

    @pytest.mark.parametrize("seed", list(range(10)))
    def test_matches_quadrature(self, seed):
        # criterion: closed form vs adaptive quadrature within 1e-8 relative
        params, data = random_instance(seed, d=2, horizon=12.0)
        alpha = params.alpha
        g = compute_stats(data, alpha)
        T = data.horizon_T
        pts = sorted(set(np.concatenate(data.events).tolist()))
        for j in range(2):
            for k in range(2):
                val, _ = quad(lambda t: H_jk(data, alpha, j, k, t), 0, T,
                              points=pts, limit=400)
                assert g.psi[j, k] == pytest.approx(val / T, rel=1e-8,
                                                    abs=1e-10)
                for l in range(2):
                    val2, _ = quad(
                        lambda t: H_jk(data, alpha, j, k, t)
                        * H_jk(data, alpha, j, l, t), 0, T,
                        points=pts, limit=400)
                    assert g.block(j)[k, l] == pytest.approx(
                        val2 / T, rel=1e-8, abs=1e-10)

    def test_S_matches_left_limit_sums(self):
        params, data = random_instance(3, d=2, horizon=15.0)
        g = compute_stats(data, params.alpha)
        T = data.horizon_T
        for j in range(2):
            for k in range(2):
                expected = sum(H_jk(data, params.alpha, j, k, t)
                               for t in data.events[j]) / T
                assert g.S[j, k] == pytest.approx(expected, rel=1e-10,
                                                  abs=1e-12)

    def test_gram_psd_per_node(self):
        params, data = random_instance(5, d=3, horizon=20.0)
        g = compute_stats(data, params.alpha)
        for j in range(3):
            Gj = g.block(j)
            assert np.allclose(Gj, Gj.T, atol=1e-12)
            assert np.linalg.eigvalsh(Gj).min() > -1e-10

    def test_uniform_alpha_fast_path_matches_general(self):
        _, data = random_instance(8, d=2, horizon=15.0)
        uni = np.full((2, 2), 1.4)
        # perturb one entry below float resolution of the ptp check: instead
        # compare the uniform path against the general path forced by an
        # epsilon-different matrix
        eps = np.array([[0.0, 1e-13], [0.0, 0.0]])
        ga = compute_stats(data, uni)
        gb = compute_stats(data, uni + eps)
        assert ga.psi == pytest.approx(gb.psi, rel=1e-9)
        assert len(ga.G) == 1 and len(gb.G) == 2
        for j in range(2):
            assert ga.block(j) == pytest.approx(gb.block(j), rel=1e-9)
        assert ga.S == pytest.approx(gb.S, rel=1e-12)

    @pytest.mark.parametrize("data", [
        random_instance(9, d=3, horizon=40.0)[1],
        # cross-node ties at t = 2 and t = 4, and node 2 without events
        EventData(6.0, (np.array([1.0, 2.0, 2.5, 4.0]),
                        np.array([2.0, 3.0, 4.0]), np.empty(0)))],
        ids=["simulated", "ties-and-empty-node"])
    def test_per_pair_gram_matches_per_event_sum(self, data):
        a = np.array([0.7, 1.1, 1.9])
        states = excitation_states(*data.merged(), data.horizon_T, a)
        asum = a[:, None] + a[None, :]
        expected = np.zeros((3, 3))
        for y, s in zip(states.post, states.seg):
            expected += np.outer(y, y) * (-np.expm1(-asum * s) / asum)
        assert states.integrals()[1] == pytest.approx(expected, rel=1e-12)

    def test_uniform_decay_at_d200_holds_no_cube(self):
        d = 200
        params = default_bound_params(d)
        data = simulate(SimConfig(params=params, horizon_T=1.5, seed=3))
        assert data.total_events() > 100
        tracemalloc.start()
        try:
            g = compute_stats(data, params.alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.G.shape == (1, d, d)
        for arr in (g.psi, g.G, g.S, g.counts, g.row_block):
            assert arr.size < d ** 3
        # a d^3 array of doubles alone would take 64 MB
        assert peak < 8 * d ** 3 / 8


class TestLeastSquares:
    def test_zero_params(self, small_params, small_data):
        g = compute_stats(small_data, small_params.alpha)
        out = least_squares(np.zeros(3), np.zeros((3, 3)), g)
        assert out.value == 0.0
        assert out.grad_mu == pytest.approx(-2 * g.counts / g.horizon_T)

    def test_hand_value_poisson(self):
        data = EventData(2.0, (np.array([1.0]),))
        g = compute_stats(data, np.ones((1, 1)))
        out = least_squares(np.array([1.0]), np.zeros((1, 1)), g)
        assert out.value == pytest.approx(0.0, abs=1e-14)

    def test_dimension_mismatch(self, small_params, small_data):
        g = compute_stats(small_data, small_params.alpha)
        with pytest.raises(ValueError):
            least_squares(np.zeros(2), np.zeros((2, 2)), g)

    @pytest.mark.parametrize("seed", list(range(10)))
    def test_gradient_finite_differences(self, seed):
        d = 1 if seed % 2 else 3
        params, data = random_instance(seed + 20, d=d, horizon=10.0)
        g = compute_stats(data, params.alpha)
        rng = np.random.default_rng(seed)
        mu = rng.uniform(0.1, 1.0, d)
        A = rng.uniform(0.0, 0.5, (d, d))
        out = least_squares(mu, A, g)
        fd_check(lambda m, a: least_squares(m, a, g).value, mu, A,
                 out.grad_mu, out.grad_A)

    def test_midpoint_convexity(self):
        params, data = random_instance(11, d=2, horizon=15.0)
        g = compute_stats(data, params.alpha)
        rng = np.random.default_rng(0)
        for _ in range(20):
            m1, m2 = rng.uniform(0, 1, (2, 2))
            A1, A2 = rng.uniform(0, 1, (2, 2, 2))
            lam = rng.uniform()
            lhs = least_squares(lam * m1 + (1 - lam) * m2,
                                lam * A1 + (1 - lam) * A2, g).value
            rhs = (lam * least_squares(m1, A1, g).value
                   + (1 - lam) * least_squares(m2, A2, g).value)
            assert lhs <= rhs + 1e-10


class TestNegLogLikelihood:
    def test_hand_value_poisson(self):
        params = ModelParams(mu=[1.0], A=[[0.0]], alpha=[[1.0]])
        data = EventData(2.0, (np.array([1.0]),))
        cache = compute_stats(data, params.alpha)
        out = neg_log_likelihood_cached(params.mu, params.A, cache)
        assert out.value == pytest.approx(1.0, rel=1e-12)

    def test_zero_intensity_infeasible(self):
        params = ModelParams(mu=[0.0], A=[[0.0]], alpha=[[1.0]])
        data = EventData(2.0, (np.array([1.0]),))
        cache = compute_stats(data, params.alpha)
        out = neg_log_likelihood_cached(params.mu, params.A, cache)
        assert out.value == np.inf

    @pytest.mark.parametrize("seed", list(range(10)))
    def test_gradient_finite_differences(self, seed):
        d = 1 if seed % 2 else 3
        params, data = random_instance(seed + 40, d=d, horizon=10.0)
        cache = compute_stats(data, params.alpha)
        rng = np.random.default_rng(seed)
        mu = rng.uniform(0.2, 1.0, d)
        A = rng.uniform(0.0, 0.5, (d, d))
        out = neg_log_likelihood_cached(mu, A, cache)
        fd_check(lambda m, a: neg_log_likelihood_cached(m, a, cache).value,
                 mu, A, out.grad_mu, out.grad_A)

    def test_compensator_via_quadrature(self):
        # value check against direct numeric evaluation of the likelihood
        params, data = random_instance(2, d=2, horizon=10.0)
        cache = compute_stats(data, params.alpha)
        out = neg_log_likelihood_cached(params.mu, params.A, cache)
        T = data.horizon_T
        total = 0.0
        pts = sorted(set(np.concatenate(data.events).tolist()))
        for j in range(2):
            lam = lambda t: params.mu[j] + sum(
                params.A[j, k] * H_jk(data, params.alpha, j, k, t)
                for k in range(2))
            comp, _ = quad(lam, 0, T, points=pts, limit=400)
            logs = sum(math.log(lam(t)) for t in data.events[j])
            total -= logs - comp
        assert out.value == pytest.approx(total / T, rel=1e-8)

    def test_midpoint_convexity(self):
        params, data = random_instance(13, d=2, horizon=15.0)
        cache = compute_stats(data, params.alpha)
        rng = np.random.default_rng(1)
        for _ in range(20):
            m1, m2 = rng.uniform(0.1, 1, (2, 2))
            A1, A2 = rng.uniform(0, 1, (2, 2, 2))
            lam = rng.uniform()
            lhs = neg_log_likelihood_cached(
                lam * m1 + (1 - lam) * m2, lam * A1 + (1 - lam) * A2,
                cache).value
            rhs = (lam * neg_log_likelihood_cached(m1, A1, cache).value
                   + (1 - lam) * neg_log_likelihood_cached(m2, A2,
                                                           cache).value)
            assert lhs <= rhs + 1e-10


def nll_reference(mu, A, window, clip=0.0):
    """The log-likelihood as a loop over nodes, one node's events at a
    time: (value, grad_mu, grad_A), value +inf at an infeasible point."""
    d, T = window.d, window.horizon_T
    value, grad_mu, grad_A = 0.0, np.zeros(d), np.zeros((d, d))
    for j in range(d):
        H = window.H_at_events[j]
        lam = mu[j] + H @ A[j] if H.size else np.empty(0)
        if clip > 0:
            lam = np.maximum(lam, clip)
        elif np.any(lam <= 0):
            return np.inf, None, None
        compensator = mu[j] * T + float(A[j] @ window.int_H[j])
        value -= float(np.log(lam).sum()) - compensator
        inv = 1.0 / lam if lam.size else lam
        grad_mu[j] = -(float(inv.sum()) - T)
        grad_A[j] = -((H.T @ inv if H.size else 0.0) - window.int_H[j])
    return value / T, grad_mu / T, grad_A / T


def _tied_data():
    # cross-node ties at t = 1 and t = 3, node 3 without events
    return EventData(8.0, (np.array([0.5, 1.0, 3.0, 6.0]),
                           np.array([1.0, 2.0, 3.0, 7.5]),
                           np.array([3.0, 5.0]), np.empty(0)))


def _alphas(d):
    rng = np.random.default_rng(d)
    two_rows = np.ones((d, d))
    two_rows[::2] = 1.7
    return {"uniform": np.full((d, d), 1.3), "two-blocks": two_rows,
            "per-pair": rng.uniform(0.5, 2.0, (d, d))}


class TestArrayLogLikelihood:
    """The array program against the per-node loop it replaces."""

    CASES = [(name, data_fn) for name in ("uniform", "two-blocks", "per-pair")
             for data_fn in ("simulated", "tied")]

    @staticmethod
    def window(name, data_fn):
        if data_fn == "tied":
            data = _tied_data()
        else:
            _, data = random_instance(31, d=4, horizon=30.0)
        window = compute_stats(data, _alphas(data.d)[name])
        assert len(window.G) == {"uniform": 1, "two-blocks": 2,
                                 "per-pair": data.d}[name]
        return window

    @staticmethod
    def assert_matches(out, ref):
        value, grad_mu, grad_A = ref
        assert out.value == pytest.approx(value, rel=1e-13)
        assert out.grad_mu == pytest.approx(grad_mu, rel=1e-13)
        assert np.array_equal(out.grad_A, grad_A)

    @pytest.mark.parametrize("name,data_fn", CASES)
    @pytest.mark.parametrize("clip", [0.0, 0.3])
    def test_matches_node_loop(self, name, data_fn, clip):
        window = self.window(name, data_fn)
        rng = np.random.default_rng(5)
        d = window.d
        # node 0's baseline below the clip, so the floor acts
        mu = np.append(0.05, rng.uniform(0.2, 1.0, d - 1))
        A = rng.uniform(0.0, 0.3, (d, d)) * (rng.uniform(size=(d, d)) < 0.6)
        out = neg_log_likelihood_cached(mu, A, window, clip)
        self.assert_matches(out, nll_reference(mu, A, window, clip))

    @pytest.mark.parametrize("name,data_fn", CASES)
    def test_infeasible_point(self, name, data_fn):
        window = self.window(name, data_fn)
        d = window.d
        mu = np.full(d, 0.5)
        mu[0] = 0.0  # with A = 0 every event of node 0 has lambda = 0
        out = neg_log_likelihood_cached(mu, np.zeros((d, d)), window)
        assert out.value == np.inf == nll_reference(
            mu, np.zeros((d, d)), window)[0]
        assert out.grad_mu is None and out.grad_A is None

    @pytest.mark.parametrize("name,data_fn", CASES)
    @pytest.mark.parametrize("loss", [least_squares,
                                      neg_log_likelihood_cached])
    def test_value_only_is_the_same_value(self, name, data_fn, loss):
        window = self.window(name, data_fn)
        rng = np.random.default_rng(6)
        d = window.d
        mu = rng.uniform(0.2, 1.0, d)
        A = rng.uniform(0.0, 0.3, (d, d))
        full = loss(mu, A, window)
        value_only = loss(mu, A, window, grad=False)
        assert value_only.value == full.value
        assert value_only.grad_mu is None and value_only.grad_A is None
        assert full.grad_mu.shape == (d,) and full.grad_A.shape == (d, d)


class TestPackedLeastSquares:
    """The quadratic on the packed point against the five-term reference."""

    CASES = TestArrayLogLikelihood.CASES

    @staticmethod
    def point(d):
        rng = np.random.default_rng(7)
        return rng.uniform(0.2, 1.0, d), rng.uniform(0.0, 0.3, (d, d))

    @staticmethod
    def assert_matches(value, grad_mu, grad_A, ref):
        ref_value, ref_mu, ref_A = ref
        assert value == pytest.approx(ref_value, rel=1e-12)
        ref_grad = np.concatenate([ref_mu, ref_A.ravel()])
        grad = np.concatenate([grad_mu, grad_A.ravel()])
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()

    @pytest.mark.parametrize("name,data_fn", CASES)
    def test_packed_matches_reference(self, name, data_fn):
        window = TestArrayLogLikelihood.window(name, data_fn)
        d = window.d
        mu, A = self.point(d)
        x = np.concatenate([mu, A.ravel()])
        value, g = packed_least_squares(x, window)
        self.assert_matches(value, g[:d], g[d:].reshape(d, d),
                            reference_least_squares(mu, A, window))
        assert packed_least_squares(x, window, grad=False) == (value, None)

    @pytest.mark.parametrize("name,data_fn", CASES)
    def test_least_squares_matches_reference(self, name, data_fn):
        window = TestArrayLogLikelihood.window(name, data_fn)
        mu, A = self.point(window.d)
        out = least_squares(mu, A, window)
        self.assert_matches(out.value, out.grad_mu, out.grad_A,
                            reference_least_squares(mu, A, window))
        assert least_squares(mu, A, window, grad=False).value == out.value
