from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hawkesnet import pen_value, prox_l1_nonneg, prox_trace, trace_norm
from hawkesnet.features import constant_weights


def l1_objective(x, v, w, step):
    return 0.5 * np.sum((x - v) ** 2) + step * np.sum(w * np.abs(x))


def trace_objective(X, V, tau_step):
    return 0.5 * np.sum((X - V) ** 2) + tau_step * trace_norm(X)


class TestPenValue:
    def test_weighted_sum(self):
        weights = constant_weights(2, 0.5, 2.0, tau=1.0)
        mu = np.array([1.0, 3.0])
        A = np.diag([2.0, 1.0])
        expected = 0.5 * 4 + 2.0 * 3 + 1.0 * 3
        assert pen_value(mu, A, weights) == pytest.approx(expected)

    def test_terms_toggle_off(self):
        # a zero weight switches its term off exactly; NoPen is zero weights
        mu, A = np.ones(2), np.ones((2, 2))
        assert pen_value(mu, A, constant_weights(2, 0.0, 0.0)) == 0.0
        assert pen_value(mu, A, constant_weights(2, 0.0, 2.0)) == 8.0


class TestProxL1Nonneg:
    def test_hand_values(self):
        out = prox_l1_nonneg(np.array([3.0, 0.5, -1.0]), np.full(3, 1.0), 1.0)
        assert out == pytest.approx([2.0, 0.0, 0.0])

    def test_rejects_bad_step_and_shape(self):
        with pytest.raises(ValueError):
            prox_l1_nonneg(np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            prox_l1_nonneg(np.zeros(2), np.zeros(3), 1.0)

    def test_optimality_against_random_competitors(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=6)
        w = rng.uniform(0.1, 1.0, 6)
        step = 0.7
        x = prox_l1_nonneg(v, w, step)
        base = l1_objective(x, v, w, step)
        for _ in range(100):
            y = np.maximum(rng.normal(size=6), 0.0)
            assert base <= l1_objective(y, v, w, step) + 1e-8

    @given(arrays(np.float64, 4, elements=st.floats(-5, 5)),
           arrays(np.float64, 4, elements=st.floats(-5, 5)))
    @settings(max_examples=50, deadline=None)
    def test_nonexpansive(self, u, v):
        w = np.full(4, 0.3)
        pu, pv = prox_l1_nonneg(u, w, 1.0), prox_l1_nonneg(v, w, 1.0)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


class TestProxTrace:
    def test_diag_hand_threshold(self):
        out = prox_trace(np.diag([3.0, 1.0]), 1.0)
        assert out == pytest.approx(np.diag([2.0, 0.0]), abs=1e-12)

    def test_zero_step_identity(self):
        V = np.arange(4.0).reshape(2, 2)
        assert np.array_equal(prox_trace(V, 0.0), V)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            prox_trace(np.array([[np.nan, 0.0], [0.0, 0.0]]), 1.0)
        with pytest.raises(ValueError):
            prox_trace(np.zeros((2, 2)), -0.1)

    def test_optimality_against_random_competitors(self):
        rng = np.random.default_rng(1)
        V = rng.normal(size=(3, 3))
        tau = 0.8
        X = prox_trace(V, tau)
        base = trace_objective(X, V, tau)
        for _ in range(100):
            Y = rng.normal(size=(3, 3))
            assert base <= trace_objective(Y, V, tau) + 1e-8

    def test_subgradient_residual(self):
        # X solves the prox problem iff V - X is in tau * subdiff(trace)(X):
        # check via U diag(sign) Vt decomposition for full-rank output
        rng = np.random.default_rng(2)
        V = rng.normal(size=(3, 3)) * 3
        tau = 0.5
        X = prox_trace(V, tau)
        U, s, Vt = np.linalg.svd(X)
        if np.all(s > 1e-10):
            residual = (V - X) - tau * (U @ Vt)
            assert np.linalg.norm(residual) <= 1e-8

    def test_svd_failure_retried_on_the_transpose(self, monkeypatch):
        # LAPACK's gesdd can fail to converge on a finite matrix (a d=100
        # log-likelihood split iterate did); the transpose is retried
        rng = np.random.default_rng(3)
        V = rng.normal(size=(4, 3))
        want = prox_trace(V, 0.5)
        svd, seen = np.linalg.svd, []

        def flaky_svd(M, *args, **kwargs):
            seen.append(M.shape)
            if len(seen) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", flaky_svd)
        got = prox_trace(V, 0.5)
        assert seen == [(4, 3), (3, 4)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_split_iterate_that_gesdd_rejects(self):
        # the trace-norm step's input at one round of a d=100
        # log-likelihood wL1Nuclear fit (entries 0.1 down to 1e-42), saved
        # bit for bit: gesdd in numpy 2.4's OpenBLAS raises "SVD did not
        # converge" on it and converges on its transpose
        path = Path(__file__).parent / "data" / "svd_nonconvergent_iterate.npz"
        with np.load(path) as f:
            V = f["V"]
        assert V.shape == (100, 100) and np.all(np.isfinite(V))
        s = np.linalg.svd(V.T, compute_uv=False)
        for tau in (0.01, 0.05):
            X = prox_trace(V, tau)
            assert np.all(np.isfinite(X))
            np.testing.assert_allclose(
                np.linalg.svd(X, compute_uv=False), np.maximum(s - tau, 0.0),
                rtol=0, atol=1e-12)

    @given(st.floats(0.0, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_singular_values_shrink(self, tau):
        rng = np.random.default_rng(5)
        V = rng.normal(size=(3, 3))
        sv = np.linalg.svd(V, compute_uv=False)
        sx = np.linalg.svd(prox_trace(V, tau), compute_uv=False)
        assert np.all(sx <= sv + 1e-12)
        assert sx == pytest.approx(np.maximum(sv - tau, 0.0), abs=1e-10)
