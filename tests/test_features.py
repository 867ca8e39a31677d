import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hawkesnet import (EventData, ModelParams, PenaltyWeights, Window,
                       compute_stats, constant_weights,
                       intensity_at, neg_log_likelihood_cached,
                       practical_weights,
                       theoretical_weights)
from tests.conftest import random_instance


def naive_H(data, alpha, t, closed=False):
    """Quadratic-time H(t-) (or H(t+) with closed=True) straight from the sum."""
    d = data.d
    H = np.zeros((d, d))
    for k in range(d):
        ev = data.events[k]
        past = ev[ev <= t] if closed else ev[ev < t]
        for j in range(d):
            H[j, k] = np.sum(np.exp(-alpha[j, k] * (t - past)))
    return H


def naive_stats(data, alpha):
    d, T = data.d, data.horizon_T
    Vhat = np.zeros((d, d))
    Vhat1 = np.zeros(d)
    Vhat2 = np.zeros((d, d))
    B = np.zeros((d, d))
    sup2inf = 0.0
    times, nodes = data.merged()
    for t, l in zip(times, nodes):
        H = naive_H(data, alpha, t)
        Vhat[l] += H[l] ** 2
        h2inf_sq = (H ** 2).sum(axis=1).max()
        Vhat1[l] += h2inf_sq
        denom = float(H[l] @ H[l])
        if denom > 0:
            Vhat2 += (h2inf_sq / denom) * np.outer(H[:, l], H[:, l])
        Hp = naive_H(data, alpha, t, closed=True)
        np.maximum(B[:, l], Hp[:, l], out=B[:, l])
        sup2inf = max(sup2inf, math.sqrt((Hp ** 2).sum(axis=1).max()))
    return Vhat / T, Vhat1 / T, Vhat2 / T, B, sup2inf


def stats_with_counts(counts, d, T):
    """A Window of zero statistics carrying only what the baseline weights
    read."""
    zeros = np.zeros((d, d))
    return Window(horizon_T=T, counts=np.asarray(counts),
                  row_block=np.zeros(d, dtype=int), G=zeros[None], int_H=zeros,
                  S=zeros, H_at_events=(np.zeros((0, d)),) * d, B=zeros,
                  Vhat=zeros, Vhat1=np.zeros(d), Vhat2=zeros, sup_H_2inf=0.0)


class TestComputeStats:
    def test_no_events_all_zero(self):
        data = EventData(5.0, (np.empty(0), np.empty(0)))
        st = compute_stats(data, np.ones((2, 2)))
        assert np.all(st.Vhat == 0) and np.all(st.B == 0)
        assert np.all(st.Vhat1 == 0) and np.all(st.Vhat2 == 0)
        assert st.sup_H_2inf == 0.0

    def test_three_event_hand_values(self):
        data = EventData(3.0, (np.array([1.0, 2.0, 3.0]),))
        st = compute_stats(data, np.ones((1, 1)))
        e1, e2 = math.exp(-1), math.exp(-2)
        expected_V = (e2 + (e2 + e1) ** 2) / 3.0
        assert st.Vhat[0, 0] == pytest.approx(expected_V, rel=1e-12)
        assert st.Vhat[0, 0] == pytest.approx(0.12952, abs=5e-6)
        # running sup is attained just after the last event
        assert st.B[0, 0] == pytest.approx(1 + e1 + e2, rel=1e-12)
        h_left = st.H_at_events[0][:, 0]
        assert h_left == pytest.approx([0.0, e1, e2 + e1], rel=1e-12)

    def test_d1_collapse(self):
        _, data = random_instance(7, d=1, horizon=40.0)
        st = compute_stats(data, np.array([[1.3]]))
        assert st.Vhat2[0, 0] == pytest.approx(st.Vhat1[0], rel=1e-12)
        assert st.Vhat2[0, 0] == pytest.approx(st.Vhat[0, 0], rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_naive_double_sum(self, seed):
        params, data = random_instance(seed, d=3, horizon=20.0)
        st = compute_stats(data, params.alpha)
        V, V1, V2, B, sup = naive_stats(data, params.alpha)
        assert st.Vhat == pytest.approx(V, rel=1e-10, abs=1e-12)
        assert st.Vhat1 == pytest.approx(V1, rel=1e-10, abs=1e-12)
        assert st.Vhat2 == pytest.approx(V2, rel=1e-10, abs=1e-12)
        assert st.B == pytest.approx(B, rel=1e-10, abs=1e-12)
        assert st.sup_H_2inf == pytest.approx(sup, rel=1e-10)
        for j in range(3):
            for i, t in enumerate(data.events[j]):
                assert st.H_at_events[j][i] == pytest.approx(
                    naive_H(data, params.alpha, t)[j], rel=1e-10, abs=1e-12)

    def test_B_monotone_under_added_events(self):
        base = EventData(10.0, (np.array([1.0, 4.0]), np.array([2.0])))
        more = EventData(10.0, (np.array([1.0, 4.0, 6.0]), np.array([2.0])))
        alpha = np.ones((2, 2))
        assert np.all(compute_stats(more, alpha).B[:, 0]
                      >= compute_stats(base, alpha).B[:, 0])


@st.composite
def uniform_streams(draw):
    """Streams for a uniform decay, d <= 4, on a coarse time grid so that
    events of different nodes often share a timestamp."""
    d = draw(st.integers(1, 4))
    T = draw(st.sampled_from([2.0, 5.0, 9.0]))
    grid = np.round(np.arange(1, int(4 * T) + 1) * 0.25, 2)
    events = tuple(
        np.array(sorted(draw(st.sets(st.sampled_from(grid.tolist()),
                                     max_size=6))))
        for _ in range(d))
    alpha = draw(st.sampled_from([0.3, 1.0, 2.5]))
    return EventData(T, events), np.full((d, d), alpha)


def H_quad(data, alpha, j, k, t):
    ev = data.events[k]
    return float(np.sum(np.exp(-alpha[j, k] * (t - ev[ev < t]))))


class TestUniformDecaySweep:
    """The path every workload uses: one excitation state for all rows."""

    @settings(max_examples=30, deadline=None)
    @given(uniform_streams())
    def test_matches_naive_sums_and_quadrature(self, stream):
        data, alpha = stream
        d, T = data.d, data.horizon_T
        stats = compute_stats(data, alpha)
        V, V1, V2, B, sup = naive_stats(data, alpha)
        assert stats.Vhat == pytest.approx(V, rel=1e-10, abs=1e-12)
        assert stats.Vhat1 == pytest.approx(V1, rel=1e-10, abs=1e-12)
        assert stats.Vhat2 == pytest.approx(V2, rel=1e-10, abs=1e-12)
        assert stats.B == pytest.approx(B, rel=1e-10, abs=1e-12)
        assert stats.sup_H_2inf == pytest.approx(sup, rel=1e-10, abs=1e-12)
        assert len(stats.G) == 1
        pts = sorted(set(np.concatenate(data.events).tolist()))
        for j in range(d):
            left = np.array([naive_H(data, alpha, t)[j]
                             for t in data.events[j]]).reshape(-1, d)
            assert stats.H_at_events[j] == pytest.approx(left, rel=1e-10,
                                                         abs=1e-12)
            assert stats.S[j] == pytest.approx(left.sum(axis=0) / T, rel=1e-10,
                                           abs=1e-12)
            for k in range(d):
                val, _ = quad(lambda t: H_quad(data, alpha, j, k, t), 0, T,
                              points=pts or None, limit=400)
                assert stats.psi[j, k] == pytest.approx(val / T, rel=1e-8,
                                                        abs=1e-10)
                assert stats.int_H[j, k] == pytest.approx(val, rel=1e-8,
                                                          abs=1e-10)
                for l in range(k, d):
                    val2, _ = quad(
                        lambda t: H_quad(data, alpha, j, k, t)
                        * H_quad(data, alpha, j, l, t), 0, T,
                        points=pts or None, limit=400)
                    assert stats.block(j)[k, l] == pytest.approx(
                        val2 / T, rel=1e-8, abs=1e-10)

    def test_one_block_matches_per_row_blocks(self):
        # every row of the perturbed decay is distinct and varies along
        # the row, so it takes the chunked per-row path
        params, data = random_instance(21, d=4, horizon=30.0)
        uni = np.full((4, 4), 0.9)
        per_row = uni + 1e-15 * np.arange(16).reshape(4, 4)
        ga, gb = compute_stats(data, uni), compute_stats(data, per_row)
        assert len(ga.G) == 1 and len(gb.G) == 4
        assert ga.psi == pytest.approx(gb.psi, rel=1e-9)
        assert ga.S == pytest.approx(gb.S, rel=1e-12)
        for j in range(4):
            assert ga.block(j) == pytest.approx(gb.block(j), rel=1e-9)
        for name in ("B", "Vhat", "Vhat1", "Vhat2", "int_H"):
            assert getattr(ga, name) == pytest.approx(getattr(gb, name),
                                                      rel=1e-9)
        for ha, hb in zip(ga.H_at_events, gb.H_at_events):
            assert ha == pytest.approx(hb, rel=1e-9)


class TestSimultaneousEvents:
    """Events at exactly t, of any node, are excluded from the left limit."""

    def test_two_nodes_one_timestamp(self):
        data = EventData(3.0, (np.array([1.0]), np.array([1.0])))
        stats = compute_stats(data, np.ones((2, 2)))
        assert np.all(stats.H_at_events[0] == 0)
        assert np.all(stats.H_at_events[1] == 0)
        # the sup just after t = 1 counts both events
        assert stats.sup_H_2inf == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_result_independent_of_node_order(self):
        data = EventData(4.0, (np.array([1.0, 2.0]), np.array([1.0, 3.0]),
                               np.array([2.0, 3.0])))
        perm = [2, 0, 1]
        swapped = EventData(4.0, tuple(data.events[p] for p in perm))
        alpha = np.ones((3, 3))
        a, b = compute_stats(data, alpha), compute_stats(swapped, alpha)
        P = np.ix_(perm, perm)
        assert b.B == pytest.approx(a.B[P], rel=1e-12)
        assert b.Vhat == pytest.approx(a.Vhat[P], rel=1e-12)
        assert b.Vhat2 == pytest.approx(a.Vhat2[P], rel=1e-12)
        assert b.S == pytest.approx(a.S[P], rel=1e-12)
        assert b.block(0) == pytest.approx(a.block(0)[P], rel=1e-12)

    def test_matches_intensity_at_with_cross_node_ties(self):
        rng = np.random.default_rng(5)
        d, T = 3, 6.0
        grid = np.arange(1, 24) * 0.25  # shared grid: many cross-node ties
        events = tuple(np.sort(rng.choice(grid, size=8, replace=False))
                       for _ in range(d))
        data = EventData(T, events)
        params = ModelParams(mu=rng.uniform(0.2, 0.5, d),
                             A=rng.uniform(0.0, 0.3, (d, d)),
                             alpha=rng.uniform(0.5, 2.0, (d, d)))
        window = compute_stats(data, params.alpha)
        logs = 0.0
        for j in range(d):
            left = np.array([naive_H(data, params.alpha, t)[j]
                             for t in data.events[j]])
            assert window.H_at_events[j] == pytest.approx(left, rel=1e-12,
                                                          abs=1e-14)
            assert window.S[j] == pytest.approx(left.sum(axis=0) / T, rel=1e-12)
            lam = np.array([intensity_at(params, data, j, t)
                            for t in data.events[j]])
            assert params.mu[j] + left @ params.A[j] == pytest.approx(
                lam, rel=1e-12)
            logs += np.log(lam).sum()
        comp = params.mu.sum() * T + sum(
            params.A[j, k] * np.sum(-np.expm1(-params.alpha[j, k]
                                              * (T - data.events[k])))
            / params.alpha[j, k] for j in range(d) for k in range(d))
        nll = neg_log_likelihood_cached(params.mu, params.A, window)
        assert nll.value == pytest.approx((comp - logs) / T, rel=1e-12)


class TestTheoreticalWeights:
    def test_hand_value(self):
        st = stats_with_counts([50, 50], d=2, T=100.0)
        pw = theoretical_weights(st, x=1.0)
        ell = 2 * math.log(math.log(356 / 112))
        lev = 1.0 + math.log(2) + ell
        expected = 6 * math.sqrt(2) * math.sqrt(lev * 0.5 / 100) + 27.93 * lev / 100
        assert pw.w[0] == pytest.approx(expected, rel=1e-12)
        assert pw.w[0] == pytest.approx(1.3991, abs=2e-4)

    def test_empty_node_reduction(self):
        st = stats_with_counts([0, 10], d=2, T=50.0)
        pw = theoretical_weights(st, x=2.0)
        assert pw.w[0] == pytest.approx(27.93 * (2.0 + math.log(2)) / 50.0)

    def test_never_excited_pair_zero_weight(self):
        st = stats_with_counts([3, 3], d=2, T=50.0)
        pw = theoretical_weights(st, x=1.0)
        assert np.all(pw.W == 0)

    def test_rejects_nonpositive_x(self):
        st = stats_with_counts([1], d=1, T=10.0)
        with pytest.raises(ValueError):
            theoretical_weights(st, x=0.0)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_nondecreasing_in_x(self, seed):
        # only for x >= 1: below that the decreasing iterated-logarithm
        # term can dominate the linear growth in x
        params, data = random_instance(seed, d=2, horizon=30.0)
        st = compute_stats(data, params.alpha)
        xs = np.geomspace(1.0, 50.0, 12)
        prev = None
        for x in xs:
            pw = theoretical_weights(st, x)
            assert np.all(pw.w >= 0) and np.all(pw.W >= 0) and pw.tau >= 0
            if prev is not None:
                assert np.all(pw.w >= prev.w - 1e-12)
                assert np.all(pw.W >= prev.W - 1e-12)
                assert pw.tau >= prev.tau - 1e-12
            prev = pw


class TestPracticalWeights:
    def test_hand_value(self):
        st = stats_with_counts([50, 50], d=2, T=100.0)
        pw = practical_weights(st, c1=1.0, c2=1.0)
        lev = math.log(100) + math.log(2)
        assert pw.w[0] == pytest.approx(math.sqrt(lev * 0.5 / 100), rel=1e-12)
        assert pw.w[0] == pytest.approx(0.16276, abs=5e-6)

    def test_zero_reductions(self):
        st = stats_with_counts([0, 4], d=2, T=10.0)
        pw = practical_weights(st, c1=2.0, c2=3.0)
        assert pw.w[0] == 0.0
        assert np.all(pw.W == 0)  # Vhat is zero in this synthetic stats

    def test_rejects_bad_inputs(self):
        st = stats_with_counts([1], d=1, T=10.0)
        with pytest.raises(ValueError):
            practical_weights(st, c1=0.0, c2=1.0)
        st_short = stats_with_counts([1], d=1, T=1.0)
        with pytest.raises(ValueError):
            practical_weights(st_short, c1=1.0, c2=1.0)


class TestConstantWeights:
    def test_fills_constants(self):
        pw = constant_weights(3, 0.1, 0.2, tau=0.5)
        assert np.all(pw.w == 0.1) and np.all(pw.W == 0.2)
        assert pw.tau == 0.5


class TestPenaltyWeightsValidation:
    @pytest.mark.parametrize("w, W, tau", [
        ([0.1, -0.1], np.zeros((2, 2)), 0.0),
        ([0.1, 0.1], np.full((2, 2), -1.0), 0.0),
        ([0.1, 0.1], np.zeros((2, 2)), -0.5),
        ([0.1, np.nan], np.zeros((2, 2)), 0.0),
        ([0.1, 0.1], np.full((2, 2), np.inf), 0.0),
        ([0.1, 0.1], np.zeros((2, 2)), np.inf),
    ])
    def test_negative_or_nonfinite_rejected(self, w, W, tau):
        with pytest.raises(ValueError, match="finite and >= 0"):
            PenaltyWeights(w=np.asarray(w), W=W, tau=tau)

    def test_builders_pass_bad_constants_on(self):
        with pytest.raises(ValueError):
            constant_weights(2, -1.0, 1.0)
        with pytest.raises(ValueError):
            practical_weights(stats_with_counts([5, 5], d=2, T=10.0),
                              1.0, 1.0, tau=-2.0)

    def test_zero_weights_accepted(self):
        pw = constant_weights(2, 0.0, 0.0)
        assert pw.tau == 0.0 and np.all(pw.w == 0) and np.all(pw.W == 0)
