import numpy as np
import pytest

from hawkesnet import (ModelParams, ScenarioConfig, SimConfig,
                       default_bound_params, generate_scenario, mean_stationary_intensity,
                       scaled_box_ranges, simulate, simulate_replication)
from hawkesnet.simulate import SimulationOverflowError
from tests.conftest import count_covariance_rate, expected_counts


def poisson_params(d=1, mu=0.1):
    return ModelParams(mu=np.full(d, mu), A=np.zeros((d, d)),
                       alpha=np.ones((d, d)))


# Cross-exciting models whose columns of A differ, so an event attributed
# to the wrong node changes both the per-node counts and the total.
CROSS_EXCITING = {
    "d2-asymmetric": ModelParams(mu=[0.4, 0.1], A=[[0.2, 0.9], [0.0, 0.45]],
                                 alpha=np.full((2, 2), 1.5)),
    "d3-ring": ModelParams(mu=[0.6, 0.0, 0.0],
                           A=[[0.0, 0.0, 0.5], [0.7, 0.0, 0.0],
                              [0.0, 0.8, 0.0]],
                           alpha=np.ones((3, 3))),
    "d5-triangular": ModelParams(mu=[0.2, 0.05, 0.1, 0.0, 0.15],
                                 A=0.3 * np.triu(np.ones((5, 5))),
                                 alpha=np.full((5, 5), 2.0)),
}


class TestThinning:
    def test_poisson_count_distribution(self):
        # A = 0 reduces to Poisson(mu * T): mean and variance within 3 SE
        mu, T, reps = 0.1, 100.0, 500
        params = poisson_params(mu=mu)
        counts = np.array([
            simulate(SimConfig(params=params, horizon_T=T, seed=s)).total_events()
            for s in range(reps)
        ])
        lam = mu * T
        se_mean = np.sqrt(lam / reps)
        assert abs(counts.mean() - lam) < 3 * se_mean
        # variance of sample variance for Poisson ~ lam(1 + 2 lam) / n
        se_var = np.sqrt(lam * (1 + 2 * lam) / reps)
        assert abs(counts.var(ddof=1) - lam) < 3 * se_var

    def test_hawkes_rate_matches_stationary_mean(self):
        params = ModelParams(mu=[0.5], A=[[0.5]], alpha=[[1.0]])
        T = 2000.0
        m = mean_stationary_intensity(params)[0]
        rates = np.array([
            simulate(SimConfig(params=params, horizon_T=T, seed=s)).total_events() / T
            for s in range(20)
        ])
        se = rates.std(ddof=1) / np.sqrt(len(rates))
        assert abs(rates.mean() - m) < 3 * se

    @pytest.mark.parametrize("name", sorted(CROSS_EXCITING))
    def test_counts_match_closed_form(self, name):
        # mean counts within 3 standard errors of the closed-form E[N(T)],
        # per node and in total, the SE from the asymptotic covariance
        params = CROSS_EXCITING[name]
        T, reps = 100.0, 200
        counts = np.array([
            simulate(SimConfig(params=params, horizon_T=T, seed=s)).counts
            for s in range(reps)
        ])
        expected = expected_counts(params, T)
        cov = T * count_covariance_rate(params) / reps
        se_nodes = np.sqrt(np.diag(cov))
        assert np.all(np.abs(counts.mean(axis=0) - expected) < 3 * se_nodes)
        se_total = np.sqrt(cov.sum())
        assert abs(counts.sum(axis=1).mean() - expected.sum()) < 3 * se_total

    def test_deterministic_given_seed(self):
        params = ModelParams(mu=[0.2, 0.3], A=0.2 * np.ones((2, 2)),
                             alpha=np.ones((2, 2)))
        cfg = SimConfig(params=params, horizon_T=200.0, seed=99)
        a, b = simulate(cfg), simulate(cfg)
        for ea, eb in zip(a.events, b.events):
            assert np.array_equal(ea, eb)

    def test_timestamps_strictly_increasing_in_window(self):
        params = ModelParams(mu=[0.5], A=[[0.8]], alpha=[[1.0]])
        data = simulate(SimConfig(params=params, horizon_T=500.0, seed=4))
        ev = data.events[0]
        assert np.all(np.diff(ev) > 0)
        assert ev[0] > 0 and ev[-1] <= 500.0

    def test_max_events_cap(self):
        params = ModelParams(mu=[1.0], A=[[0.9]], alpha=[[1.0]])
        with pytest.raises(SimulationOverflowError):
            simulate(SimConfig(params=params, horizon_T=10000.0, seed=0,
                               max_events=50))

    @pytest.mark.parametrize("T", [np.inf, np.nan])
    def test_non_finite_horizon_rejected(self, T):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(params=poisson_params(), horizon_T=T, seed=0)

    def test_unstable_model_needs_an_event_cap(self):
        # spectral radius 1.5: unbounded in expectation without a cap
        params = default_bound_params(3, coupling_opnorm=1.5)
        with pytest.raises(ValueError, match="max_events"):
            simulate(SimConfig(params=params, horizon_T=10.0, seed=0))
        try:
            data = simulate(SimConfig(params=params, horizon_T=10.0, seed=0,
                                      max_events=10_000))
        except SimulationOverflowError:
            return
        assert data.total_events() <= 10_000

    def test_replication_streams_independent_of_order(self):
        params = poisson_params(mu=0.5)
        a = simulate_replication(params, 100.0, seed=5, rep=3)
        b = simulate_replication(params, 100.0, seed=5, rep=3)
        assert np.array_equal(a.events[0], b.events[0])
        c = simulate_replication(params, 100.0, seed=5, rep=4)
        assert not np.array_equal(a.events[0], c.events[0])


class TestScenario:
    def test_default_boxes_d100(self):
        config = ScenarioConfig(d=100, seed=0)
        params, support = generate_scenario(config)
        assert np.linalg.norm(params.A, 2) == pytest.approx(0.8, abs=1e-10)
        assert np.all((params.mu >= 0) & (params.mu <= 0.1))
        assert np.all(params.alpha == 1.0)
        mask = np.zeros((100, 100), dtype=bool)
        for lo, hi in ((1, 20), (10, 50), (35, 56), (65, 100)):
            mask[lo - 1:hi, lo - 1:hi] = True
        assert np.all(params.A[~mask] == 0)
        assert np.all(support[~mask] == False)  # noqa: E712

    def test_single_constant_box_rank_one(self):
        c = 0.1
        config = ScenarioConfig(d=5, seed=0, box_ranges=((1, 5),),
                                box_value_range=(c, c), target_opnorm=0.8)
        params, _ = generate_scenario(config)
        # constant matrix has operator norm c * d; scaling gives rank 1
        expected = (0.8 / (c * 5)) * c
        assert params.A == pytest.approx(np.full((5, 5), expected))
        s = np.linalg.svd(params.A, compute_uv=False)
        assert s[0] == pytest.approx(0.8, abs=1e-12)
        assert np.all(s[1:] < 1e-12)

    def test_degenerate_value_range_rejected(self):
        config = ScenarioConfig(d=5, seed=0, box_ranges=((1, 5),),
                                box_value_range=(0.0, 0.0))
        with pytest.raises(ValueError):
            generate_scenario(config)

    def test_box_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(d=5, seed=0, box_ranges=((1, 6),))

    def test_scaled_boxes(self):
        assert scaled_box_ranges(100) == ((1, 20), (10, 50), (35, 56), (65, 100))
        for lo, hi in scaled_box_ranges(30):
            assert 1 <= lo <= hi <= 30
