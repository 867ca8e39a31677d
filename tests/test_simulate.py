import numpy as np
import pytest
from scipy.stats import kstest

from hawkesnet import (ModelParams, ScenarioConfig, SimConfig,
                       default_bound_params, generate_scenario, mean_stationary_intensity,
                       scaled_box_ranges, simulate, simulate_replication)
from hawkesnet.simulate import SimulationOverflowError
from tests.conftest import compensator_increments, count_covariance_rate, \
    expected_counts, reference_thinning


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


def _two_block_alpha():
    alpha = np.ones((4, 4))
    alpha[2:] = 2.5  # rows 0-1 decay at 1, rows 2-3 at 2.5: two blocks
    return alpha


# (params or the name of a fixture, horizon) that the d x d oracle checks:
# uniform, triangular and ring couplings, the bound models up to d=30, the
# d=30 scenario, per-pair decays, two decay blocks, and a node that never
# fires (mu = 0, zero row and column of A), which puts a flat step in the
# cumulative intensities the accepted events are attributed by
ORACLE_MODELS = {
    **{name: (p, 200.0) for name, p in CROSS_EXCITING.items()},
    **{f"bound-d{d}": (default_bound_params(d), 200.0) for d in (3, 5, 30)},
    "scenario-d30": (generate_scenario(ScenarioConfig(d=30, seed=42))[0],
                     200.0),
    "per-pair": ("small_params", 300.0),
    "two-blocks": (ModelParams(mu=[0.3, 0.2, 0.1, 0.4],
                               A=0.15 * np.ones((4, 4)),
                               alpha=_two_block_alpha()), 300.0),
    "silent-node": (ModelParams(mu=[0.4, 0.0, 0.3],
                                A=[[0.3, 0.0, 0.2], [0.0, 0.0, 0.0],
                                   [0.4, 0.0, 0.1]],
                                alpha=np.full((3, 3), 1.2)), 300.0),
}

# time-rescaling: a per-pair model of spectral radius 0.59 beside two
# uniform ones; 4 streams each on [0, 1000], about 36k increments
RESCALING_MODELS = (
    CROSS_EXCITING["d3-ring"],
    default_bound_params(5),
    ModelParams(mu=[0.3, 0.2, 0.4],
                A=[[0.3, 0.6, 0.0], [0.2, 0.3, 0.5], [0.6, 0.0, 0.2]],
                alpha=[[1.0, 2.0, 0.5], [1.5, 1.0, 2.5], [2.0, 0.7, 1.2]]),
)
#: the level of the pooled KS test.  Under a correct simulator its p-value
#: is uniform over the choice of seeds, so it fails on 1 in 1000 choices
RESCALING_LEVEL = 1e-3


def pooled_increments(simulated, T=1000.0, streams=4):
    """The compensator increments, under each model of RESCALING_MODELS, of
    the streams drawn from ``simulated(model)``, pooled."""
    return np.concatenate([
        compensator_increments(
            simulate(SimConfig(params=simulated(p), horizon_T=T,
                               seed=100 * i + s)), p)
        for i, p in enumerate(RESCALING_MODELS) for s in range(streams)])


class TestThinning:
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_matches_the_dense_reference(self, name, request):
        # the same random draws decide the same events: equal counts, and
        # event times equal up to rounding
        params, T = ORACLE_MODELS[name]
        if isinstance(params, str):
            params = request.getfixturevalue(params)
        for seed in (0, 1):
            got = simulate(SimConfig(params=params, horizon_T=T, seed=seed))
            want = reference_thinning(params, T, seed)
            assert np.array_equal(got.counts, want.counts)
            assert got.total_events() > 0
            for g, w in zip(got.events, want.events):
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-9)
        if name == "silent-node":
            assert got.counts[1] == 0

    def test_max_events_raises_at_the_next_event(self):
        params, T = default_bound_params(5), 100.0
        n = reference_thinning(params, T, 3).total_events()
        data = simulate(SimConfig(params=params, horizon_T=T, seed=3,
                                  max_events=n))
        assert data.total_events() == n
        with pytest.raises(SimulationOverflowError, match=f"={n - 1}"):
            simulate(SimConfig(params=params, horizon_T=T, seed=3,
                               max_events=n - 1))

    def test_time_rescaled_increments_are_exp1(self):
        z = pooled_increments(lambda p: p)
        assert z.size > 30_000
        assert kstest(z, "expon").pvalue > RESCALING_LEVEL

    def test_time_rescaling_sees_a_wrong_decay(self):
        # (2A, 2 alpha) has the same branching matrix A / alpha, and so the
        # same mean counts, but a kernel twice as fast
        z = pooled_increments(lambda p: ModelParams(mu=p.mu, A=2 * p.A,
                                                    alpha=2 * p.alpha))
        assert kstest(z, "expon").pvalue < RESCALING_LEVEL

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
