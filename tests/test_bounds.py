import math

import numpy as np
import pytest
from scipy.integrate import quad

from hawkesnet import (check_opnorm_bound, check_pointwise_bound,
                       compute_noise, compute_stats, default_bound_params,
                       opnorm_bound_rhs, pointwise_bound_rhs,
                       wilson_interval)
from hawkesnet import SimConfig, simulate, simulate_replication
from tests.conftest import random_instance


def H_jk(data, alpha, j, k, t):
    ev = data.events[k]
    past = ev[ev < t]
    return float(np.sum(np.exp(-alpha[j, k] * (t - past))))


class TestComputeNoise:
    def test_no_events_zero(self):
        from hawkesnet import EventData
        params = default_bound_params(2, mu=0.5)
        data = EventData(5.0, (np.empty(0), np.empty(0)))
        noise = compute_noise(params, data)
        # compensator of counts is still mu * T even with no events
        assert np.all(noise.Z == 0)
        assert noise.M_T == pytest.approx(-5.0 * params.mu)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_quadrature(self, seed):
        params, data = random_instance(seed, d=2, horizon=10.0)
        noise = compute_noise(params, data)
        alpha, T = params.alpha, data.horizon_T
        pts = sorted(set(np.concatenate(data.events).tolist()))
        for j in range(2):
            lam = lambda t: params.mu[j] + sum(
                params.A[j, m] * H_jk(data, alpha, j, m, t) for m in range(2))
            for k in range(2):
                jumps = sum(H_jk(data, alpha, j, k, t)
                            for t in data.events[j])
                comp, _ = quad(lambda t: H_jk(data, alpha, j, k, t) * lam(t),
                               0, T, points=pts, limit=400)
                assert noise.Z[j, k] == pytest.approx(jumps - comp, rel=1e-8,
                                                      abs=1e-8)
            comp_j, _ = quad(lam, 0, T, points=pts, limit=400)
            assert noise.M_T[j] == pytest.approx(
                len(data.events[j]) - comp_j, rel=1e-8, abs=1e-8)

    def test_martingale_mean_near_zero(self):
        # E Z(T) = 0: the replication average shrinks relative to its spread
        params = default_bound_params(2, mu=0.3, coupling_opnorm=0.4)
        Zs = []
        for seed in range(200):
            data = simulate(SimConfig(params=params, horizon_T=50.0,
                                      seed=seed))
            Zs.append(compute_noise(params, data).Z)
        Zs = np.array(Zs)
        se = Zs.std(axis=0, ddof=1) / math.sqrt(len(Zs))
        assert np.all(np.abs(Zs.mean(axis=0)) < 4 * se)

    def test_calibrated_against_observable_variance(self):
        # Z_jk and M_T are martingales started at 0 under the true model,
        # so E Z_jk^2 = E [Z_jk]_T = E T Vhat_jk, E M_T = 0 and
        # E M_T^2 = E [M]_T = E N(T).  The per-replication differences
        # have mean zero; a Z scaled up or down shifts the first one.
        params = default_bound_params(2, mu=0.5, coupling_opnorm=0.5)
        T, reps = 20.0, 1000
        sq_gap, M, M_sq_gap = [], [], []
        for rep in range(reps):
            data = simulate_replication(params, T, 0, rep)
            noise = compute_noise(params, data)
            sq_gap.append(noise.Z ** 2 - T * noise.window.Vhat)
            M.append(noise.M_T)
            M_sq_gap.append(noise.M_T ** 2 - data.counts)
        sq_gap, M, M_sq_gap = map(np.array, (sq_gap, M, M_sq_gap))

        def z_score(x):
            return x.mean(axis=0) / (x.std(axis=0, ddof=1) / math.sqrt(len(x)))

        assert np.all(np.abs(z_score(sq_gap)) < 4)
        assert abs(z_score(sq_gap.sum(axis=(1, 2)))) < 4
        assert np.all(np.abs(z_score(M)) < 4)
        assert np.all(np.abs(z_score(M_sq_gap)) < 4)

    def test_opnorm_dominates_entries(self):
        params, data = random_instance(4, d=3, horizon=20.0)
        noise = compute_noise(params, data)
        assert noise.opnorm_Z >= np.abs(noise.Z).max() - 1e-12


class TestBoundRhs:
    def test_pointwise_positive_and_monotone_in_x(self):
        params, data = random_instance(2, d=2, horizon=30.0)
        stats = compute_stats(data, params.alpha)
        r1 = pointwise_bound_rhs(stats, 1.0)
        r2 = pointwise_bound_rhs(stats, 4.0)
        assert np.all(r1 >= 0)
        assert np.all(r2 >= r1 - 1e-12)

    def test_opnorm_positive_and_monotone_in_x(self):
        params, data = random_instance(3, d=2, horizon=30.0)
        stats = compute_stats(data, params.alpha)
        assert opnorm_bound_rhs(stats, 4.0) >= opnorm_bound_rhs(stats, 1.0)

    def test_pointwise_hand_formula(self):
        params, data = random_instance(5, d=2, horizon=25.0)
        stats = compute_stats(data, params.alpha)
        from hawkesnet.features import iterated_log_A
        x = 2.0
        lev = x + 2 * math.log(2) + iterated_log_A(stats.Vhat, stats.B, x,
                                                   stats.horizon_T)
        expected = (2 * math.sqrt(2)
                    * np.sqrt(lev * stats.Vhat / stats.horizon_T)
                    + 9.31 * lev * stats.B / stats.horizon_T)
        assert pointwise_bound_rhs(stats, x) == pytest.approx(expected)

    def test_opnorm_hand_formula(self):
        params, data = random_instance(6, d=3, horizon=25.0)
        stats = compute_stats(data, params.alpha)
        x, T = 2.0, stats.horizon_T

        def loglog(v):
            return 2 * math.log(math.log(max(v, math.e)))

        v1 = stats.Vhat1.max()
        v2 = np.linalg.eigvalsh(stats.Vhat2).max()
        s2 = stats.sup_H_2inf ** 2
        bump = 2 * (4 + s2 / 3) * x
        lev = x + math.log(3) + loglog((2 * v1 + bump) / x) \
            + loglog((2 * v2 + bump) / x) + loglog(s2)
        vmax = max(v1, v2)
        expected = 4 * math.sqrt(lev * vmax / T) \
            + lev * (10.34 + 2.65 * stats.sup_H_2inf) / T
        assert opnorm_bound_rhs(stats, x) == pytest.approx(expected)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(5, 100)
        assert lo <= 0.05 <= hi

    def test_zero_count(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi > 0.0

    def test_known_value(self):
        # k=10, n=100, z=2.5758 (99%): standard Wilson formula
        z = 2.5758293035489004
        lo, hi = wilson_interval(10, 100)
        denom = 1 + z * z / 100
        center = (0.1 + z * z / 200) / denom
        half = z * math.sqrt(0.09 / 100 + z * z / 40000) / denom
        assert lo == pytest.approx(center - half, rel=1e-9)
        assert hi == pytest.approx(center + half, rel=1e-9)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestBoundChecks:
    def test_pointwise_small_run_holds(self):
        params = default_bound_params(2)
        report = check_pointwise_bound(params, horizon_T=100.0, x=5.0,
                                       n_reps=60, seed=0)
        assert report.bound_id == "pointwise"
        assert report.n_reps == 60
        assert 0 <= report.empirical_rate <= 1
        assert report.holds

    def test_opnorm_small_run_holds(self):
        params = default_bound_params(3)
        report = check_opnorm_bound(params, horizon_T=100.0, x=5.0,
                                    n_reps=60, seed=0)
        assert report.bound_id == "operator-norm"
        assert report.holds

    def test_bound_capped_at_one(self):
        params = default_bound_params(2)
        report = check_pointwise_bound(params, horizon_T=50.0, x=0.5,
                                       n_reps=5, seed=1)
        assert report.stated_bound == 1.0
        assert report.holds  # vacuous bound can never be violated

    def test_invalid_args(self):
        params = default_bound_params(2)
        with pytest.raises(ValueError):
            check_pointwise_bound(params, 50.0, x=0.0, n_reps=10, seed=0)
        with pytest.raises(ValueError):
            check_opnorm_bound(params, 50.0, x=1.0, n_reps=0, seed=0)

    @pytest.mark.parametrize("check", [check_pointwise_bound,
                                       check_opnorm_bound])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_x_rejected_before_simulating(self, monkeypatch, check, x):
        import hawkesnet.bounds as bounds

        def simulated(*args):
            raise AssertionError("simulated a replication")

        monkeypatch.setattr(bounds, "simulate_replication", simulated)
        with pytest.raises(ValueError, match="x must be finite and positive"):
            check(default_bound_params(2), 50.0, x, 10, 0)

    def test_unstable_model_rejected(self):
        # coupling 1.5 > 1: the event count grows without bound
        with pytest.raises(ValueError, match="spectral radius"):
            check_pointwise_bound(default_bound_params(3, coupling_opnorm=1.5),
                                  10.0, 8.0, 2, 0)

    @pytest.mark.parametrize("kw", [dict(mu=math.nan),
                                    dict(coupling_opnorm=math.inf),
                                    dict(alpha=math.nan)])
    def test_non_finite_model_rejected(self, kw):
        with pytest.raises(ValueError, match="finite"):
            default_bound_params(3, **kw)

    def test_report_dict_is_its_fields_and_holds(self):
        report = check_opnorm_bound(default_bound_params(2), 20.0, x=3.0,
                                    n_reps=3, seed=0)
        assert list(report.as_dict()) == [
            "bound_id", "x", "n_reps", "violation_count", "stated_bound",
            "empirical_rate", "wilson_ci", "holds"]
        assert report.as_dict()["holds"] is report.holds

    def test_deterministic_given_seed(self):
        params = default_bound_params(2)
        a = check_pointwise_bound(params, 80.0, x=4.0, n_reps=20, seed=3)
        b = check_pointwise_bound(params, 80.0, x=4.0, n_reps=20, seed=3)
        assert a.violation_count == b.violation_count
