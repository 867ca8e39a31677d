import numpy as np
import pytest

from hawkesnet import (CVResult, EventData, FitConfig, ModelParams,
                       PenaltyWeights, ScenarioConfig, SimConfig,
                       compute_stats, cross_validate,
                       fit_hawkes, generate_scenario,
                       mean_stationary_intensity, pen_value,
                       practical_weights, simulate)
from hawkesnet import solver
from hawkesnet.features import constant_weights
from hawkesnet.solver import (LineSearchError, _default_init,
                              _make_loss_oracle, _solve, fit_fista,
                              fit_split, heldout_loglik)
from tests.conftest import random_instance


def zero_weights(d):
    return PenaltyWeights(w=np.zeros(d), W=np.zeros((d, d)), tau=0.0)


class TestFitFista:
    def test_quadratic_toy_closed_form(self):
        # pin A at 0 with a huge l1 weight; the remaining problem in mu is
        # separable quadratic with minimizer mu_j = N_j / T
        params = ModelParams(mu=[0.4, 0.7], A=np.zeros((2, 2)),
                             alpha=np.ones((2, 2)))
        data = simulate(SimConfig(params=params, horizon_T=100.0, seed=2))
        pinned = PenaltyWeights(w=np.zeros(2), W=np.full((2, 2), 1e6), tau=0.0)
        cfg = FitConfig(max_iter=200, tol=1e-14)
        res = fit_hawkes(compute_stats(data, params.alpha), pinned, cfg)
        assert np.all(res.A == 0.0)
        assert res.mu == pytest.approx(data.counts / 100.0, abs=1e-8)
        assert res.converged

    def test_overpenalization_returns_zero(self):
        params, data = random_instance(1, d=2, horizon=50.0)
        big = constant_weights(2, 1e4, 1e4)
        window = compute_stats(data, params.alpha)
        res = fit_hawkes(window, big, FitConfig(max_iter=50))
        assert np.all(res.mu == 0.0)
        assert np.all(res.A == 0.0)

    def test_objective_trace_best_iterate(self):
        params, data = random_instance(2, d=2, horizon=60.0)
        w = constant_weights(2, 0.01, 0.01)
        window = compute_stats(data, params.alpha)
        res = fit_hawkes(window, w, FitConfig(max_iter=80))
        smooth = _make_loss_oracle(window, "least-squares")
        final_obj = smooth(res.mu, res.A)[0] + pen_value(res.mu, res.A, w)
        assert final_obj <= min(res.objective_trace) + 1e-12

    def test_sufficient_decrease_on_accepted_steps(self):
        # re-run the backtracking inequality on every accepted step
        params, data = random_instance(3, d=2, horizon=60.0)
        w = constant_weights(2, 0.01, 0.01)
        accepted = []
        smooth = _make_loss_oracle(compute_stats(data, params.alpha),
                                   "least-squares")

        def checked_smooth(mu, A):
            out = smooth(mu, A)
            accepted.append((mu.copy(), A.copy(), out[0]))
            return out

        res = fit_fista(checked_smooth, w, np.zeros(2), np.zeros((2, 2)),
                        FitConfig(max_iter=40))
        assert res.sufficient_decrease_ok
        assert res.iterations_used >= 1

    def test_wrong_prox_fails_sufficient_decrease(self, monkeypatch):
        # the prox of the nonnegativity constraint alone ignores the l1
        # penalty, so the first step from x0 = 0 raises the objective
        params, data = random_instance(3, d=2, horizon=60.0)
        w = constant_weights(2, 10.0, 10.0)
        smooth = _make_loss_oracle(compute_stats(data, params.alpha),
                                   "least-squares")
        monkeypatch.setattr(solver, "prox_l1_nonneg",
                            lambda v, weights, step: np.maximum(v, 0.0))
        res = fit_fista(smooth, w, np.zeros(2), np.zeros((2, 2)),
                        FitConfig(max_iter=5))
        assert not res.sufficient_decrease_ok
        assert res.as_dict()["sufficient_decrease_ok"] is False

    def test_consistency_long_run(self):
        # d=2, T=5000 unpenalized: median relative error over 5 seeds < 15%
        errors = []
        for seed in range(5):
            params = ModelParams(mu=[0.3, 0.2],
                                 A=np.array([[0.3, 0.1], [0.2, 0.25]]),
                                 alpha=np.ones((2, 2)))
            data = simulate(SimConfig(params=params, horizon_T=5000.0,
                                      seed=seed))
            res = fit_hawkes(compute_stats(data, params.alpha),
                             zero_weights(2),
                             FitConfig(max_iter=400, tol=1e-12))
            num = (np.sum((res.mu - params.mu) ** 2)
                   + np.sum((res.A - params.A) ** 2))
            den = np.sum(params.mu ** 2) + np.sum(params.A ** 2)
            errors.append(num / den)
        assert np.median(errors) < 0.15

    def test_loglik_loss_runs_and_matches_ls_roughly(self):
        params, data = random_instance(5, d=2, horizon=200.0)
        window = compute_stats(data, params.alpha)
        res_ls = fit_hawkes(window, zero_weights(2),
                            FitConfig(max_iter=300, tol=1e-12))
        res_ll = fit_hawkes(window, zero_weights(2),
                            FitConfig(max_iter=300, tol=1e-12,
                                      loss_kind="log-likelihood"))
        assert np.all(res_ll.mu >= 0) and np.all(res_ll.A >= 0)
        # both estimate the same ground truth; agreement is loose
        assert res_ll.mu == pytest.approx(res_ls.mu, abs=0.3)

    def test_infeasible_start_raises(self):
        params, data = random_instance(6, d=2, horizon=30.0)
        cfg = FitConfig(loss_kind="log-likelihood")
        smooth = _make_loss_oracle(compute_stats(data, params.alpha),
                                   cfg.loss_kind)
        with pytest.raises(LineSearchError):
            _solve(smooth, zero_weights(2), np.zeros(2), np.zeros((2, 2)),
                   cfg)

    def test_rejects_trace_norm(self):
        params, data = random_instance(6, d=2, horizon=30.0)
        smooth = _make_loss_oracle(compute_stats(data, params.alpha),
                                   "least-squares")
        with pytest.raises(ValueError):
            fit_fista(smooth, constant_weights(2, 0.1, 0.1, tau=0.1),
                      np.zeros(2), np.zeros((2, 2)), FitConfig())


class TestFitSplit:
    def test_tau_zero_matches_fista(self):
        params, data = random_instance(7, d=2, horizon=80.0)
        w = constant_weights(2, 0.01, 0.01, tau=0.0)
        window = compute_stats(data, params.alpha)
        smooth = _make_loss_oracle(window, "least-squares")
        cfg = FitConfig(max_iter=300, tol=1e-12)
        res_p = fit_split(smooth, w, np.zeros(2), np.zeros((2, 2)), cfg)
        res_f = fit_hawkes(window, w, cfg)
        obj_p = smooth(res_p.mu, res_p.A)[0] + pen_value(res_p.mu, res_p.A, w)
        obj_f = smooth(res_f.mu, res_f.A)[0] + pen_value(res_f.mu, res_f.A, w)
        assert obj_p == pytest.approx(obj_f, rel=1e-4, abs=1e-8)

    def test_mixed_penalty_nonnegative_output(self):
        params, data = random_instance(8, d=3, horizon=60.0)
        w = constant_weights(3, 0.01, 0.01, tau=0.05)
        res = fit_hawkes(compute_stats(data, params.alpha), w,
                         FitConfig(max_iter=100))
        assert res.solver == "split"
        assert np.all(res.A >= 0) and np.all(res.mu >= 0)

    def test_sufficient_decrease_computed(self, monkeypatch):
        params, data = random_instance(8, d=3, horizon=60.0)
        w = constant_weights(3, 0.01, 0.01, tau=0.05)
        window = compute_stats(data, params.alpha)
        assert fit_hawkes(window, w,
                          FitConfig(max_iter=50)).sufficient_decrease_ok
        # an l1 prox that ignores its weights lets the l1 term grow
        monkeypatch.setattr(solver, "prox_l1_nonneg",
                            lambda v, weights, step: np.maximum(v, 0.0))
        res = fit_hawkes(window, constant_weights(3, 10.0, 10.0, tau=0.05),
                         FitConfig(max_iter=5))
        assert res.solver == "split"
        assert not res.sufficient_decrease_ok

    def test_large_tau_drops_rank(self):
        params, data = random_instance(10, d=3, horizon=80.0)
        cfg = FitConfig(max_iter=200)
        window = compute_stats(data, params.alpha)
        small = fit_hawkes(window,
                           constant_weights(3, 0.001, 0.001, tau=1e-6), cfg)
        big = fit_hawkes(window,
                         constant_weights(3, 0.001, 0.001, tau=10.0), cfg)
        s_small = np.linalg.svd(small.A, compute_uv=False).sum()
        s_big = np.linalg.svd(big.A, compute_uv=False).sum()
        assert s_big <= s_small + 1e-10

    @staticmethod
    def quadratic(m, B):
        """1/2 |mu - m|^2 + 1/2 |A - B|^2 and its gradient."""
        def smooth(mu, A):
            return (0.5 * np.sum((mu - m) ** 2) + 0.5 * np.sum((A - B) ** 2),
                    mu - m, A - B)
        return smooth

    def test_permuted_diagonal_closed_form(self):
        # l1 and trace norm both shrink the singular values b of P diag(b)
        rng = np.random.default_rng(0)
        d, w, W, tau = 5, 0.1, 0.2, 0.3
        m = rng.normal(size=d)
        b = rng.uniform(0.0, 2.0, d)
        P = np.eye(d)[rng.permutation(d)]
        weights = PenaltyWeights(w=np.full(d, w), W=np.full((d, d), W),
                                 tau=tau)
        res = fit_split(self.quadratic(m, P @ np.diag(b)), weights,
                        np.zeros(d), np.zeros((d, d)),
                        FitConfig(max_iter=500, tol=1e-14))
        assert res.converged
        assert np.abs(res.mu - np.maximum(m - w, 0.0)).max() < 1e-8
        A_star = P @ np.diag(np.maximum(b - W - tau, 0.0))
        assert np.abs(res.A - A_star).max() < 1e-8

    def test_rank_one_closed_form(self):
        # the trace norm alone shrinks the one singular value of a u v^T
        rng = np.random.default_rng(1)
        d, a, tau = 4, 2.0, 0.5
        m = rng.normal(size=d)
        u, v = rng.uniform(0.1, 1.0, d), rng.uniform(0.1, 1.0, d)
        B = a * np.outer(u, v)
        sigma = a * np.linalg.norm(u) * np.linalg.norm(v)
        weights = PenaltyWeights(w=np.zeros(d), W=np.zeros((d, d)), tau=tau)
        res = fit_split(self.quadratic(m, B), weights, np.zeros(d),
                        np.zeros((d, d)), FitConfig(max_iter=500, tol=1e-14))
        assert res.converged
        assert np.abs(res.mu - np.maximum(m, 0.0)).max() < 1e-8
        assert np.abs(res.A - max(1.0 - tau / sigma, 0.0) * B).max() < 1e-8

    @pytest.mark.parametrize("seed", [106, 187])
    def test_loglik_scenario_streams_fit(self, seed):
        # the first 2000 events of a d=30 scenario stream of 4000 expected
        # events: the l1 prox zeroes the baseline of a low-count node and
        # an intensity nears 0; the fit must still lower the objective
        params, _ = generate_scenario(ScenarioConfig(d=30, seed=seed))
        T = 4000.0 / mean_stationary_intensity(params).sum()
        data = simulate(SimConfig(params=params, horizon_T=T, seed=seed))
        t_cut = np.sort(np.concatenate(data.events))[1999]
        window = compute_stats(data.truncated(t_cut), params.alpha)
        weights = practical_weights(window, 1.0, 1.0, 0.01)
        cfg = FitConfig(loss_kind="log-likelihood")
        res = fit_hawkes(window, weights, cfg)
        assert np.all(np.isfinite(res.mu)) and np.all(np.isfinite(res.A))
        assert res.mu.min() >= 0 and res.A.min() >= 0
        mu0, A0 = _default_init(window, cfg.loss_kind)
        start = _make_loss_oracle(window, cfg.loss_kind)(mu0, A0)[0] \
            + pen_value(mu0, A0, weights)
        assert res.final_objective < start


class TestReportedFields:
    @pytest.mark.parametrize("tau", [0.0, 0.05])
    def test_final_step_is_last_accepted_step(self, tau, monkeypatch):
        # an unconverged fit reports the step _backtrack accepted last,
        # not that step grown for an iteration that never ran
        params, data = random_instance(8, d=3, horizon=60.0)
        accepted = []
        backtrack = solver._backtrack

        def recorded(*args):
            out = backtrack(*args)
            accepted.append(out[3])
            return out

        monkeypatch.setattr(solver, "_backtrack", recorded)
        res = fit_hawkes(compute_stats(data, params.alpha),
                         constant_weights(3, 0.01, 0.01, tau=tau),
                         FitConfig(max_iter=5, tol=1e-15))
        assert not res.converged
        assert len(accepted) == res.iterations_used == 5
        assert res.final_step == accepted[-1]
        assert res.as_dict()["final_step"] == accepted[-1]

    def test_final_objective_is_that_of_the_estimate(self):
        # on this instance the last iterate lies about 5e-8 above the best,
        # which is the estimate the fit returns
        params, _ = generate_scenario(ScenarioConfig(d=30, seed=42))
        data = simulate(SimConfig(params=params, horizon_T=500.0, seed=3))
        window = compute_stats(data, params.alpha)
        w = practical_weights(window, 1.0, 1.0)
        res = fit_hawkes(window, w)
        smooth = _make_loss_oracle(window, "least-squares")
        estimate = smooth(res.mu, res.A)[0] + pen_value(res.mu, res.A, w)
        assert res.objective_trace[-1] > estimate
        assert res.as_dict()["final_objective"] == pytest.approx(estimate,
                                                                 rel=1e-12)


class TestFitConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            FitConfig(max_iter=0)
        with pytest.raises(ValueError):
            FitConfig(tol=0.0)
        with pytest.raises(ValueError):
            FitConfig(loss_kind="huber")


class TestHeldoutLoglik:
    def test_idle_node_adds_only_its_compensator(self):
        # node 1 has no events: log-lik = 2 log 0.5 - 0.5 * 10 - 0 * 10
        data = EventData(10.0, (np.array([1.0, 2.0]), np.empty(0)))
        window = compute_stats(data, np.ones((2, 2)))
        score = heldout_loglik(np.array([0.5, 0.0]), np.zeros((2, 2)), window)
        assert score == pytest.approx(2 * np.log(0.5) - 5.0, rel=1e-14)
        assert score == pytest.approx(-6.386, abs=1e-3)

    def test_clip_floors_zero_intensities(self):
        data = EventData(10.0, (np.array([1.0, 2.0]), np.array([3.0])))
        window = compute_stats(data, np.ones((2, 2)))
        score = heldout_loglik(np.array([0.5, 0.0]), np.zeros((2, 2)), window,
                               clip=1e-12)
        assert score == pytest.approx(2 * np.log(0.5) - 5.0 + np.log(1e-12),
                                      rel=1e-14)


class TestCrossValidate:
    def test_single_point_grid(self):
        params, data = random_instance(11, d=2, horizon=60.0)
        cfg = FitConfig(max_iter=60)
        cv = cross_validate(data, params.alpha, cfg, (0.5,), (0.5,),
                            weighting="practical")
        assert isinstance(cv, CVResult)
        assert cv.best == (0.5, 0.5, 0.0)
        assert len(cv.scores) == 1

    def test_rejects_degenerate_penalty_vs_reasonable(self):
        # grid {tiny, huge}: huge forces theta = 0 which scores worse
        params, data = random_instance(12, d=2, horizon=120.0)
        cfg = FitConfig(max_iter=60)
        cv = cross_validate(data, params.alpha, cfg, (0.5, 1e6), (0.5, 1e6),
                            weighting="practical")
        assert cv.best[0] == 0.5 and cv.best[1] == 0.5

    def test_empty_grid_rejected(self):
        params, data = random_instance(13, d=2, horizon=60.0)
        cfg = FitConfig()
        with pytest.raises(ValueError):
            cross_validate(data, params.alpha, cfg, (), (0.5,))

    def test_constant_weighting_mode(self):
        params, data = random_instance(14, d=2, horizon=60.0)
        cfg = FitConfig(max_iter=60)
        cv = cross_validate(data, params.alpha, cfg, (0.01, 0.03),
                            (0.01, 0.03), weighting="constant")
        assert cv.best[0] in (0.01, 0.03)
        assert len(cv.scores) == 4

    def test_unknown_weighting_rejected(self):
        params, data = random_instance(14, d=2, horizon=60.0)
        cfg = FitConfig()
        with pytest.raises(ValueError):
            cross_validate(data, params.alpha, cfg, (0.5,), (0.5,),
                           weighting="theoretical")

    def test_tau_grid_with_trace(self):
        params, data = random_instance(15, d=2, horizon=80.0)
        cfg = FitConfig(max_iter=60)
        cv = cross_validate(data, params.alpha, cfg, (0.5,), (0.5,),
                            tau_grid=(0.001, 0.1), weighting="practical")
        assert cv.best[2] in (0.001, 0.1)
        assert len(cv.scores) == 2
