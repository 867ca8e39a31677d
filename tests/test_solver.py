import itertools

import numpy as np
import pytest

from hawkesnet import (CVResult, EventData, FitConfig, ModelParams,
                       PenaltyWeights, ScenarioConfig, SimConfig,
                       compute_stats, cross_validate,
                       default_bound_params, fit_hawkes, generate_scenario,
                       mean_stationary_intensity, pen_value,
                       practical_weights, simulate)
from hawkesnet import solver
from hawkesnet.features import constant_weights
from hawkesnet.solver import (LineSearchError, _default_init,
                              _make_loss_oracle, _solve, fit_fista,
                              fit_split, heldout_loglik, split_halves)
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

        def checked_smooth(mu, A, grad=True):
            out = smooth(mu, A, grad)
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

    def test_restarts_from_an_infeasible_momentum_point(self, monkeypatch):
        # a short stream where one momentum step of the NoPen
        # log-likelihood fit leaves the region of positive intensities:
        # FISTA must restart from x instead of stepping from y
        params = default_bound_params(3, mu=0.2, coupling_opnorm=0.6)
        data = simulate(SimConfig(params=params, horizon_T=20.0, seed=9))
        values = []
        loss = solver._loss

        def spied(smooth, x, d):
            out = loss(smooth, x, d)
            values.append(out[0])
            return out

        monkeypatch.setattr(solver, "_loss", spied)
        res = fit_hawkes(compute_stats(data, params.alpha), zero_weights(3),
                         FitConfig(loss_kind="log-likelihood", max_iter=200))
        assert not all(np.isfinite(values))
        assert res.converged and res.sufficient_decrease_ok
        estimate = np.concatenate([res.mu, res.A.ravel()])
        assert np.all(np.isfinite(estimate)) and np.all(estimate >= 0)

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

    @pytest.mark.parametrize("loss_kind", ["least-squares", "log-likelihood"])
    def test_start_evaluated_once(self, loss_kind):
        # one call gives the start's value and the first iteration's gradient
        params, data = random_instance(8, d=3, horizon=60.0)
        window = compute_stats(data, params.alpha)
        mu0, A0 = _default_init(window, loss_kind)
        smooth = _make_loss_oracle(window, loss_kind)
        at_start = []

        def counted(mu, A, grad=True):
            at_start.append(np.array_equal(mu, mu0) and np.array_equal(A, A0))
            return smooth(mu, A, grad)

        res = fit_fista(counted, zero_weights(3), mu0, A0,
                        FitConfig(loss_kind=loss_kind, max_iter=20))
        assert res.iterations_used > 1
        assert sum(at_start) == 1

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

    @pytest.mark.parametrize("loss_kind", ["least-squares", "log-likelihood"])
    def test_accepted_steps_satisfy_descent_lemma(self, loss_kind,
                                                  monkeypatch):
        # the bound reads the loss gradient at z, not the direction shifted
        # by the dual u, which the closed-form cases cannot tell apart
        params, data = random_instance(8, d=3, horizon=60.0)
        steps = []
        backtrack = solver._backtrack

        def recorded(*args):
            steps.append((args, backtrack(*args)))
            return steps[-1][1]

        monkeypatch.setattr(solver, "_backtrack", recorded)
        fit_hawkes(compute_stats(data, params.alpha),
                   constant_weights(3, 0.01, 0.01, tau=0.05),
                   FitConfig(loss_kind=loss_kind, max_iter=50))
        assert len(steps) > 1
        for (_, _, _, y, f_y, g, *_), (x, f_x, step) in steps:
            dx = x - y
            rhs = f_y + dx @ g + dx @ dx / (2 * step)
            assert f_x <= rhs + 1e-12 * max(1.0, abs(rhs))

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
    def quadratic(m, B, c=1.0):
        """c/2 |mu - m|^2 + c/2 |A - B|^2 and its gradient."""
        def smooth(mu, A, grad=True):
            return (c / 2 * (np.sum((mu - m) ** 2) + np.sum((A - B) ** 2)),
                    c * (mu - m), c * (A - B))
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

    def test_curvature_four_closed_form(self):
        # with curvature c = 4 the steps and gamma are not 1, so the scale
        # of the dual update u += (x - z) / gamma shows: the exact update
        # meets the budget, u += (x - z) * gamma does not
        rng = np.random.default_rng(0)
        d, w, W, tau, c = 5, 0.1, 0.2, 0.3, 4.0
        m = rng.normal(size=d)
        b = rng.uniform(0.0, 2.0, d)
        P = np.eye(d)[rng.permutation(d)]
        weights = PenaltyWeights(w=np.full(d, w), W=np.full((d, d), W),
                                 tau=tau)
        res = fit_split(self.quadratic(m, P @ np.diag(b), c), weights,
                        np.zeros(d), np.zeros((d, d)),
                        FitConfig(max_iter=50, tol=1e-14))
        assert res.converged
        assert np.abs(res.mu - np.maximum(m - w / c, 0.0)).max() < 1e-8
        A_star = P @ np.diag(np.maximum(b - (W + tau) / c, 0.0))
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
            accepted.append(out[2])
            return out

        monkeypatch.setattr(solver, "_backtrack", recorded)
        res = fit_hawkes(compute_stats(data, params.alpha),
                         constant_weights(3, 0.01, 0.01, tau=tau),
                         FitConfig(max_iter=5, tol=1e-15))
        assert not res.converged
        assert len(accepted) == res.iterations_used == 5
        assert res.final_step == accepted[-1]
        assert res.as_dict()["final_step"] == accepted[-1]

    def test_diagnostics_in_reported_order(self):
        params, data = random_instance(8, d=3, horizon=60.0)
        res = fit_hawkes(compute_stats(data, params.alpha),
                         constant_weights(3, 0.01, 0.01), FitConfig(max_iter=3))
        assert list(res.as_dict()) == [
            "iterations_used", "converged", "final_step", "solver",
            "sufficient_decrease_ok", "final_objective"]
        assert res.as_dict()["final_objective"] == res.final_objective

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
        score = heldout_loglik(np.array([0.5, 0.0]), np.zeros((2, 2)), window)
        assert score == pytest.approx(2 * np.log(0.5) - 5.0 + np.log(1e-12),
                                      rel=1e-14)


class TestCrossValidate:
    def test_single_point_grid(self):
        params, data = random_instance(11, d=2, horizon=60.0)
        cfg = FitConfig(max_iter=60)
        cv = cross_validate(data, params.alpha, cfg, "wL1", (0.5,), (0.5,))
        assert isinstance(cv, CVResult)
        assert cv.best == (0.5, 0.5, 0.0)
        assert len(cv.scores) == 1

    def test_rejects_degenerate_penalty_vs_reasonable(self):
        # grid {tiny, huge}: huge forces theta = 0 which scores worse
        params, data = random_instance(12, d=2, horizon=120.0)
        cfg = FitConfig(max_iter=60)
        cv = cross_validate(data, params.alpha, cfg, "wL1", (0.5, 1e6),
                            (0.5, 1e6))
        assert cv.best[0] == 0.5 and cv.best[1] == 0.5

    def test_empty_grid_rejected(self):
        params, data = random_instance(13, d=2, horizon=60.0)
        cfg = FitConfig()
        with pytest.raises(ValueError):
            cross_validate(data, params.alpha, cfg, "wL1", (), (0.5,))

    def test_constant_weighting_mode(self):
        params, data = random_instance(14, d=2, horizon=60.0)
        cfg = FitConfig(max_iter=60)
        cv = cross_validate(data, params.alpha, cfg, "L1", (0.01, 0.03),
                            (0.01, 0.03))
        assert cv.best[0] in (0.01, 0.03)
        assert len(cv.scores) == 4

    def test_unknown_procedure_rejected(self):
        params, data = random_instance(14, d=2, horizon=60.0)
        cfg = FitConfig()
        for procedure in ("NoPen", "Lasso"):
            with pytest.raises(ValueError):
                cross_validate(data, params.alpha, cfg, procedure, (0.5,),
                               (0.5,))

    def test_tau_grid_with_trace(self):
        params, data = random_instance(15, d=2, horizon=80.0)
        cfg = FitConfig(max_iter=60)
        cv = cross_validate(data, params.alpha, cfg, "wL1Nuclear", (0.5,),
                            (0.5,), tau_grid=(0.001, 0.1))
        assert cv.best[2] in (0.001, 0.1)
        assert len(cv.scores) == 2

    def test_tau_grid_ignored_without_trace(self):
        params, data = random_instance(15, d=2, horizon=80.0)
        cfg = FitConfig(max_iter=60)
        cv = cross_validate(data, params.alpha, cfg, "wL1", (0.5,), (0.5,),
                            tau_grid=(0.001, 0.1))
        assert cv.best == (0.5, 0.5, 0.0) and len(cv.scores) == 1


class TestCrossValidatePath:
    """The train fits are one warm-started path; scoring keeps grid order."""

    GRIDS = dict(c1_grid=(0.01, 0.03), c2_grid=(0.02, 0.01),
                 tau_grid=(0.001, 0.01))

    @staticmethod
    def windows(data, alpha):
        return [compute_stats(w, alpha) for w in (*split_halves(data), data)]

    @pytest.mark.parametrize("procedure", ["wL1", "L1Nuclear"])
    def test_prebuilt_windows_bit_identical(self, procedure):
        params, data = random_instance(15, d=2, horizon=80.0)
        cfg = FitConfig(max_iter=40)
        args = (data, params.alpha, cfg, procedure, (0.3, 1.0), (0.3, 1.0),
                (0.003, 0.03))
        swept = cross_validate(*args)
        built = cross_validate(*args,
                               windows=self.windows(data, params.alpha))
        assert built.best == swept.best and built.scores == swept.scores
        assert built.on_edge == swept.on_edge
        assert np.array_equal(built.fit.mu, swept.fit.mu)
        assert np.array_equal(built.fit.A, swept.fit.A)
        assert built.fit.objective_trace == swept.fit.objective_trace

    def test_path_order_and_warm_starts(self, monkeypatch):
        params, data = random_instance(15, d=2, horizon=80.0)
        cfg = FitConfig(loss_kind="log-likelihood", max_iter=30)
        calls = []
        solve = solver._solve

        def recorded(smooth, weights, mu0, A0, config):
            res = solve(smooth, weights, mu0, A0, config)
            calls.append((weights, mu0, A0, res))
            return res

        monkeypatch.setattr(solver, "_solve", recorded)
        cv = cross_validate(data, params.alpha, cfg, "L1Nuclear",
                            **self.GRIDS)
        *path, refit = calls
        # constant weights: w = c1 and W = c2 everywhere
        order = [(wt.tau, wt.W[0, 0], wt.w[0]) for wt, *_ in path]
        assert order == sorted(order, reverse=True)
        assert len(set(order)) == len(order) == 8
        train, _, full = self.windows(data, params.alpha)
        for (_, mu0, A0, _), window in ((path[0], train), (refit, full)):
            mu_init, A_init = _default_init(window, cfg.loss_kind)
            assert np.array_equal(mu0, mu_init)
            assert np.array_equal(A0, A_init)
        for (*_, before), (_, mu0, A0, _) in zip(path, path[1:]):
            assert np.array_equal(mu0, before.mu)
            assert np.array_equal(A0, before.A)
        assert refit[3] is cv.fit

    def test_scores_in_grid_order(self, monkeypatch):
        params, data = random_instance(15, d=2, horizon=80.0)
        scored = []
        heldout = solver.heldout_loglik

        def recorded(mu, A, cache, *args):
            scored.append(heldout(mu, A, cache, *args))
            return scored[-1]

        monkeypatch.setattr(solver, "heldout_loglik", recorded)
        cv = cross_validate(data, params.alpha, FitConfig(max_iter=30),
                            "L1Nuclear", **self.GRIDS)
        assert [s[:3] for s in cv.scores] == list(itertools.product(
            *self.GRIDS.values()))
        assert [s[3] for s in cv.scores] == scored

    def test_on_edge_of_a_two_by_two_grid(self):
        # the huge constants force theta = 0, which scores worse: the
        # smallest c1 and c2 win, both on an edge; tau has one point
        params, data = random_instance(12, d=2, horizon=120.0)
        cv = cross_validate(data, params.alpha, FitConfig(max_iter=60), "wL1",
                            (0.5, 1e6), (1e6, 0.5))
        assert cv.best == (0.5, 0.5, 0.0)
        assert cv.on_edge == (True, True, False)

    def test_interior_choice_is_not_on_edge(self, monkeypatch):
        # the one held-out score of 1 picks the middle c1 and the larger
        # c2; a tau grid of one value twice has no edge
        params, data = random_instance(12, d=2, horizon=120.0)
        scores = iter([0.0] * 6 + [1.0] + [0.0] * 5)
        monkeypatch.setattr(solver, "heldout_loglik",
                            lambda *args: next(scores))
        cv = cross_validate(data, params.alpha, FitConfig(max_iter=10),
                            "wL1Nuclear", (3.0, 1.0, 0.3), (1.0, 3.0),
                            (0.01, 0.01))
        assert cv.best == (1.0, 3.0, 0.01)
        assert cv.on_edge == (False, True, False)


class TestSplitHalves:
    def test_window_too_short(self):
        data = EventData(1.5, (np.array([0.2, 1.0]),))
        with pytest.raises(ValueError, match="window too short to split"):
            split_halves(data)

    def test_no_event_in_the_second_half(self):
        data = EventData(10.0, (np.array([1.0, 4.0]), np.array([5.0])))
        with pytest.raises(ValueError, match="empty train or test half"):
            split_halves(data)


class TestGradientRequests:
    """Line-search trials ask the loss for its value only."""

    @staticmethod
    def counted(window, loss_kind, calls):
        smooth = _make_loss_oracle(window, loss_kind)

        def counted_smooth(mu, A, grad=True):
            out = smooth(mu, A, grad)
            calls.append((grad, bool(np.isfinite(out[0]))))
            assert (out[1] is None) == (not grad or not np.isfinite(out[0]))
            return out
        return counted_smooth

    @pytest.mark.parametrize("loss_kind", ["least-squares", "log-likelihood"])
    @pytest.mark.parametrize("tau", [0.0, 0.05])
    def test_one_gradient_per_iteration(self, loss_kind, tau):
        params, data = random_instance(8, d=3, horizon=60.0)
        window = compute_stats(data, params.alpha)
        calls = []
        res = _solve(self.counted(window, loss_kind, calls),
                     constant_weights(3, 0.01, 0.01, tau=tau),
                     *_default_init(window, loss_kind), FitConfig(max_iter=50))
        # a gradient at an infeasible point (a restarted FISTA momentum
        # step, as in TestFitFista, or a rebuilt split z) is not one, and
        # None is returned
        gradients = sum(finite for grad, finite in calls if grad)
        if tau == 0:  # FISTA: one y per iteration, the start value only
            assert gradients == res.iterations_used
        else:  # split: the start, then one z per iteration but the last
            assert gradients <= res.iterations_used + 1
        assert sum(not grad for grad, _ in calls) >= res.iterations_used

    def test_heldout_loglik_asks_no_gradient(self, monkeypatch):
        params, data = random_instance(15, d=2, horizon=80.0)
        grads = []
        nll = solver.neg_log_likelihood_cached

        def recorded(*args, **kwargs):
            out = nll(*args, **kwargs)
            grads.append(out.grad_A)
            return out

        monkeypatch.setattr(solver, "neg_log_likelihood_cached", recorded)
        cv = cross_validate(data, params.alpha, FitConfig(max_iter=30),
                            "wL1Nuclear", (0.5, 1.0), (0.5,),
                            tau_grid=(0.01,))
        assert len(grads) == len(cv.scores) == 2
        assert all(g is None for g in grads)
