"""End-to-end acceptance checks.

Each test prints a single machine-greppable verdict line of the form

    [acceptance] <name>: PASS|FAIL

before asserting, so the suite doubles as a report.  The slow tier
(event-rate, bound validation, full simulation study) is marked ``slow``
and can be skipped with ``-m 'not slow'``.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

from hawkesnet import (ModelParams, SimConfig, check_opnorm_bound,
                       check_pointwise_bound, compute_stats,
                       default_bound_params, least_squares,
                       neg_log_likelihood_cached, prox_l1_nonneg, prox_trace,
                       simulate, mean_stationary_intensity)
from hawkesnet.cli import main as cli_main
from hawkesnet.experiment import ExperimentConfig, aggregate, run_experiment
from hawkesnet.simulate import ScenarioConfig, generate_scenario
from tests.conftest import (count_covariance_rate, expected_counts,
                            random_instance)


def verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


class TestCriterion1Gradients:
    def test_gradients_match_finite_differences(self):
        t0 = time.time()
        h, worst = 1e-6, 0.0
        rng = np.random.default_rng(0)
        for i in range(20):
            d = 1 if i % 2 else 3
            params, data = random_instance(100 + i, d=d, horizon=8.0)
            if data.total_events() > 100:
                data = data.truncated(4.0)
            window = compute_stats(data, params.alpha)
            mu = rng.uniform(0.2, 1.0, d)
            A = rng.uniform(0.0, 0.4, (d, d))
            for val_grad in (
                lambda m, a: least_squares(m, a, window),
                lambda m, a: neg_log_likelihood_cached(m, a, window),
            ):
                out = val_grad(mu, A)
                grads = np.concatenate([out.grad_mu, out.grad_A.ravel()])
                fd = []
                for j in range(d):
                    e = np.zeros(d); e[j] = h
                    fd.append((val_grad(mu + e, A).value
                               - val_grad(mu - e, A).value) / (2 * h))
                for j in range(d):
                    for k in range(d):
                        E = np.zeros((d, d)); E[j, k] = h
                        fd.append((val_grad(mu, A + E).value
                                   - val_grad(mu, A - E).value) / (2 * h))
                fd = np.array(fd)
                scale = np.maximum(np.abs(grads), 1e-3)
                worst = max(worst, float(np.max(np.abs(fd - grads) / scale)))
        elapsed = time.time() - t0
        verdict("criterion-1 gradient correctness",
                worst < 1e-5 and elapsed < 10,
                f"worst rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2Gram:
    def test_gram_matches_quadrature(self):
        t0 = time.time()

        def H_jk(data, alpha, j, k, t):
            ev = data.events[k]
            past = ev[ev < t]
            return float(np.sum(np.exp(-alpha[j, k] * (t - past))))

        worst = 0.0
        for seed in range(10):
            params, data = random_instance(200 + seed, d=2, horizon=8.0)
            alpha = params.alpha
            g = compute_stats(data, alpha)
            T = data.horizon_T
            pts = sorted(set(np.concatenate(data.events).tolist()))
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        val, _ = quad(
                            lambda t: H_jk(data, alpha, j, k, t)
                            * H_jk(data, alpha, j, l, t),
                            0, T, points=pts, limit=400)
                        ref = val / T
                        err = abs(g.block(j)[k, l] - ref) / max(abs(ref), 1e-12)
                        if ref != 0:
                            worst = max(worst, err)
        elapsed = time.time() - t0
        verdict("criterion-2 closed-form Gram",
                worst < 1e-8 and elapsed < 30,
                f"worst rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion3Prox:
    def test_prox_oracles(self):
        rng = np.random.default_rng(1)
        ok = True
        for _ in range(5):
            v = rng.normal(size=8)
            w = rng.uniform(0.05, 1.0, 8)
            step = rng.uniform(0.1, 2.0)
            x = prox_l1_nonneg(v, w, step)
            fx = 0.5 * np.sum((x - v) ** 2) + step * np.sum(w * np.abs(x))
            for _ in range(100):
                y = np.maximum(rng.normal(size=8), 0.0)
                fy = 0.5 * np.sum((y - v) ** 2) + step * np.sum(w * np.abs(y))
                ok &= fx <= fy + 1e-8
        for _ in range(5):
            V = rng.normal(size=(4, 4))
            tau = rng.uniform(0.1, 1.5)
            X = prox_trace(V, tau)
            sX = np.linalg.svd(X, compute_uv=False).sum()
            fX = 0.5 * np.sum((X - V) ** 2) + tau * sX
            for _ in range(100):
                Y = rng.normal(size=(4, 4))
                sY = np.linalg.svd(Y, compute_uv=False).sum()
                fY = 0.5 * np.sum((Y - V) ** 2) + tau * sY
                ok &= fX <= fY + 1e-8
        hand = prox_trace(np.diag([3.0, 1.0]), 1.0)
        ok &= bool(np.allclose(hand, np.diag([2.0, 0.0]), atol=1e-12))
        verdict("criterion-3 prox oracles", ok)


class TestCriterion4Simulator:
    def test_poisson_and_hawkes_rates(self):
        t0 = time.time()
        mu, T, reps = 0.1, 100.0, 500
        params = ModelParams(mu=[mu], A=[[0.0]], alpha=[[1.0]])
        counts = np.array([
            simulate(SimConfig(params=params, horizon_T=T,
                               seed=s)).total_events()
            for s in range(reps)
        ])
        lam = mu * T
        mean_ok = abs(counts.mean() - lam) < 3 * math.sqrt(lam / reps)
        var_ok = abs(counts.var(ddof=1) - lam) \
            < 3 * math.sqrt(lam * (1 + 2 * lam) / reps)
        hp = ModelParams(mu=[0.5], A=[[0.5]], alpha=[[1.0]])
        m = mean_stationary_intensity(hp)[0]
        rates = np.array([
            simulate(SimConfig(params=hp, horizon_T=2000.0,
                               seed=s)).total_events() / 2000.0
            for s in range(20)
        ])
        se = rates.std(ddof=1) / math.sqrt(len(rates))
        rate_ok = abs(rates.mean() - m) < 3 * se
        elapsed = time.time() - t0
        verdict("criterion-4 simulator fidelity",
                mean_ok and var_ok and rate_ok and elapsed < 60,
                f"poisson mean {counts.mean():.1f} vs {lam}, hawkes rate "
                f"{rates.mean():.3f} vs {m}, {elapsed:.1f}s")


@pytest.mark.slow
class TestCriterion5EventRate:
    def test_d100_scenario_event_count(self):
        # The band is 3 standard errors around the closed-form count the
        # scenario's own parameters imply; the standard error comes from the
        # asymptotic variance of N(T), about 4% of the mean at 5 seeds.
        T = 1000.0
        params, _ = generate_scenario(ScenarioConfig(d=100, seed=0))
        totals = []
        for seed in range(5):
            data = simulate(SimConfig(params=params, horizon_T=T, seed=seed))
            totals.append(data.total_events())
        mean_total = float(np.mean(totals))
        expected = float(expected_counts(params, T).sum())
        se = math.sqrt(T * count_covariance_rate(params).sum() / len(totals))
        z = (mean_total - expected) / se
        verdict("criterion-5 event rate", abs(z) < 3,
                f"mean total events {mean_total:.0f} vs expected "
                f"{expected:.0f}, z {z:+.2f}")


@pytest.mark.slow
class TestCriterion6PointwiseBound:
    def test_pointwise_violation_rate(self):
        t0 = time.time()
        params = default_bound_params(3)
        report = check_pointwise_bound(params, horizon_T=200.0, x=8.0,
                                       n_reps=2000, seed=0)
        elapsed = time.time() - t0
        verdict("criterion-6 pointwise deviation bound",
                report.holds and elapsed < 300,
                f"rate {report.empirical_rate:.4f} vs bound "
                f"{report.stated_bound:.4f}, {elapsed:.0f}s")


@pytest.mark.slow
class TestCriterion7OpnormBound:
    def test_opnorm_violation_rate(self):
        t0 = time.time()
        params = default_bound_params(5)
        report = check_opnorm_bound(params, horizon_T=200.0, x=6.0,
                                    n_reps=2000, seed=0)
        elapsed = time.time() - t0
        verdict("criterion-7 operator-norm deviation bound",
                report.holds and elapsed < 600,
                f"rate {report.empirical_rate:.4f} vs bound "
                f"{report.stated_bound:.4f}, {elapsed:.0f}s")


@pytest.mark.slow
class TestCriterion8WeightedImprovement:
    def test_weighted_dominates_unweighted(self):
        t0 = time.time()
        cfg = ExperimentConfig(
            scenario=ScenarioConfig(d=30, seed=42),
            horizons=(250.0, 500.0, 1000.0),
            n_replications=10,
            seed=7,
            jobs=4,
        )
        rows = run_experiment(cfg)
        agg = aggregate(rows)
        by = {(a["procedure"], a["T"]): a for a in agg}
        fitted = {(r["procedure"], r["T"], r["rep"]): r for r in rows
                  if not r["failure"]}

        def margin(weighted, base, T, key):
            """Mean and standard error of the per-replication difference
            weighted - unweighted, over replications where both fitted."""
            diffs = np.array([
                fitted[(weighted, T, rep)][key] - fitted[(base, T, rep)][key]
                for rep in range(cfg.n_replications)
                if (weighted, T, rep) in fitted and (base, T, rep) in fitted])
            return (f"{diffs.mean():+.4f} ± "
                    f"{diffs.std(ddof=1) / math.sqrt(diffs.size):.4f}")

        ok = True
        lines = []
        for base, weighted in (("L1", "wL1"), ("L1Nuclear", "wL1Nuclear")):
            for T in cfg.horizons:
                b, w = by[(base, T)], by[(weighted, T)]
                pair_ok = (w["mean_auc"] >= b["mean_auc"]
                           and w["mean_error"] <= b["mean_error"])
                ok &= pair_ok
                lines.append(
                    f"{weighted} vs {base} @T={T:.0f}: auc "
                    f"{w['mean_auc']:.3f}/{b['mean_auc']:.3f} err "
                    f"{w['mean_error']:.3f}/{b['mean_error']:.3f} "
                    f"{'ok' if pair_ok else 'VIOLATED'}")
                lines.append(
                    f"  paired {weighted} - {base} @T={T:.0f}: dAUC "
                    f"{margin(weighted, base, T, 'auc')} dErr "
                    f"{margin(weighted, base, T, 'error')}")
        elapsed = time.time() - t0
        for line in lines:
            print("  " + line)
        verdict("criterion-8 weighted-penalty improvement",
                ok and elapsed < 1800, f"{elapsed:.0f}s")


class TestCriterion9SolverSanity:
    def test_nopen_consistency_and_sufficient_decrease(self):
        from hawkesnet import FitConfig, fit_hawkes
        from hawkesnet.features import PenaltyWeights
        errors = []
        decrease_ok = True
        truth = ModelParams(mu=[0.3, 0.2],
                            A=np.array([[0.3, 0.1], [0.2, 0.25]]),
                            alpha=np.ones((2, 2)))
        for seed in range(5):
            data = simulate(SimConfig(params=truth, horizon_T=5000.0,
                                      seed=seed))
            weights = PenaltyWeights(w=np.zeros(2), W=np.zeros((2, 2)),
                                     tau=0.0)
            cfg = FitConfig(max_iter=400, tol=1e-12)
            res = fit_hawkes(compute_stats(data, truth.alpha), weights, cfg)
            decrease_ok &= res.sufficient_decrease_ok
            num = (np.sum((res.mu - truth.mu) ** 2)
                   + np.sum((res.A - truth.A) ** 2))
            den = np.sum(truth.mu ** 2) + np.sum(truth.A ** 2)
            errors.append(num / den)
        med = float(np.median(errors))
        verdict("criterion-9 solver sanity", med < 0.15 and decrease_ok,
                f"median rel err {med:.4f}")


class TestCriterion10Determinism:
    def test_commands_byte_identical(self, tmp_path, capsys):
        ok = True
        # simulate twice
        for name in ("a.json", "b.json"):
            code = cli_main(["simulate", "--d", "3", "--mu", "0.3", "--a",
                             "0.4", "--T", "120", "--seed", "13",
                             "--out", str(tmp_path / name)])
            assert code == 0
        ok &= (open(tmp_path / "a.json", "rb").read()
               == open(tmp_path / "b.json", "rb").read())
        # experiment: repeat runs and serial vs parallel replication
        cfg = {"scenario": {"d": 5, "seed": 4}, "horizons": [50.0],
               "n_replications": 2, "seed": 9,
               "procedures": ["NoPen", "wL1"],
               "c1_grid_weighted": [1.0, 3.0],
               "c2_grid_weighted": [1.0, 3.0], "max_iter": 40}
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump(cfg, f)
        blobs = []
        for out_name, jobs in (("e1", "1"), ("e2", "1"), ("e3", "2")):
            out_dir = str(tmp_path / out_name)
            code = cli_main(["experiment", "--config", cfg_path,
                             "--out-dir", out_dir, "--jobs", jobs])
            assert code == 0
            blobs.append(open(os.path.join(out_dir, "results.csv"),
                              "rb").read())
        ok &= blobs[0] == blobs[1] == blobs[2]
        capsys.readouterr()  # drop CLI stdout before printing the verdict
        verdict("criterion-10 determinism", ok)
