import csv
import json
import multiprocessing

import numpy as np
import pytest

from hawkesnet import EventData, ExperimentConfig, aggregate, run_experiment
from hawkesnet import experiment, solver
from hawkesnet.cli import main
from hawkesnet.experiment import COLUMNS
from hawkesnet.features import PROCEDURES
from hawkesnet.simulate import ScenarioConfig


def tiny_config(**kw):
    defaults = dict(
        scenario=ScenarioConfig(d=5, seed=3),
        horizons=(50.0,),
        n_replications=2,
        seed=1,
        procedures=("NoPen", "L1"),
        c1_grid_constant=(0.01,),
        c2_grid_constant=(0.01,),
        max_iter=30,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_unknown_procedure(self):
        with pytest.raises(ValueError):
            tiny_config(procedures=("Lasso",))

    def test_unsorted_horizons(self):
        with pytest.raises(ValueError):
            tiny_config(horizons=(100.0, 50.0))

    @pytest.mark.parametrize("bad", [
        dict(loss_kind="least-square"), dict(max_iter=0), dict(horizons=()),
        dict(horizons=(0.0, 50.0)), dict(n_replications=0),
        dict(horizons=(50.0, float("inf"))), dict(horizons=(float("nan"),))])
    def test_rejected_before_any_fit(self, bad):
        with pytest.raises(ValueError):
            tiny_config(**bad)


class TestFitConfigBuilder:
    def test_nopen_has_no_active_penalty(self, monkeypatch):
        calls = []
        fit = experiment.fit_hawkes

        def recorded(window, weights, config):
            calls.append((weights, config))
            return fit(window, weights, config)

        monkeypatch.setattr(experiment, "fit_hawkes", recorded)
        run_experiment(tiny_config(procedures=("NoPen",), n_replications=1))
        ((penalty, config),) = calls
        assert (config.loss_kind, config.max_iter) == ("least-squares", 30)
        assert np.all(penalty.w == 0) and np.all(penalty.W == 0)
        assert penalty.tau == 0.0
        assert penalty.w.shape == (5,) and penalty.W.shape == (5, 5)

    def test_nuclear_enables_trace(self):
        assert PROCEDURES["wL1Nuclear"] == ("practical", True)
        assert PROCEDURES["L1Nuclear"] == ("constant", True)
        assert PROCEDURES["wL1"] == ("practical", False)
        assert PROCEDURES["L1"] == ("constant", False)
        assert PROCEDURES["NoPen"] == (None, False)


class TestRunExperiment:
    def test_row_schema_and_count(self):
        rows = run_experiment(tiny_config())
        assert len(rows) == 2 * 2  # procedures x replications
        for row in rows:
            assert set(row) == set(COLUMNS)
        assert all(np.isfinite(row["error"]) for row in rows)

    def test_parallel_equals_serial(self):
        serial = run_experiment(tiny_config())
        parallel = run_experiment(tiny_config(jobs=2))
        assert serial == parallel

    def test_loglik_study_fits_every_row(self):
        # every warm start of a cross-validation path is an estimate of
        # the same train window, so no start is infeasible
        rows = run_experiment(tiny_config(
            loss_kind="log-likelihood", procedures=tuple(PROCEDURES),
            horizons=(60.0, 120.0), c1_grid_constant=(0.001, 0.01, 0.1),
            c2_grid_constant=(0.001, 0.01, 0.1)))
        assert len(rows) == 5 * 2 * 2
        assert [r["failure"] for r in rows] == [None] * len(rows)

    def test_on_edge_column(self):
        rows = run_experiment(tiny_config(
            procedures=("NoPen", "L1", "wL1"), c1_grid_constant=(0.01,),
            c2_grid_constant=(0.001, 0.01), n_replications=1))
        on_edge = {r["procedure"]: r["on_edge"] for r in rows}
        # NoPen tunes nothing; L1's c2 has an edge on either side, its c1
        # and tau one point each
        assert on_edge["NoPen"] == "none" and on_edge["L1"] == "c2"
        cv = set(on_edge["wL1"].split())
        assert cv == {"none"} or cv <= {"c1", "c2"}
        (l1,) = [a for a in aggregate(rows) if a["procedure"] == "L1"]
        assert l1["n_on_edge"] == 1

    def test_aggregate_counts_fitted_rows_on_an_edge(self):
        rows = [{"procedure": "L1", "T": 10.0, "error": 1.0, "auc": 0.6,
                 "on_edge": edge, "failure": None}
                for edge in ("c1", "none", "c1 c2 tau")]
        rows.append({"procedure": "L1", "T": 10.0, "error": None,
                     "auc": None, "on_edge": None, "failure": "ValueError"})
        (agg,) = aggregate(rows)
        assert (agg["n"], agg["n_failed"], agg["n_on_edge"]) == (4, 1, 2)

    def test_aggregate_means(self):
        rows = [
            {"procedure": "L1", "T": 10.0, "error": 1.0, "auc": 0.6},
            {"procedure": "L1", "T": 10.0, "error": 3.0, "auc": 0.8},
            {"procedure": "NoPen", "T": 10.0, "error": 5.0, "auc": 0.5},
        ]
        agg = aggregate(rows)
        by_proc = {a["procedure"]: a for a in agg}
        assert by_proc["L1"]["mean_error"] == 2.0
        assert by_proc["L1"]["mean_auc"] == pytest.approx(0.7)
        assert by_proc["L1"]["n"] == 2
        assert by_proc["NoPen"]["n"] == 1


class TestFailedFits:
    """A fit that fails is a row that says so; the study goes on."""

    @staticmethod
    def failing_grid_point(monkeypatch, c1):
        # every L1 fit at constant c1 raises, the other grid point fits
        fit = solver.fit_hawkes

        def fit_or_fail(window, weights, config, start=None):
            if weights.w[0] == c1:
                raise solver.LineSearchError("line search failed (step "
                                             "underflow)")
            return fit(window, weights, config, start)

        monkeypatch.setattr(solver, "fit_hawkes", fit_or_fail)

    @pytest.mark.parametrize("jobs", [1, pytest.param(
        2, marks=pytest.mark.skipif(
            multiprocessing.get_start_method() != "fork",
            reason="only forked workers inherit the patched fit"))])
    def test_study_finishes_and_counts_the_failure(self, monkeypatch,
                                                   tmp_path, capsys, jobs):
        self.failing_grid_point(monkeypatch, 0.03)
        cfg = {"scenario": {"d": 5, "seed": 3}, "horizons": [50.0],
               "n_replications": 2, "seed": 1, "procedures": ["NoPen", "L1"],
               "c1_grid_constant": [0.01, 0.03], "c2_grid_constant": [0.01],
               "max_iter": 30}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main(["experiment", "--config", str(path), "--out-dir",
                     str(out_dir), "--jobs", str(jobs)]) == 0
        with open(out_dir / "results.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["procedure"] for r in rows] == ["NoPen", "L1"] * 2
        for row in rows:
            failed = row["procedure"] == "L1"
            assert (row["failure"] == "LineSearchError: line search failed "
                    "(step underflow)") if failed else row["failure"] == ""
            for key in COLUMNS[3:-1]:
                assert (row[key] == "") == failed
        with open(out_dir / "aggregate.csv", newline="") as f:
            agg = {r["procedure"]: r for r in csv.DictReader(f)}
        assert agg["L1"]["n"] == "2" and agg["L1"]["n_failed"] == "2"
        assert agg["L1"]["mean_error"] == agg["L1"]["mean_auc"] == ""
        assert agg["NoPen"]["n_failed"] == "0"
        assert float(agg["NoPen"]["mean_error"]) > 0
        printed = {r["procedure"]: r for r in json.loads(
            capsys.readouterr().out)}
        assert printed["L1"]["n_failed"] == 2
        assert printed["L1"]["mean_error"] is None

    def test_empty_half_fails_the_penalised_rows_only(self, monkeypatch):
        # no event in (T/2, T]: NoPen fits the full window, every
        # cross-validated procedure has an empty test half
        simulate = experiment.simulate_replication
        monkeypatch.setattr(
            experiment, "simulate_replication",
            lambda params, T, seed, rep: EventData(
                T, simulate(params, T / 2, seed, rep).events))
        cfg = tiny_config(n_replications=1, procedures=tuple(PROCEDURES))
        rows = {r["procedure"]: r for r in run_experiment(cfg)}
        assert rows["NoPen"]["failure"] is None
        assert rows["NoPen"]["error"] > 0
        for procedure in PROCEDURES:
            if procedure == "NoPen":
                continue
            row = rows[procedure]
            assert row["failure"] == "ValueError: empty train or test half"
            assert all(row[key] is None for key in COLUMNS[3:-1])

    def test_aggregate_averages_the_fitted_rows_only(self):
        rows = [
            {"procedure": "L1", "T": 10.0, "error": 1.0, "auc": 0.6,
             "failure": None},
            {"procedure": "L1", "T": 10.0, "error": None, "auc": None,
             "failure": "LineSearchError: no feasible z (step underflow)"},
            {"procedure": "L1", "T": 10.0, "error": 3.0, "auc": 0.8,
             "failure": None},
        ]
        (agg,) = aggregate(rows)
        assert (agg["n"], agg["n_failed"]) == (3, 1)
        assert agg["mean_error"] == 2.0
        assert agg["mean_auc"] == pytest.approx(0.7)
