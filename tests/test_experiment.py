import numpy as np
import pytest

from hawkesnet import ExperimentConfig, aggregate, run_experiment
from hawkesnet import experiment
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
        dict(horizons=(0.0, 50.0)), dict(n_replications=0)])
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
