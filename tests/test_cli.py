import json
import os
import pathlib
from dataclasses import fields

import numpy as np
import pytest

from hawkesnet import ExperimentConfig, ScenarioConfig, generate_scenario
from hawkesnet.cli import main
from hawkesnet.io import read_events, read_matrix_csv, read_vector

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def sim_files(tmp_path, capsys):
    """A small simulated dataset with ground-truth files on disk."""
    events = str(tmp_path / "events.json")
    params_dir = str(tmp_path / "truth")
    code, out, _ = run_cli(capsys, "simulate", "--d", "3", "--mu", "0.3",
                           "--a", "0.5", "--T", "150", "--seed", "11",
                           "--out", events, "--params-out", params_dir)
    assert code == 0
    return events, params_dir


class TestSimulate:
    def test_writes_events_and_params(self, sim_files):
        events, params_dir = sim_files
        data = read_events(events)
        assert data.d == 3 and data.horizon_T == 150.0
        assert data.total_events() > 0
        for name in ("mu.csv", "A.csv", "alpha.csv", "support.csv"):
            assert os.path.exists(os.path.join(params_dir, name))

    def test_reports_counts_json(self, tmp_path, capsys):
        out_path = str(tmp_path / "e.json")
        code, out, _ = run_cli(capsys, "simulate", "--d", "1", "--mu", "0.2",
                               "--T", "50", "--seed", "3", "--out", out_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["total_events"] == sum(payload["per_node"])

    def test_scenario_flag(self, tmp_path, capsys):
        out_path = str(tmp_path / "s.json")
        code, _, _ = run_cli(capsys, "simulate", "--scenario", "--d", "10",
                             "--T", "100", "--seed", "5", "--out", out_path)
        assert code == 0
        assert read_events(out_path).d == 10

    @pytest.mark.parametrize("scenario", [False, True])
    def test_config_keys_win_over_flags(self, tmp_path, capsys, scenario):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"d": 4, "T": 30.0}))
        out_path = str(tmp_path / "c.json")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--d", "2", "--mu", "0.3", "--T", "20",
                               "--seed", "1", "--out", out_path,
                               *(["--scenario"] if scenario else []))
        assert code == 0, err
        data = read_events(out_path)
        assert (data.d, data.horizon_T) == (4, 30.0)

    def test_scenario_only_key_selects_scenario(self, tmp_path, capsys):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"baseline_range": [0.5, 0.6]}))
        truth = str(tmp_path / "truth")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--d", "6", "--T", "20", "--seed", "3",
                               "--out", str(tmp_path / "e.json"),
                               "--params-out", truth)
        assert code == 0, err
        params, _ = generate_scenario(
            ScenarioConfig(d=6, seed=3, baseline_range=(0.5, 0.6)))
        assert np.array_equal(read_vector(os.path.join(truth, "mu.csv")),
                              params.mu)
        assert np.array_equal(read_matrix_csv(os.path.join(truth, "A.csv")),
                              params.A)

    @pytest.mark.parametrize("cfg, scenario", [
        ({"d": 3, "baseline_range": [0.5, 0.6], "T_horizon": 50}, False),
        ({"d": 3, "T_horizon": 50}, False),
        ({"d": 3, "mu": 0.2}, True),
    ])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, cfg,
                                         scenario):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        out_path = tmp_path / "e.json"
        code, out, err = run_cli(capsys, "simulate", "--config", str(path),
                                 "--out", str(out_path),
                                 *(["--scenario"] if scenario else []))
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        bad = "mu" if scenario else "T_horizon"
        assert repr(bad) in payload["message"]
        assert not out_path.exists()

    def test_unstable_rejected(self, tmp_path, capsys):
        out_path = str(tmp_path / "u.json")
        code, _, err = run_cli(capsys, "simulate", "--d", "2", "--mu", "0.5",
                               "--a", "1.5", "--T", "10", "--seed", "0",
                               "--out", out_path)
        assert code == 1
        assert json.loads(err)["error"] == "ValueError"

    def test_deterministic_byte_identical(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for path in (a, b):
            run_cli(capsys, "simulate", "--d", "2", "--mu", "0.4", "--a",
                    "0.3", "--T", "80", "--seed", "21", "--out", path)
        assert open(a, "rb").read() == open(b, "rb").read()


class TestFitEval:
    def test_fit_writes_estimates(self, sim_files, tmp_path, capsys):
        events, _ = sim_files
        fit_dir = str(tmp_path / "fit")
        code, out, _ = run_cli(capsys, "fit", "--events", events,
                               "--procedure", "wL1", "--c1", "1", "--c2", "1",
                               "--out-dir", fit_dir)
        assert code == 0
        assert read_vector(os.path.join(fit_dir, "mu_hat.csv")).shape == (3,)
        assert read_matrix_csv(os.path.join(fit_dir, "A_hat.csv")).shape == (3, 3)
        for name in ("weights_mu.csv", "weights_A.csv", "weights_meta.json",
                     "diagnostics.json"):
            assert os.path.exists(os.path.join(fit_dir, name))
        diag = json.loads(out)
        assert diag["sufficient_decrease_ok"]

    def test_constant_weights_fit_one_window(self, sim_files, tmp_path,
                                             capsys, monkeypatch):
        import hawkesnet.cli as cli
        windows = []
        build = cli.compute_stats
        monkeypatch.setattr(cli, "compute_stats",
                            lambda *args: windows.append(1) or build(*args))
        events, _ = sim_files
        for proc in ("L1", "L1Nuclear"):
            code, out, err = run_cli(capsys, "fit", "--events", events,
                                     "--procedure", proc,
                                     "--out-dir", str(tmp_path / proc))
            assert code == 0, err
            assert json.loads(out)["sufficient_decrease_ok"]
        assert len(windows) == 2

    def test_weighted_fit_sparser_than_nopen(self, sim_files, tmp_path,
                                             capsys):
        events, _ = sim_files
        d1, d2 = str(tmp_path / "nopen"), str(tmp_path / "wl1")
        run_cli(capsys, "fit", "--events", events, "--procedure", "NoPen",
                "--out-dir", d1)
        run_cli(capsys, "fit", "--events", events, "--procedure", "wL1",
                "--c1", "1", "--c2", "1", "--out-dir", d2)
        A_nopen = read_matrix_csv(os.path.join(d1, "A_hat.csv"))
        A_wl1 = read_matrix_csv(os.path.join(d2, "A_hat.csv"))
        assert (A_wl1 == 0).sum() >= (A_nopen == 0).sum()

    def test_nuclear_procedure_runs(self, sim_files, tmp_path, capsys):
        events, _ = sim_files
        out_dir = str(tmp_path / "nuc")
        code, _, _ = run_cli(capsys, "fit", "--events", events,
                             "--procedure", "L1Nuclear", "--c1", "0.01",
                             "--c2", "0.01", "--tau", "0.01",
                             "--out-dir", out_dir)
        assert code == 0
        assert np.all(read_matrix_csv(os.path.join(out_dir, "A_hat.csv")) >= 0)

    def test_tau_applies_to_nuclear_procedures_only(self, sim_files, tmp_path,
                                                    capsys):
        events, _ = sim_files
        for proc, tau, solver in (("wL1", 0.0, "fista"),
                                  ("wL1Nuclear", 0.02, "split")):
            out_dir = str(tmp_path / proc)
            code, out, err = run_cli(capsys, "fit", "--events", events,
                                     "--procedure", proc, "--tau", "0.02",
                                     "--out-dir", out_dir)
            assert code == 0, err
            with open(os.path.join(out_dir, "weights_meta.json")) as f:
                assert json.load(f)["tau"] == tau
            assert json.loads(out)["solver"] == solver

    def test_eval_perfect_estimate(self, tmp_path, capsys):
        # scenario ground truth has zeros outside the boxes, so the
        # support contains both classes
        events = str(tmp_path / "events.json")
        params_dir = str(tmp_path / "truth")
        code, _, _ = run_cli(capsys, "simulate", "--scenario", "--d", "10",
                             "--T", "60", "--seed", "2", "--out", events,
                             "--params-out", params_dir)
        assert code == 0
        report = str(tmp_path / "report.json")
        code, out, _ = run_cli(
            capsys, "eval",
            "--mu-hat", os.path.join(params_dir, "mu.csv"),
            "--A-hat", os.path.join(params_dir, "A.csv"),
            "--mu-true", os.path.join(params_dir, "mu.csv"),
            "--A-true", os.path.join(params_dir, "A.csv"),
            "--support", os.path.join(params_dir, "support.csv"),
            "--out", report)
        assert code == 0
        rep = json.loads(out)
        assert rep["rel_l2_error"] == 0.0
        assert rep["auc"] == 1.0

    def test_eval_hand_case(self, tmp_path, capsys):
        # 2x2 with one tie: AUC = (0.5 + 1 + 1) / 3
        from hawkesnet.io import write_matrix_csv, write_vector
        write_vector([0.1, 0.1], str(tmp_path / "mu.csv"))
        write_matrix_csv([[0.5, 0.5], [0.2, 0.1]], str(tmp_path / "Ah.csv"))
        write_matrix_csv([[1.0, 0.0], [0.0, 0.0]], str(tmp_path / "At.csv"))
        code, out, _ = run_cli(
            capsys, "eval",
            "--mu-hat", str(tmp_path / "mu.csv"),
            "--A-hat", str(tmp_path / "Ah.csv"),
            "--mu-true", str(tmp_path / "mu.csv"),
            "--A-true", str(tmp_path / "At.csv"),
            "--out", str(tmp_path / "r.json"))
        assert code == 0
        assert json.loads(out)["auc"] == pytest.approx(2.5 / 3)


class TestXvalWeights:
    def test_xval_returns_grid_point(self, sim_files, tmp_path, capsys):
        events, _ = sim_files
        out = str(tmp_path / "cv.json")
        code, stdout, _ = run_cli(capsys, "xval", "--events", events,
                                  "--procedure", "wL1",
                                  "--c1-grid", "1", "3",
                                  "--c2-grid", "1", "3",
                                  "--max-iter", "40", "--out", out)
        assert code == 0
        best = json.loads(stdout)
        assert best["c1"] in (1.0, 3.0) and best["c2"] in (1.0, 3.0)
        table = json.loads(open(out).read())
        assert len(table["scores"]) == 4

    def test_weights_theoretical(self, sim_files, tmp_path, capsys):
        events, _ = sim_files
        out_dir = str(tmp_path / "w")
        code, stdout, _ = run_cli(capsys, "weights", "--events", events,
                                  "--weighting", "theoretical", "--x", "2",
                                  "--out-dir", out_dir)
        assert code == 0
        W = read_matrix_csv(os.path.join(out_dir, "weights_A.csv"))
        assert W.shape == (3, 3) and np.all(W >= 0)
        meta = json.loads(open(os.path.join(out_dir,
                                            "weights_mu.json")).read())
        assert meta["mode"] == "theoretical"
        assert meta["x"] == 2.0
        assert meta["tau"] > 0

    def test_weights_practical(self, sim_files, tmp_path, capsys):
        events, _ = sim_files
        out_dir = str(tmp_path / "wp")
        code, stdout, _ = run_cli(capsys, "weights", "--events", events,
                                  "--weighting", "practical", "--c1", "2",
                                  "--c2", "2", "--out-dir", out_dir)
        assert code == 0
        assert json.loads(stdout)["mode"] == "practical"
        meta = json.loads(open(os.path.join(out_dir,
                                            "weights_mu.json")).read())
        # x is an input of theoretical weighting only
        assert set(meta) == {"w", "tau", "mode"}


class TestCheckBounds:
    def test_pointwise_small(self, tmp_path, capsys):
        out = str(tmp_path / "b.json")
        code, stdout, _ = run_cli(capsys, "check-bounds", "--which",
                                  "pointwise", "--d", "2", "--T", "60",
                                  "--x", "5", "--reps", "20", "--out", out)
        assert code == 0
        rep = json.loads(stdout)
        assert rep["bound_id"] == "pointwise"
        assert rep["holds"] is True

    def test_opnorm_small(self, capsys):
        code, stdout, _ = run_cli(capsys, "check-bounds", "--which", "opnorm",
                                  "--d", "2", "--T", "60", "--x", "5",
                                  "--reps", "20")
        assert code == 0
        assert json.loads(stdout)["bound_id"] == "operator-norm"

    def test_exits_1_when_bound_fails(self, tmp_path, capsys, monkeypatch):
        import hawkesnet.cli as cli
        from hawkesnet.bounds import BoundReport

        def failing(params, T, x, reps, seed):
            return BoundReport(bound_id="pointwise", x=x, n_reps=reps,
                               violation_count=reps, stated_bound=0.01,
                               empirical_rate=1.0, wilson_ci=(0.9, 1.0))

        monkeypatch.setattr(cli, "check_pointwise_bound", failing)
        out = tmp_path / "b.json"
        code, stdout, _ = run_cli(capsys, "check-bounds", "--which",
                                  "pointwise", "--reps", "20",
                                  "--out", str(out))
        assert code == 1
        assert json.loads(stdout)["holds"] is False
        assert json.loads(out.read_text())["violation_count"] == 20


EXP_CONFIG = {
    "scenario": {"d": 6, "seed": 4},
    "horizons": [60.0],
    "n_replications": 2,
    "seed": 9,
    "procedures": ["NoPen", "wL1"],
    "c1_grid_weighted": [1.0, 3.0],
    "c2_grid_weighted": [1.0, 3.0],
    "max_iter": 40,
}


class TestExperiment:
    def _run(self, tmp_path, capsys, out_name, jobs):
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump(EXP_CONFIG, f)
        out_dir = str(tmp_path / out_name)
        code, stdout, err = run_cli(capsys, "experiment", "--config", cfg_path,
                                    "--out-dir", out_dir, "--jobs", str(jobs))
        assert code == 0, err
        return out_dir

    def test_writes_results_and_aggregate(self, tmp_path, capsys):
        out_dir = self._run(tmp_path, capsys, "exp", jobs=1)
        results = open(os.path.join(out_dir, "results.csv")).read()
        assert results.count("\n") == 1 + 2 * 2  # header + proc x reps
        agg = open(os.path.join(out_dir, "aggregate.csv")).read()
        assert "NoPen" in agg and "wL1" in agg

    def test_parallel_matches_serial_byte_identical(self, tmp_path, capsys):
        d1 = self._run(tmp_path, capsys, "serial", jobs=1)
        d2 = self._run(tmp_path, capsys, "par", jobs=2)
        for name in ("results.csv", "aggregate.csv"):
            a = open(os.path.join(d1, name), "rb").read()
            b = open(os.path.join(d2, name), "rb").read()
            assert a == b

    def test_repeat_run_byte_identical(self, tmp_path, capsys):
        d1 = self._run(tmp_path, capsys, "r1", jobs=1)
        d2 = self._run(tmp_path, capsys, "r2", jobs=1)
        a = open(os.path.join(d1, "results.csv"), "rb").read()
        b = open(os.path.join(d2, "results.csv"), "rb").read()
        assert a == b


class TestExperimentConfig:
    def _run(self, tmp_path, capsys, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "experiment", "--config", str(path),
                                 "--out-dir", str(out_dir))
        return code, out, err, out_dir

    def test_misspelt_keys_rejected(self, tmp_path, capsys):
        code, out, err, out_dir = self._run(tmp_path, capsys, {
            "scenario": {"d": 6, "seed": 4}, "horizons": [60.0],
            "n_replications": 1, "seed": 9, "c1_grid_weigthed": [1.0],
            "max_iters": 5})
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "'c1_grid_weigthed'" in payload["message"]
        assert "'max_iters'" in payload["message"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("cfg", [
        {**EXP_CONFIG, "jobs": 2},
        {**EXP_CONFIG, "scenario": {"d": 6, "seed": 4, "T": 60.0}},
    ])
    def test_jobs_and_nested_keys_rejected(self, tmp_path, capsys, cfg):
        code, out, err, out_dir = self._run(tmp_path, capsys, cfg)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ValueError"
        assert not out_dir.exists()

    @pytest.mark.parametrize("bad", [{"loss_kind": "least-square"},
                                     {"horizons": []}])
    def test_bad_values_rejected_before_simulating(self, tmp_path, capsys,
                                                   bad):
        cfg = {"scenario": {"d": 5, "seed": 1}, "horizons": [30.0],
               "n_replications": 1, "procedures": ["NoPen"], **bad}
        code, out, err, out_dir = self._run(tmp_path, capsys, cfg)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ValueError"
        assert not out_dir.exists()

    @pytest.fixture
    def built(self, monkeypatch):
        """The ExperimentConfig the command passes to run_experiment."""
        import hawkesnet.cli as cli
        configs = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda cfg: configs.append(cfg) or [])
        return configs

    def test_study_d30_is_criterion_8(self, tmp_path, capsys, built):
        code, _, err = run_cli(capsys, "experiment", "--config",
                               str(CONFIGS / "study_d30.json"),
                               "--out-dir", str(tmp_path), "--jobs", "3")
        assert code == 0, err
        (cfg,) = built
        criterion_8 = ExperimentConfig(
            scenario=ScenarioConfig(d=30, seed=42),
            horizons=(250.0, 500.0, 1000.0), n_replications=10, seed=7,
            jobs=4)
        for f in fields(ExperimentConfig):
            if f.name != "jobs":
                assert getattr(cfg, f.name) == getattr(criterion_8, f.name)
        assert cfg.jobs == 3

    def test_study_d100_builds(self, tmp_path, capsys, built):
        code, _, err = run_cli(capsys, "experiment", "--config",
                               str(CONFIGS / "study_d100.json"),
                               "--out-dir", str(tmp_path))
        assert code == 0, err
        (cfg,) = built
        assert (cfg.scenario.d, cfg.scenario.seed) == (100, 42)
        assert cfg.horizons == (500.0, 1000.0, 2000.0, 5000.0)
        assert (cfg.n_replications, cfg.seed, cfg.jobs) == (10, 7, 1)

    @pytest.mark.parametrize("cfg, seeds", [
        ({"scenario": {"d": 6}, "horizons": [60.0], "n_replications": 1},
         (0, 0)),
        ({"scenario": {"d": 6}, "horizons": [60.0], "n_replications": 1,
          "seed": 9}, (9, 9)),
        ({"scenario": {"d": 6, "seed": 4}, "horizons": [60.0],
          "n_replications": 1}, (0, 4)),
    ])
    def test_seed_defaults(self, tmp_path, capsys, built, cfg, seeds):
        code, _, err, _ = self._run(tmp_path, capsys, cfg)
        assert code == 0, err
        (built_cfg,) = built
        assert (built_cfg.seed, built_cfg.scenario.seed) == seeds


class TestErrors:
    def test_missing_file_structured_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "fit", "--events",
                               str(tmp_path / "nope.json"),
                               "--out-dir", str(tmp_path / "o"))
        assert code == 1
        payload = json.loads(err)
        assert "error" in payload and "message" in payload

    @pytest.mark.parametrize("argv", [
        ("fit", "--procedure", "wL1Nuclear", "--tau", "-0.5"),
        ("fit", "--procedure", "L1", "--c1", "-1", "--c2", "-1"),
        ("xval", "--procedure", "L1", "--c1-grid", "-1"),
        ("weights", "--weighting", "practical", "--tau", "-2"),
    ])
    def test_negative_weights_rejected_before_writing(self, sim_files,
                                                      tmp_path, capsys, argv):
        events, _ = sim_files
        out = tmp_path / "out"
        dest = ("--out", str(out)) if argv[0] == "xval" \
            else ("--out-dir", str(out))
        code, stdout, err = run_cli(capsys, *argv, "--events", events, *dest)
        assert code == 1 and stdout == ""
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "penalty weights must be finite and >= 0"}
        assert not out.exists()
