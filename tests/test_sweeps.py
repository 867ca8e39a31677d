"""Each observation window is swept once.

``features.excitation_states`` runs the one O(N * d) event recursion, once
per distinct decay row; with a uniform alpha that is once per window, so
its calls count the windows each caller builds.
"""

import weakref

import numpy as np
import pytest

from hawkesnet import (ExperimentConfig, FitConfig, ScenarioConfig,
                       SimConfig, check_opnorm_bound, check_pointwise_bound,
                       compute_stats, cross_validate, default_bound_params,
                       run_experiment, simulate)
from hawkesnet import features
from hawkesnet.features import PROCEDURES
from hawkesnet.cli import main
from hawkesnet.io import write_events_json

#: uniform decay: one distinct row
PARAMS = default_bound_params(3)


@pytest.fixture
def data():
    return simulate(SimConfig(params=PARAMS, horizon_T=40.0, seed=2))


@pytest.fixture
def sweeps(monkeypatch):
    """One entry per call of the event recursion."""
    calls = []
    sweep = features.excitation_states
    monkeypatch.setattr(features, "excitation_states",
                        lambda *args: calls.append(1) or sweep(*args))
    return calls


def test_weighted_fit_sweeps_once(data, sweeps, tmp_path, capsys):
    events = str(tmp_path / "events.json")
    write_events_json(data, events)
    code = main(["fit", "--events", events, "--procedure", "wL1Nuclear",
                 "--out-dir", str(tmp_path / "fit")])
    assert code == 0, capsys.readouterr().err
    assert len(sweeps) == 1


# one procedure per weighting, under the weighting's name
@pytest.mark.parametrize("procedure", [pytest.param("wL1", id="practical"),
                                       pytest.param("L1", id="constant")])
def test_cross_validate_sweeps_train_test_and_full_once(data, sweeps,
                                                        procedure):
    cv = cross_validate(data, PARAMS.alpha, FitConfig(max_iter=10), procedure,
                        (1.0, 3.0), (1.0,))
    assert len(cv.scores) == 2
    assert len(sweeps) == 3


def test_study_replication_sweeps_each_window_once(sweeps):
    # per horizon: the full window, shared by NoPen and the four refits,
    # and the train and test halves, shared by the four cross-validations
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(d=4, seed=3), horizons=(60.0, 120.0),
        n_replications=1, seed=1, procedures=tuple(PROCEDURES),
        c1_grid_weighted=(1.0, 3.0), c2_grid_weighted=(1.0,),
        c1_grid_weighted_nuclear=(1.0,), c2_grid_weighted_nuclear=(1.0,),
        c1_grid_constant=(0.01,), c2_grid_constant=(0.01, 0.03),
        tau_grid=(0.01,), max_iter=10)
    rows = run_experiment(cfg)
    assert [r["failure"] for r in rows] == [None] * 10
    assert len(sweeps) == 3 * 2


@pytest.mark.parametrize("check", [check_pointwise_bound,
                                   check_opnorm_bound])
def test_bound_check_sweeps_each_replication_once(sweeps, check):
    report = check(PARAMS, 20.0, 6.0, 3, 0)
    assert report.n_reps == 3
    assert len(sweeps) == 3


def test_per_pair_decays_keep_one_row_of_states(data, monkeypatch):
    # each distinct decay row's N x d states are reduced before the next
    # row is swept, so memory stays O(N * d) rather than O(N * d * rows)
    alive, most = [], []
    sweep = features.excitation_states

    def tracked(*args):
        most.append(sum(ref() is not None for ref in alive))
        states = sweep(*args)
        alive.append(weakref.ref(states))
        return states

    monkeypatch.setattr(features, "excitation_states", tracked)
    alpha = np.random.default_rng(0).uniform(0.5, 2.0, (3, 3))
    compute_stats(data, alpha)
    assert len(alive) == 3 and max(most) == 0
