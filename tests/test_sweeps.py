"""Each observation window is swept once.

``features.excitation_states`` runs the one O(N * d) event recursion, once
per distinct decay row; with a uniform alpha that is once per window, so
its calls count the windows each caller builds.
"""

import pytest

from hawkesnet import (FitConfig, SimConfig, check_opnorm_bound,
                       check_pointwise_bound, cross_validate,
                       default_bound_params, simulate)
from hawkesnet import features
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


@pytest.mark.parametrize("weighting", ["practical", "constant"])
def test_cross_validate_sweeps_train_test_and_full_once(data, sweeps,
                                                        weighting):
    cv = cross_validate(data, PARAMS.alpha, FitConfig(max_iter=10),
                        (1.0, 3.0), (1.0,), weighting=weighting)
    assert len(cv.scores) == 2
    assert len(sweeps) == 3


@pytest.mark.parametrize("check", [check_pointwise_bound,
                                   check_opnorm_bound])
def test_bound_check_sweeps_each_replication_once(sweeps, check):
    report = check(PARAMS, 20.0, 6.0, 3, 0)
    assert report.n_reps == 3
    assert len(sweeps) == 3
