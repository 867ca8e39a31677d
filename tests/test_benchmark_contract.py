"""The benchmark in ``perfbench/`` wraps and captures program attributes by
name.  A refactor that renames or moves one fails here, in the fast tier,
instead of breaking the traced benchmark run."""

import importlib
import importlib.util
import inspect
import pathlib
import sys
from collections import defaultdict

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

#: the calls ``perfbench/run.py`` captures for its output checks
CAPTURED = (("cli", "fit_hawkes"), ("experiment", "cross_validate"),
            ("experiment", "fit_hawkes"), ("solver", "heldout_loglik"),
            ("bounds", "compute_noise"))


class _Modules:
    """hawkesnet submodules by name, as ``tracing.targets`` reads them."""

    def __getattr__(self, name):
        return importlib.import_module("hawkesnet." + name)


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_call_sites_exist():
    targets = _tracing().targets(_Modules())
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in targets
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_captured_calls_exist():
    modules = _Modules()
    missing = [f"{name}.{attr}" for name, attr in CAPTURED
               if not callable(getattr(getattr(modules, name), attr, None))]
    assert missing == []


def test_heldout_loglik_argument_order():
    # the benchmark re-scores each captured call from its first two arguments
    solver = importlib.import_module("hawkesnet.solver")
    params = list(inspect.signature(solver.heldout_loglik).parameters)
    assert params == ["mu", "A", "cache"]


@pytest.fixture
def workloads(monkeypatch):
    """``perfbench/workloads.py`` imported as ``run.py`` imports it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("workloads")
    for name in ("workloads", "reference"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("study", ["FULL_STUDY", "LIGHT_STUDY"])
def test_study_inputs_build(study, workloads):
    # the study step passes these ExperimentConfig fields by name
    size = getattr(workloads, study)
    cfgs, (params, _) = workloads.study_inputs(_Modules(), size, range(1, 9))
    assert len(cfgs) == size.replications
    for cfg in cfgs:
        assert cfg.scenario.d == params.d == size.d
        assert cfg.horizons == (size.T,)
        assert all(getattr(cfg, k) == v for k, v in size.config.items())


#: the span names of the window builders, whose counters read the window
BUILDERS = ("features.compute_stats", "loss.precompute_gram",
            "loss.build_loglik_cache")


def _small_window():
    hn = importlib.import_module("hawkesnet")
    params = hn.default_bound_params(3)
    data = hn.simulate(hn.SimConfig(params=params, horizon_T=20.0, seed=1))
    return hn, params, data


def test_builder_counters_read_the_window():
    _, params, data = _small_window()
    builders = [t for t in _tracing().targets(_Modules()) if t[2] in BUILDERS]
    assert {name for _, _, name, _ in builders} == set(BUILDERS)
    for module, attr, name, counter in builders:
        counts = defaultdict(int)
        counter(counts, name, getattr(module, attr)(data, params.alpha))
        assert counts[name + ".events"] == data.total_events()


def test_check_losses_names_feed_the_losses():
    # as ``check_losses`` in perfbench/workloads.py calls them
    hn, params, data = _small_window()
    loss = importlib.import_module("hawkesnet.loss")
    window = hn.compute_stats(data, params.alpha)
    mu, A = params.mu, params.A
    pairs = ((loss.least_squares, loss.precompute_gram),
             (loss.neg_log_likelihood_cached, loss.build_loglik_cache))
    for value_grad, build in pairs:
        got = value_grad(mu, A, build(data, params.alpha))
        want = value_grad(mu, A, window)
        assert got.value == want.value
        assert (got.grad_A == want.grad_A).all()
