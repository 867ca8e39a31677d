import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkesnet import (EventData, ModelParams, branching_matrix, intensity_at,
                       mean_stationary_intensity, spectral_radius)


def one_node(mu=0.0, a=1.0, alpha=1.0):
    return ModelParams(mu=[mu], A=[[a]], alpha=[[alpha]])


class TestValidation:
    def test_rejects_negative_mu(self):
        with pytest.raises(ValueError):
            ModelParams(mu=[-0.1], A=[[0.0]], alpha=[[1.0]])

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            ModelParams(mu=[0.1], A=[[0.0]], alpha=[[0.0]])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ModelParams(mu=[0.1, 0.2], A=[[0.0]], alpha=[[1.0]])

    def test_rejects_unsorted_events(self):
        with pytest.raises(ValueError):
            EventData(10.0, (np.array([2.0, 1.0]),))

    def test_rejects_simultaneous_events_per_node(self):
        with pytest.raises(ValueError):
            EventData(10.0, (np.array([1.0, 1.0]),))

    def test_rejects_out_of_window(self):
        with pytest.raises(ValueError):
            EventData(10.0, (np.array([11.0]),))

    @pytest.mark.parametrize("T", [math.inf, math.nan])
    def test_rejects_non_finite_horizon(self, T):
        with pytest.raises(ValueError, match="finite"):
            EventData(T, (np.array([1.0, 2.0]),))

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_timestamp(self, t):
        with pytest.raises(ValueError, match="finite"):
            EventData(10.0, (np.array([1.0, t, 3.0]), np.array([2.0])))

    @pytest.mark.parametrize("name", ["mu", "A", "alpha"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_params(self, name, bad):
        values = {"mu": np.full(2, 0.1), "A": np.full((2, 2), 0.2),
                  "alpha": np.ones((2, 2))}
        values[name].flat[1] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ModelParams(**values)


class TestIntensity:
    def test_no_excitation_returns_baseline(self):
        params = ModelParams(mu=[0.3], A=[[0.0]], alpha=[[1.0]])
        data = EventData(10.0, (np.array([1.0, 2.0, 3.0]),))
        assert intensity_at(params, data, 0, 5.0) == pytest.approx(0.3)

    def test_two_term_sum(self):
        data = EventData(10.0, (np.array([1.0, 2.0]),))
        val = intensity_at(one_node(), data, 0, 3.0)
        assert val == pytest.approx(math.exp(-2) + math.exp(-1), rel=1e-12)

    def test_event_at_t_excluded(self):
        data = EventData(10.0, (np.array([1.0, 2.0]),))
        val = intensity_at(one_node(), data, 0, 2.0)
        assert val == pytest.approx(math.exp(-1), rel=1e-12)

    def test_node_out_of_range(self):
        data = EventData(10.0, (np.array([1.0]),))
        with pytest.raises(IndexError):
            intensity_at(one_node(), data, 1, 5.0)

    def test_t_outside_window(self):
        data = EventData(10.0, (np.array([1.0]),))
        with pytest.raises(ValueError):
            intensity_at(one_node(), data, 0, 11.0)

    @given(bump=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_mu_and_A(self, bump):
        data = EventData(10.0, (np.array([1.0, 4.0]),))
        base = intensity_at(one_node(mu=0.2, a=0.5), data, 0, 6.0)
        more_mu = intensity_at(one_node(mu=0.2 + bump, a=0.5), data, 0, 6.0)
        more_a = intensity_at(one_node(mu=0.2, a=0.5 + bump), data, 0, 6.0)
        assert more_mu >= base
        assert more_a >= base


class TestBranching:
    def test_zero_matrix(self):
        params = ModelParams(mu=[0.1, 0.1], A=np.zeros((2, 2)),
                             alpha=np.ones((2, 2)))
        K = branching_matrix(params)
        assert np.all(K == 0)
        assert spectral_radius(K) == 0

    def test_scalar_case(self):
        params = one_node(mu=0.1, a=0.5, alpha=1.0)
        K = branching_matrix(params)
        assert K[0, 0] == pytest.approx(0.5)
        assert spectral_radius(K) == pytest.approx(0.5)

    def test_opnorm_scaled_matrix_is_subcritical(self):
        rng = np.random.default_rng(3)
        A = rng.uniform(0, 1, (8, 8))
        A *= 0.8 / np.linalg.norm(A, 2)
        params = ModelParams(mu=np.full(8, 0.1), A=A, alpha=np.ones((8, 8)))
        assert spectral_radius(branching_matrix(params)) <= 0.8 + 1e-12


class TestStationaryMean:
    def test_poisson_reduction(self):
        params = ModelParams(mu=[0.3, 0.7], A=np.zeros((2, 2)),
                             alpha=np.ones((2, 2)))
        assert mean_stationary_intensity(params) == pytest.approx([0.3, 0.7])

    def test_scalar_geometric(self):
        params = one_node(mu=0.5, a=0.5, alpha=1.0)
        assert mean_stationary_intensity(params)[0] == pytest.approx(1.0)

    def test_two_node_hand_solve(self):
        params = ModelParams(mu=[0.1, 0.1], A=[[0.0, 0.5], [0.5, 0.0]],
                             alpha=np.ones((2, 2)))
        assert mean_stationary_intensity(params) == pytest.approx([0.2, 0.2])

    def test_nonstationary_raises(self):
        params = one_node(mu=0.5, a=1.5, alpha=1.0)
        with pytest.raises(ValueError):
            mean_stationary_intensity(params)
