import numpy as np
import pytest

from hawkesnet import EventData, ExperimentConfig, ScenarioConfig
from hawkesnet.io import (from_json, read_events, read_matrix_csv,
                          read_vector, write_events_json, write_matrix_csv,
                          write_vector)


class TestEventsJson:
    def test_round_trip_lossless(self, tmp_path):
        data = EventData(10.0, (np.array([0.1234567890123456, 7.0]),
                                np.array([2.0 / 3.0])))
        path = str(tmp_path / "events.json")
        write_events_json(data, path)
        back = read_events(path)
        assert back.horizon_T == data.horizon_T
        for a, b in zip(back.events, data.events):
            assert np.array_equal(a, b)

    def test_empty_node_round_trip(self, tmp_path):
        data = EventData(5.0, (np.empty(0), np.array([1.0])))
        path = str(tmp_path / "events.json")
        write_events_json(data, path)
        back = read_events(path)
        assert back.events[0].size == 0
        assert back.events[1].size == 1

    def test_inconsistent_d_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d": 3, "T": 5.0, "events": [[1.0]]}')
        with pytest.raises(ValueError):
            read_events(str(path))


class TestEventsCsv:
    def test_csv_rejected_naming_json(self, tmp_path):
        # node,time rows carry neither T nor the idle trailing nodes
        path = tmp_path / "events.csv"
        path.write_text("node,time\n0,1.5\n1,0.5\n0,2.5\n")
        with pytest.raises(ValueError, match="JSON"):
            read_events(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("node,time\n")
        with pytest.raises(ValueError):
            read_events(str(path))


class TestMatrixVector:
    def test_matrix_round_trip(self, tmp_path):
        M = np.array([[0.1, 2.0 / 3.0], [1e-17, 3.0]])
        path = str(tmp_path / "m.csv")
        write_matrix_csv(M, path)
        assert np.array_equal(read_matrix_csv(path), M)

    def test_one_by_one_matrix_shape(self, tmp_path):
        path = str(tmp_path / "m1.csv")
        write_matrix_csv(np.array([[0.5]]), path)
        back = read_matrix_csv(path)
        assert back.shape == (1, 1)

    def test_vector_round_trip(self, tmp_path):
        v = np.array([0.25, 1.0 / 7.0, 5.0])
        path = str(tmp_path / "v.csv")
        write_vector(v, path)
        assert np.array_equal(read_vector(path), v)

    def test_single_entry_vector_shape(self, tmp_path):
        path = str(tmp_path / "v1.csv")
        write_vector(np.array([0.5]), path)
        assert read_vector(path).shape == (1,)


class TestFromJson:
    def test_lists_become_tuples_and_nested_dataclasses_build(self):
        cfg = from_json(ExperimentConfig, {
            "scenario": {"d": 6, "seed": 1, "box_ranges": [[1, 3], [2, 6]],
                         "baseline_range": [0.1, 0.2]},
            "horizons": [50.0, 100.0], "n_replications": 2, "seed": 3,
            "procedures": ["NoPen"]})
        assert cfg == ExperimentConfig(
            scenario=ScenarioConfig(d=6, seed=1, box_ranges=((1, 3), (2, 6)),
                                    baseline_range=(0.1, 0.2)),
            horizons=(50.0, 100.0), n_replications=2, seed=3,
            procedures=("NoPen",))
        assert type(cfg.scenario.baseline_range) is tuple

    @pytest.mark.parametrize("obj, name", [
        ({"d": 3, "seed": 0, "alpah": 2.0}, "alpah"),
        ({"d": 3, "seed": 0, "T": 10.0}, "T"),
    ])
    def test_unknown_key_named_with_fields(self, obj, name):
        with pytest.raises(ValueError) as err:
            from_json(ScenarioConfig, obj)
        assert repr(name) in str(err.value)
        assert "'target_opnorm'" in str(err.value)

    def test_nested_object_required(self):
        with pytest.raises(ValueError, match="JSON object"):
            from_json(ExperimentConfig, {"scenario": 30, "horizons": [1.0],
                                         "n_replications": 1, "seed": 0})
