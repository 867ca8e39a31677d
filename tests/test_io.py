import numpy as np
import pytest

from hawkesnet import EventData
from hawkesnet.io import (read_events, read_matrix_csv, read_vector,
                          write_events_json, write_matrix_csv, write_vector)


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
