"""File formats for events, matrices, vectors and reports.

Events: JSON {"d": int, "T": float, "events": [[t, ...], ...]} with
ascending per-node timestamps (lossless, 17 significant digits).  Events
carry their horizon and dimension, so no other event format is read.
Matrices: headerless row-major CSV.
Vectors: one value per line.
"""

from __future__ import annotations

import json
import os
from typing import Union

import numpy as np

from .model import EventData

FLOAT_FMT = "%.17g"


def write_events_json(data: EventData, path: str) -> None:
    payload = {
        "d": data.d,
        "T": float(data.horizon_T),
        "events": [ev.tolist() for ev in data.events],
    }
    with open(path, "w") as f:
        json.dump(payload, f)
        f.write("\n")


def read_events(path: str) -> EventData:
    if path.endswith(".csv"):
        raise ValueError(
            f"{path}: events must be JSON {{\"d\", \"T\", \"events\"}}; a "
            "node,time CSV carries neither the horizon T nor the dimension d")
    with open(path) as f:
        payload = json.load(f)
    events = tuple(np.array(ev, dtype=float) for ev in payload["events"])
    if len(events) != payload["d"]:
        raise ValueError("event file is inconsistent: d != number of lists")
    return EventData(float(payload["T"]), events)


def write_matrix_csv(M, path: str) -> None:
    np.savetxt(path, np.atleast_2d(np.asarray(M, dtype=float)),
               delimiter=",", fmt=FLOAT_FMT)


def read_matrix_csv(path: str) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=","))


def write_vector(v, path: str) -> None:
    np.savetxt(path, np.asarray(v, dtype=float).ravel(), fmt=FLOAT_FMT)


def read_vector(path: str) -> np.ndarray:
    return np.atleast_1d(np.loadtxt(path))


def write_json(obj: Union[dict, list], path: str) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
