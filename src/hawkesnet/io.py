"""File formats for events, matrices, vectors and reports.

Events: JSON {"d": int, "T": float, "events": [[t, ...], ...]} with
ascending per-node timestamps (lossless, 17 significant digits).  Events
carry their horizon and dimension, so no other event format is read.
Matrices: headerless row-major CSV.
Vectors: one value per line.
Configs: a JSON object read into a frozen dataclass by field name.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields, is_dataclass
from typing import Union, get_type_hints

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


def read_json(path: str):
    with open(path) as f:
        return json.load(f)


def check_keys(obj, allowed, name: str) -> None:
    """Raise ValueError unless obj is a JSON object with keys in allowed."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be a JSON object")
    unknown = [k for k in obj if k not in allowed]
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}; allowed: "
                         f"{list(allowed)}")


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def from_json(cls, obj):
    """The dataclass ``cls`` built from a JSON object by field name.

    Lists become tuples, nested lists too, and a field whose type is a
    dataclass is built the same way.  A key that is not a field raises
    ValueError.
    """
    types = get_type_hints(cls)
    check_keys(obj, [f.name for f in fields(cls)], cls.__name__)
    return cls(**{k: from_json(types[k], v) if is_dataclass(types[k])
                  else _tuples(v) for k, v in obj.items()})


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
