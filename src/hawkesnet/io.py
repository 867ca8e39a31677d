"""File formats for events, matrices, vectors and reports.

Events: JSON {"d": int, "T": float, "events": [[t, ...], ...]} with
ascending per-node timestamps (lossless, 17 significant digits), or CSV
with ``node,time`` rows on input.  Matrices: headerless row-major CSV.
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
        return _read_events_csv(path)
    with open(path) as f:
        payload = json.load(f)
    events = tuple(np.array(ev, dtype=float) for ev in payload["events"])
    if len(events) != payload["d"]:
        raise ValueError("event file is inconsistent: d != number of lists")
    return EventData(float(payload["T"]), events)


def _read_events_csv(path: str) -> EventData:
    nodes, times = [], []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("node"):
                continue
            a, b = line.split(",")
            nodes.append(int(a))
            times.append(float(b))
    if not nodes:
        raise ValueError(f"no events found in {path}")
    d = max(nodes) + 1
    horizon = max(times)
    evs = [[] for _ in range(d)]
    for n, t in zip(nodes, times):
        evs[n].append(t)
    return EventData(horizon, tuple(np.sort(np.array(e)) for e in evs))


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
