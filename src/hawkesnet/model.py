"""Core types for multivariate Hawkes processes with exponential kernels.

A model is parameterized by baselines ``mu`` (d,), a nonnegative
self-excitement matrix ``A`` (d, d) and positive per-pair decay rates
``alpha`` (d, d).  The intensity of node j is

    lambda_j(t) = mu_j + sum_k A[j, k] * sum_{t_{k,i} < t} exp(-alpha[j, k] * (t - t_{k,i}))

where the inner sum runs over strictly past events of node k (events at
exactly t are excluded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _as_readonly(x, dtype=float) -> np.ndarray:
    a = np.array(x, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ModelParams:
    """Hawkes parameters (mu, A) plus the fixed decay matrix alpha."""

    mu: np.ndarray
    A: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", _as_readonly(self.mu))
        object.__setattr__(self, "A", _as_readonly(self.A))
        object.__setattr__(self, "alpha", _as_readonly(self.alpha))
        d = self.mu.shape[0]
        if self.mu.ndim != 1:
            raise ValueError("mu must be a vector")
        if self.A.shape != (d, d) or self.alpha.shape != (d, d):
            raise ValueError("A and alpha must be d x d with d = len(mu)")
        for name in ("mu", "A", "alpha"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if np.any(self.mu < 0):
            raise ValueError("baseline intensities must be nonnegative")
        if np.any(self.A < 0):
            raise ValueError("self-excitement weights must be nonnegative")
        if np.any(self.alpha <= 0):
            raise ValueError("decay rates must be positive")

    @property
    def d(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class EventData:
    """Per-node sorted event timestamps on an observation window [0, T]."""

    horizon_T: float
    events: tuple

    def __post_init__(self):
        if not (math.isfinite(self.horizon_T) and self.horizon_T > 0):
            raise ValueError("horizon_T must be finite and positive")
        evs = tuple(_as_readonly(e) for e in self.events)
        for e in evs:
            if e.ndim != 1:
                raise ValueError("each node's events must be a 1-d array")
            if not np.all(np.isfinite(e)):
                raise ValueError("timestamps must be finite")
            if e.size and (e[0] <= 0 or e[-1] > self.horizon_T):
                raise ValueError("timestamps must lie in (0, horizon_T]")
            if e.size > 1 and np.any(np.diff(e) <= 0):
                raise ValueError("timestamps must be strictly increasing per node")
        object.__setattr__(self, "events", evs)

    @property
    def d(self) -> int:
        return len(self.events)

    @property
    def counts(self) -> np.ndarray:
        return np.array([e.size for e in self.events], dtype=int)

    def total_events(self) -> int:
        return int(self.counts.sum())

    def truncated(self, horizon: float) -> "EventData":
        """Restrict to the prefix window [0, horizon]."""
        if not 0 < horizon <= self.horizon_T:
            raise ValueError("horizon must be in (0, horizon_T]")
        return EventData(horizon, tuple(e[e <= horizon] for e in self.events))

    def shifted(self, t0: float, horizon: float) -> "EventData":
        """Events in (t0, t0 + horizon], re-based so t0 becomes the origin."""
        return EventData(horizon, tuple(e[(e > t0) & (e <= t0 + horizon)] - t0
                                        for e in self.events))

    def merged(self):
        """All events merged in time order: (times, node_indices)."""
        times = np.concatenate((np.empty(0),) + self.events)
        nodes = np.repeat(np.arange(self.d), self.counts)
        order = np.argsort(times, kind="stable")
        return times[order], nodes[order]


def intensity_at(params: ModelParams, data: EventData, node: int, t: float) -> float:
    """Exact intensity of ``node`` at time t, excluding events at exactly t."""
    if not 0 <= node < params.d:
        raise IndexError(f"node {node} out of range for d={params.d}")
    if not 0 <= t <= data.horizon_T:
        raise ValueError("t outside the observation window")
    total = float(params.mu[node])
    for k, ev in enumerate(data.events):
        past = ev[ev < t]
        if past.size:
            total += params.A[node, k] * float(
                np.exp(-params.alpha[node, k] * (t - past)).sum()
            )
    return total


def branching_matrix(params: ModelParams) -> np.ndarray:
    """Integrated kernel masses K[j, k] = A[j, k] / alpha[j, k]."""
    return params.A / params.alpha


def spectral_radius(K: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(K))))


def mean_stationary_intensity(params: ModelParams) -> np.ndarray:
    """Stationary mean intensities, solving (I - K) m = mu."""
    K = branching_matrix(params)
    if spectral_radius(K) >= 1:
        raise ValueError("process is not stationary (spectral radius >= 1)")
    return np.linalg.solve(np.eye(params.d) - K, params.mu)
