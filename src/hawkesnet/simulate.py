"""Ogata thinning simulator and the synthetic overlapping-community scenario."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .model import EventData, ModelParams, branching_matrix, spectral_radius


class SimulationOverflowError(RuntimeError):
    """Raised when the event cap is hit, which usually means non-stationarity."""


@dataclass(frozen=True)
class SimConfig:
    params: ModelParams
    horizon_T: float
    seed: int
    max_events: Optional[int] = None

    def __post_init__(self):
        if not (math.isfinite(self.horizon_T) and self.horizon_T > 0):
            raise ValueError("horizon_T must be finite and positive")


def simulate(config: SimConfig) -> EventData:
    """Draw event timelines on [0, horizon_T] by Ogata thinning.

    The dominating rate is the total intensity just after the last
    accepted/rejected time: exponential kernels only decay between events,
    so that value is a valid upper bound until the next jump.  An unstable
    model (spectral radius of A / alpha >= 1), whose event count may grow
    without bound, is simulated only under ``max_events``.
    """
    params, T = config.params, config.horizon_T
    if config.max_events is None:
        rho = spectral_radius(branching_matrix(params))
        if rho >= 1:
            raise ValueError(f"spectral radius {rho:.3f} >= 1; an unstable "
                             "model is simulated only under max_events")
    d = params.d
    mu, A, alpha = params.mu, params.A, params.alpha
    rng = np.random.default_rng(config.seed)

    G = np.zeros((d, d))  # G[j, k] = sum over past events of k of exp(-alpha[j,k] dt)
    lam = mu.copy()
    lam_bar = float(lam.sum())
    t = 0.0
    events = [[] for _ in range(d)]
    n_total = 0

    while True:
        if lam_bar <= 0:
            break
        w = rng.exponential(1.0 / lam_bar)
        t_new = t + w
        if t_new > T:
            break
        G *= np.exp(-alpha * (t_new - t))
        lam = mu + (A * G).sum(axis=1)
        lam_tot = float(lam.sum())
        if not np.isfinite(lam_tot):
            raise SimulationOverflowError("non-finite intensity encountered")
        u = rng.uniform()
        t = t_new
        if u * lam_bar <= lam_tot:
            # accept; attribute the event proportionally to per-node intensities
            node = int(np.searchsorted(np.cumsum(lam), u * lam_bar))
            node = min(node, d - 1)
            events[node].append(t)
            n_total += 1
            if config.max_events is not None and n_total > config.max_events:
                raise SimulationOverflowError(
                    f"exceeded max_events={config.max_events}; "
                    "parameters may be non-stationary"
                )
            G[:, node] += 1.0
            lam = lam + A[:, node]
        lam_bar = float(lam.sum())

    return EventData(T, tuple(np.array(e) for e in events))


DEFAULT_BOX_RANGES = ((1, 20), (10, 50), (35, 56), (65, 100))


def scaled_box_ranges(d: int) -> Tuple[Tuple[int, int], ...]:
    """The canonical d=100 overlapping boxes rescaled to dimension d."""
    out = []
    for lo, hi in DEFAULT_BOX_RANGES:
        lo_s = max(1, int(round(lo * d / 100)))
        hi_s = max(lo_s, min(d, int(round(hi * d / 100))))
        out.append((lo_s, hi_s))
    return tuple(out)


@dataclass(frozen=True)
class ScenarioConfig:
    """Block-community ground truth: overlapping boxes of uniform values.

    Box index ranges are 1-based inclusive.  The defaults draw baselines
    mu ~ U(0, 0.1), fill the boxes with U(0, 0.2) values, rescale A to
    operator norm 0.8 and use the decay alpha = 1.  At d=100 with seed 0
    this gives sum(mu) = 5.35 and a branching matrix of spectral radius
    0.79, so a run on [0, 1000] from an empty history has about 1.97e4
    events in expectation.
    """

    d: int
    seed: int
    baseline_range: Tuple[float, float] = (0.0, 0.1)
    box_ranges: Optional[Tuple[Tuple[int, int], ...]] = None
    box_value_range: Tuple[float, float] = (0.0, 0.2)
    target_opnorm: float = 0.8
    alpha: float = 1.0

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("d must be positive")
        if self.target_opnorm <= 0:
            raise ValueError("target_opnorm must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        boxes = self.box_ranges if self.box_ranges is not None else scaled_box_ranges(self.d)
        for lo, hi in boxes:
            if not 1 <= lo <= hi <= self.d:
                raise ValueError(f"box {lo}:{hi} out of range for d={self.d}")
        object.__setattr__(self, "box_ranges", tuple(tuple(b) for b in boxes))


def generate_scenario(config: ScenarioConfig):
    """Build (ModelParams, ground-truth support matrix) for the scenario.

    The union of boxes is filled with uniform draws, the rest is zero, and
    the whole matrix is rescaled to the target operator norm.
    """
    d = config.d
    rng = np.random.default_rng(config.seed)
    mask = np.zeros((d, d), dtype=bool)
    for lo, hi in config.box_ranges:
        mask[lo - 1:hi, lo - 1:hi] = True
    if not mask.any():
        raise ValueError("box union is empty")
    A = np.zeros((d, d))
    A[mask] = rng.uniform(*config.box_value_range, size=int(mask.sum()))
    opnorm = np.linalg.norm(A, 2)
    if opnorm <= 0:
        raise ValueError("scenario matrix is identically zero before scaling")
    A *= config.target_opnorm / opnorm
    mu = rng.uniform(*config.baseline_range, size=d)
    alpha = np.full((d, d), config.alpha)
    params = ModelParams(mu=mu, A=A, alpha=alpha)
    if spectral_radius(branching_matrix(params)) >= 1:
        raise ValueError("scenario parameters are non-stationary")
    return params, A > 0


def replication_seed(seed: int, rep: int) -> np.random.SeedSequence:
    """Independent, order-insensitive RNG stream for replication ``rep``."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(rep,))


def simulate_replication(params: ModelParams, horizon_T: float, seed: int,
                         rep: int) -> EventData:
    """Simulate one replication with its own deterministic RNG stream."""
    ss = replication_seed(seed, rep)
    # SeedSequence itself seeds default_rng deterministically
    cfg = SimConfig(params=params, horizon_T=horizon_T,
                    seed=ss.generate_state(1)[0])
    return simulate(cfg)
