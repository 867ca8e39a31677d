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

    Rows j of alpha with equal decays excite alike, so the state is kept
    once per distinct decay row r (m <= d of them), as ``features``
    keeps it: X[r, k] is the sum of exp(-decays[r, k] (t_x - t_i)) over the
    events t_i of node k up to the last accepted time t_x, and C[r, k] is
    the sum of A[j, k] over the rows j of block r.  The total excitation at
    t is then sum over r, k of C X e^{-decays (t - t_x)}.  A candidate costs
    O(m d), and one ``math.exp`` when alpha is uniform; an accepted event
    costs O(d^2) for the per-node intensities that pick its node.
    """
    params, T = config.params, config.horizon_T
    if config.max_events is None:
        rho = spectral_radius(branching_matrix(params))
        if rho >= 1:
            raise ValueError(f"spectral radius {rho:.3f} >= 1; an unstable "
                             "model is simulated only under max_events")
    d = params.d
    mu, A = params.mu, params.A
    rng = np.random.default_rng(config.seed)
    # rng.uniform() is rng.random() bit for bit, plus argument handling
    uniform = rng.random

    decays, row_block = np.unique(params.alpha, axis=0, return_inverse=True)
    row_block = row_block.reshape(-1)
    m = len(decays)
    C = np.zeros((m, d))
    np.add.at(C, row_block, A)
    X = np.zeros((m, d))
    # a uniform alpha decays at one rate: one math.exp of a running scalar
    scalar = m == 1 and np.ptp(decays) == 0
    rate, col = float(decays[0, 0]), C[0].tolist()
    exc, CX = 0.0, np.zeros((m, d))  # excitation at t_x: total, per (r, k)
    mu_sum = float(mu.sum())
    lam_bar = mu_sum
    t = t_x = 0.0
    events = [[] for _ in range(d)]
    n_total = 0

    while lam_bar > 0:
        t_new = t + rng.exponential(1.0 / lam_bar)
        if t_new > T:
            break
        t = t_new
        if scalar:
            E = math.exp(-rate * (t - t_x))
            lam_tot = mu_sum + exc * E
        else:
            E = np.exp(-decays * (t - t_x))
            lam_tot = mu_sum + float(np.vdot(CX, E))
        if not math.isfinite(lam_tot):
            raise SimulationOverflowError("non-finite intensity encountered")
        u = uniform()
        if u * lam_bar <= lam_tot:
            # accept; attribute the event proportionally to per-node intensities
            X *= E
            t_x = t
            lam = A.dot(X[0]) if m == 1 \
                else np.einsum("jk,jk->j", A, X[row_block])
            lam += mu
            node = int(lam.cumsum().searchsorted(u * lam_bar))
            node = min(node, d - 1)
            events[node].append(t)
            n_total += 1
            if config.max_events is not None and n_total > config.max_events:
                raise SimulationOverflowError(
                    f"exceeded max_events={config.max_events}; "
                    "parameters may be non-stationary"
                )
            X[:, node] += 1.0
            if scalar:
                exc = exc * E + col[node]
            else:
                CX = C * X
                exc = float(CX.sum())
            lam_tot = mu_sum + exc
        lam_bar = lam_tot

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
