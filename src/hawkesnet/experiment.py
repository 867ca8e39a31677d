"""End-to-end synthetic experiment: simulate, tune, fit, evaluate.

One long simulation per replication is truncated to each horizon; each
procedure is cross-validated per (replication, horizon) and scored against
the ground truth by relative l2 error and support AUC.  Output is a
long-format table, one row per (procedure, horizon, replication).  A fit
that fails (a line search that cannot find a step, a window too short to
split) fails its row only: the row names the failure and leaves every
result field empty, and the study goes on.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence, Tuple

import numpy as np

from .features import PROCEDURES, compute_stats, procedure_weights
from .metrics import evaluate
from .simulate import ScenarioConfig, generate_scenario, simulate_replication
from .solver import CONSTANTS, FitConfig, LineSearchError, \
    cross_validate, fit_hawkes, split_halves


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig
    horizons: Tuple[float, ...]
    n_replications: int
    seed: int
    procedures: Tuple[str, ...] = tuple(PROCEDURES)
    loss_kind: str = "least-squares"
    c1_grid_weighted: Tuple[float, ...] = (1.0, 3.0, 10.0)
    c2_grid_weighted: Tuple[float, ...] = (1.0, 3.0, 10.0)
    # the trace penalty already shrinks A, so the useful l1 range for the
    # weighted nuclear procedure sits lower than for plain weighted l1
    c1_grid_weighted_nuclear: Tuple[float, ...] = (0.3, 1.0, 3.0)
    c2_grid_weighted_nuclear: Tuple[float, ...] = (0.3, 1.0, 3.0)
    c1_grid_constant: Tuple[float, ...] = (0.001, 0.003, 0.01, 0.03, 0.1)
    c2_grid_constant: Tuple[float, ...] = (0.001, 0.003, 0.01, 0.03, 0.1)
    tau_grid: Tuple[float, ...] = (0.003, 0.01, 0.03)
    max_iter: int = 100
    jobs: int = 1

    def __post_init__(self):
        # FitConfig rejects an unknown loss_kind and max_iter < 1
        FitConfig(loss_kind=self.loss_kind, max_iter=self.max_iter)
        if not self.procedures:
            raise ValueError("procedures must be nonempty")
        if not self.horizons or not all(
                math.isfinite(T) and T > 0 for T in self.horizons):
            raise ValueError("horizons must be nonempty, finite and positive")
        if list(self.horizons) != sorted(self.horizons):
            raise ValueError("horizons must be increasing")
        if self.n_replications < 1:
            raise ValueError("n_replications must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        for p in self.procedures:
            if p not in PROCEDURES:
                raise ValueError(f"unknown procedure {p!r}")
        # practical_weights takes c's > 0, PenaltyWeights finite values >= 0
        for p, (weighting, _) in PROCEDURES.items():
            rules = (weighting == "practical",) * 2 + (False,)
            for grid, positive in zip(self.grids(p) if weighting else (), rules):
                if not grid or not all(math.isfinite(v) and (
                        v > 0 if positive else v >= 0) for v in grid):
                    raise ValueError(
                        f"a grid of {p} must be nonempty, finite and "
                        f"{'> 0' if positive else '>= 0'}; got {list(grid)}")

    def grids(self, procedure: str) -> tuple:
        """(c1_grid, c2_grid, tau_grid) that cross-validation tunes a
        penalised procedure over."""
        c1, c2 = {
            "L1": (self.c1_grid_constant, self.c2_grid_constant),
            "wL1": (self.c1_grid_weighted, self.c2_grid_weighted),
            "L1Nuclear": (self.c1_grid_constant, self.c2_grid_constant),
            "wL1Nuclear": (self.c1_grid_weighted_nuclear,
                           self.c2_grid_weighted_nuclear),
        }[procedure]
        return c1, c2, self.tau_grid


#: the row of one (procedure, horizon, replication); ``failure`` is empty
#: for a fitted row, else the error that ended its fit, and then every
#: field between ``rep`` and it is empty too.  ``on_edge`` names the tuned
#: constants that cross-validation chose on an edge of their grid
#: (``CVResult.on_edge``), or is "none"
COLUMNS = ("procedure", "T", "rep", "error", "auc", "c1", "c2", "tau",
           "on_edge", "iterations", "converged", "failure")


def run_one(cfg: ExperimentConfig, params, support, rep: int) -> list:
    """All rows for one replication (simulate once, truncate per horizon).

    Each horizon's full window is swept once, for NoPen and every refit,
    and its train and test halves once, for every cross-validation."""
    data_full = simulate_replication(params, max(cfg.horizons), cfg.seed, rep)
    alpha = params.alpha
    fit_cfg = FitConfig(loss_kind=cfg.loss_kind, max_iter=cfg.max_iter)
    rows = []
    for T in cfg.horizons:
        data = data_full.truncated(T)
        full = compute_stats(data, alpha)
        halves = None
        for procedure in cfg.procedures:
            row = {"procedure": procedure, "T": T, "rep": rep}
            try:
                if procedure == "NoPen":
                    result = fit_hawkes(full, procedure_weights("NoPen", full),
                                        fit_cfg)
                    (c1, c2, tau), on_edge = (0.0, 0.0, 0.0), ()
                else:
                    # an empty half raises here, for every penalised row
                    halves = halves or [compute_stats(h, alpha)
                                        for h in split_halves(data)]
                    cv = cross_validate(data, alpha, fit_cfg, procedure,
                                        *cfg.grids(procedure),
                                        windows=(*halves, full))
                    result, (c1, c2, tau) = cv.fit, cv.best
                    on_edge = [n for n, e in zip(CONSTANTS, cv.on_edge) if e]
            except (LineSearchError, ValueError) as exc:
                rows.append({**row, **dict.fromkeys(COLUMNS[3:-1]),
                             "failure": f"{type(exc).__name__}: {exc}"})
                continue
            report = evaluate(result.mu, result.A, params.mu, params.A, support)
            rows.append({
                **row,
                "error": report.rel_l2_error, "auc": report.auc,
                "c1": c1, "c2": c2, "tau": tau,
                "on_edge": " ".join(on_edge) or "none",
                "iterations": result.iterations_used,
                "converged": result.converged,
                "failure": None,
            })
    return rows


def run_experiment(cfg: ExperimentConfig) -> list:
    """All rows, ordered by (rep, horizon, procedure); deterministic per seed."""
    params, support = generate_scenario(cfg.scenario)
    reps = range(cfg.n_replications)
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            chunks = list(pool.map(run_one, repeat(cfg), repeat(params),
                                   repeat(support), reps))
    else:
        chunks = [run_one(cfg, params, support, r) for r in reps]
    rows = [row for chunk in chunks for row in chunk]
    return rows


def aggregate(rows: Sequence[dict]) -> list:
    """Per (procedure, horizon): n rows, n_failed of them failed, the mean
    error / AUC of the others (None when every row failed) and n_on_edge,
    how many of the others chose a constant on an edge of its grid."""
    keys = sorted({(r["procedure"], r["T"]) for r in rows},
                  key=lambda k: (k[1], k[0]))
    out = []
    for proc, T in keys:
        sel = [r for r in rows if r["procedure"] == proc and r["T"] == T]
        fitted = [r for r in sel if not r.get("failure")]

        def mean(key):
            return float(np.mean([r[key] for r in fitted])) if fitted \
                else None
        out.append({
            "procedure": proc,
            "T": T,
            "n": len(sel),
            "n_failed": len(sel) - len(fitted),
            "mean_error": mean("error"),
            "mean_auc": mean("auc"),
            "n_on_edge": sum(r.get("on_edge") not in (None, "none")
                             for r in fitted),
        })
    return out


def write_csv(rows: Sequence[dict], path: str) -> None:
    """Rows with the same keys in the same order (the rows of
    ``run_experiment`` or of ``aggregate``) as CSV, with those keys as its
    header; no rows make an empty file."""
    with open(path, "w", newline="") as f:
        if rows:
            writer = csv.DictWriter(f, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
