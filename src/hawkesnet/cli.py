"""Command-line interface.

Subcommands: simulate, fit, eval, xval, weights, experiment, check-bounds.
All commands are deterministic given --seed; errors exit nonzero with a
machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import io
from .bounds import check_opnorm_bound, check_pointwise_bound, \
    default_bound_params
from .experiment import ExperimentConfig, aggregate, run_experiment, \
    write_csv
from .features import PROCEDURES, compute_stats, constant_weights, \
    practical_weights, procedure_weights, theoretical_weights
from .metrics import evaluate
from .model import ModelParams
from .simulate import ScenarioConfig, SimConfig, generate_scenario, simulate
from .solver import CONSTANTS, LOSS_KINDS, FitConfig, cross_validate, \
    fit_hawkes


def _write_params(params: ModelParams, out_dir: str, support=None) -> None:
    io.ensure_dir(out_dir)
    io.write_vector(params.mu, os.path.join(out_dir, "mu.csv"))
    io.write_matrix_csv(params.A, os.path.join(out_dir, "A.csv"))
    io.write_matrix_csv(params.alpha, os.path.join(out_dir, "alpha.csv"))
    if support is not None:
        io.write_matrix_csv(support.astype(float),
                            os.path.join(out_dir, "support.csv"))


def _write_weights(weights, meta: dict, out_dir: str) -> None:
    """``weights_mu.csv``, ``weights_A.csv`` and ``weights_meta.json``."""
    io.write_vector(weights.w, os.path.join(out_dir, "weights_mu.csv"))
    io.write_matrix_csv(weights.W, os.path.join(out_dir, "weights_A.csv"))
    io.write_json({**meta, "tau": weights.tau},
                  os.path.join(out_dir, "weights_meta.json"))


#: the keys of the uniform model that ``simulate --config`` reads
UNIFORM_KEYS = ("d", "mu", "a", "alpha", "T", "seed")


def cmd_simulate(args) -> int:
    cfg = io.read_json(args.config) if args.config else {}
    scenario_keys = [f.name for f in fields(ScenarioConfig)] + ["T"]
    scenario = args.scenario or any(
        k in cfg for k in scenario_keys if k not in UNIFORM_KEYS)
    keys = scenario_keys if scenario else UNIFORM_KEYS
    io.check_keys(cfg, keys, "scenario" if scenario else "uniform model")
    # flags fill in the keys the file lacks
    cfg = {**{k: getattr(args, k) for k in UNIFORM_KEYS if k in keys}, **cfg}
    T = cfg.pop("T")
    if scenario:
        params, support = generate_scenario(io.from_json(ScenarioConfig, cfg))
    else:
        params = default_bound_params(cfg["d"], cfg["mu"], cfg["a"],
                                      cfg["alpha"])
        support = params.A > 0
    sim = SimConfig(params=params, horizon_T=T, seed=cfg["seed"],
                    max_events=args.max_events)
    data = simulate(sim)
    io.write_events_json(data, args.out)
    if args.params_out:
        _write_params(params, args.params_out, support)
    print(json.dumps({"total_events": data.total_events(),
                      "per_node": data.counts.tolist()}))
    return 0


def cmd_fit(args) -> int:
    data = io.read_events(args.events)
    d = data.d
    alpha = io.read_matrix_csv(args.alpha_file) if args.alpha_file \
        else np.full((d, d), args.alpha)
    window = compute_stats(data, alpha)
    weights = procedure_weights(args.procedure, window, args.c1, args.c2,
                                args.tau)
    weighting = PROCEDURES[args.procedure][0]
    cfg = FitConfig(loss_kind=args.loss, max_iter=args.max_iter)
    result = fit_hawkes(window, weights, cfg)
    out_dir = io.ensure_dir(args.out_dir)
    if weighting is not None:
        _write_weights(weights, {"mode": weighting}, out_dir)
    io.write_vector(result.mu, os.path.join(out_dir, "mu_hat.csv"))
    io.write_matrix_csv(result.A, os.path.join(out_dir, "A_hat.csv"))
    io.write_json(result.as_dict(), os.path.join(out_dir, "diagnostics.json"))
    print(json.dumps(result.as_dict()))
    return 0


def cmd_eval(args) -> int:
    mu_hat = io.read_vector(args.mu_hat)
    A_hat = io.read_matrix_csv(args.A_hat)
    mu_true = io.read_vector(args.mu_true)
    A_true = io.read_matrix_csv(args.A_true)
    support = io.read_matrix_csv(args.support) > 0 if args.support \
        else A_true > 0
    report = evaluate(mu_hat, A_hat, mu_true, A_true, support)
    io.write_json(report.as_dict(), args.out)
    print(json.dumps(report.as_dict()))
    return 0


def cmd_xval(args) -> int:
    data = io.read_events(args.events)
    d = data.d
    alpha = np.full((d, d), args.alpha)
    cfg = FitConfig(loss_kind=args.loss, max_iter=args.max_iter)
    cv = cross_validate(data, alpha, cfg, args.procedure, tuple(args.c1_grid),
                        tuple(args.c2_grid), tuple(args.tau_grid))
    out = {"best": dict(zip(CONSTANTS, cv.best)),
           "on_edge": dict(zip(CONSTANTS, cv.on_edge)),
           "scores": [{"c1": c1, "c2": c2, "tau": t, "heldout_loglik": s}
                      for c1, c2, t, s in cv.scores]}
    if args.out:
        io.write_json(out, args.out)
    print(json.dumps({**out["best"], "on_edge": out["on_edge"]}))
    return 0


def cmd_weights(args) -> int:
    data = io.read_events(args.events)
    d = data.d
    alpha = np.full((d, d), args.alpha)
    meta = {"mode": args.weighting}
    # x is an input of theoretical weighting only; constant weights read
    # no statistics
    if args.weighting == "theoretical":
        if args.x is None and d == 1:
            raise ValueError("the default x = log d is 0 for d=1; pass --x")
        meta["x"] = args.x if args.x is not None else float(np.log(d))
        weights = theoretical_weights(compute_stats(data, alpha), meta["x"])
    elif args.weighting == "practical":
        weights = practical_weights(compute_stats(data, alpha), args.c1,
                                    args.c2, args.tau)
    else:
        weights = constant_weights(d, args.c1, args.c2, args.tau)
    _write_weights(weights, meta, io.ensure_dir(args.out_dir))
    print(json.dumps({"tau": weights.tau, "mode": args.weighting}))
    return 0


def cmd_experiment(args) -> int:
    cfg = io.read_json(args.config)
    io.check_keys(cfg, [f.name for f in fields(ExperimentConfig)
                        if f.name != "jobs"], "experiment config")
    cfg.setdefault("seed", 0)
    if isinstance(cfg.get("scenario"), dict):
        cfg["scenario"] = {"seed": cfg["seed"], **cfg["scenario"]}
    cfg = io.from_json(ExperimentConfig, {**cfg, "jobs": args.jobs})
    out_dir = io.ensure_dir(args.out_dir)
    rows = run_experiment(cfg)
    write_csv(rows, os.path.join(out_dir, "results.csv"))
    agg = aggregate(rows)
    write_csv(agg, os.path.join(out_dir, "aggregate.csv"))
    print(json.dumps(agg))
    return 0


def cmd_check_bounds(args) -> int:
    params = default_bound_params(args.d, mu=args.mu,
                                  coupling_opnorm=args.coupling,
                                  alpha=args.alpha)
    check = check_pointwise_bound if args.which == "pointwise" \
        else check_opnorm_bound
    report = check(params, args.T, args.x, args.reps, args.seed)
    out = report.as_dict()
    if args.out:
        io.write_json(out, args.out)
    print(json.dumps(out))
    return 0 if report.holds else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hawkesnet",
                                description="Hawkes network inference toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate events by Ogata thinning")
    sim.add_argument("--config", help="JSON config file of the uniform "
                     "model or the scenario; a key in the file wins over its "
                     "flag and an unknown key is an error")
    sim.add_argument("--d", type=int, default=1)
    sim.add_argument("--mu", type=float, default=0.1)
    sim.add_argument("--a", type=float, default=0.0,
                     help="total coupling operator norm for a uniform matrix")
    sim.add_argument("--alpha", type=float, default=1.0)
    sim.add_argument("--T", type=float, default=100.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--scenario", action="store_true",
                     help="use the overlapping-box community scenario")
    sim.add_argument("--max-events", type=int, default=None,
                     help="event cap; an unstable model is simulated only "
                     "under one")
    sim.add_argument("--out", required=True)
    sim.add_argument("--params-out", help="directory for ground-truth files")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit a penalized Hawkes model")
    fit.add_argument("--events", required=True)
    fit.add_argument("--procedure", default="wL1", choices=list(PROCEDURES))
    fit.add_argument("--loss", default="least-squares", choices=LOSS_KINDS)
    fit.add_argument("--alpha", type=float, default=1.0)
    fit.add_argument("--alpha-file", help="CSV matrix of per-pair decays")
    fit.add_argument("--c1", type=float, default=1.0)
    fit.add_argument("--c2", type=float, default=1.0)
    fit.add_argument("--tau", type=float, default=0.01,
                     help="trace-norm coefficient of the Nuclear procedures")
    fit.add_argument("--max-iter", type=int, default=100)
    fit.add_argument("--out-dir", required=True)
    fit.set_defaults(func=cmd_fit)

    ev = sub.add_parser("eval", help="score an estimate against ground truth")
    ev.add_argument("--mu-hat", required=True)
    ev.add_argument("--A-hat", required=True)
    ev.add_argument("--mu-true", required=True)
    ev.add_argument("--A-true", required=True)
    ev.add_argument("--support", help="0/1 CSV; defaults to A_true > 0")
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_eval)

    xv = sub.add_parser("xval", help="cross-validate penalty constants")
    xv.add_argument("--events", required=True)
    xv.add_argument("--procedure", default="wL1",
                    choices=[p for p, (w, _) in PROCEDURES.items() if w])
    xv.add_argument("--loss", default="least-squares", choices=LOSS_KINDS)
    xv.add_argument("--alpha", type=float, default=1.0)
    xv.add_argument("--c1-grid", type=float, nargs="+", default=[1.0, 3.0, 10.0])
    xv.add_argument("--c2-grid", type=float, nargs="+", default=[1.0, 3.0, 10.0])
    xv.add_argument("--tau-grid", type=float, nargs="+",
                    default=[0.003, 0.01, 0.03])
    xv.add_argument("--max-iter", type=int, default=100)
    xv.add_argument("--out")
    xv.set_defaults(func=cmd_xval)

    wt = sub.add_parser("weights", help="compute data-driven penalty weights")
    wt.add_argument("--events", required=True)
    wt.add_argument("--alpha", type=float, default=1.0)
    wt.add_argument("--weighting", default="theoretical",
                    choices=["theoretical", "practical", "constant"])
    wt.add_argument("--x", type=float, default=None,
                    help="confidence level; defaults to log d")
    wt.add_argument("--c1", type=float, default=1.0)
    wt.add_argument("--c2", type=float, default=1.0)
    wt.add_argument("--tau", type=float, default=0.0)
    wt.add_argument("--out-dir", required=True)
    wt.set_defaults(func=cmd_weights)

    ex = sub.add_parser("experiment", help="run the full simulation study")
    ex.add_argument("--config", required=True)
    ex.add_argument("--out-dir", required=True)
    ex.add_argument("--jobs", type=int, default=1)
    ex.set_defaults(func=cmd_experiment)

    cb = sub.add_parser("check-bounds",
                        help="Monte Carlo validation of the deviation bounds; "
                        "exits 1 when the bound does not hold")
    cb.add_argument("--which", required=True, choices=["pointwise", "opnorm"])
    cb.add_argument("--d", type=int, default=3)
    cb.add_argument("--T", type=float, default=200.0)
    cb.add_argument("--x", type=float, default=8.0)
    cb.add_argument("--reps", type=int, default=2000)
    cb.add_argument("--mu", type=float, default=0.5)
    cb.add_argument("--coupling", type=float, default=0.5)
    cb.add_argument("--alpha", type=float, default=1.0)
    cb.add_argument("--seed", type=int, default=0)
    cb.add_argument("--out")
    cb.set_defaults(func=cmd_check_bounds)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # structured error for scripting
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
