"""Run the block-community simulation study and write result tables.

Defaults reproduce a scaled version of the full study (d=30, horizons
250/500/1000, 10 replications).  Pass --full for the d=100 scale, horizons
up to 5000.  There the event sweeps cost O(N * d) time and O(d^2) Gram
memory (under a second per window of about 1e5 events); the run time is
the cross-validated solver runs, which take a d x d SVD per PRISMA step.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hawkesnet.experiment import (ExperimentConfig, aggregate,
                                  run_experiment, write_aggregate_csv,
                                  write_rows_csv)
from hawkesnet.simulate import ScenarioConfig


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--d", type=int, default=30)
    p.add_argument("--horizons", type=float, nargs="+",
                   default=[250.0, 500.0, 1000.0])
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--scenario-seed", type=int, default=42)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--full", action="store_true",
                   help="d=100 with horizons up to 5000")
    p.add_argument("--out-dir", default="results")
    return p.parse_args()


def main():
    args = parse_args()
    d = 100 if args.full else args.d
    horizons = ((500.0, 1000.0, 2000.0, 5000.0) if args.full
                else tuple(args.horizons))
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(d=d, seed=args.scenario_seed),
        horizons=horizons,
        n_replications=args.reps,
        seed=args.seed,
        jobs=args.jobs,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    rows = run_experiment(cfg)
    write_rows_csv(rows, os.path.join(args.out_dir, "results.csv"))
    agg = aggregate(rows)
    write_aggregate_csv(agg, os.path.join(args.out_dir, "aggregate.csv"))
    print(json.dumps(agg, indent=2))


if __name__ == "__main__":
    main()
