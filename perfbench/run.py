"""Benchmark of hawkesnet: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload fit-d100 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones: the traced run runs one round, then the
same round with spans on, reports the per-layer figures of that round and
its own overhead, and writes its spans to ``.perfbench/traces/``.  See
perfbench/README.md.
"""

import os

# one BLAS thread (of the two cores): steadier and, at these sizes, faster;
# set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
#: step of the round behind each end-to-end time
STEP_METRICS = {"simulate_s": "simulate", "fit_ls_s": "fit_ls",
                "fit_ll_s": "fit_ll", "study_rep_s": "study"}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def trimmed_mean(values, cut=0.2) -> float:
    """Mean of the values left when the lowest and the highest ``cut`` share,
    and at least one value once there are three, are dropped.  Robust to a
    sample that a stall of the machine slowed, like a median, but it moves
    smoothly with the mix of inputs: the fits' iteration counts make their
    sample times two-humped, and a median jumps between the humps as the
    seed changes."""
    xs = sorted(values)
    k = max(int(cut * len(xs)), 1 if len(xs) >= 3 else 0)
    return statistics.fmean(xs[k:len(xs) - k])


def end_to_end(rounds, setup_times) -> dict:
    """Trimmed means over every sample of every round; the median set-up."""
    out = {name: trimmed_mean(t for r in rounds for t in r.samples[step])
           for name, step in STEP_METRICS.items()}
    out["bound_reps_per_s"] = trimmed_mean(x for r in rounds for x in r.bound_rates)
    out["setup_s"] = statistics.median(setup_times)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def busy(rounds) -> float:
    """Seconds spent in timed samples."""
    return sum(t for r in rounds for ts in r.samples.values() for t in ts)


def per_layer(tracer, rounds, untraced, names) -> dict:
    """Every per-layer metric per traced round; the two ratios as they are."""
    self_s, counts = tracer.self_times(), tracer.counts
    sweep = sum(counts[f"{f}.events"] for f in
                ("features.compute_stats", "loss.precompute_gram", "loss.build_loglik_cache"))
    evals = counts["loss.least_squares.calls"] + counts["loss.neg_log_likelihood_cached.calls"]
    ratios = {
        "sweep.redundancy": sweep / sum(r.stream_events for r in rounds),
        "solver.loss_evals_per_iter": evals / max(counts["solver.iterations"], 1),
    }
    totals = {"sweep.events": sweep, "trace.overhead_s": busy(rounds) - busy(untraced)}
    out = {}
    for name in names:
        if name in ratios:
            out[name] = ratios[name]
            continue
        if name in totals:
            total = totals[name]
        elif name.endswith(".self_s"):
            total = self_s.get(name[:-len(".self_s")], 0.0)
        else:
            total = counts.get(name, 0)
        out[name] = total / len(rounds)
    return out


def log_breakdown(tracer) -> None:
    """Self time by layer within each step, largest first, on standard error."""
    for step, layers in sorted(tracer.by_step().items()):
        total = sum(s for s, _ in layers.values())
        log(f"{step}: {total:.3f} s")
        for name, (s, calls) in sorted(layers.items(), key=lambda kv: -kv[1][0]):
            if s >= 0.01 * total:
                log(f"  {name:38s} {s:9.3f} s {100 * s / total:5.1f}% {calls:7d} calls")


def main(argv=None) -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hawkesnet", "__init__.py")):
        log(f"no hawkesnet sources under {SRC}")
        return 2
    sys.path.insert(0, SRC)
    from tracing import Capture, Tracer
    from workloads import Bench, fresh_import, round_seeds

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            t0 = time.perf_counter()
            hn = fresh_import()
            bench = Bench(hn, args.workload, args.seed, workdir, None, log)
            bench.setup_inputs(hn, round_seeds(args.seed, 0))
            os.makedirs(workdir)
            setup_times.append(time.perf_counter() - t0)
        bench.setup_times = setup_times
        if not os.path.realpath(hn.package.__file__).startswith(os.path.realpath(SRC)):
            log(f"hawkesnet imported from {hn.package.__file__}, not from {SRC}")
            return 2

        capture = Capture()
        for module, attr in ((hn.cli, "fit_hawkes"), (hn.experiment, "cross_validate"),
                             (hn.experiment, "fit_hawkes"), (hn.solver, "heldout_loglik"),
                             (hn.bounds, "compute_noise")):
            capture.on(module, attr)
        bench.capture = capture
        # the traced run compares one round with spans off and on
        rounds = bench.rounds(1 if args.trace else bench.round_count(args.seconds))
        all_rounds = list(rounds)
        for step in sorted({s for r in rounds for s in r.samples}):
            ts = [t for r in rounds for t in r.samples[step]]
            log(f"{step}: {len(ts)} samples, " + " ".join(f"{t:.3f}" for t in ts))
        log(f"setup: {len(setup_times)} samples, " + " ".join(f"{t:.3f}" for t in setup_times))
        if args.trace:
            tracer = Tracer()
            tracer.install(hn)
            bench.tracer = tracer
            try:
                traced = bench.rounds(len(rounds))
            finally:
                tracer.restore()
            all_rounds += traced
            os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
            tracer.write(os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.json"))
            values = per_layer(tracer, traced, rounds, [m["name"] for m in spec["per_layer"]])
            log_breakdown(tracer)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            values = end_to_end(rounds, setup_times)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        capture.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # an operation fails when the program errs or a check finds a wrong output;
    # correct speaks of the outputs of the operations that ran
    ops = [(failures, errored) for r in all_rounds for _, failures, errored in r.ops]
    print(json.dumps({
        "correct": not any(f and not errored for f, errored in ops),
        "attempted": len(ops),
        "failed": sum(1 for f, _ in ops if f),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
