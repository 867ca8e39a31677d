"""The benchmark's workloads: the same round of five steps at three sizes.

Every round runs samples of these steps, spread over the round by
``Workload.schedule``:

1. ``simulate``: ``hawkesnet simulate`` for a few streams of the
   bound-check model (mu = 0.5, A = 0.5 / d, alpha = 1).  The fits do not
   use the block-community scenario: its log-likelihood fit stops with
   LineSearchError on about 1 stream in 100, and an operation that fails
   on some seeds only cannot be counted alike in every run,
2. ``fit_ls`` and ``fit_ll``: ``hawkesnet fit --procedure wL1Nuclear`` with
   the least-squares and with the log-likelihood loss, on the first
   ``fit_events`` events of each of the first ``fit_streams`` streams,
3. ``study``: replications of the simulation study through
   ``experiment.run_experiment`` (five procedures, cross-validated),
4. ``bounds``: batches of ``bounds.check_pointwise_bound`` (d=3, x=8) and
   ``bounds.check_opnorm_bound`` (d=5, x=6) at T=200, as
   ``scripts/run_bound_checks.py`` runs them.

A workload fixes the size of each step.  Each workload puts its weight on
a different layer (see README.md); its other steps are kept small, so that
every end-to-end metric has a value on every workload.  A step is timed per
sample (one command, one replication, one batch) and the metric is a
trimmed mean over samples (``run.trimmed_mean``), because on a shared
machine the same work can take 30% longer from one second to the next.
The samples of each step are spread over the whole round, so that a slow
or fast stretch of the machine moves a few samples of every step, not all
samples of one.  CLI commands run in-process through
``hawkesnet.cli.main``; nothing starts a subprocess.

Every output is checked against ``reference.py`` or against a property the
method must have.  A failed check marks its operation failed; the run goes on.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io as _io
import json
import math
import os
import sys
import time
import traceback
import types
from dataclasses import dataclass, field, replace

import numpy as np

from reference import Sweep, auc, penalised_objective, relative_error, \
    wilson_interval, window

#: penalty constants of the two fit commands (the CLI defaults)
FIT_C1, FIT_C2, FIT_TAU = 1.0, 1.0, 0.01
#: the study's ground truth, as ``scripts/run_experiment.py`` draws it
STUDY_SCENARIO_SEED = 42
#: model of the bound checks (``default_bound_params`` defaults)
BOUND_MU, BOUND_COUPLING = 0.5, 0.5
BOUND_T = 200.0
BOUND_REPS = 5
POINTWISE_D, POINTWISE_X = 3, 8.0
OPNORM_D, OPNORM_X = 5, 6.0
REL_TOL = 1e-9
PROCEDURES = ("NoPen", "L1", "wL1", "L1Nuclear", "wL1Nuclear")
MODULES = ("cli", "simulate", "loss", "solver", "bounds", "experiment", "io")


def _program_modules() -> list:
    return [m for m in sys.modules if m == "hawkesnet" or m.startswith("hawkesnet.")]


def fresh_import():
    """Import the package anew, as a new process would; returns its modules
    by name (``hawkesnet.simulate`` the attribute is a function, not the module)."""
    for name in _program_modules():
        del sys.modules[name]
    return types.SimpleNamespace(package=importlib.import_module("hawkesnet"), **{
        m: importlib.import_module("hawkesnet." + m) for m in MODULES})


@dataclass(frozen=True)
class StudySize:
    d: int
    T: float
    replications: int
    config: dict = field(default_factory=dict)  # ExperimentConfig overrides


#: criterion 8's study: default grids (141 solver runs), max_iter 100
FULL_STUDY = StudySize(d=30, T=1000.0, replications=1)
#: two points per grid axis (29 solver runs) and max_iter 30
LIGHT_STUDY = StudySize(d=10, T=500.0, replications=1, config=dict(
    c1_grid_weighted=(1.0, 3.0), c2_grid_weighted=(1.0, 3.0),
    c1_grid_weighted_nuclear=(0.3, 1.0), c2_grid_weighted_nuclear=(0.3, 1.0),
    c1_grid_constant=(0.003, 0.03), c2_grid_constant=(0.003, 0.03),
    tau_grid=(0.01, 0.03), max_iter=30))


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload's round; the counts are samples per round."""
    sim_d: int           # streams of the bound-check model at this dimension
    sim_streams: int
    sim_events: float    # expected events per stream; sets each horizon
    fit_streams: int     # fit inputs: one of each loss on each of the first streams
    fit_events: int      # events in each fit input (a prefix of a stream)
    study: StudySize     # ``study.replications`` study samples per round
    bound_batches: int   # each of BOUND_REPS replications of both checks
    setups: int          # set-ups measured within the round
    round_s: float       # seconds a round takes on the reference machine (README)

    def schedule(self) -> list:
        """(step, index) of every sample of a round.  The k samples of a step
        sit at (j + 0.5) / k of the round, so that each step is measured over
        the whole run and not in one stretch of it; stream j is simulated
        before it is fitted, since ``sim_streams >= fit_streams``."""
        counts = (("setup", self.setups), ("simulate", self.sim_streams),
                  ("fit", self.fit_streams), ("study", self.study.replications),
                  ("bounds", self.bound_batches))
        return [(step, j) for _, _, step, j in sorted(
            ((j + 0.5) / k, order, step, j)
            for order, (step, k) in enumerate(counts) for j in range(k))]


WORKLOADS = {
    "fit-d100": Workload(100, 3, 5000.0, 1, 600, replace(LIGHT_STUDY, replications=3), 5, 8,
                         round_s=18.0),
    "study-d30": Workload(30, 8, 4000.0, 5, 2000, FULL_STUDY, 5, 8, round_s=40.0),
    "bounds-d5": Workload(5, 8, 1000.0, 8, 600, replace(LIGHT_STUDY, replications=3), 5, 6,
                          round_s=11.0),
}


def close(a, b, rel=REL_TOL) -> bool:
    """Equal up to ``rel`` times the larger magnitude (and at least 1e-12)."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.shape != b.shape:
        return False
    scale = max(float(np.max(np.abs(a), initial=0)), float(np.max(np.abs(b), initial=0)), 1e-12)
    return float(np.max(np.abs(a - b), initial=0)) <= rel * scale


def round_seeds(seed: int, index: int) -> list:
    """Integer seeds for round ``index`` of a run with ``seed``."""
    rng = np.random.default_rng([seed, index])
    return [int(s) for s in rng.integers(1, 2**31 - 1, 8)]


def sim_inputs(w: Workload, seeds) -> list:
    """(cli seed, horizon, mu, A) per stream of the bound-check model; the
    horizon gives ``sim_events`` expected events at the stationary rate
    d * mu / (1 - coupling)."""
    d = w.sim_d
    mu = np.full(d, BOUND_MU)
    A = np.full((d, d), BOUND_COUPLING / d)
    T = w.sim_events * (1 - BOUND_COUPLING) / (d * BOUND_MU)
    return [(seeds[0] + i, T, mu, A) for i in range(w.sim_streams)]


def study_inputs(hn, s: StudySize, seeds):
    """One ExperimentConfig per replication, and the (params, support) truth."""
    scenario = hn.simulate.ScenarioConfig(d=s.d, seed=STUDY_SCENARIO_SEED)
    cfgs = [hn.experiment.ExperimentConfig(
        scenario=scenario, horizons=(s.T,), n_replications=1,
        seed=seeds[4] + i, jobs=1, **s.config) for i in range(s.replications)]
    return cfgs, hn.simulate.generate_scenario(scenario)


class Round:
    """One round of the steps: per-sample times, operation outcomes and the
    events of the inputs that the program's sweeps read."""

    def __init__(self, bench: "Bench", index: int):
        self.bench = bench
        self.w = bench.workload
        self.dir = os.path.join(bench.workdir, f"round{index}")
        os.makedirs(self.dir, exist_ok=True)
        self.seeds = round_seeds(bench.seed, index)
        self.sim = sim_inputs(self.w, self.seeds)
        self.streams = {}     # stream index -> event file
        self.study_cfgs = None
        self.samples = {}     # step -> [seconds per sample]
        self.ops = []         # (name, [failure messages], the program raised or exited nonzero)
        self.stream_events = 0
        self.bound_rates = []  # replications per second, per batch

    def op(self, name, failures, errored=False):
        self.ops.append((name, failures, errored))
        for msg in failures:
            self.bench.log(f"FAILED {name}: {msg}")

    def ran(self, name, ok, message) -> bool:
        """Record ``name`` as failed by a program error unless ``ok``."""
        if not ok:
            self.op(name, [message], errored=True)
        return ok

    def check(self, name, fn, *args):
        """Record operation ``name`` as failed if ``fn`` finds faults or raises."""
        try:
            failures = fn(*args)
        except Exception:
            failures = [traceback.format_exc()]
        self.op(name, failures)

    def timed(self, step, fn, *args):
        """One timed sample of ``step``; an exception fails the sample's checks."""
        tracer = self.bench.tracer
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = tracer.span("step." + step, fn, *args) if tracer else fn(*args)
        except Exception:
            self.bench.log(traceback.format_exc())
            out = None
        self.samples.setdefault(step, []).append(time.perf_counter() - t0)
        return out

    def cli(self, argv):
        out, err = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.bench.hn.cli.main([str(a) for a in argv])
        return rc, out.getvalue(), err.getvalue()

    # -- set-up ----------------------------------------------------------------
    def setup(self, j):
        """Set-up j, as a new process makes it: import ``hawkesnet`` anew and
        build the round's inputs.  The program the round runs stays loaded.
        Only the untraced pass reports set-up times."""
        if self.bench.tracer:
            return
        saved = {name: sys.modules[name] for name in _program_modules()}
        gc.collect()
        t0 = time.perf_counter()
        try:
            self.bench.setup_inputs(fresh_import(), self.seeds)
            os.makedirs(os.path.join(self.dir, f"setup{j}"))
            self.bench.setup_times.append(time.perf_counter() - t0)
        finally:
            for name in _program_modules():
                del sys.modules[name]
            sys.modules.update(saved)

    # -- step 1: simulate ------------------------------------------------------
    def simulate(self, i):
        """Stream i."""
        seed, T, mu, A = self.sim[i]
        path = os.path.join(self.dir, f"events{i}.json")
        truth = os.path.join(self.dir, f"truth{i}")
        res = self.timed("simulate", self.cli, [
            "simulate", "--d", self.w.sim_d, "--mu", BOUND_MU, "--a", BOUND_COUPLING,
            "--alpha", 1.0, "--T", repr(T), "--seed", seed,
            "--out", path, "--params-out", truth])
        if self.ran("simulate", res is not None and res[0] == 0,
                    f"simulate failed: {res and res[2]}"):
            self.check("simulate", self.check_simulate, res, path, truth, T, mu, A)
        self.streams[i] = path

    def check_simulate(self, res, path, truth, T, mu, A):
        fails = []
        with open(path) as f:
            payload = json.load(f)
        events = [np.asarray(e, float) for e in payload["events"]]
        if payload["d"] != self.w.sim_d or len(events) != self.w.sim_d or payload["T"] != T:
            fails.append("wrong d or T in the event file")
        for e in events:
            if e.size and (e[0] <= 0 or e[-1] > T or np.any(np.diff(e) <= 0)):
                fails.append("events not strictly increasing in (0, T]")
                break
        if json.loads(res[1])["total_events"] != sum(e.size for e in events):
            fails.append("printed total_events differs from the file")
        if not (np.array_equal(np.loadtxt(os.path.join(truth, "mu.csv")), mu)
                and np.array_equal(np.loadtxt(os.path.join(truth, "A.csv"), delimiter=","), A)):
            fails.append("ground truth files differ from the model")
        return fails

    # -- step 2: the two fits --------------------------------------------------
    def fit_input(self, i):
        """The first ``fit_events`` events of stream i, on [0, t_n]."""
        with open(self.streams.get(i, os.path.join(self.dir, "missing"))) as f:
            events = [np.asarray(e, float) for e in json.load(f)["events"]]
        merged = np.sort(np.concatenate(events))
        n = self.w.fit_events
        if merged.size < n:
            raise ValueError(f"stream has {merged.size} events, fewer than {n}")
        t_cut = float(merged[n - 1])
        events = [e[e <= t_cut] for e in events]
        path = os.path.join(self.dir, f"fit_input{i}.json")
        with open(path, "w") as f:
            json.dump({"d": len(events), "T": t_cut,
                       "events": [e.tolist() for e in events]}, f)
        return path, Sweep(events, t_cut, 1.0)

    def fit(self, i):
        """Both fits of stream i."""
        try:
            path, sweep = self.fit_input(i)
        except (ValueError, OSError) as exc:
            for step in ("fit_ls", "fit_ll"):
                self.op(step, [f"no fit input: {exc}"], errored=True)
            return
        self.stream_events += sweep.n_events
        for step, loss in (("fit_ls", "least-squares"), ("fit_ll", "log-likelihood")):
            out_dir = os.path.join(self.dir, f"{step}{i}")
            res = self.timed(step, self.cli, [
                "fit", "--events", path, "--procedure", "wL1Nuclear", "--loss", loss,
                "--c1", FIT_C1, "--c2", FIT_C2, "--tau", FIT_TAU, "--out-dir", out_dir])
            results = self.bench.capture.take("hawkesnet.cli.fit_hawkes")
            if self.ran(step, res is not None and res[0] == 0 and len(results) == 1,
                        f"fit failed: {res and res[2]}"):
                self.check(step, self.check_fit, out_dir, loss, sweep, results[0][2])

    def check_fit(self, out_dir, loss, sweep, result):
        fails = []
        mu = np.atleast_1d(np.loadtxt(os.path.join(out_dir, "mu_hat.csv")))
        A = np.atleast_2d(np.loadtxt(os.path.join(out_dir, "A_hat.csv"), delimiter=","))
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(A))
                and mu.min() >= 0 and A.min() >= 0):
            fails.append("estimate not finite and nonnegative")
        w_ref, W_ref = sweep.practical_weights(FIT_C1, FIT_C2)
        w = np.atleast_1d(np.loadtxt(os.path.join(out_dir, "weights_mu.csv")))
        W = np.atleast_2d(np.loadtxt(os.path.join(out_dir, "weights_A.csv"), delimiter=","))
        if not (close(w, w_ref) and close(W, W_ref)):
            fails.append("written weights differ from the reference practical weights")
        smooth = sweep.ls_risk if loss == "least-squares" else sweep.neg_loglik
        objective = penalised_objective(smooth(mu, A)[0], mu, A, w_ref, W_ref, FIT_TAU)
        least = min(result.objective_trace)
        if not close(objective, least):
            fails.append(f"objective at the estimate {objective!r} != least traced {least!r}")
        # the solver's starting point: zero, or counts / T for the log-likelihood
        mu0 = np.zeros(sweep.d) if loss == "least-squares" \
            else np.maximum(sweep.counts / sweep.T, 1e-10)
        A0 = np.zeros((sweep.d, sweep.d))
        start = penalised_objective(smooth(mu0, A0)[0], mu0, A0, w_ref, W_ref, FIT_TAU)
        if not objective < start:
            fails.append(f"objective {objective!r} not below the start {start!r}")
        return fails

    # -- step 3: study replications --------------------------------------------
    def study(self, i):
        """Replication i."""
        hn, capture = self.bench.hn, self.bench.capture
        if self.study_cfgs is None:
            self.study_cfgs = study_inputs(hn, self.w.study, self.seeds)
        cfgs, (params, support) = self.study_cfgs
        rows = self.timed("study", hn.experiment.run_experiment, cfgs[i])
        cvs = capture.take("hawkesnet.experiment.cross_validate")
        nopen = capture.take("hawkesnet.experiment.fit_hawkes")
        held = capture.take("hawkesnet.solver.heldout_loglik")
        if rows is None or [r["procedure"] for r in rows] != list(PROCEDURES) \
                or len(cvs) != 4 or len(nopen) != 1:
            for p in PROCEDURES + ("loss_check",):
                self.op("study." + p, ["study did not return one row per procedure"],
                        errored=rows is None)
            return
        data = cvs[0][0][0]
        self.stream_events += data.total_events()
        self.check_rows(rows, [nopen[0][2]] + [cv[2].fit for cv in cvs],
                        cvs, held, params, support)
        self.check("study.loss_check", self.check_losses, data, params)

    def check_rows(self, rows, estimates, cvs, held, params, support):
        offset = 0
        for i, (row, est) in enumerate(zip(rows, estimates)):
            n = len(cvs[i - 1][2].scores) if i > 0 else 0
            self.check("study." + row["procedure"], self.check_row, i, row, est, cvs,
                       held[offset:offset + n], params, support)
            offset += n

    def check_row(self, i, row, est, cvs, held, params, support):
        fails = []
        err = relative_error(est.mu, est.A, params.mu, params.A)
        area = auc(est.A, support)
        if not (close(row["error"], err) and close(row["auc"], area)):
            fails.append(f"error/AUC {row['error']}/{row['auc']} != reference {err}/{area}")
        if i > 0:
            args, _, cv = cvs[i - 1]
            fails += self.check_cv(args[0], float(params.alpha.flat[0]), row, cv, held)
            if not (err < 1 and area > 0.5):
                fails.append(f"penalised fit no better than zero: error {err}, AUC {area}")
        return fails

    def check_cv(self, data, alpha, row, cv, held):
        fails = []
        scores = [s[3] for s in cv.scores]
        first_best = cv.scores[int(np.argmax(scores))][:3]
        if tuple(cv.best) != tuple(first_best) or \
                (row["c1"], row["c2"], row["tau"]) != tuple(cv.best):
            fails.append(f"best {cv.best} is not the first argmax {first_best}")
        if len(held) != len(scores):
            return fails + ["held-out scoring calls do not match the grid"]
        T = data.horizon_T
        test = Sweep(window(data.events, T / 2, T / 2), T / 2, alpha)
        for (args, _, _), score in zip(held, scores):
            ref = test.heldout_loglik(args[0], args[1])
            if not close(score, ref):
                fails.append(f"held-out log-likelihood {score!r} != reference {ref!r}")
                break
        return fails

    def check_losses(self, data, params):
        """Program loss and gradient against the reference at a seeded point."""
        loss = self.bench.hn.loss
        rng = np.random.default_rng(self.seeds[5])
        d = data.d
        mu = rng.uniform(0.01, 0.1, d)
        A = rng.uniform(0.0, 0.05, (d, d)) * (rng.uniform(size=(d, d)) < 0.3)
        sweep = Sweep(data.events, data.horizon_T, float(params.alpha.flat[0]))
        ls = loss.least_squares(mu, A, loss.precompute_gram(data, params.alpha))
        nll = loss.neg_log_likelihood_cached(mu, A, loss.build_loglik_cache(data, params.alpha))
        fails = []
        for name, prog, ref in (("least_squares", ls, sweep.ls_risk(mu, A)),
                                ("neg_log_likelihood_cached", nll, sweep.neg_loglik(mu, A))):
            if not (close(prog.value, ref[0]) and close(prog.grad_mu, ref[1])
                    and close(prog.grad_A, ref[2])):
                fails.append(f"{name} differs from the reference")
        return fails

    # -- step 4: the two bound checks ------------------------------------------
    def bounds(self, k):
        """Batch k: BOUND_REPS replications of each check."""
        b = self.bench.hn.bounds
        R = BOUND_REPS

        def batch(seed):
            return (b.check_pointwise_bound(b.default_bound_params(POINTWISE_D), BOUND_T,
                                            POINTWISE_X, R, seed),
                    b.check_opnorm_bound(b.default_bound_params(OPNORM_D), BOUND_T,
                                         OPNORM_X, R, seed + 1))
        reports = self.timed("bounds", batch, self.seeds[6] + 2 * k)
        self.bound_rates.append(2 * R / self.samples["bounds"][-1])
        noise = self.bench.capture.take("hawkesnet.bounds.compute_noise")
        for i, name in enumerate(("bounds.pointwise", "bounds.opnorm")):
            if reports is None or len(noise) != 2 * R:
                self.op(name, ["bound check did not run its replications"],
                        errored=reports is None)
            else:
                self.check(name, self.check_bound, reports[i], noise[i * R:(i + 1) * R])

    def check_bound(self, report, noise):
        fails = []
        m_sum = n_sum = 0.0
        for (params, data), _, out in noise:
            sweep = Sweep(data.events, data.horizon_T, float(params.alpha.flat[0]))
            self.stream_events += sweep.n_events
            Z, M = sweep.noise(params.mu, params.A)
            if not (close(out.Z, Z) and close(out.M_T, M)
                    and close(out.opnorm_Z, np.linalg.norm(Z, 2))):
                return ["compute_noise differs from the reference Z / M_T"]
            m_sum += M.sum()
            n_sum += sweep.n_events
        # sum_j M_j(T) is a martingale with variance E[N(T)]; |z| < 5 has
        # probability 1 - 6e-7 under the true model
        z = m_sum / math.sqrt(n_sum)
        if abs(z) >= 5:
            fails.append(f"compensated counts do not have mean 0 (z = {z:.2f})")
        k, n = report.violation_count, report.n_reps
        if n != len(noise) or report.empirical_rate != k / n:
            fails.append("replication count or rate inconsistent")
        if not close(report.wilson_ci, wilson_interval(k, n), rel=1e-12):
            fails.append(f"Wilson interval {report.wilson_ci} != {wilson_interval(k, n)}")
        if not report.holds:
            fails.append(f"{report.bound_id} bound does not hold: {report.as_dict()}")
        return fails

    def run(self):
        for step, j in self.w.schedule():
            getattr(self, step)(j)
        return self


class Bench:
    """Runs rounds of one workload; ``tracer`` is set for the traced pass."""

    def __init__(self, hn, workload: str, seed: int, workdir: str, capture, log):
        self.hn = hn
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.capture = capture
        self.log = log
        self.tracer = None
        self.setup_times = []

    def setup_inputs(self, hn, seeds):
        """What a round needs before its first step: every ground truth."""
        return (sim_inputs(self.workload, seeds),
                study_inputs(hn, self.workload.study, seeds))

    def round_count(self, seconds: float) -> int:
        """Whole rounds, at least one, that take nearest to ``seconds`` on the
        reference machine.  The count does not follow the clock of the run:
        every run of a workload does the same rounds, and a slow stretch of
        the machine does not cost a run half of its samples."""
        return max(1, round(seconds / self.workload.round_s))

    def rounds(self, count: int) -> list:
        return [Round(self, i).run() for i in range(count)]
