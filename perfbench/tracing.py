"""Spans around calls into the program, recorded from the benchmark's side.

A wrapper goes on the name each calling module looks up at call time:
``solver`` does ``from .loss import least_squares``, so the span for the
loss sits on ``hawkesnet.solver.least_squares``, not on ``hawkesnet.loss``.
Spans (name, start, end, parent) are kept in memory and written out when
the run ends.  Counts are read from return values.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np


def _events_of(attr):
    def count(counts, name, out):
        counts[name + ".events"] += int(np.sum(getattr(out, attr)))
    return count


def _sim_events(counts, name, out):
    counts["simulate.events"] += out.total_events()


def _fit_counts(counts, name, out):
    counts["solver.iterations"] += out.iterations_used
    counts["solver.fits_unconverged"] += not out.converged


def _cv_points(counts, name, out):
    counts["solver.cv_grid_points"] += len(out.scores)


def targets(m):
    """(module, attribute, span name, counter) for every wrapped call site;
    ``m`` holds the program's modules by name."""
    return [
        (m.cli, "main", "cli", None),
        (m.cli, "simulate", "simulate.simulate", _sim_events),
        (m.simulate, "simulate", "simulate.simulate", _sim_events),
        (m.cli, "compute_stats", "features.compute_stats", _events_of("node_counts")),
        (m.solver, "compute_stats", "features.compute_stats", _events_of("node_counts")),
        (m.bounds, "compute_stats", "features.compute_stats", _events_of("node_counts")),
        (m.solver, "precompute_gram", "loss.precompute_gram", _events_of("counts")),
        (m.bounds, "precompute_gram", "loss.precompute_gram", _events_of("counts")),
        (m.solver, "build_loglik_cache", "loss.build_loglik_cache", _events_of("counts")),
        (m.solver, "least_squares", "loss.least_squares", None),
        (m.solver, "neg_log_likelihood_cached", "loss.neg_log_likelihood_cached", None),
        (m.solver, "prox_trace", "penalty.prox_trace", None),
        (m.solver, "pen_value", "penalty.pen_value", None),
        (m.solver, "prox_l1_nonneg", "penalty.prox_l1_nonneg", None),
        (np.linalg, "svd", "numpy.svd", None),
        (m.cli, "fit_hawkes", "solver.fit_hawkes", None),
        (m.experiment, "fit_hawkes", "solver.fit_hawkes", None),
        (m.solver, "fit_fista", "solver.fit_fista", _fit_counts),
        (m.solver, "fit_prisma", "solver.fit_prisma", _fit_counts),
        (m.experiment, "cross_validate", "solver.cross_validate", _cv_points),
        (m.solver, "heldout_loglik", "solver.heldout_loglik", None),
        (m.bounds, "compute_noise", "bounds.compute_noise", None),
        (m.bounds, "check_pointwise_bound", "bounds.check", None),
        (m.bounds, "check_opnorm_bound", "bounds.check", None),
        (m.experiment, "run_one", "experiment.run_one", None),
        (m.experiment, "evaluate", "metrics.evaluate", None),
        (m.io, "read_events", "io.read_events", None),
        (m.io, "write_events_json", "io.write_events_json", None),
    ]


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr, make_wrapper):
        orig = getattr(module, attr)
        self._saved.append((module, attr, orig))
        setattr(module, attr, functools.wraps(orig)(make_wrapper(orig)))

    def restore(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)


class Capture(Patches):
    """Keeps the arguments and return value of every call to a wrapped name."""

    def __init__(self):
        super().__init__()
        self.calls = defaultdict(list)

    def on(self, module, attr):
        key = f"{module.__name__}.{attr}"

        def make(orig):
            def wrapper(*args, **kwargs):
                out = orig(*args, **kwargs)
                self.calls[key].append((args, kwargs, out))
                return out
            return wrapper
        self.replace(module, attr, make)

    def take(self, key) -> list:
        """The calls recorded under ``key`` since the last take."""
        return self.calls.pop(key, [])


class Tracer(Patches):
    def __init__(self):
        super().__init__()
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` in a root span; only calls under a root span are recorded,
        so the benchmark's own checks stay out of the trace."""
        return self._traced(name, fn, None, root=True)(*args, **kwargs)

    def _traced(self, name, orig, counter, root=False):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            if not stack and not root:
                return orig(*args, **kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = t0, t1
            counts[name + ".calls"] += 1
            if counter is not None:
                counter(counts, name, out)
            return out
        return wrapper

    def install(self, hn):
        for module, attr, name, counter in targets(hn):
            self.replace(module, attr,
                         lambda orig, n=name, c=counter: self._traced(n, orig, c))

    def self_times(self) -> dict:
        """Self seconds by span name, over all steps."""
        out = defaultdict(float)
        for layers in self.by_step().values():
            for name, (seconds, _) in layers.items():
                out[name] += seconds
        return out

    def by_step(self) -> dict:
        """{root span name: {span name: [self seconds, calls]}}; a span's self
        time is its duration less the part its child spans cover."""
        root, child = [], [0.0] * len(self.spans)
        for i, (_, t0, t1, parent) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        for i, (name, t0, t1, _) in enumerate(self.spans):
            cell = out[self.spans[root[i]][0]][name]
            cell[0] += (t1 - t0) - child[i]
            cell[1] += 1
        return out

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as f:
            json.dump({"names": names,
                       "columns": ["name", "start", "end", "parent"],
                       "spans": [[index[n], t0, t1, p]
                                 for n, t0, t1, p in self.spans]}, f)
