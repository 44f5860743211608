"""Span tracer that wraps scalereg's functions from outside the package.

``Tracer.install`` replaces each function in ``LAYERS`` by a timing
wrapper at every scalereg module that binds it (``from .sampling import
estimate`` in harness gives a second binding of ``estimate``), so calls
are seen whichever module makes them.  A layer that no longer exists is
reported as missing rather than read as zero time.

Spans live in memory as ``[name, start, end, parent, trial]`` and are
written out only after the run.  Spans of one Monte Carlo trial share a
trial id: a rate trial starts at ``sample_dataset`` and lasts until the
next one; a coverage trial is one call of diagnostics' per-trial helper.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = (
    "sampling.sample_dataset", "model.forward_eval",
    "sampling.design_matrix", "sampling.crossprod", "sampling.gram",
    "sampling.estimate", "filters.filter_values", "sampling.errors",
    "diagnostics.montecarlo_coverage_batch", "effdim.effdim",
    "lambda_rules.LambdaRule.resolve", "harness.PowerProblemSpec.build",
    "harness.run_rate_experiment",
    "reporting.write_json", "reporting.write_rate_csv",
    "reporting.write_bounds_csv", "reporting.write_manifest",
    "svgplot.write_loglog_svg",
)
ROOT = "cli.main"
TRIAL_START = "sampling.sample_dataset"
# one coverage trial; grouping only, it gets no span of its own
TRIAL_SCOPE = "diagnostics._trial_values"
ROUTES = ("primal", "dual_gram", "dual_svd")

_NAME, _START, _END, _PARENT, _TRIAL = range(5)


def _design_entries(counts, args, result):
    counts["sampling.design_matrix.entries"] += result.size


def _crossprod_flops(counts, args, result):
    m, d = args[0].shape
    counts["sampling.crossprod.flops"] += m * d * d


def _gram_flops(counts, args, result):
    m, d = args[0].shape
    counts["sampling.gram.flops"] += m * m * d


_COUNTERS = {"sampling.design_matrix": _design_entries,
             "sampling.crossprod": _crossprod_flops,
             "sampling.gram": _gram_flops}


def _resolve(package: str, dotted: str):
    """(owner, attribute) of ``module.[Class.]function``, or None."""
    modname, _, qual = dotted.partition(".")
    owner = sys.modules.get(f"{package}.{modname}")
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self.bindings = {}
        self._stack = []   # (span index, names of its children)
        self._trial = None
        self._trials = 0

    # ------------------------------------------------------------ patching

    def install(self, package: str = "scalereg") -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None
                   and (n == package or n.startswith(package + "."))]
        for layer in LAYERS + (TRIAL_SCOPE,):
            found = _resolve(package, layer)
            if found is None:
                self.missing.append(layer)
                continue
            owner, attr = found
            original = vars(owner)[attr]
            wrapper = (self._scoped(original) if layer == TRIAL_SCOPE
                       else self._wrapped(layer, original))
            if isinstance(owner, type):
                sites = [(owner, attr)]
            else:
                sites = [(mod, name) for mod in modules
                         for name, val in list(vars(mod).items())
                         if val is original]
            for site, name in sites:
                setattr(site, name, wrapper)
            self.bindings[layer] = sorted(
                f"{getattr(s, '__name__', s)}.{n}" for s, n in sites)

    def _wrapped(self, name, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def _scoped(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._trials += 1
            outer, self._trial = self._trial, self._trials
            try:
                return fn(*args, **kwargs)
            finally:
                self._trial = outer

        return wrapper

    # --------------------------------------------------------------- spans

    def _open(self, name: str) -> int:
        if name == TRIAL_START:
            self._trials += 1
            self._trial = self._trials
        parent = None
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][1].add(name)
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self._trial])
        idx = len(self.spans) - 1
        self._stack.append((idx, set()))
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][_END] = time.perf_counter()
        top, children = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][_NAME]} closed out "
                               "of order")
        if self.spans[idx][_NAME] == "sampling.estimate":
            # the route is read off the child that ran; the SVD route
            # forms its spectrum inline and has neither product child
            if "sampling.crossprod" in children:
                route = "primal"
            elif "sampling.gram" in children:
                route = "dual_gram"
            else:
                route = "dual_svd"
            self.counts[f"sampling.estimate.route.{route}"] += 1
        if len(self._stack) == 1:
            self._trial = None

    @contextmanager
    def root(self):
        """Span around one CLI command; yields its span index."""
        self.counts = Counter()
        idx = self._open(ROOT)
        try:
            yield idx
        finally:
            self._close(idx)
            self._trial = None

    # ------------------------------------------------------------ analysis

    def summarize(self, root: int, counts: Counter) -> dict:
        """Per-layer calls, busy and self time of one CLI run."""
        end = len(self.spans)
        for j in range(root + 1, len(self.spans)):
            if self.spans[j][_PARENT] is None:
                end = j
                break
        child_time = Counter()
        bad_nesting = 0
        for j in range(root + 1, end):
            name, start, stop, parent, _ = self.spans[j]
            p = self.spans[parent]
            if start < p[_START] or stop > p[_END]:
                bad_nesting += 1
            child_time[parent] += stop - start
        calls, busy, self_s = Counter(), Counter(), Counter()
        for j in range(root + 1, end):
            name, start, stop = self.spans[j][:3]
            calls[name] += 1
            busy[name] += stop - start
            own = stop - start - child_time[j]
            if own < -1e-9:
                bad_nesting += 1
            self_s[name] += own
        wall = self.spans[root][_END] - self.spans[root][_START]
        trials = {self.spans[j][_TRIAL] for j in range(root + 1, end)}
        trials.discard(None)
        return {"wall_s": wall,
                "unattributed_s": wall - child_time[root],
                "attributed_s": sum(self_s.values()),
                "spans": end - root,
                "trials": len(trials),
                "bad_nesting": bad_nesting,
                "calls": dict(calls), "busy_s": dict(busy),
                "self_s": dict(self_s), "counts": dict(counts)}

    def dump(self) -> list:
        t0 = self.spans[0][_START] if self.spans else 0.0
        return [{"id": i, "name": s[_NAME], "start": s[_START] - t0,
                 "end": s[_END] - t0, "parent": s[_PARENT], "trial": s[_TRIAL]}
                for i, s in enumerate(self.spans)]


def self_check(summaries: list, workload, missing: list) -> list:
    """Reasons the trace cannot be trusted on this workload (empty: ok)."""
    problems = [f"layer {name} not found in scalereg" for name in missing
                if name != TRIAL_SCOPE]
    for k, s in enumerate(summaries):
        calls, counts = s["calls"], s["counts"]
        for name in sorted(workload.expected):
            if not calls.get(name):
                problems.append(f"run {k}: expected span {name} recorded "
                                "zero calls")
        for name in sorted(workload.forbidden):
            if calls.get(name):
                problems.append(f"run {k}: span {name} fired "
                                f"{calls[name]} times on {workload.name}")
        for route in ROUTES:
            n = counts.get(f"sampling.estimate.route.{route}", 0)
            if (route in workload.routes) != (n > 0):
                problems.append(f"run {k}: estimate route {route} ran "
                                f"{n} times")
        if s["bad_nesting"]:
            problems.append(f"run {k}: {s['bad_nesting']} spans escape "
                            "their parent or have negative self time")
        if s["unattributed_s"] < 0:
            problems.append(f"run {k}: negative unattributed time")
    exact = [(s["calls"], s["counts"]) for s in summaries]
    if any(e != exact[0] for e in exact[1:]):
        problems.append("call or work counts differ between runs")
    return problems

