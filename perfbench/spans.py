"""In-memory span tracing around the program's public functions.

A Tracer replaces each public function at every module that binds it with a
wrapper recording one span: name, start, end, parent span and, for a few
functions, a count read off the returned value.  Nothing inside the program
changes; the wrappers sit where callers look the functions up, so a call from
`bench.success_rate_study` into `batch_solve` is seen as a child span.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import inspect
import time
from collections import defaultdict

PASS_SPAN = "workload.pass"

_NAME, _START, _END, _PARENT, _ATTR = range(5)


def default_iterations():
    """Run length batch_solve uses when given no schedule."""
    from cimqubo import anneal

    return inspect.signature(anneal.default_schedule).parameters["iterations"].default


def _batch_attr(sig):
    default = default_iterations()

    def attr(records, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        schedule = bound.arguments["schedule"]
        iters = schedule.iterations if schedule is not None else default
        return {
            "mode": bound.arguments["mode"],
            "backend": bound.arguments["backend"],
            "runs": len(records),
            "iterations": iters * len(records),
            "rejections": sum(r.filter_rejections for r in records),
            "evaluations": sum(r.evaluations for r in records),
        }
    return attr


def patch_points():
    """(module, attribute, span name, count extractor) for every binding traced."""
    from cimqubo import anneal, bench, cli, crossbar_sim, filter_sim, qkp, transform

    cells = lambda out, a, k: out.activated_cells  # noqa: E731
    feasible = lambda out, a, k: out.feasible  # noqa: E731
    subcommand = lambda out, a, k: (a[0] if a else k["argv"])[0]  # noqa: E731
    batch = _batch_attr(inspect.signature(anneal.batch_solve))
    table = [
        ("qkp.generate_instance", [qkp], "generate_instance", None),
        ("qkp.brute_force_oracle", [qkp, bench], "brute_force_oracle", None),
        ("qkp.dump_instance", [qkp], "dump_instance", None),
        ("qkp.parse_instance", [qkp], "parse_instance", None),
        ("qkp.load_instance", [qkp, cli], "load_instance", None),
        ("transform.build_inequality_qubo", [transform, anneal, bench, cli], "build_inequality_qubo", None),
        ("transform.build_dqubo", [transform, anneal, bench, cli], "build_dqubo", None),
        ("transform.quantization_info", [transform, bench, cli], "quantization_info", None),
        ("transform.dump_qubo_json", [transform, cli], "dump_qubo_json", None),
        ("transform.load_qubo_json", [transform], "load_qubo_json", None),
        ("anneal.batch_solve", [anneal, bench], "batch_solve", batch),
        ("crossbar.program_crossbar", [crossbar_sim, anneal], "program_crossbar", None),
        ("crossbar.vmv_energy", [crossbar_sim, anneal], "vmv_energy", cells),
        ("filter.build_filter", [filter_sim, anneal, bench], "build_filter", None),
        ("filter.filter_check", [filter_sim, anneal, bench], "filter_check", feasible),
        ("bench.success_rate_study", [bench], "success_rate_study", None),
        ("bench.overhead_report", [bench, cli], "overhead_report", None),
        ("bench.filter_suite", [bench], "filter_suite", None),
        ("cli.main", [cli], "main", subcommand),
    ]
    return [(m, attr, name, count) for name, mods, attr, count in table for m in mods]


class NullTracer:
    """Stands in for a Tracer on untraced runs: no spans, no patches."""

    def span(self, name):
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def installed(self):
        yield


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, attr]
        self._stack = [-1]

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1], None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][_END] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx][_ATTR] = count(out, args, kwargs)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every patch point for its traced wrapper; restore on exit."""
        saved = []
        try:
            for module, attr, name, count in patch_points():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, count))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path):
        with gzip.open(path, "wt", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_ns", "end_ns", "parent", "attr"])
            for idx, (name, start, end, parent, attr) in enumerate(self.spans):
                writer.writerow([idx, name, start, end, parent, "" if attr is None else attr])


class SpanIndex:
    """Durations, self times and pass membership of a finished trace."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.duration = [(s[_END] - s[_START]) * 1e-9 for s in spans]
        child = [0.0] * n
        self.pass_of = [-1] * n
        for idx, s in enumerate(spans):
            parent = s[_PARENT]
            if parent >= 0:
                child[parent] += self.duration[idx]
                self.pass_of[idx] = self.pass_of[parent]
            elif s[_NAME] == PASS_SPAN:
                self.pass_of[idx] = idx
        self.self_time = [d - c for d, c in zip(self.duration, child)]
        self.passes = [i for i, s in enumerate(spans) if s[_NAME] == PASS_SPAN]

    def select(self, names, in_pass=True):
        names = {names} if isinstance(names, str) else set(names)
        return [i for i, s in enumerate(self.spans)
                if s[_NAME] in names and (self.pass_of[i] >= 0 or not in_pass)]

    def name(self, idx):
        return self.spans[idx][_NAME]

    def attr(self, idx):
        return self.spans[idx][_ATTR]

    def parent(self, idx):
        return self.spans[idx][_PARENT]

    def per_pass(self, values):
        """Sum (index, value) pairs per traced pass; every pass gets an entry."""
        totals = {p: 0.0 for p in self.passes}
        for idx, value in values:
            totals[self.pass_of[idx]] += value
        return list(totals.values())

    def inclusive_per_pass(self, names):
        """Time inside the named spans per pass, nested ones counted once."""
        names = set(names)
        # in-pass spans always have a parent: the pass span itself
        top = [i for i in self.select(names) if self.name(self.parent(i)) not in names]
        return self.per_pass((i, self.duration[i]) for i in top)

    def layer_self_per_pass(self):
        """{layer: [self seconds per pass]}, the layer being the span-name prefix."""
        layers = defaultdict(list)
        for i in range(len(self.spans)):
            if self.pass_of[i] < 0:
                continue
            layers[self.name(i).split(".", 1)[0]].append((i, self.self_time[i]))
        return {layer: self.per_pass(vals) for layer, vals in layers.items()}
