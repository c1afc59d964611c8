"""Run one benchmark workload against the program in ../src and print its metrics.

    python3 perfbench/run.py --workload study-exact --seed 1 --seconds 30 --trace 0

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run.  Earlier lines
give a readable summary and the run metadata.  A result file, and on traced
runs the span file, are written under .bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_p90_s": "s", "hycim_p90_s": "s", "dqubo_p90_s": "s",
                    "peak_rss_mib": "MiB"}


def import_program():
    """Import numpy and the program from this checkout's src; return the seconds taken.

    BLAS runs on one thread unless the environment says otherwise: the
    benchmark measures the single-process (jobs=1) path, and a second BLAS
    thread competes with the rest of the machine."""
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    start = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy  # noqa: F401
        import cimqubo
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {src}: {exc}") from None
    if Path(cimqubo.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: imported cimqubo from {cimqubo.__file__}, not from {src}")
    return time.perf_counter() - start


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_passes(workload, budget, tracers):
    """Timed passes until the next one would overrun the budget.

    Pass p runs slot (p // len(tracers)) % workload.slots under tracer
    p % len(tracers): with an untraced and a traced tracer, each slot runs
    once untraced and then once traced.  Every slot runs at least once under
    every tracer.  Returns one list of passes per tracer."""
    from spans import PASS_SPAN

    rounds = len(tracers)
    passes = [[] for _ in tracers]
    start = time.perf_counter()
    for p in itertools.count():
        tracer = tracers[p % rounds]
        with tracer.installed():
            t0 = time.perf_counter()
            with tracer.span(PASS_SPAN):
                result = workload.run_pass((p // rounds) % workload.slots)
            result.seconds = time.perf_counter() - t0
        passes[p % rounds].append(result)
        done = p + 1 >= rounds * workload.slots and (p + 1) % rounds == 0
        if done and time.perf_counter() - start + result.seconds > budget:
            return passes


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(import_s, setup_times, passes):
    """Set-up time is a median; pass times are 90th percentiles over passes.

    The host's speed drifts between a contended and a faster uncontended
    state for 10-20 s at a time.  A 30 s run lands in the fast state for a
    varying share of its passes, which moves the median; the upper tail is
    set by the contended state that every run reaches."""
    import numpy as np

    def p90(values):
        return float(np.percentile(list(values), 90))

    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "wall_p90_s": p90(p.seconds for p in passes),
        "hycim_p90_s": p90(p.mode_seconds["hycim"] for p in passes),
        "dqubo_p90_s": p90(p.mode_seconds["dqubo"] for p in passes),
        "peak_rss_mib": peak_rss_mib(),
    }
    samples = {"setup_s": len(setup_times), "peak_rss_mib": 1}
    samples.update(dict.fromkeys(("wall_p90_s", "hycim_p90_s", "dqubo_p90_s"), len(passes)))
    medians = {f"{mode}_median_s": statistics.median(p.mode_seconds[mode] for p in passes)
               for mode in ("hycim", "dqubo")}
    medians["wall_median_s"] = statistics.median(p.seconds for p in passes)
    return values, samples, medians


def layer_metrics(index, base, traced, quality, dqubo_peak_mib):
    """Per-layer figures from the traced passes; see README.md for each."""
    import numpy as np

    med = statistics.median
    values, samples, units = {}, {}, {}

    def put(name, value, unit, n):
        values[name], units[name], samples[name] = float(value), unit, n

    def per_call(name, names, scale, unit):
        d = [index.duration[i] for i in index.select(names, in_pass=False)]
        put(name, med(d) * scale if d else 0.0, unit, len(d))

    def per_pass(name, names, scale, unit):
        totals = index.inclusive_per_pass(names)
        put(name, med(totals) * scale, unit, len(totals))

    def first_pass(spans):
        return [i for i in spans if index.pass_of[i] == index.passes[0]]

    pass_seconds = [index.duration[p] for p in index.passes]
    per_call("qkp.generate_ms", "qkp.generate_instance", 1e3, "ms/call")
    per_call("qkp.oracle_s", "qkp.brute_force_oracle", 1.0, "s/call")
    per_pass("qkp.io_ms", {"qkp.dump_instance", "qkp.parse_instance", "qkp.load_instance"}, 1e3, "ms/pass")
    per_pass("transform.build_ineq_ms", {"transform.build_inequality_qubo"}, 1e3, "ms/pass")
    per_pass("transform.build_dqubo_ms", {"transform.build_dqubo"}, 1e3, "ms/pass")
    per_pass("transform.quantize_ms", {"transform.quantization_info"}, 1e3, "ms/pass")
    per_pass("transform.qubo_json_ms", {"transform.dump_qubo_json", "transform.load_qubo_json"}, 1e3, "ms/pass")
    put("transform.dqubo_peak_mib", dqubo_peak_mib, "MiB", 1)

    batches = [(i, index.attr(i)) for i in index.select("anneal.batch_solve")]
    for backend, tag in (("exact-software", "exact"), ("behavioral-cim", "cim")):
        for mode in ("hycim", "dqubo"):
            rows = [(i, a) for i, a in batches if a["backend"] == backend and a["mode"] == mode]
            iters = sum(a["iterations"] for _, a in rows)
            busy = sum(index.duration[i] for i, _ in rows)
            put(f"anneal.{tag}.{mode}_iter_ns", busy / iters * 1e9 if iters else 0.0, "ns/iter", iters)
    hycim = [a for _, a in batches if a["mode"] == "hycim"]
    h_iters = sum(a["iterations"] for a in hycim)
    put("anneal.hycim_gate_frac", sum(a["rejections"] for a in hycim) / h_iters if h_iters else 0.0,
        "fraction", h_iters)
    put("anneal.hycim_eval_frac", sum(a["evaluations"] for a in hycim) / h_iters if h_iters else 0.0,
        "fraction", h_iters)
    first = [index.attr(i) for i in first_pass(index.select("anneal.batch_solve"))]
    put("anneal.runs", sum(a["runs"] for a in first), "count", 1)
    put("anneal.iterations", sum(a["iterations"] for a in first), "count", 1)
    for name in ("hycim_success", "dqubo_success", "hycim_value_ratio", "dqubo_value_ratio"):
        put(f"anneal.{name}", quality.get(f"anneal.{name}", 0.0), "fraction", 1)

    reads = index.select("crossbar.vmv_energy")
    read_us = np.array([index.duration[i] for i in reads]) * 1e6
    per_pass("crossbar.program_ms", {"crossbar.program_crossbar"}, 1e3, "ms/pass")
    put("crossbar.reads", len(first_pass(reads)), "count", 1)
    put("crossbar.read_us", np.median(read_us) if reads else 0.0, "us/read", len(reads))
    put("crossbar.read_p99_us", np.percentile(read_us, 99) if reads else 0.0, "us/read", len(reads))
    put("crossbar.cells_per_read", np.mean([index.attr(i) for i in reads]) if reads else 0.0,
        "cells/read", len(reads))

    checks = index.select("filter.filter_check")
    per_pass("filter.build_ms", {"filter.build_filter"}, 1e3, "ms/pass")
    put("filter.checks", len(first_pass(checks)), "count", 1)
    put("filter.check_us", med(index.duration[i] for i in checks) * 1e6 if checks else 0.0,
        "us/check", len(checks))
    put("filter.reject_frac", sum(not index.attr(i) for i in checks) / len(checks) if checks else 0.0,
        "fraction", len(checks))
    per_pass("filter.suite_ms", {"bench.filter_suite"}, 1e3, "ms/pass")

    study_self = index.per_pass((i, index.self_time[i]) for i in index.select("bench.success_rate_study"))
    put("bench.study_self_s", med(study_self), "s/pass", len(study_self))
    per_pass("bench.overhead_ms", {"bench.overhead_report"}, 1e3, "ms/pass")
    for cmd in ("transform", "overhead"):
        mains = [i for i in index.select("cli.main") if index.attr(i) == cmd]
        totals = index.per_pass((i, index.duration[i]) for i in mains)
        put(f"cli.{cmd}_ms", med(totals) * 1e3, "ms/pass", len(totals))

    layers = index.layer_self_per_pass()
    for layer in ("qkp", "transform", "anneal", "crossbar", "filter", "bench", "cli"):
        own = layers.get(layer, [0.0] * len(pass_seconds))
        put(f"{layer}.self_share", med(s / t for s, t in zip(own, pass_seconds)), "fraction", len(own))
    put("trace.overhead_frac", med(p.seconds for p in traced) / med(p.seconds for p in base) - 1.0,
        "fraction", len(traced))
    return values, samples, units


def measure_dqubo_peak(workload):
    """tracemalloc peak of one penalty build on the workload's largest instance."""
    from cimqubo import transform

    tracemalloc.start()
    try:
        transform.build_dqubo(workload.dqubo_probe())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def make_workload(name, seed, workdir):
    from workloads import WORKLOADS, Compile100

    if name not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    cls = WORKLOADS[name]
    return cls(seed, workdir) if cls is Compile100 else cls(seed)


def run(workload, seconds, trace, import_s=0.0):
    """Set up, measure and check one workload.

    Returns (tally, metrics, samples, units, extra, tracer)."""
    from checks import Tally, check_trace_counts
    from spans import NullTracer, SpanIndex, Tracer

    tracer = Tracer() if trace else NullTracer()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        with tracer.installed():
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
    if trace:  # untraced and traced passes alternate, for the tracing overhead
        base, traced = run_passes(workload, seconds, [NullTracer(), tracer])
        passes = base + traced
    else:
        (passes,) = run_passes(workload, seconds, [tracer])

    tally = Tally()
    try:
        workload.check(tally, passes)
    except Exception as exc:  # a crash while checking fails the run, it does not hide it
        tally.check(False, f"check raised {type(exc).__name__}: {exc}")
    quality = workload.quality(passes)
    extra = {"setup_times_s": setup_times, "pass_seconds": [p.seconds for p in passes],
             "quality": quality}
    if trace:
        index = SpanIndex(tracer.spans)
        check_trace_counts(tally, index)
        metrics, samples, units = layer_metrics(index, base, traced, quality, measure_dqubo_peak(workload))
        extra["span_count"] = len(tracer.spans)
    else:
        metrics, samples, extra["pass_medians"] = end_to_end_metrics(import_s, setup_times, passes)
        units = END_TO_END_UNITS
    return tally, metrics, samples, units, extra, tracer


def main(argv=None):
    args = parse_args(argv)
    import_s = import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"work-{stem}-", dir=OUT_DIR)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        tally, metrics, samples, units, extra, tracer = run(workload, args.seconds, args.trace, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        spans_path = OUT_DIR / f"{stem}.spans.csv.gz"
        tracer.write(spans_path)
        extra["spans_file"] = str(spans_path.relative_to(ROOT))

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": git_commit(), "jobs": 1, "samples": samples,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, **extra, "failures": tally.failures[:50]}, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(extra['pass_seconds'])} setup_repeats={len(extra['setup_times_s'])}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]:10s} (n={samples[name]})")
    for name, value in extra.get("pass_medians", {}).items():
        print(f"  {name:28s} {value:14.6g} s")
    for name, value in extra["quality"].items():
        print(f"  {name:28s} {value:14.6g} fraction")
    print(f"  {'fail_frac':28s} {tally.failed / max(tally.attempted, 1):14.6g} fraction "
          f"({tally.failed}/{tally.attempted})")
    for failure in tally.failures[:10]:
        print(f"  FAIL {failure}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
