"""Tests of the benchmark itself: its checks catch corrupted outputs, its
printed metric names match BENCHMARK.json, and every workload completes at
a minimal size.  Run with `python3 -m pytest perfbench`."""
import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

from cimqubo import anneal, crossbar_sim, filter_sim, qkp, transform  # noqa: E402

import workloads  # noqa: E402
from checks import Tally, check_reads, check_records, check_trace_counts, check_verdicts  # noqa: E402
from spans import SpanIndex, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def small():
    return qkp.generate_instance(8, density=0.5, wmax=10, pmax=20, seed=4)


def _tally(fn, *args):
    t = Tally()
    fn(t, *args)
    return t


@pytest.mark.parametrize("mode", ["hycim", "dqubo"])
def test_corrupted_record_fails_the_checks(small, mode):
    records = anneal.batch_solve(small, mode, 3, 2, master_seed=9)
    build = transform.build_inequality_qubo if mode == "hycim" else transform.build_dqubo
    qubo = build(small).qubo
    good = _tally(check_records, small, records, workloads.ITERATIONS, qubo)
    assert good.attempted == len(records) and good.failed == 0

    rec = records[2]
    for change in ({"best_qkp_value": rec.best_qkp_value + 1},
                   {"evaluations": rec.evaluations - 1},
                   {"filter_rejections": rec.filter_rejections + 1},
                   {"best_energy": rec.best_energy - 1}):
        bad = records[:2] + [dataclasses.replace(rec, **change)] + records[3:]
        assert _tally(check_records, small, bad, workloads.ITERATIONS, qubo).failed == 1, change


def test_corrupted_read_or_verdict_fails_the_checks(small):
    model = transform.build_inequality_qubo(small)
    xbar = crossbar_sim.program_crossbar(model.qubo)
    configs = [[(k >> i) & 1 for i in range(small.n)] for k in range(0, 256, 7)]
    reads = [crossbar_sim.vmv_energy(xbar, x) for x in configs]
    assert _tally(check_reads, model.qubo, configs, reads).failed == 0
    bad = reads[:]
    bad[3] = dataclasses.replace(bad[3], exact_value=bad[3].exact_value - 1)
    assert _tally(check_reads, model.qubo, configs, bad).failed == 1
    assert _tally(check_reads, model.qubo, configs, reads[:-1]).failed == 1

    filt = filter_sim.build_filter(small.weights, small.capacity)
    verdicts = [filter_sim.filter_check(filt, x).feasible for x in configs]
    assert _tally(check_verdicts, small.weights, small.capacity, configs, verdicts).failed == 0
    verdicts[5] = not verdicts[5]
    assert _tally(check_verdicts, small.weights, small.capacity, configs, verdicts).failed == 1


def test_corrupted_trace_count_fails_the_checks(small):
    tracer = Tracer()
    with tracer.installed():
        for mode in ("hycim", "dqubo"):
            anneal.batch_solve(small, mode, 2, 1, backend=anneal.BACKEND_CIM, master_seed=3)
    assert anneal.batch_solve.__name__ == "batch_solve" and not hasattr(anneal.batch_solve, "__wrapped__")
    index = SpanIndex(tracer.spans)
    assert _tally(check_trace_counts, index).failed == 0
    batch = index.select("anneal.batch_solve", in_pass=False)[0]
    tracer.spans[batch][4] = dict(tracer.spans[batch][4], evaluations=tracer.spans[batch][4]["evaluations"] - 5)
    assert _tally(check_trace_counts, SpanIndex(tracer.spans)).failed == 1


def _minimal(name, tmp_path):
    return {
        "study-exact": lambda: workloads.StudyExact(5, instances=1, initials=2, runs=2),
        "study-cim": lambda: workloads.StudyCim(5, instances=1, initials=1, runs=2, verify_instances=1),
        "compile-100": lambda: workloads.Compile100(5, str(tmp_path), reads=5, checks=20, suite=2,
                                                    suite_configs=4),
    }[name]()


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_completes_at_minimal_size_with_the_declared_metrics(name, trace, tmp_path):
    tally, metrics, samples, units, extra, _ = run.run(_minimal(name, tmp_path), 0.001, trace)
    assert tally.attempted > 0 and tally.failures == []
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == units
    assert list(metrics) == [m["name"] for m in declared]
    assert set(samples) == set(metrics)
    assert all(isinstance(v, float) for v in metrics.values())
    if not trace:
        assert all(v > 0 for v in metrics.values())
