"""Overhead accounting, success-rate studies, filter studies, report files."""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from cimqubo import (
    CapacityError,
    FilterCase,
    FilterConfig,
    OverheadReport,
    SuccessReport,
    ValidationError,
    filter_study,
    filter_suite,
    generate_instance,
    overhead_report,
    success_rate_study,
    write_filter_csv,
    write_overhead_csv,
    write_report_json,
    write_success_csv,
)
from cimqubo import anneal, bench

from conftest import criterion7_instance, make_instance


def scale_instance(capacity, weight):
    """100 items, one profit of 100 so the inequality matrix needs 7 bits."""
    profits = np.ones((100, 100), dtype=np.int64)
    np.fill_diagonal(profits, 1)
    profits[0, 0] = 100
    return make_instance(profits, [weight] * 100, capacity, name=f"c{capacity}")


# ------------------------------------------------------- overhead

def test_overhead_low_capacity_numbers():
    rep = overhead_report(scale_instance(100, 2))
    assert rep.n == 100
    assert rep.dqubo_dim == 200
    assert rep.hycim_bits == 7
    assert rep.dqubo_bits == 16
    assert rep.hycim_cells == 2 * 16 * 100 + 100 * 100 * 7 == 73200
    assert rep.dqubo_cells == 200 * 200 * 16 == 640000
    assert rep.saving_fraction == pytest.approx(0.885625)
    assert rep.search_space_reduction_exponent == 100


def test_overhead_high_capacity_numbers():
    rep = overhead_report(scale_instance(2536, 64))
    assert rep.dqubo_dim == 2636
    assert rep.dqubo_bits == 25
    assert rep.saving_fraction == pytest.approx(0.999579, abs=5e-7)
    assert rep.search_space_reduction_exponent == 2536


def test_overhead_peak_coefficient_drives_bits(tiny):
    # slack-pair coefficient 2a + 2bC(C-1) dominates every block here
    rep = overhead_report(tiny, alpha=2, beta=2)
    peak = 2 * 2 + 2 * 2 * 9 * 8
    assert rep.dqubo_bits == (peak - 1).bit_length()


def test_overhead_survives_unbuildable_penalty_matrix():
    # dimension 9002 exceeds the dense build limit; bits still come out exact
    inst = make_instance([[1, 0], [0, 1]], [1, 1], 9000)
    rep = overhead_report(inst)
    peak = 2 * 2 + 2 * 2 * 9000 * 8999
    assert rep.dqubo_dim == 9002
    assert rep.dqubo_bits == (peak - 1).bit_length()
    assert rep.dqubo_cells == 9002 * 9002 * rep.dqubo_bits
    assert rep.search_space_reduction_exponent == 9000


def test_overhead_saving_grows_with_capacity():
    weights = [2] * 20
    profits = np.eye(20, dtype=np.int64) * 5
    savings = []
    for cap in (5, 10, 20, 35):
        inst = make_instance(profits, weights, cap)
        savings.append(overhead_report(inst).saving_fraction)
    assert savings == sorted(savings)


# ------------------------------------------------------- success studies

def vac_instance():
    profits = [[5, 1, 0, 2], [1, 4, 1, 0], [0, 1, 3, 1], [2, 0, 1, 2]]
    return make_instance(profits, [1, 1, 1, 1], 4, name="vac")


def test_degenerate_capacity_saturates_both_modes():
    rep = success_rate_study(vac_instance(), 4, 2, master_seed=5)
    assert rep.hycim_rate == 1.0
    assert rep.dqubo_rate == 1.0
    assert rep.hycim_run_rate == 1.0
    assert rep.optimum == 24


def test_success_report_bookkeeping(tiny):
    rep = success_rate_study(tiny, 3, 2, master_seed=1, iterations=400)
    assert rep.instance == "tiny3"
    assert rep.optimum == 9
    assert rep.threshold == pytest.approx(0.95 * 9)
    assert rep.hycim_runs == rep.dqubo_runs == 6
    assert rep.iterations == 400
    assert 0.0 <= rep.dqubo_rate <= rep.dqubo_run_rate + 1.0
    assert rep.hycim_rate == 1.0   # three items, the walk cannot miss
    # the per-initial rate can only improve on the per-run rate
    assert rep.hycim_rate >= rep.hycim_run_rate
    assert rep.dqubo_rate >= rep.dqubo_run_rate


def test_success_study_is_deterministic(tiny):
    a = success_rate_study(tiny, 2, 2, master_seed=9, iterations=300)
    b = success_rate_study(tiny, 2, 2, master_seed=9, iterations=300)
    assert a == b


def test_success_study_parallel_matches_serial(tiny):
    a = success_rate_study(tiny, 4, 2, master_seed=3, iterations=300, jobs=1)
    b = success_rate_study(tiny, 4, 2, master_seed=3, iterations=300, jobs=2)
    assert a == b


def test_success_study_modes_share_their_seed_ints(monkeypatch):
    # both batches of a study derive the same run seeds; kept records hold them once
    batches = []

    def tap(*args, **kwargs):
        batches.append(anneal.batch_solve(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(bench, "batch_solve", tap)
    inst = criterion7_instance()
    success_rate_study(inst, 2, 2, iterations=400)  # warm-up: the oracle and lazy imports
    batches.clear()
    anneal._seed_table.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        success_rate_study(inst, 50, 10, master_seed=2**64 - 1, iterations=400)
        anneal._seed_table.cache_clear()
        anneal._counts.cache_clear()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    hycim, dqubo = batches
    assert all(h.seed is d.seed for h, d in zip(hycim, dqubo, strict=True))
    # 2 x 500 records kept 324 KiB with shared ints and 343 KiB with an int per record
    assert kept < 334 * 2**10


def test_success_study_needs_optimum_for_large_instances():
    # the optimum comes from the exhaustive oracle, which stops at 24 items
    with pytest.raises(CapacityError, match="n <= 24"):
        success_rate_study(generate_instance(25, seed=1), 1, 1, iterations=50)


def test_success_study_checks_counts_before_the_oracle():
    # the oracle refuses 25 items; a bad count used to surface only after its search
    big = generate_instance(25, seed=1)
    for name in ("num_initials", "runs_per_initial", "iterations", "jobs"):
        counts = {"num_initials": 1, "runs_per_initial": 1, "iterations": 50, "jobs": 1, name: 0}
        with pytest.raises(ValidationError, match=name):
            success_rate_study(big, **counts)


# ------------------------------------------------------- filter studies

def test_filter_study_noiseless_is_perfect(tiny):
    study = filter_study(tiny, 4, seed=2)
    assert study.num_cases == 4
    assert study.accuracy == 1.0
    assert study.noise_sigma == 0.0
    for case in study.cases:
        assert case.predicted == case.actual
        assert case.actual == (case.weight_sum <= case.capacity)
        if case.actual:
            assert case.normalized_ml >= 1.0
        else:
            assert case.normalized_ml < 1.0


def test_filter_study_needs_two_samples(tiny):
    # one sample cannot hold both classes; zero would divide by zero
    for num_samples in (0, 1):
        with pytest.raises(ValidationError, match="num_samples"):
            filter_study(tiny, num_samples)


def test_filter_study_balances_classes(tiny):
    study = filter_study(tiny, 4, seed=2)
    feasible = sum(1 for c in study.cases if c.actual)
    assert feasible == 2


def test_filter_suite_aggregates():
    instances = [generate_instance(30, wmax=20, pmax=10, seed=s) for s in range(3)]
    study = filter_suite(instances, configs_per_instance=4, seed=1)
    assert study.instance == "suite[3]"
    assert study.num_cases == 12
    assert study.accuracy == 1.0
    names = {c.instance for c in study.cases}
    assert len(names) == 3


def test_filter_suite_is_deterministic():
    instances = [generate_instance(20, wmax=15, pmax=10, seed=s) for s in range(2)]
    a = filter_suite(instances, configs_per_instance=4, seed=3)
    b = filter_suite(instances, configs_per_instance=4, seed=3)
    assert a.cases == b.cases


# ------------------------------------------------------- report files

def test_overhead_csv_round_trip(tmp_path, tiny):
    reports = [overhead_report(tiny), overhead_report(scale_instance(100, 2))]
    path = tmp_path / "overhead.csv"
    write_overhead_csv(reports, path, meta={"alpha": 2, "beta": 2})
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "# alpha=2"
    assert lines[1] == "# beta=2"
    assert lines[2].startswith("instance,n,capacity,dqubo_dim")
    assert len(lines) == 5
    assert "0.885625" in lines[4]


def test_success_csv_contains_both_accountings(tmp_path, tiny):
    rep = success_rate_study(tiny, 2, 2, master_seed=1, iterations=200)
    path = tmp_path / "success.csv"
    write_success_csv([rep], path)
    header = path.read_text().splitlines()[0]
    assert "hycim_rate" in header and "hycim_run_rate" in header


def test_filter_csv_meta(tmp_path, tiny):
    study = filter_study(tiny, 4, seed=2)
    path = tmp_path / "filter.csv"
    write_filter_csv(study, path)
    lines = path.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any("accuracy=1.0000" in l for l in meta)
    assert any("num_cases=4" in l for l in meta)
    assert len(lines) == len(meta) + 1 + 4


def test_report_files_are_byte_stable(tmp_path, tiny):
    rep = success_rate_study(tiny, 2, 2, master_seed=8, iterations=200)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_success_csv([rep], p1)
    write_success_csv([rep], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_report_json(tmp_path, tiny):
    study = filter_study(tiny, 4, seed=2)
    path = tmp_path / "filter.json"
    write_report_json(study, path)
    doc = json.loads(path.read_text())
    assert doc["accuracy"] == 1.0
    assert len(doc["cases"]) == 4
    assert doc["cases"][0]["instance"] == "tiny3"


def test_reports_from_numpy_settings_write_plain_json(tmp_path, tiny):
    """Reports hold Python numbers whatever numeric types built them, so numpy
    seeds, counts and sigma write the same JSON as Python ones."""

    def reports(num, sigma):
        inst = make_instance(tiny.profits, tiny.weights, num(9))
        return {
            "filter": filter_study(inst, num(4), FilterConfig(noise_sigma=sigma), seed=num(3)),
            "success": success_rate_study(inst, num(2), num(2), master_seed=num(3), iterations=num(50)),
            "overhead": [overhead_report(inst, num(2), num(2))],
        }

    sigma = np.float32(0.05)
    for (name, report), python_report in zip(reports(np.int64, sigma).items(),
                                              reports(int, float(sigma)).values()):
        write_report_json(report, tmp_path / f"{name}.json")
        write_report_json(python_report, tmp_path / f"{name}-python.json")
        assert (tmp_path / f"{name}.json").read_text() == (tmp_path / f"{name}-python.json").read_text()
    doc = json.loads((tmp_path / "filter.json").read_text())
    assert (doc["seed"], doc["noise_sigma"]) == (3, float(sigma))
    assert json.loads((tmp_path / "success.json").read_text())["master_seed"] == 3


def _report_csvs(tmp_path, tiny):
    """The three report CSVs over the tiny and 100-item instances."""
    paths = {name: tmp_path / f"{name}.csv" for name in ("overhead", "success", "filter")}
    write_overhead_csv([overhead_report(tiny), overhead_report(scale_instance(100, 2))],
                       paths["overhead"], meta={"alpha": 2, "beta": 2})
    write_success_csv([success_rate_study(tiny, 3, 2, master_seed=1, iterations=400),
                       success_rate_study(tiny, 2, 2, master_seed=8, iterations=200)],
                      paths["success"], meta={"iterations": 400})
    study = filter_study(scale_instance(100, 2), 10, config=FilterConfig(noise_sigma=0.05), seed=3)
    write_filter_csv(study, paths["filter"], {"rows": 16})
    return paths


def test_csv_headers_are_the_report_fields(tmp_path, tiny):
    paths = _report_csvs(tmp_path, tiny)
    for name, cls in (("overhead", OverheadReport), ("success", SuccessReport),
                      ("filter", FilterCase)):
        header = [l for l in paths[name].read_text().splitlines() if not l.startswith("#")][0]
        assert header.split(",") == [f.name for f in dataclasses.fields(cls)], name
    empty = tmp_path / "empty.csv"
    write_overhead_csv([], empty)
    assert empty.read_text().splitlines() == [",".join(f.name for f in dataclasses.fields(OverheadReport))]


# sha256 of each report file: a changed column, format or row order changes it
PINNED_CSV_SHA256 = {
    "overhead": "1d7faa6e0808f60d193abcc9a7d19354970edaa705ba99f11ee185d1fcb5871b",
    "success": "c1635ec803dbd24f770ed3f13340474137d82df309838510d8c71595de89c860",
    "filter": "9b2579080ae12a2caccde7c28642af3fbbc390fbee418a666429ff019852c3c6",
}


def test_report_csv_bytes_are_pinned(tmp_path, tiny):
    paths = _report_csvs(tmp_path, tiny)
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert digests == PINNED_CSV_SHA256
