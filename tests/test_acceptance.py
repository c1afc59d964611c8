"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line on the terminal (bypassing capture)
and then asserts, so the verdicts stay visible in batch output.
"""

import itertools
import time

import numpy as np

from cimqubo import (
    QuboMatrix,
    batch_solve,
    build_dqubo,
    build_filter,
    build_inequality_qubo,
    filter_check,
    filter_suite,
    generate_instance,
    overhead_report,
    program_crossbar,
    quantization_info,
    sa_run,
    success_rate_study,
    vmv_energy,
    write_success_csv,
)
from cimqubo.qkp import QkpInstance

from conftest import hundred_items


def verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_filter_feasibility(capsys):
    start = time.perf_counter()
    model = build_filter([4, 7, 2], 9)
    checks = {
        bits: filter_check(model, list(bits)).feasible
        for bits in itertools.product((0, 1), repeat=3)
    }
    elapsed = time.perf_counter() - start
    ok = (
        sum(checks.values()) == 6
        and checks[(1, 1, 0)] is False
        and checks[(1, 1, 1)] is False
        and elapsed < 1.0
    )
    verdict(capsys, 1, ok,
            f"weights [4,7,2] cap 9: {sum(checks.values())}/8 feasible, "
            f"over-capacity configs rejected ({elapsed:.3f}s)")


def test_criterion_02_quantization_widths(capsys):
    ineq = build_inequality_qubo(hundred_items(100, 2))
    b_ineq = quantization_info(ineq.qubo.q).bits
    b_low = quantization_info(build_dqubo(hundred_items(100, 2)).qubo.q).bits
    b_high = quantization_info(build_dqubo(hundred_items(2536, 64)).qubo.q).bits
    ok = b_ineq == 7 and b_low == 16 and b_high == 25
    verdict(capsys, 2, ok,
            f"coefficient widths: profit matrix {b_ineq} bits (want 7), "
            f"penalty matrix {b_low} bits at cap 100 (want 16), "
            f"{b_high} bits at cap 2536 (want 25)")


def test_criterion_03_dimensions_and_search_space(capsys):
    low = overhead_report(hundred_items(100, 2))
    high = overhead_report(hundred_items(2536, 64))
    ok = (
        low.dqubo_dim == 200
        and high.dqubo_dim == 2636
        and low.search_space_reduction_exponent == 100
        and high.search_space_reduction_exponent == 2536
    )
    verdict(capsys, 3, ok,
            f"penalty dimensions {low.dqubo_dim}/{high.dqubo_dim} "
            f"(want 200/2636); configuration space shrinks by 2^100 and 2^2536")


def test_criterion_04_cell_savings(capsys):
    start = time.perf_counter()
    low = overhead_report(hundred_items(100, 2))
    high = overhead_report(hundred_items(2536, 64))
    elapsed = time.perf_counter() - start
    low_pct = 100.0 * low.saving_fraction
    high_pct = 100.0 * high.saving_fraction
    ok = (
        abs(low_pct - 88.06) <= 1.0
        and abs(high_pct - 99.96) <= 0.05
        and elapsed < 1.0
    )
    verdict(capsys, 4, ok,
            f"programmed-cell saving {low_pct:.4f}% at cap 100 "
            f"(88.06 +- 1.0) and {high_pct:.4f}% at cap 2536 "
            f"(99.96 +- 0.05) ({elapsed:.3f}s)")


def test_criterion_05_array_reads_are_exact(capsys):
    rng = np.random.default_rng(2024)
    vmv_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        q = QuboMatrix(
            rng.integers(-100, 101, size=(n, n)),
            offset=int(rng.integers(-50, 51)),
        )
        x = rng.integers(0, 2, size=n)
        if vmv_energy(program_crossbar(q), x).exact_value != q.energy(x):
            vmv_ok = False
            break

    small = generate_instance(12, density=0.4, wmax=30, pmax=9, seed=6)
    model = build_filter(small.weights, small.capacity)
    filter_small_ok = all(
        filter_check(model, list(bits)).feasible
        == (int(small.weights @ np.array(bits)) <= small.capacity)
        for bits in itertools.product((0, 1), repeat=12)
    )

    big = generate_instance(100, density=0.25, wmax=64, pmax=50, seed=7)
    model = build_filter(big.weights, big.capacity)
    configs = rng.integers(0, 2, size=(10_000, 100), dtype=np.int8)
    wsums = configs @ big.weights
    filter_big_ok = all(
        filter_check(model, cfg).feasible == (int(w) <= big.capacity)
        for cfg, w in zip(configs, wsums.tolist())
    )
    ok = vmv_ok and filter_small_ok and filter_big_ok
    verdict(capsys, 5, ok,
            f"noiseless array model: 1000 random matrix reads exact={vmv_ok}, "
            f"filter agrees with the inequality on 4096 exhaustive "
            f"({filter_small_ok}) and 10000 random ({filter_big_ok}) configs")


def test_criterion_06_penalty_soundness(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    ok = True
    for trial in range(8):
        n, C = 4, 6
        base = rng.integers(0, 8, size=(n, n))
        profits = np.triu(base, k=1)
        profits = profits + profits.T
        np.fill_diagonal(profits, rng.integers(1, 9, size=n))
        weights = rng.integers(1, C + 1, size=n)
        inst = QkpInstance(name=f"p{trial}", n=n, profits=profits,
                           weights=weights, capacity=C)
        # at alpha = beta = 2 a violating weight met by a multi-hot slack
        # combination still pays the one-hot penalty alpha = beta
        alpha, beta = 2, 2
        model = build_dqubo(inst, alpha=alpha, beta=beta)
        dim = n + C
        ks = np.arange(1 << dim, dtype=np.int64)
        bits = ((ks[:, None] >> np.arange(dim)) & 1).astype(np.int64)
        energies = np.einsum("bi,ij,bj->b", bits, model.qubo.q, bits) + model.qubo.offset
        objs = np.einsum("bi,ij,bj->b", bits[:, :n], profits, bits[:, :n])
        wsums = bits[:, :n] @ weights
        penalties = (energies + objs).reshape(1 << C, 1 << n)
        min_penalty = penalties.min(axis=0)      # min over slack bits per x
        x_w = wsums[: 1 << n]
        for xi in range(1 << n):
            w = int(x_w[xi])
            if 1 <= w <= C:
                if min_penalty[xi] != 0:
                    ok = False
            elif w > C:
                if min_penalty[xi] < beta:
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    verdict(capsys, 6, ok,
            f"penalty expansion over 8 exhaustive (n=4, cap=6) instances: "
            f"zero penalty reachable for every in-range weight, floor >= beta "
            f"for every violation ({elapsed:.2f}s)")


def test_criterion_07_success_rate_study(capsys):
    start = time.perf_counter()
    h_rates, d_rates, wins = [], [], 0
    for seed in range(1, 11):
        inst = generate_instance(20, density=0.5, wmax=20, pmax=50,
                                 cap_ratio=0.5, seed=seed)
        rep = success_rate_study(inst, 100, 10, master_seed=seed)
        h_rates.append(rep.hycim_rate)
        d_rates.append(rep.dqubo_rate)
        if rep.hycim_rate >= rep.dqubo_rate:
            wins += 1
    elapsed = time.perf_counter() - start
    h_mean = float(np.mean(h_rates))
    d_mean = float(np.mean(d_rates))
    ok = h_mean >= 0.80 and d_mean < h_mean and wins >= 9 and elapsed < 600.0
    verdict(capsys, 7, ok,
            f"20-item study, 100 initials x 10 runs: mean gated success "
            f"{h_mean:.4f} (need >= 0.80), penalty mode {d_mean:.4f} "
            f"(must trail), gated wins {wins}/10 ({elapsed:.1f}s)")


def test_criterion_08_reproducibility(capsys, tmp_path):
    inst = generate_instance(14, density=0.5, wmax=15, pmax=30, seed=3)
    rep_a = success_rate_study(inst, 5, 3, master_seed=11, iterations=400)
    rep_b = success_rate_study(inst, 5, 3, master_seed=11, iterations=400)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_success_csv([rep_a], pa)
    write_success_csv([rep_b], pb)
    runs_a = batch_solve(inst, "hycim", 3, 2, master_seed=5)
    runs_b = batch_solve(inst, "hycim", 3, 2, master_seed=5)
    ok = rep_a == rep_b and pa.read_bytes() == pb.read_bytes() and runs_a == runs_b
    verdict(capsys, 8, ok,
            "repeated master seed: identical study reports, byte-identical "
            "CSVs, identical run records")


def test_criterion_09_backend_equivalence(capsys):
    rng = np.random.default_rng(555)
    mismatches = 0
    for trial in range(100):
        n = int(rng.integers(4, 11))
        inst = generate_instance(
            n, density=float(rng.uniform(0.2, 0.9)), wmax=12, pmax=20,
            seed=int(rng.integers(10_000)),
        )
        mode = "hycim" if trial % 2 == 0 else "dqubo"
        problem = build_inequality_qubo(inst) if mode == "hycim" else build_dqubo(inst)
        dim = problem.qubo.dim
        initial = rng.integers(0, 2, size=dim).tolist()
        seed = int(rng.integers(1 << 31))
        sw = sa_run(problem, schedule=None, initial=initial, seed=seed,
                    record_trajectory=True)
        hw = sa_run(problem, backend="behavioral-cim", schedule=None,
                    initial=initial, seed=seed, record_trajectory=True)
        if sw != hw:
            mismatches += 1
    ok = mismatches == 0
    verdict(capsys, 9, ok,
            f"noiseless array backend vs exact software: {100 - mismatches}/100 "
            f"random trials produced identical run records")


def test_criterion_10_filter_study_at_scale(capsys):
    start = time.perf_counter()
    instances = [
        generate_instance(100, density=0.25, wmax=64, pmax=50,
                          cap_ratio=0.5, seed=s)
        for s in range(1, 41)
    ]
    study = filter_suite(instances, configs_per_instance=20, seed=77)
    elapsed = time.perf_counter() - start
    norm_ok = all(
        (case.normalized_ml >= 1.0) == case.actual for case in study.cases
    )
    ok = (
        study.num_cases == 800
        and study.accuracy == 1.0
        and norm_ok
        and elapsed < 30.0
    )
    verdict(capsys, 10, ok,
            f"40 instances x 20 configurations: {study.num_cases} rows, "
            f"accuracy {study.accuracy:.4f}, normalized matchline splits "
            f"cleanly at 1.0 ({elapsed:.1f}s)")
