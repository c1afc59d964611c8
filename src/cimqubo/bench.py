"""Hardware-cost accounting and solver success-rate studies.

Cell counts follow the paper's counting convention: the filter needs
2 * rows * n cells (working array plus replica), the item crossbar n^2 * M
single-bit cells and the penalty formulation (n + C)^2 * M' cells with no
filter, where M and M' are quantization_info bit widths.  These are not the
planes program_crossbar lays out: at a power-of-two peak the width is one
plane short (a peak of 64 counts 6 bits, programs 7 planes), and a mixed-sign
penalty matrix, programmed as a positive and a negative stack, counts as one.
Acceptance criteria 2-4 pin this convention.  The search-space exponent is the
count of auxiliary slack bits the filter makes unnecessary, i.e. the capacity.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .anneal import (DEFAULT_ITERATIONS, MODE_DQUBO, MODE_HYCIM, _build_problem, _spawn_seeds,
                     batch_solve, default_schedule)
from .errors import CapacityError
from .filter_sim import FilterConfig, build_filter, filter_check, sample_balanced_configs
from .qkp import _SEED_LIMIT, QkpInstance, _as_int, _as_type, brute_force_oracle
from .transform import (
    DEFAULT_PENALTY,
    build_dqubo,
    build_inequality_qubo,
    dqubo_quantization_info,
    quantization_info,
)

# a run succeeds when its best value reaches this fraction of the optimum
THRESHOLD_FRACTION = 0.95


@dataclass(frozen=True)
class OverheadReport:
    instance: str
    n: int
    capacity: int
    dqubo_dim: int
    hycim_bits: int
    dqubo_bits: int
    hycim_cells: int
    dqubo_cells: int
    saving_fraction: float = field(metadata={"csv": ".6f"})
    search_space_reduction_exponent: int


def overhead_report(
    instance: QkpInstance,
    alpha: int = DEFAULT_PENALTY,
    beta: int = DEFAULT_PENALTY,
) -> OverheadReport:
    """Compare programmed-cell budgets of the two formulations, the filter at
    its default geometry.

    When the penalty matrix is too large to materialize its bit depth is still
    exact, computed from the coefficient formulas."""
    n = _as_type(instance, QkpInstance, "instance").n
    ineq = build_inequality_qubo(instance)
    hbits = quantization_info(ineq.qubo.q).bits
    hycim_cells = 2 * FilterConfig.rows * n + n * n * hbits
    dqubo_dim = n + instance.capacity
    try:
        dq = build_dqubo(instance, alpha, beta)
        dbits = quantization_info(dq.qubo.q).bits
    except CapacityError:
        dbits = dqubo_quantization_info(instance, alpha, beta).bits
    dcells = dqubo_dim * dqubo_dim * dbits
    saving = 1.0 - hycim_cells / dcells
    return OverheadReport(
        instance=instance.name,
        n=n,
        capacity=instance.capacity,
        dqubo_dim=dqubo_dim,
        hycim_bits=hbits,
        dqubo_bits=dbits,
        hycim_cells=hycim_cells,
        dqubo_cells=dcells,
        saving_fraction=saving,
        search_space_reduction_exponent=instance.capacity,
    )


@dataclass(frozen=True)
class SuccessReport:
    """Success is scored two ways: per initial configuration (an initial
    succeeds when any of its runs reaches the threshold; the headline rate)
    and per individual run."""

    instance: str
    optimum: int
    threshold: float = field(metadata={"csv": ".2f"})
    hycim_rate: float = field(metadata={"csv": ".4f"})
    dqubo_rate: float = field(metadata={"csv": ".4f"})
    hycim_run_rate: float = field(metadata={"csv": ".4f"})
    dqubo_run_rate: float = field(metadata={"csv": ".4f"})
    hycim_runs: int
    dqubo_runs: int
    iterations: int
    num_initials: int
    runs_per_initial: int
    master_seed: int


def _success_rates(records, threshold, runs_per_initial):
    hits = np.array([r.best_qkp_value >= threshold for r in records])
    per_run = float(hits.mean())
    per_initial = float(hits.reshape(-1, runs_per_initial).any(axis=1).mean())
    return per_initial, per_run


def success_rate_study(
    instance: QkpInstance,
    num_initials: int,
    runs_per_initial: int,
    master_seed: int = 0,
    *,
    iterations: int = DEFAULT_ITERATIONS,
    alpha: int = DEFAULT_PENALTY,
    beta: int = DEFAULT_PENALTY,
    jobs: int = 1,
) -> SuccessReport:
    """Run both modes over a shared pool of initials and score each run
    against THRESHOLD_FRACTION of the optimum.

    Each mode cools from its own coefficient scale over the given iteration
    count.  The optimum comes from exhaustive search, so the instance needs
    n <= ORACLE_MAX_ITEMS (24); counts and seed are checked before that search."""
    num_initials, runs_per_initial, iterations, jobs, master_seed = (_as_int(*rule) for rule in (
        (num_initials, "num_initials", 1), (runs_per_initial, "runs_per_initial", 1),
        (iterations, "iterations", 1), (jobs, "jobs", 1), (master_seed, "master_seed", 0, _SEED_LIMIT)))
    _as_type(instance, QkpInstance, "instance")
    optimum = brute_force_oracle(instance).best_value
    threshold = THRESHOLD_FRACTION * optimum
    modes = (MODE_HYCIM, MODE_DQUBO)
    schedules = [default_schedule(_build_problem(instance, mode, alpha, beta), iterations)
                 for mode in modes]
    # back to back, the two batches share the cached seed table
    h_records, d_records = (
        batch_solve(instance, mode, num_initials, runs_per_initial, schedule=schedule,
                    master_seed=master_seed, alpha=alpha, beta=beta, jobs=jobs)
        for mode, schedule in zip(modes, schedules))
    h_init, h_run = _success_rates(h_records, threshold, runs_per_initial)
    d_init, d_run = _success_rates(d_records, threshold, runs_per_initial)
    return SuccessReport(
        instance=instance.name,
        optimum=optimum,
        threshold=threshold,
        hycim_rate=h_init,
        dqubo_rate=d_init,
        hycim_run_rate=h_run,
        dqubo_run_rate=d_run,
        hycim_runs=len(h_records),
        dqubo_runs=len(d_records),
        iterations=iterations,
        num_initials=num_initials,
        runs_per_initial=runs_per_initial,
        master_seed=master_seed,
    )


@dataclass(frozen=True, slots=True)
class FilterCase:
    instance: str
    config_id: int
    weight_sum: int
    capacity: int
    working_ml: float = field(metadata={"csv": ".6f"})
    replica_ml: float = field(metadata={"csv": ".6f"})
    normalized_ml: float = field(metadata={"csv": ".6f"})
    predicted: bool
    actual: bool


@dataclass(frozen=True)
class FilterStudy:
    instance: str
    num_cases: int
    accuracy: float
    noise_sigma: float
    seed: int
    cases: list[FilterCase] = field(repr=False)


def filter_study(
    instance: QkpInstance,
    num_samples: int,
    config: FilterConfig | None = None,
    seed: int = 0,
) -> FilterStudy:
    """Per-configuration matchline detail over a balanced feasible/infeasible
    sample, plus the aggregate classification accuracy."""
    _as_type(instance, QkpInstance, "instance")
    num_samples = _as_int(num_samples, "num_samples", 2)
    seed = _as_int(seed, "seed", 0, _SEED_LIMIT)
    cfg = config or FilterConfig()
    model = build_filter(instance.weights, instance.capacity, cfg)
    nf = num_samples // 2
    configs, labels = sample_balanced_configs(
        instance.weights, instance.capacity, nf, num_samples - nf, seed=seed
    )
    wsums = (configs @ instance.weights).tolist()
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    cases = []
    correct = 0
    for k, x in enumerate(configs):
        decision = filter_check(model, x, rng)
        actual = bool(labels[k])
        if decision.feasible == actual:
            correct += 1
        cases.append(FilterCase(
            instance=instance.name,
            config_id=k,
            weight_sum=wsums[k],
            capacity=instance.capacity,
            working_ml=decision.working_ml,
            replica_ml=decision.replica_ml,
            normalized_ml=decision.working_ml / decision.replica_ml,
            predicted=decision.feasible,
            actual=actual,
        ))
    return FilterStudy(
        instance=instance.name,
        num_cases=len(cases),
        accuracy=correct / len(cases),
        noise_sigma=model.config.noise_sigma,
        seed=seed,
        cases=cases,
    )


def filter_suite(
    instances: list[QkpInstance],
    configs_per_instance: int = 20,
    seed: int = 0,
) -> FilterStudy:
    """Noiseless filter_study over many instances with one aggregate accuracy;
    each instance samples its own balanced configuration set."""
    seed = _as_int(seed, "seed", 0, _SEED_LIMIT)
    instances = [_as_type(inst, QkpInstance, f"instances[{k}]") for k, inst in enumerate(instances)]
    # instance k samples with the seed of spawn key (k,)
    sub_seeds = _spawn_seeds(seed, np.arange(len(instances))).tolist()
    cases = []
    correct = 0
    for inst, sub_seed in zip(instances, sub_seeds):
        study = filter_study(inst, configs_per_instance, seed=sub_seed)
        cases.extend(study.cases)
        correct += sum(case.predicted == case.actual for case in study.cases)
    return FilterStudy(
        instance=f"suite[{len(instances)}]",
        num_cases=len(cases),
        accuracy=correct / len(cases) if cases else 1.0,
        noise_sigma=FilterConfig.noise_sigma,
        seed=seed,
        cases=cases,
    )


def _csv_cell(value, f):
    """A bool as 0 or 1, a field with "csv" metadata in that format spec."""
    if isinstance(value, bool):
        return int(value)
    return format(value, f.metadata["csv"]) if "csv" in f.metadata else value


def _write_csv(path, cls, records, meta):
    """One column per field of cls, in declared order, one row per record."""
    cols = fields(cls)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key in sorted(meta):
            fh.write(f"# {key}={meta[key]}\n")
        writer = csv.writer(fh)
        writer.writerow([f.name for f in cols])
        writer.writerows([_csv_cell(getattr(r, f.name), f) for f in cols] for r in records)


def write_overhead_csv(reports: list[OverheadReport], path, meta: dict | None = None) -> None:
    _write_csv(path, OverheadReport, reports, meta or {})


def write_success_csv(reports: list[SuccessReport], path, meta: dict | None = None) -> None:
    _write_csv(path, SuccessReport, reports, meta or {})


def write_filter_csv(study: FilterStudy, path, meta: dict | None = None) -> None:
    merged = {"accuracy": f"{study.accuracy:.4f}", "noise_sigma": study.noise_sigma,
              "num_cases": study.num_cases, "seed": study.seed}
    merged.update(meta or {})
    _write_csv(path, FilterCase, study.cases, merged)


def write_report_json(report, path) -> None:
    """Serialize one report dataclass, or a list of them; nested case lists included."""
    payload = [asdict(r) for r in report] if isinstance(report, list) else asdict(report)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
