"""Annealing schedules, single runs, gating semantics, batch orchestration."""

import concurrent.futures
import math
import tracemalloc

import numpy as np
import pytest

from cimqubo import (
    AnnealSchedule,
    CapacityError,
    ConfigurationError,
    FilterConfig,
    ValidationError,
    batch_solve,
    build_dqubo,
    build_inequality_qubo,
    default_schedule,
    flip_scale,
    generate_instance,
    sa_run,
    success_rate_study,
    write_trajectory_csv,
)
from cimqubo import anneal
from cimqubo.transform import _flip_magnitudes

from conftest import (
    criterion7_instance,
    make_instance,
    ref_anneal,
    ref_constrained_energy,
    ref_objective,
    ref_qubo_energy,
    ref_records_digest,
    ref_run_seed,
    ref_weight,
)


def short(iters=300, t=4.0):
    return AnnealSchedule(iterations=iters, t_start=t, t_end=0.1)


# ------------------------------------------------------- schedule

def test_schedule_geometric_shape():
    sched = AnnealSchedule(iterations=5, t_start=8.0, t_end=0.5)
    temps = sched.temperatures()
    assert len(temps) == 5
    assert temps[0] == pytest.approx(8.0)
    assert temps[-1] == pytest.approx(0.5)
    ratios = temps[1:] / temps[:-1]
    assert np.allclose(ratios, ratios[0])


def test_schedule_single_iteration():
    assert AnnealSchedule(iterations=1, t_start=3.0, t_end=1.0).temperatures().tolist() == [3.0]


def test_schedule_validation():
    with pytest.raises(ValidationError):
        AnnealSchedule(iterations=0, t_start=1.0, t_end=0.01)
    with pytest.raises(ValidationError):
        AnnealSchedule(iterations=10, t_end=0.0, t_start=1.0)
    with pytest.raises(ValidationError):
        AnnealSchedule(iterations=10, t_start=0.1, t_end=1.0)


@pytest.mark.parametrize("t_start, t_end", [
    (math.nan, 5.0), (5.0, math.nan), (math.nan, math.nan), (math.inf, 5.0), (math.inf, math.inf),
])
def test_schedule_rejects_non_finite_temperatures(t_start, t_end):
    # a NaN start passed every ordering check and froze the run: no proposal was ever accepted
    with pytest.raises(ValidationError):
        AnnealSchedule(iterations=200, t_start=t_start, t_end=t_end)


def test_flip_scale_hand_value(tiny):
    # |q+qT| column sums without the diagonal average to 4, |diag| averages to 4
    assert flip_scale(build_inequality_qubo(tiny)) == pytest.approx(8.0)


def test_default_schedule_tracks_flip_scale(tiny):
    sched = default_schedule(build_inequality_qubo(tiny), iterations=500)
    assert sched.iterations == 500
    assert sched.t_start == pytest.approx(8.0 / 3.5)
    assert sched.t_end == pytest.approx(0.5 * sched.t_start)


def test_default_schedule_floor():
    inst = make_instance([[1]], [1], 1)
    sched = default_schedule(build_inequality_qubo(inst))
    assert sched.t_start == 1.0
    assert sched.t_end == 0.5


# ------------------------------------------------------- single runs

def test_run_requires_initial(tiny):
    with pytest.raises(ConfigurationError, match="initial"):
        sa_run(build_inequality_qubo(tiny))


def test_run_rejects_unknown_backend(tiny):
    with pytest.raises(ConfigurationError, match="backend"):
        sa_run(build_inequality_qubo(tiny), backend="fpga", initial=[0, 0, 0])


def test_crossbar_noise_needs_behavioral_backend(tiny):
    with pytest.raises(ConfigurationError, match="behavioral"):
        sa_run(
            build_inequality_qubo(tiny),
            initial=[0, 0, 0],
            crossbar_noise_sigma=0.1,
        )


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_non_finite_crossbar_noise_is_rejected(tiny, sigma):
    # a NaN sigma read as noiseless and returned the noiseless record
    with pytest.raises(ValidationError, match="noise_sigma"):
        batch_solve(tiny, "hycim", 1, 1, schedule=short(), backend="behavioral-cim",
                    crossbar_noise_sigma=sigma)


def test_filter_config_needs_behavioral_backend(tiny):
    with pytest.raises(ConfigurationError, match="filter_config"):
        sa_run(
            build_inequality_qubo(tiny),
            initial=[0, 0, 0],
            filter_config=FilterConfig(noise_sigma=0.5),
        )


def test_batch_filter_config_needs_behavioral_backend(tiny):
    noisy = FilterConfig(noise_sigma=0.5)
    with pytest.raises(ConfigurationError, match="filter_config"):
        batch_solve(tiny, "hycim", 1, 1, schedule=short(), filter_config=noisy)
    # dqubo never gates: its behavioral runs accept a filter setting and do not read it
    kept = batch_solve(tiny, "dqubo", 1, 2, schedule=short(), backend="behavioral-cim",
                       filter_config=noisy)
    assert kept == batch_solve(tiny, "dqubo", 1, 2, schedule=short(), backend="behavioral-cim")


def test_run_is_deterministic(tiny):
    model = build_inequality_qubo(tiny)
    a = sa_run(model, schedule=short(), initial=[0, 0, 0], seed=5, record_trajectory=True)
    b = sa_run(model, schedule=short(), initial=[0, 0, 0], seed=5, record_trajectory=True)
    assert a == b
    c = sa_run(model, schedule=short(), initial=[0, 0, 0], seed=6, record_trajectory=True)
    assert a != c


def test_finds_tiny_optimum_from_any_seed(tiny):
    model = build_inequality_qubo(tiny)
    for seed in range(5):
        rec = sa_run(model, schedule=short(), initial=[0, 0, 0], seed=seed)
        assert rec.best_qkp_value == 9
        assert rec.best_energy == -9


def test_zero_temperature_is_greedy():
    inst = make_instance([[5, 0], [0, 3]], [1, 1], 2)
    sched = AnnealSchedule(iterations=50, t_start=1e-9, t_end=1e-9)
    rec = sa_run(
        build_inequality_qubo(inst),
        schedule=sched,
        initial=[1, 0],
        seed=1,
        record_trajectory=True,
    )
    assert rec.best_energy == -8
    assert rec.best_config.tolist() == [1, 1]
    energies = [row[1] for row in rec.trajectory]
    assert energies == sorted(energies, reverse=True)


def test_infinite_temperature_accepts_every_evaluation(tiny):
    roomy = make_instance(tiny.profits, tiny.weights, 13)   # nothing gets gated
    sched = AnnealSchedule(iterations=300, t_start=1e12, t_end=1e12)
    rec = sa_run(
        build_inequality_qubo(roomy),
        schedule=sched,
        initial=[0, 0, 0],
        seed=2,
        record_trajectory=True,
    )
    assert all(row[2] for row in rec.trajectory)
    assert rec.evaluations == 300


# ------------------------------------------------------- gating semantics

def test_gated_proposals_consume_iterations_without_evaluation(tiny):
    model = build_inequality_qubo(tiny)
    rec = sa_run(model, schedule=short(), initial=[0, 0, 0], seed=3, record_trajectory=True)
    assert len(rec.trajectory) == 300
    assert rec.filter_rejections > 0
    assert rec.evaluations + rec.filter_rejections == 300
    gated = [row for row in rec.trajectory if not row[3]]
    assert len(gated) == rec.filter_rejections
    assert all(not row[2] for row in gated)   # feasible current, so no drift here


def replayed(model, schedule, initial, seed):
    """A recorded run checked against its plain-loop replay, and each of its
    trajectory rows paired with the proposal it judged."""
    rec = sa_run(model, schedule=schedule, initial=initial, seed=seed, record_trajectory=True)
    ref = ref_anneal(model, schedule, initial, seed)
    assert rec.trajectory == ref["trajectory"]
    assert rec.evaluations == ref["evaluations"]
    return rec, list(zip(rec.trajectory, ref["proposals"]))


def assert_hycim_gate(model, rec, rows):
    inst = model.instance
    for (_, energy, moved, passed), proposal in rows:
        # the gate passes exactly the proposals within capacity
        assert passed == (ref_weight(inst.weights.tolist(), proposal) <= inst.capacity)
        if moved and passed:
            assert energy == ref_constrained_energy(model, proposal)
    assert rec.evaluations == sum(row[3] for row, _ in rows)


def test_every_hycim_evaluation_is_feasible(tiny):
    model = build_inequality_qubo(tiny)
    rec, rows = replayed(model, short(), [0, 0, 0], 7)
    assert rec.filter_rejections > 0
    assert_hycim_gate(model, rec, rows)


def test_every_hycim_evaluation_is_feasible_at_scale():
    inst = generate_instance(15, density=0.5, wmax=20, pmax=30, seed=9)
    model = build_inequality_qubo(inst)
    rec, rows = replayed(model, short(), [0] * 15, 11)
    assert rec.evaluations
    assert_hycim_gate(model, rec, rows)


def test_dqubo_evaluations_match_matrix_energy(tiny):
    model = build_dqubo(tiny)
    rec, rows = replayed(model, short(t=100.0), [0] * 12, 13)
    assert rec.filter_rejections == 0
    assert rec.evaluations == 300
    q = model.qubo.q.tolist()
    accepted = [(row[1], proposal) for row, proposal in rows if row[2]]
    assert accepted
    for energy, proposal in accepted:
        assert energy == ref_qubo_energy(q, proposal, model.qubo.offset)


def test_infeasible_start_drifts_at_zero_energy():
    inst = make_instance([[2, 0], [0, 2]], [10, 1], 5)
    model = build_inequality_qubo(inst)
    rec = sa_run(model, schedule=short(iters=50), initial=[1, 0], seed=0, record_trajectory=True)
    drift = [row for row in rec.trajectory if row[2] and not row[3]]
    assert drift
    assert all(row[1] == 0 for row in drift)
    assert rec.best_qkp_value == 2   # escaped and found a feasible configuration


def test_escape_from_overweight_initial(tiny):
    model = build_inequality_qubo(tiny)
    for seed in range(8):
        rec = sa_run(model, schedule=short(), initial=[1, 1, 1], seed=seed)
        assert rec.best_qkp_value == 9


def test_best_value_consistent_with_best_config():
    inst = generate_instance(12, density=0.5, wmax=15, pmax=25, seed=19)
    for mode_build in (build_inequality_qubo, build_dqubo):
        model = mode_build(inst)
        dim = model.qubo.dim
        for seed in range(4):
            rec = sa_run(model, schedule=short(), initial=[0] * dim, seed=seed)
            xs = rec.best_config[: inst.n].tolist()
            if ref_weight(inst.weights.tolist(), xs) <= inst.capacity:
                assert rec.best_qkp_value == ref_objective(inst.profits.tolist(), xs)
            else:
                assert rec.best_qkp_value == 0


# ------------------------------------------------------- behavioral backend

def test_backends_agree_noiselessly(tiny):
    for build in (build_inequality_qubo, build_dqubo):
        model = build(tiny)
        dim = model.qubo.dim
        sw = sa_run(model, schedule=short(), initial=[0] * dim, seed=17, record_trajectory=True)
        hw = sa_run(
            model,
            backend="behavioral-cim",
            schedule=short(),
            initial=[0] * dim,
            seed=17,
            record_trajectory=True,
        )
        assert sw == hw


def test_noisy_crossbar_still_satisfies_record_invariants(tiny):
    model = build_inequality_qubo(tiny)
    rec = sa_run(
        model,
        backend="behavioral-cim",
        schedule=short(),
        initial=[0, 0, 0],
        seed=23,
        crossbar_noise_sigma=0.1,
    )
    x = rec.best_config.tolist()
    assert ref_weight(tiny.weights.tolist(), x) <= tiny.capacity
    assert rec.best_qkp_value == ref_objective(tiny.profits.tolist(), x)


def test_noisy_filter_runs(tiny):
    model = build_inequality_qubo(tiny)
    rec = sa_run(
        model,
        backend="behavioral-cim",
        schedule=short(),
        initial=[0, 0, 0],
        seed=29,
        filter_config=FilterConfig(noise_sigma=0.2),
    )
    assert rec.evaluations + rec.filter_rejections == 300


# ------------------------------------------------------- batches

def test_batch_shape_and_seed_derivation(tiny):
    records = batch_solve(tiny, "hycim", 2, 3, schedule=short(), master_seed=42)
    assert len(records) == 6
    want = [ref_run_seed(42, i, r) for i in range(2) for r in range(3)]
    assert [rec.seed for rec in records] == want
    assert len({rec.seed for rec in records}) == 6


def test_batch_is_deterministic(tiny):
    a = batch_solve(tiny, "dqubo", 2, 2, schedule=short(t=100.0), master_seed=7)
    b = batch_solve(tiny, "dqubo", 2, 2, schedule=short(t=100.0), master_seed=7)
    assert a == b


def test_batch_parallel_matches_serial(tiny):
    for mode in ("hycim", "dqubo"):
        serial = batch_solve(tiny, mode, 4, 2, schedule=short(), master_seed=3, jobs=1)
        parallel = batch_solve(tiny, mode, 4, 2, schedule=short(), master_seed=3, jobs=2)
        assert serial == parallel


def test_records_share_read_only_configurations_and_ints():
    inst = criterion7_instance()
    records = batch_solve(inst, "hycim", 10, 10, schedule=short(iters=400, t=50.0), master_seed=2)
    for field in ("best_energy", "best_qkp_value"):
        values = [getattr(rec, field) for rec in records]
        assert len({id(v) for v in values}) == len(set(values)) < len(values), field
    configs = [rec.best_config for rec in records]
    assert len({id(c) for c in configs}) == len({c.tobytes() for c in configs}) < len(configs)
    assert not any(c.flags.writeable for c in configs)
    # batches of one iteration count share their count ints: every dqubo run evaluates all 400
    evaluations = [rec.evaluations for seed in (4, 5)
                   for rec in batch_solve(inst, "dqubo", 2, 2, schedule=short(iters=400), master_seed=seed)]
    assert evaluations == [400] * 8 and len({id(v) for v in evaluations}) == 1
    # records from worker processes come back unpickled, and are frozen again
    parallel = batch_solve(inst, "hycim", 10, 10, schedule=short(iters=400, t=50.0), master_seed=2,
                           jobs=2)
    assert parallel == records
    assert not any(rec.best_config.flags.writeable for rec in parallel)


def test_batch_checks_penalties_before_starting_workers(tiny):
    for name in ("alpha", "beta"):
        with pytest.raises(ValidationError) as refused:
            batch_solve(tiny, "dqubo", 2, 1, schedule=short(), **{name: 0}, jobs=2)
        assert refused.value.field == name


def test_batch_checks_noise_before_starting_workers(tiny, monkeypatch):
    # an error raised in a worker pickles back as itself, so refuse to start one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    with pytest.raises(ValidationError) as refused:
        batch_solve(tiny, "hycim", 2, 1, schedule=short(), backend="behavioral-cim",
                    crossbar_noise_sigma="0.1", jobs=2)
    assert refused.value.field == "crossbar_noise_sigma"


def test_exact_penalty_context_keeps_no_square_array():
    # capacity 2000: the penalty matrix has 2020^2 entries, the factored fields n + 1 per run
    inst = make_instance(np.ones((20, 20), dtype=np.int64), [200] * 20, 2000)
    problem = build_dqubo(inst)
    ctx = anneal._Context(problem, "exact-software", short(iters=50))
    dim = problem.dim
    assert dim == 2020
    arrays = {name: value for name, value in vars(ctx).items() if isinstance(value, np.ndarray)}
    assert arrays and all(a.size < dim * dim for a in arrays.values()), {
        name: a.shape for name, a in arrays.items()}
    initial = np.zeros(dim, dtype=np.int8)
    initial[[0, 3, 20, 500]] = 1
    rec = anneal._anneal(ctx, [initial], [5])[0]
    assert "qubo" not in vars(problem)  # nothing expanded the matrix
    assert rec.best_energy == problem.qubo.energy(rec.best_config)


# Criterion-7 instance 1, master seed 1, 10 initials x 2 runs.  The digests
# were recorded when every run was annealed on its own, so they pin the
# lockstep records to those bit for bit.
REFERENCE_DIGESTS = {
    "hycim": "fa1c09579540bf6651272e18ebfa0bff744f629735a463607b8b972ceb269829",
    "dqubo": "df13bc963793575c8e67d8c54b49c893abed20eeac2747a535417b05cf5a43b9",
}


@pytest.mark.parametrize("mode", ["hycim", "dqubo"])
def test_reference_records_are_pinned(mode):
    records = batch_solve(criterion7_instance(), mode, 10, 2, master_seed=1)
    assert ref_records_digest(records) == REFERENCE_DIGESTS[mode]


@pytest.mark.parametrize("backend", ["exact-software", "behavioral-cim"])
def test_records_do_not_depend_on_block_size(monkeypatch, backend):
    inst = criterion7_instance(3)
    sched = short(iters=200)
    for mode in ("hycim", "dqubo"):
        whole = batch_solve(inst, mode, 3, 3, schedule=sched, backend=backend, master_seed=4)
        monkeypatch.setattr(anneal, "_BLOCK_DRAWS", 2 * sched.iterations)  # blocks of 2 runs
        blocked = batch_solve(inst, mode, 3, 3, schedule=sched, backend=backend, master_seed=4)
        monkeypatch.undo()
        assert whole == blocked


def test_batch_memory_is_bounded():
    # 1000 dqubo runs over 120 bits: one lockstep block plus the kept records.  The
    # block's gates sit in the int32 lane; a float64 gate buffer alone takes 8 MiB.
    inst = criterion7_instance()
    tracemalloc.start()
    try:
        batch_solve(inst, "dqubo", 100, 10, master_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@pytest.mark.parametrize("call", [
    lambda inst: batch_solve(inst, "dqubo", 2, 1, AnnealSchedule(50, 5.0, 1.0)),
    lambda inst: default_schedule(build_dqubo(inst)),
    lambda inst: success_rate_study(inst, 2, 1, iterations=50),
], ids=["batch_solve", "default_schedule", "success_rate_study"])
def test_exact_penalty_calls_expand_no_matrix(call):
    # capacity 1922: the penalty matrix would take 28.8 MiB
    inst = generate_instance(20, seed=1, density=0.5, wmax=200, pmax=50, cap_ratio=1.0)
    size = (inst.n + inst.capacity) ** 2 * 8
    assert inst.capacity == 1922 and size > 28 * 2**20
    tracemalloc.start()
    try:
        call(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 4  # far below one expanded matrix


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_noisy_read_past_float64_raises():
    # readings of +-inf would give NaN energy changes and a best energy of -inf
    problem = build_inequality_qubo(generate_instance(3, seed=1))
    with pytest.raises(CapacityError, match="not a finite float64"):
        sa_run(problem, "behavioral-cim", AnnealSchedule(50, 4.0, 1.0), [0, 1, 0], 1,
               crossbar_noise_sigma=1.7e308)


@pytest.mark.parametrize("call", [flip_scale, default_schedule,
                                  lambda inst: sa_run(inst, initial=[0, 0, 0])])
def test_an_instance_is_not_a_problem_to_anneal(tiny, call):
    with pytest.raises(ConfigurationError, match="cannot anneal a QkpInstance"):
        call(tiny)


@pytest.mark.parametrize("call", [
    lambda inst: batch_solve(inst, "hycim", 2, 1, short(), "behavioral-cim", filter_config=5),
    lambda inst: batch_solve(inst, "hycim", 2, 1, short(), "behavioral-cim", filter_config=5,
                             jobs=2),
    lambda inst: batch_solve(inst, "dqubo", 2, 1, short(), "behavioral-cim", filter_config=5,
                             jobs=2),
    lambda inst: sa_run(build_inequality_qubo(inst), "behavioral-cim", short(), [0, 0, 0],
                        filter_config=5),
    lambda inst: sa_run(build_dqubo(inst), "behavioral-cim", short(), [0] * 12,
                        filter_config="noisy"),
    lambda inst: sa_run(build_inequality_qubo(inst), "exact-software", short(), [0, 0, 0],
                        filter_config=5),
])
def test_filter_config_must_be_a_filter_config(tiny, monkeypatch, call):
    # an error raised in a worker pickles back as itself, so refuse to start one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    with pytest.raises(ValidationError) as refused:
        call(tiny)
    assert refused.value.field == "filter_config"


@pytest.mark.parametrize("jobs", [1, 2])
def test_batch_refuses_a_problem_as_its_instance(tiny, monkeypatch, jobs):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    with pytest.raises(ValidationError, match="must be a QkpInstance, got DQuboModel") as refused:
        batch_solve(build_dqubo(tiny), "dqubo", 2, 1, jobs=jobs)
    assert refused.value.field == "instance"


def test_energy_bound_guard():
    big = 1 << 52
    over = make_instance(np.diag([big, big, 1]), [1, 1, 1], 3)   # |q| sums to 2^53 + 1
    with pytest.raises(ConfigurationError, match="2\\^53"):
        sa_run(build_inequality_qubo(over), initial=[0, 0, 0])
    with pytest.raises(ConfigurationError, match="2\\^53"):
        batch_solve(over, "hycim", 1, 1)
    edge = make_instance(np.diag([big, big]), [1, 1], 2)   # exactly 2^53 is still exact
    rec = sa_run(build_inequality_qubo(edge), schedule=short(iters=50, t=1.0), initial=[0, 0], seed=1)
    assert rec.best_qkp_value == 2 * big
    assert rec.best_energy == -2 * big


def test_factored_penalty_guard():
    # beta w_i w_j cancels the profits, so sum |q_ij| + |offset| stays small while
    # the factored terms, sum p_ij + beta (sum w + 1)^2 + 2 alpha, pass 2^62
    w = 3 << 28
    problem = build_dqubo(make_instance(np.full((2, 2), w * w), [w, w], 1), beta=1)
    assert _flip_magnitudes(problem)[2] < 2**32
    with pytest.raises(ConfigurationError, match="factored penalty terms"):
        sa_run(problem, schedule=short(iters=5), initial=[0, 0, 0])
    # the behavioral backend reads the matrix and needs only that sum below 2^53
    sa_run(problem, backend="behavioral-cim", schedule=short(iters=5), initial=[0, 0, 0])


def test_batch_validation(tiny):
    with pytest.raises(ValidationError):
        batch_solve(tiny, "hycim", 0, 1)
    with pytest.raises(ValidationError):
        batch_solve(tiny, "hycim", 1, 0)
    with pytest.raises(ValidationError, match="master_seed"):
        batch_solve(tiny, "hycim", 1, 1, master_seed=-1)
    with pytest.raises(ConfigurationError):
        batch_solve(tiny, "qaoa", 1, 1)


# ------------------------------------------------------- trajectory export

def test_trajectory_csv(tmp_path, tiny):
    model = build_inequality_qubo(tiny)
    rec = sa_run(model, schedule=short(iters=10), initial=[0, 0, 0], seed=1, record_trajectory=True)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(rec, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,energy,accepted,feasible"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[2] in {"0", "1"} and first[3] in {"0", "1"}


def test_trajectory_csv_requires_recording(tmp_path, tiny):
    rec = sa_run(build_inequality_qubo(tiny), schedule=short(iters=10), initial=[0, 0, 0], seed=1)
    with pytest.raises(ConfigurationError, match="record_trajectory"):
        write_trajectory_csv(rec, tmp_path / "t.csv")
