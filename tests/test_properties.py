"""Property tests of the lockstep annealer, its vectorized run seeding
against numpy's SeedSequence and PCG64, the penalty coefficient
formulas and their soundness, the packed crossbar read, the filter's verdicts,
matchline replay and array budgets, the QUBO file round trip, the instance
file round trip, the exhaustive oracle on random instances and matrices, the
one integer rule of every count, size, penalty setting and seed, and the one
real-number rule of every temperature, noise level and generator ratio."""

import itertools
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cimqubo import (
    DEFAULT_PENALTY,
    JSON_FORMAT,
    TEXT_FORMAT,
    AnnealSchedule,
    CapacityError,
    CimQuboError,
    ConfigurationError,
    DQuboModel,
    FilterConfig,
    InequalityQuboModel,
    QkpInstance,
    QuboMatrix,
    ValidationError,
    batch_solve,
    brute_force_oracle,
    build_dqubo,
    build_filter,
    build_inequality_qubo,
    dqubo_quantization_info,
    dump_instance,
    dump_qubo_json,
    filter_check,
    filter_study,
    filter_suite,
    flip_scale,
    generate_instance,
    load_qubo_json,
    overhead_report,
    parse_instance,
    program_crossbar,
    quantization_info,
    sa_run,
    sample_balanced_configs,
    success_rate_study,
    vmv_energy,
    write_trajectory_csv,
)
from cimqubo import anneal
from cimqubo.crossbar_sim import _line_layout, _RunCells
from cimqubo.filter_sim import VDD, _weight_tallies
from cimqubo.qkp import _NormalStream
from cimqubo.transform import _flip_magnitudes, _fold_weights, _penalty_bound, _penalty_flip_terms

from conftest import (
    make_instance,
    ref_anneal,
    ref_energy_bound,
    ref_enumerate,
    ref_filter_check,
    ref_flip_columns,
    ref_flip_scale,
    ref_initials,
    ref_int_setting,
    ref_plane_counts,
    ref_qubo_document,
    ref_qubo_energy,
    ref_real_setting,
    ref_run_seed,
    ref_weight,
)

BUILDS = {"hycim": build_inequality_qubo, "dqubo": build_dqubo}
SCHEDULE = AnnealSchedule(iterations=60, t_start=30.0, t_end=3.0)
NOISE = dict(filter_config=FilterConfig(noise_sigma=0.05), crossbar_noise_sigma=0.05)


@st.composite
def instances(draw):
    """n <= 8 items, weights up to 20, capacity at most 24 so penalty
    matrices stay small."""
    n = draw(st.integers(1, 8))
    upper = np.array(draw(st.lists(st.integers(0, 30), min_size=n * n, max_size=n * n))).reshape(n, n)
    profits = np.triu(upper) + np.triu(upper, k=1).T
    weights = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    capacity = draw(st.integers(1, min(sum(weights), 24)))
    return make_instance(profits, weights, capacity, name="prop")


common = settings(max_examples=25, deadline=None)


@pytest.mark.parametrize("backend, noise", [("exact-software", {}), ("behavioral-cim", NOISE)])
@common
@given(inst=instances(), mode=st.sampled_from(sorted(BUILDS)), master=st.integers(0, 2**32 - 1))
def test_batch_equals_single_runs(backend, noise, inst, mode, master):
    records = batch_solve(inst, mode, 2, 2, schedule=SCHEDULE, backend=backend,
                          master_seed=master, **noise)
    problem = BUILDS[mode](inst)
    initials = ref_initials(master, 2, problem.dim)
    singles = [sa_run(problem, backend=backend, schedule=SCHEDULE, initial=initials[i],
                      seed=ref_run_seed(master, i, r), **noise)
               for i in range(2) for r in range(2)]
    assert records == singles


@common
@given(inst=instances(), mode=st.sampled_from(sorted(BUILDS)), master=st.integers(0, 2**32 - 1))
def test_noiseless_array_backend_equals_exact(inst, mode, master):
    exact = batch_solve(inst, mode, 2, 2, schedule=SCHEDULE, master_seed=master)
    array = batch_solve(inst, mode, 2, 2, schedule=SCHEDULE, backend="behavioral-cim",
                        master_seed=master)
    assert array == exact
    problem = BUILDS[mode](inst)
    initial = ref_initials(master, 1, problem.dim)[0]
    runs = [sa_run(problem, backend=backend, schedule=SCHEDULE, initial=initial, seed=master,
                   record_trajectory=True)
            for backend in ("exact-software", "behavioral-cim")]
    assert runs[0] == runs[1]


@settings(max_examples=100, deadline=None)
@given(inst=instances(), mode=st.sampled_from(sorted(BUILDS)),
       backend=st.sampled_from(["exact-software", "behavioral-cim"]),
       iterations=st.integers(1, 200), t_start=st.floats(1e-9, 1e9),
       cooling=st.floats(1e-3, 1.0), seed=st.integers(0, 2**32 - 1),
       bits=st.lists(st.integers(0, 1), min_size=32, max_size=32))
# frozen and boiling schedules from an over-weight start, where hycim drifts first
@example(inst=make_instance([[3, 1], [1, 2]], [2, 3], 4), mode="hycim", backend="exact-software",
         iterations=40, t_start=1e-9, cooling=1.0, seed=5, bits=[1] * 32)
@example(inst=make_instance([[3, 1], [1, 2]], [2, 3], 4), mode="dqubo", backend="exact-software",
         iterations=40, t_start=1e9, cooling=1.0, seed=5, bits=[1] * 32)
def test_lockstep_run_equals_plain_loop_replay(inst, mode, backend, iterations, t_start,
                                               cooling, seed, bits):
    problem = BUILDS[mode](inst)
    initial = bits[: problem.dim]
    schedule = AnnealSchedule(iterations=iterations, t_start=t_start, t_end=t_start * cooling)
    assert_replays(problem, backend, schedule, initial, seed)


def assert_replays(problem, backend, schedule, initial, seed):
    rec = sa_run(problem, backend=backend, schedule=schedule, initial=initial, seed=seed,
                 record_trajectory=True)
    ref = ref_anneal(problem, schedule, initial, seed)
    assert rec.best_config.tolist() == ref["best_config"]
    assert rec.trajectory == ref["trajectory"]
    for name in ("best_energy", "best_qkp_value", "evaluations", "filter_rejections"):
        assert getattr(rec, name) == ref[name], name


KERNEL_PROBLEM = build_inequality_qubo(make_instance([[5, 2, 0], [2, 3, 1], [0, 1, 4]], [4, 7, 2], 9))


@settings(max_examples=100, deadline=None)
@given(master=st.integers(0, 2**64 - 1),
       keys=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
                     min_size=1, max_size=6),
       seed=st.integers(0, 2**64 - 1))
@example(master=0, keys=[(0, 0)], seed=0)
@example(master=1, keys=[(1, 0), (0, 1)], seed=1)
@example(master=2**32 - 1, keys=[(2**32 - 1, 2**32 - 1)], seed=2**32 - 1)
@example(master=2**32, keys=[(0, 2**32 - 1)], seed=2**32)
@example(master=2**63, keys=[(2**31, 2**31)], seed=2**63)
@example(master=2**64 - 1, keys=[(2**32 - 1, 0)], seed=2**64 - 1)
def test_seed_kernel_equals_numpy_seeding(master, keys, seed):
    initial, run = zip(*keys)
    seeds = anneal._spawn_seeds(master, 1, list(initial), list(run)).tolist()
    assert seeds == [ref_run_seed(master, i, r) for i, r in keys]
    # a one-word key, as filter_suite derives each instance's seed
    assert anneal._spawn_seeds(master, list(initial)).tolist() == [
        int(np.random.SeedSequence(master, spawn_key=(i,)).generate_state(1, np.uint64)[0])
        for i in initial]
    seeds.append(seed)
    states = anneal._generator_states(np.array(seeds, dtype=np.uint64))
    for s, (state, inc) in zip(seeds, states, strict=True):
        assert np.random.default_rng(s).bit_generator.state == {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}
    for s in (seeds[0], seed):
        assert_replays(KERNEL_PROBLEM, "exact-software", SCHEDULE, [1, 0, 1], s)


INT32_MAX = 2**31 - 1
TINY = 5e-324  # the smallest positive float64: T g underflows to 0


def hycim_diag(diag):
    return build_inequality_qubo(make_instance(np.diag(diag), [1] * len(diag), len(diag)))


def cancelling_profits(weights, capacity, extra=0):
    """Profits w_i w_j (plus extra on the off-diagonal neighbours), which beta = 1
    cancels in the penalty matrix: its items couple only through extra, while
    the profit field and beta s^2 still grow as (sum w)^2."""
    near = np.eye(len(weights), k=1, dtype=np.int64)
    profits = np.outer(weights, weights) + extra * (near + near.T)
    return make_instance(profits, weights, capacity, name="cancel")


# sum |q_ij| + |offset| is 1080046 and fits int32, while beta s^2 and the profit field reach 8.1e9
CANCEL_INT32 = cancelling_profits([40_000, 50_000], 3)
# sum |p_ij| is 4.5 * 2^53 and sum |q_ij| + |offset| 1.2e9: a float64 start field is off by 2
CANCEL_FLOAT = cancelling_profits([2**26 + 1, 2**26 + 3, 2**26 + 5], 2, extra=1)


@st.composite
def lane_boundary_runs(draw):
    """A problem scaled so that sum |q_ij| + |offset| lies a few steps either side of
    2^31 - 1, the last bound whose bound + 1 fits int32, with a schedule that
    is frozen, scaled to the energies, or hot past any energy change."""
    inst, mode = draw(instances()), draw(st.sampled_from(sorted(BUILDS)))
    unit = _flip_magnitudes(BUILDS[mode](inst))[2]
    assume(unit > 0)
    scale = draw(st.integers(max(1, INT32_MAX // unit - 1), INT32_MAX // unit + 2))
    scaled = make_instance(inst.profits * scale, inst.weights, inst.capacity)
    # alpha and beta scale with the profits, so the whole QUBO scales by scale
    problem = (build_inequality_qubo(scaled) if mode == "hycim"
               else build_dqubo(scaled, DEFAULT_PENALTY * scale, DEFAULT_PENALTY * scale))
    t_start = draw(st.one_of(st.floats(TINY, 1e300),
                             st.floats(1e-2, 1e2).map(lambda t: t * scale)))
    t_end = max(t_start * draw(st.floats(1e-3, 1.0)), TINY)
    schedule = AnnealSchedule(draw(st.integers(1, 100)), t_start, t_end)
    initial = draw(st.lists(st.integers(0, 1), min_size=problem.dim, max_size=problem.dim))
    return problem, schedule, initial


@settings(max_examples=50, deadline=None)
@given(run=lane_boundary_runs(), backend=st.sampled_from(["exact-software", "behavioral-cim"]),
       seed=st.integers(0, 2**32 - 1))
# field + q_jj reaches 3e9 here: start energies summed in int32 wrapped to 647483645
@example(run=(hycim_diag([1_500_000_000, 3]), AnnealSchedule(20, 5.0, 1.0), [1, 1]),
         backend="exact-software", seed=1)
# bound 2^31 - 2, the last int32 lane, and T g past bound + 1 = INT32_MAX: every move passes
@example(run=(hycim_diag([INT32_MAX - 4, 3]), AnnealSchedule(20, 1e12, 1e12), [1, 1]),
         backend="exact-software", seed=2)
# bound 2^31 - 1, the first int64 lane: bound + 1 as an int32 threshold would wrap
@example(run=(hycim_diag([INT32_MAX - 3, 3]), AnnealSchedule(20, 1e12, 1e12), [1, 1]),
         backend="exact-software", seed=2)
# T g underflows to 0: only dE <= 0 passes, and item 0 flips at dE = 0
@example(run=(hycim_diag([0, 1_500_000_000]), AnnealSchedule(20, TINY, TINY), [0, 1]),
         backend="exact-software", seed=3)
# bound 2^53 and dE = bound: bound + 1 is no float64, the threshold must still pass it
@example(run=(hycim_diag([2**53]), AnnealSchedule(5, 1e300, 1e300), [1]),
         backend="exact-software", seed=4)
# the factored penalty terms outgrow sum |q_ij| + |offset|: the lane must hold them, not only energies
@example(run=(build_dqubo(CANCEL_INT32, 2, 1), AnnealSchedule(60, 1e6, 1e4), [1, 1, 0, 1, 0]),
         backend="exact-software", seed=5)
@example(run=(build_dqubo(CANCEL_FLOAT, 2, 1), AnnealSchedule(60, 1e9, 1e7), [1, 1, 1, 0, 1]),
         backend="exact-software", seed=6)
def test_lane_boundary_run_equals_plain_loop_replay(run, backend, seed):
    problem, schedule, initial = run
    assert_replays(problem, backend, schedule, initial, seed)


def test_factored_penalty_lane_holds_every_term():
    # wrapped int32 terms would still sum to the right energies, so the replays
    # above cannot see a lane taken from sum |q_ij| + |offset|; the lane itself can
    for cancel in (CANCEL_INT32, CANCEL_FLOAT):
        assert anneal._Context(build_dqubo(cancel, 2, 1), "exact-software", SCHEDULE).energy_dtype == np.int64
    # the criterion-7 penalty problems stay in int32
    criterion7 = generate_instance(20, density=0.5, wmax=20, pmax=50, cap_ratio=0.5, seed=1)
    assert anneal._Context(build_dqubo(criterion7), "exact-software", SCHEDULE).energy_dtype == np.int32


@common
@given(inst=instances(), alpha=st.integers(1, 300), beta=st.integers(1, 20))
# n = 1 and C = 1 with alpha > beta: the slack diagonal |beta - alpha| is the peak
@example(inst=make_instance([[0]], [1], 1, name="one"), alpha=50, beta=1)
def test_dqubo_closed_form_quantization_matches_built_matrix(inst, alpha, beta):
    built = quantization_info(build_dqubo(inst, alpha, beta).qubo)
    assert dqubo_quantization_info(inst, alpha, beta) == built


@common
@given(inst=instances(), mode=st.sampled_from(sorted(BUILDS)), alpha=st.integers(1, 300),
       beta=st.integers(1, 20), bits=st.lists(st.integers(0, 1), min_size=32, max_size=32),
       j=st.integers(0, 31))
@example(inst=CANCEL_INT32, mode="dqubo", alpha=2, beta=1, bits=[1, 1, 0, 1, 0], j=4)
@example(inst=CANCEL_FLOAT, mode="dqubo", alpha=2, beta=1, bits=[1, 1, 1, 0, 1], j=1)
def test_factored_flip_change_equals_the_matrix_energy_change(inst, mode, alpha, beta, bits, j):
    if mode == "hycim":  # the inequality form is the fold with no penalty and no slack counts
        model, alpha, beta, counts = build_inequality_qubo(inst), 0, 0, range(1, 1)
    else:
        model, counts = build_dqubo(inst, alpha, beta), range(1, inst.capacity + 1)
    assert _fold_weights(model) == (alpha, beta, counts)
    coupling, diag, slopes, costs = (t.tolist() for t in _penalty_flip_terms(inst, alpha, beta, counts))
    bound = 2 * _penalty_bound(inst, alpha, beta)
    n, dim = inst.n, model.qubo.dim
    x, j = bits[:dim], j % dim
    y = list(x)
    y[j] ^= 1

    def fields(bits):  # z @ coupling + diag with z = (x, sum_k y_k), in Python ints
        z = bits[:n] + [sum(bits[n:])]
        return z, [sum(zl * row[i] for zl, row in zip(z, coupling)) + diag[i] for i in range(n + 1)]

    z, field = fields(x)
    s = sum(v * b for v, b in zip(slopes, x))
    energy = sum(zi * (f + d) for zi, f, d in zip(z, field, diag)) // 2 + alpha + beta * s * s
    assert energy == model.qubo.energy(x)
    delta, col = 1 - 2 * x[j], min(j, n)
    inner = field[col] + slopes[j] * 2 * beta * s
    change = delta * inner + costs[j]
    assert change == model.qubo.energy(y) - energy
    # a move shifts s by delta v_j and the field by delta times one coupling row
    assert sum(v * b for v, b in zip(slopes, y)) == s + delta * slopes[j]
    assert fields(y)[1] == [f + delta * c for f, c in zip(field, coupling[col])]
    held = field + [2 * beta * s, slopes[j] * 2 * beta * s, inner, change, energy, costs[j]]
    assert max(map(abs, held)) <= bound and _flip_magnitudes(model)[2] <= bound


# profits past 2^62, where the doubled coupling of the inequality form passes int64
NEAR_2_62 = make_instance([[2**62 + 5, 2**62 - 1, 3], [2**62 - 1, 2**62, 0], [3, 0, 2**63 - 1]],
                          [1, 2, 3], 4, name="near62")


@common
@given(inst=instances(), mode=st.sampled_from(sorted(BUILDS)), alpha=st.integers(1, 300),
       beta=st.integers(1, 20), scale=st.sampled_from([1, 7, 2**26, 2**40, 2**58]))
@example(inst=NEAR_2_62, mode="hycim", alpha=1, beta=1, scale=1)
@example(inst=CANCEL_FLOAT, mode="dqubo", alpha=2, beta=1, scale=1)
def test_flip_magnitudes_equal_the_expanded_matrix(inst, mode, alpha, beta, scale):
    scaled = make_instance(inst.profits * scale, inst.weights, inst.capacity)
    try:
        model = build_inequality_qubo(scaled) if mode == "hycim" else build_dqubo(scaled, alpha, beta)
    except CapacityError:
        assume(False)  # the builder refuses it, so nothing reads its magnitudes
    cols, diag, bound = _flip_magnitudes(model)
    q, offset = model.qubo.q.tolist(), model.qubo.offset
    assert bound == ref_energy_bound(q, offset)
    # each column is its exact sum rounded once, past 2^53 and 2^64 too
    assert cols.dtype == np.float64 and cols.tolist() == [float(c) for c in ref_flip_columns(q)]
    assert diag.dtype == np.int64 and diag.tolist() == [abs(q[j][j]) for j in range(len(q))]
    if bound <= 2**53:  # every model the annealer accepts: the float of the first formula
        assert flip_scale(model) == ref_flip_scale(model.qubo.q)
    assert flip_scale(model) == float(cols.mean() + diag.mean())


SIGNS = {"mixed": (-1, 1), "positive": (0, 1), "negative": (-1, 0), "zero": (0, 0)}


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 200), signs=st.sampled_from(sorted(SIGNS)),
       fill=st.sampled_from(["random", "zeros", "ones"]), peak=st.sampled_from([1, 40, 2**20]),
       seed=st.integers(0, 2**32 - 1))
# word boundaries: 63, 64 and 65 columns, and one past two full words
@example(dim=63, signs="mixed", fill="random", peak=40, seed=1)
@example(dim=64, signs="positive", fill="ones", peak=40, seed=2)
@example(dim=65, signs="negative", fill="random", peak=2**20, seed=3)
@example(dim=128, signs="zero", fill="ones", peak=40, seed=4)
@example(dim=129, signs="mixed", fill="ones", peak=1, seed=5)
@example(dim=129, signs="mixed", fill="zeros", peak=40, seed=6)
def test_packed_read_counts_match_plain_loops(dim, signs, fill, peak, seed):
    rng = np.random.default_rng(seed)
    low, high = SIGNS[signs]
    q = QuboMatrix(rng.integers(low * peak, high * peak + 1, size=(dim, dim)),
                   offset=int(rng.integers(-50, 51)))
    x = {"random": rng.integers(0, 2, size=dim), "zeros": np.zeros(dim, dtype=int),
         "ones": np.ones(dim, dtype=int)}[fill]
    reading = vmv_energy(program_crossbar(q), x)
    assert reading.exact_value == ref_qubo_energy(q.q.tolist(), x.tolist(), q.offset)
    assert reading.value == reading.exact_value
    assert reading.activated_cells == sum(ref_plane_counts(q.q.tolist(), x.tolist()))


def kept_counts(q, x):
    """ref_plane_counts as the crossbar keeps them: the zero matrix has one all-zero plane."""
    return ref_plane_counts(q, x) or [0]


@settings(max_examples=15, deadline=None)
@given(dim=st.integers(1, 40), signs=st.sampled_from(sorted(SIGNS)), peak=st.sampled_from([1, 40]),
       seed=st.integers(0, 2**32 - 1),
       steps=st.lists(st.tuples(*[st.booleans()] * 4), min_size=1, max_size=5))
# word boundaries, a flip and its flip back, and the zero matrix's one negative stack
@example(dim=1, signs="mixed", peak=40, seed=1, steps=[(False, True, True, True)] * 3)
@example(dim=63, signs="mixed", peak=40, seed=2, steps=[(False, True, True, True)] * 4)
@example(dim=64, signs="positive", peak=40, seed=3, steps=[(True, True, False, False)] * 3)
@example(dim=65, signs="negative", peak=40, seed=4, steps=[(False, True, True, True)] * 3)
@example(dim=129, signs="mixed", peak=40, seed=5, steps=[(False, True, True, True)] * 2)
@example(dim=129, signs="zero", peak=1, seed=6, steps=[(False, True, True, False)] * 3)
def test_kept_cell_counts_follow_single_flip_walks(dim, signs, peak, seed, steps):
    # two runs walk by single flips: each step flips a fresh bit or, with back set, the
    # run's last one again, and the run takes the proposal or leaves it
    rng = np.random.default_rng(seed)
    low, high = SIGNS[signs]
    q = rng.integers(low * peak, high * peak + 1, size=(dim, dim))  # the diagonal included
    model = program_crossbar(QuboMatrix(q))
    x = rng.integers(0, 2, size=(2, dim), dtype=np.int8)
    cells = _RunCells(model, _line_layout(model), x)
    qs, runs = q.tolist(), np.arange(2)
    assert cells.counts.tolist() == [kept_counts(qs, bits.tolist()) for bits in x]
    last = rng.integers(0, dim, size=2)
    for back0, take0, back1, take1 in steps:
        j = np.where([back0, back1], last, rng.integers(0, dim, size=2))
        proposal = x.copy()
        proposal[runs, j] ^= 1
        cells.propose(cells.units[j], cells.lines[j], 1 - 2 * x[runs, j].astype(np.int64))
        assert cells.proposed.tolist() == [kept_counts(qs, bits.tolist()) for bits in proposal]
        moved = np.array([take0, take1])
        cells.move(moved)
        x[moved] = proposal[moved]
        last = j
        assert cells.counts.tolist() == [kept_counts(qs, bits.tolist()) for bits in x]
    # a read of a run's tally sees its proposed counts
    reading = vmv_energy(model, cells.tallies[1])
    assert reading.exact_value == ref_qubo_energy(qs, proposal[1].tolist())
    with pytest.raises(ValidationError, match="^x: "):
        vmv_energy(program_crossbar(QuboMatrix(q)), cells.tallies[0])


def tally_reads_are_bit_vector_reads(model, cells, configs, seed):
    """Each run's tally read equals the read of its configuration, drawing the same noise."""
    for r, bits in enumerate(configs):
        rng_a, rng_b = np.random.default_rng([seed, r]), np.random.default_rng([seed, r])
        kept, direct = vmv_energy(model, cells.tallies[r], rng_a), vmv_energy(model, bits, rng_b)
        assert kept.value == direct.value
        assert kept.exact_value == direct.exact_value
        assert kept.activated_cells == direct.activated_cells
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


@settings(max_examples=15, deadline=None)
@given(dim=st.integers(1, 40), signs=st.sampled_from(sorted(SIGNS)), peak=st.sampled_from([1, 40, 2**40]),
       sigma=st.sampled_from([0.0, 0.05]), seed=st.integers(0, 2**32 - 1),
       steps=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=5))
# word boundaries, every sign layout and both noise settings, with reads before any proposal
@example(dim=1, signs="mixed", peak=40, sigma=0.05, seed=1, steps=[])
@example(dim=63, signs="mixed", peak=2**40, sigma=0.05, seed=2, steps=[(True, False)] * 4)
@example(dim=64, signs="positive", peak=40, sigma=0.0, seed=3, steps=[(True, True)] * 3)
@example(dim=65, signs="negative", peak=40, sigma=0.05, seed=4, steps=[(False, True)] * 3)
@example(dim=129, signs="mixed", peak=40, sigma=0.05, seed=5, steps=[(True, True)] * 2)
@example(dim=129, signs="zero", peak=1, sigma=0.05, seed=6, steps=[(True, False)] * 2)
def test_a_tally_read_is_the_bit_vector_read(dim, signs, peak, sigma, seed, steps):
    # the block's derived dot, spread and activated cells give the read of the
    # configuration itself: the same value, exact value, cells and draws
    rng = np.random.default_rng(seed)
    low, high = SIGNS[signs]
    q = QuboMatrix(rng.integers(low * peak, high * peak + 1, size=(dim, dim)),
                   offset=int(rng.integers(-50, 51)))
    model = program_crossbar(q, sigma)
    x = rng.integers(0, 2, size=(2, dim), dtype=np.int8)
    cells, runs = _RunCells(model, _line_layout(model), x), np.arange(2)
    tally_reads_are_bit_vector_reads(model, cells, x, seed)
    for take0, take1 in steps:
        j = rng.integers(0, dim, size=2)
        proposal = x.copy()
        proposal[runs, j] ^= 1
        cells.propose(cells.units[j], cells.lines[j], 1 - 2 * x[runs, j].astype(np.int64))
        tally_reads_are_bit_vector_reads(model, cells, proposal, seed)
        moved = np.array([take0, take1])
        cells.move(moved)
        x[moved] = proposal[moved]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), chunk=st.integers(1, 30),
       sizes=st.lists(st.none() | st.integers(0, 40), max_size=25))
# a scalar to start, requests past a chunk, empty requests, and a request at a chunk's end
@example(seed=0, chunk=1, sizes=[None, 40, 0, None, 3])
@example(seed=2**64 - 1, chunk=30, sizes=[29, None, 0, 30, 31, None])
def test_a_noise_stream_hands_out_its_generator_draws(seed, chunk, sizes):
    # drawn ahead in chunks or not, a run's normals are the ones its generator
    # hands out called directly, in the order they are asked for
    stream = _NormalStream(np.random.default_rng(seed), chunk)
    twin = np.random.default_rng(seed)
    for size in sizes:
        got, want = stream.standard_normal(size), twin.standard_normal(size)
        if size is None:
            assert type(got) is float and got == want
        else:
            assert got.dtype == np.float64 and got.tolist() == want.tolist()
        assert 0 <= stream.buffer.size - stream.at < chunk  # less than a chunk drawn ahead


@common
@given(inst=instances(), mode=st.sampled_from(sorted(BUILDS)), seed=st.integers(0, 2**32 - 1),
       bits=st.lists(st.integers(0, 1), min_size=32, max_size=32))
# an over-weight start, which drifts without a read before it is feasible
@example(inst=make_instance([[3, 1, 0], [1, 2, 1], [0, 1, 4]], [3, 3, 3], 4), mode="hycim", seed=5,
         bits=[1] * 32)
def test_array_tallies_are_the_annealed_configurations(inst, mode, seed, bits):
    # every check and read of a behavioral run sees the weight sum and the cell counts
    # of the configuration it judges: the initial state, then each proposal in turn
    problem = BUILDS[mode](inst)
    schedule = AnnealSchedule(iterations=20, t_start=30.0, t_end=3.0)
    initial = bits[: problem.dim]
    seen = {"filter_check": [], "vmv_energy": []}

    def spy(name, look):
        call = getattr(anneal, name)

        def wrapped(model, tally, rng):
            seen[name].append(look(tally))
            return call(model, tally, rng)
        return wrapped

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(anneal, "filter_check", spy("filter_check", lambda t: int(t.wsum)))
        patch.setattr(anneal, "vmv_energy", spy("vmv_energy", lambda t: t.counts.tolist()))
        sa_run(problem, "behavioral-cim", schedule, initial, seed)
    configs = [initial] + ref_anneal(problem, schedule, initial, seed)["proposals"]
    weights = [ref_weight(inst.weights.tolist(), c[: inst.n]) for c in configs]
    if mode == "hycim":
        assert seen["filter_check"] == weights
        configs = [c for c, w in zip(configs, weights) if w <= inst.capacity]
    else:
        assert seen["filter_check"] == []
    q = problem.qubo.q.tolist()
    assert seen["vmv_energy"] == [kept_counts(q, c) for c in configs]
    filt = build_filter(inst.weights, inst.capacity)
    tally = _weight_tallies(filt, np.array([weights[0]]))[0]
    assert filter_check(filt, tally).feasible == (weights[0] <= inst.capacity)
    with pytest.raises(ValidationError, match="^x: "):
        filter_check(build_filter(inst.weights, inst.capacity), tally)


@st.composite
def sound_penalty_instances(draw):
    """n + C <= 16, so all 2^(n + C) penalty configurations can be scored,
    with at least one item that fits on its own."""
    n = draw(st.integers(1, 8))
    capacity = draw(st.integers(1, 16 - n))
    upper = np.array(draw(st.lists(st.integers(0, 30), min_size=n * n, max_size=n * n))).reshape(n, n)
    profits = np.triu(upper) + np.triu(upper, k=1).T
    weights = draw(st.lists(st.integers(1, 2 * capacity), min_size=n, max_size=n))
    assume(min(weights) <= capacity)
    return make_instance(profits, weights, capacity, name="sound")


@common
@given(inst=sound_penalty_instances())
def test_dqubo_ground_state_is_the_optimum_at_sound_penalties(inst):
    # every violated constraint costs at least min(alpha, beta), above the total profit
    penalty = int(inst.profits.sum()) + 1
    qubo = build_dqubo(inst, penalty, penalty).qubo
    configs = (np.arange(2**qubo.dim)[:, None] >> np.arange(qubo.dim)) & 1
    energies = ((configs @ qubo.q) * configs).sum(axis=1) + qubo.offset
    ground = configs[energies == energies.min(), : inst.n]
    assert (ground @ inst.weights <= inst.capacity).all()
    assert energies.min() == -brute_force_oracle(inst).best_value


@st.composite
def filter_setups(draw, over_budget=False):
    """Weights within one column budget and a capacity the replica can hold.
    Columns of up to 2^52 rows hold weights and capacities past 2^53, where
    the drop per weight unit nears the float64 resolution of VDD.  With
    over_budget the weights and the capacity may also exceed their budgets by
    up to one column."""
    rows = draw(st.integers(1, 16) | st.integers(1, 2**52))
    levels = draw(st.integers(1, 8))
    budget = rows * levels
    slack = budget if over_budget else 0
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(0, budget + slack), min_size=n, max_size=n))
    capacity = draw(st.integers(1, n * budget + slack))
    return weights, capacity, FilterConfig(rows=rows, levels_per_cell=levels)


# 2 - (2^54 - 1) / 2^54 and 2 - 2^54 / 2^54 round to the same float64 value,
# so weight 2^54 would read like the capacity 2^54 - 1
RESOLUTION_LIMIT = ([2**54], 2**54 - 1, FilterConfig(rows=2**52, levels_per_cell=4))


@common
@given(setup=filter_setups())
@example(setup=RESOLUTION_LIMIT)
def test_noiseless_filter_is_the_weight_inequality(setup):
    weights, capacity, config = setup
    try:
        model = build_filter(weights, capacity, config)
    except ConfigurationError:
        # refused only when capacity and capacity + 1 leave the same matchline
        drop = VDD / (2.0 * max(capacity, *weights))
        assert VDD - drop * capacity == VDD - drop * (capacity + 1)
        return
    for x in itertools.product((0, 1), repeat=len(weights)):
        assert filter_check(model, list(x)).feasible == (ref_weight(weights, x) <= capacity)


@common
@given(setup=filter_setups())
@example(setup=([3], 3, FilterConfig()))
def test_replica_matchline_sits_at_half_vdd_or_above(setup):
    # the replica never discharges to the 0 V clamp, where every over-weight
    # input would tie with it and pass
    try:
        model = build_filter(*setup)
    except ConfigurationError:
        return
    assert model.replica_ml >= VDD / 2


@common
@given(setup=filter_setups(over_budget=True))
def test_build_filter_raises_capacity_error_exactly_over_budget(setup):
    weights, capacity, config = setup
    budget = config.rows * config.levels_per_cell
    over = max(weights) > budget or capacity > len(weights) * budget
    raised = False
    try:
        build_filter(weights, capacity, config)
    except CapacityError:
        raised = True
    except ConfigurationError:
        pass
    assert raised == over


@common
@given(setup=filter_setups(), sigma=st.sampled_from([0.0, 0.05, 0.8]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_filter_check_equals_plain_matchline_replay(setup, sigma, seed, data):
    weights, capacity, config = setup
    config = replace(config, noise_sigma=sigma)
    try:
        model = build_filter(weights, capacity, config)
    except ConfigurationError:
        return
    bits = st.lists(st.integers(0, 1), min_size=len(weights), max_size=len(weights))
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for x in data.draw(st.lists(bits, min_size=1, max_size=8)):
        decision = filter_check(model, x, rng)
        working, feasible = ref_filter_check(weights, capacity, config, x, twin)
        assert (decision.working_ml, decision.feasible) == (working, feasible)
    assert rng.random() == twin.random()   # both drew the same number of normals


@common
@given(inst=instances(), mode=st.sampled_from(sorted(BUILDS)), alpha=st.integers(1, 50),
       beta=st.integers(1, 50))
def test_qubo_json_round_trip_keeps_the_constraint(inst, mode, alpha, beta):
    model = build_inequality_qubo(inst) if mode == "hycim" else build_dqubo(inst, alpha, beta)
    text = dump_qubo_json(model)
    assert load_qubo_json(text).qubo == model.qubo
    sidecars = json.loads(text)
    assert sidecars["weights"] == inst.weights.tolist()
    assert sidecars["capacity"] == inst.capacity
    if mode == "hycim":
        assert ("alpha" in sidecars, "beta" in sidecars) == (False, False)
    else:
        assert (sidecars["alpha"], sidecars["beta"]) == (alpha, beta)


@common
@given(n=st.integers(2, 12), density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(sorted(BUILDS)),
       alpha=st.integers(1, 50), beta=st.integers(1, 50))
def test_qubo_json_writes_the_reference_document_one_entry_per_line(n, density, seed, mode,
                                                                     alpha, beta):
    """Sparse (a diagonal or thinner profit matrix from 5 items up) and dense
    documents: the value is the reference's, each key takes one line and each
    matrix row or triple one more."""
    inst = generate_instance(n, density=density, wmax=5, seed=seed)
    model = build_inequality_qubo(inst) if mode == "hycim" else build_dqubo(inst, alpha, beta)
    text = dump_qubo_json(model)
    doc = json.loads(text)
    assert doc == ref_qubo_document(model)
    assert list(doc) == sorted(doc)
    entries = doc["entries"]
    lines = text.splitlines()
    assert len(lines) == 2 + len(doc) + (len(entries) + 1 if entries else 0)
    if entries:
        start = lines.index('  "entries": [') + 1
        assert [json.loads(line.removesuffix(",")) for line in lines[start:start + len(entries)]] == entries
        assert len(entries) == (model.dim if doc["encoding"] == "dense" else np.count_nonzero(model.qubo.q))


def test_qubo_json_writes_an_all_zero_matrix_as_no_entries():
    model = build_inequality_qubo(make_instance(np.zeros((3, 3), dtype=np.int64), [1, 2, 3], 4))
    text = dump_qubo_json(model)
    assert '  "entries": [],' in text.splitlines()
    assert json.loads(text) == ref_qubo_document(model)
    assert load_qubo_json(text).qubo == model.qubo


@st.composite
def oracle_instances(draw):
    """n <= 10 items with small profits, so equal optima (ties) are common."""
    n = draw(st.integers(1, 10))
    upper = np.array(draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n))).reshape(n, n)
    profits = np.triu(upper) + np.triu(upper, k=1).T
    weights = draw(st.lists(st.integers(1, 10), min_size=n, max_size=n))
    capacity = draw(st.integers(1, sum(weights)))
    return make_instance(profits, weights, capacity, name="oracle")


@common
@given(inst=oracle_instances())
# n = 1 leaves the low half empty; the n = 2 tie spans both halves
@example(inst=make_instance([[4]], [2], 3, name="one-fits"))
@example(inst=make_instance([[0]], [1], 1, name="one-zero"))
@example(inst=make_instance([[1, 0], [0, 1]], [1, 1], 1, name="two-tie"))
def test_oracle_matches_plain_enumeration(inst):
    value, config, feasible = ref_enumerate(inst.profits.tolist(), inst.weights.tolist(),
                                            inst.capacity)
    result = brute_force_oracle(inst)
    assert result.best_value == value
    assert result.best_config.tolist() == config   # the lowest k = sum x_i 2^i among ties
    assert result.feasible_count == feasible


@st.composite
def wide_instances(draw):
    """n <= 12 items with profits, weights and capacity up to 2^40."""
    n = draw(st.integers(1, 12))
    upper = draw(st.lists(st.integers(0, 2**40), min_size=n * n, max_size=n * n))
    upper = np.array(upper, dtype=np.int64).reshape(n, n)
    profits = np.triu(upper) + np.triu(upper, k=1).T
    weights = draw(st.lists(st.integers(1, 2**40), min_size=n, max_size=n))
    # inner spaces survive the text format's name line; surrounding ones are refused
    name = draw(st.text("abcxyz0189_-. ", min_size=1, max_size=12).map(str.strip).filter(bool))
    return make_instance(profits, weights, draw(st.integers(1, 2**40)), name=name)


@common
@given(inst=wide_instances(), fmt=st.sampled_from([TEXT_FORMAT, JSON_FORMAT]))
def test_instance_file_round_trip(inst, fmt):
    assert parse_instance(dump_instance(inst, fmt), fmt) == inst


# --------------------------------------- one integer rule for settings and seeds

THREE = make_instance([[5, 2, 0], [2, 3, 1], [0, 1, 4]], [4, 7, 2], 9, name="three")
FIVE_STEPS = AnnealSchedule(iterations=5, t_start=4.0, t_end=1.0)


def _study(num_initials=1, runs_per_initial=1, iterations=5, jobs=1, master_seed=0):
    return success_rate_study(THREE, num_initials, runs_per_initial, master_seed,
                              iterations=iterations, jobs=jobs)


# (the call site, the ValidationError field, the least valid value, the call)
# for every count, size and penalty setting; each call returns something that
# compares by value, or the repr of a model that does not
INT_SETTINGS = [
    ("AnnealSchedule", "iterations", 1, lambda v: AnnealSchedule(v, 2.0, 1.0)),
    ("batch_solve", "num_initials", 1, lambda v: batch_solve(THREE, "hycim", v, 1, FIVE_STEPS)),
    ("batch_solve", "runs_per_initial", 1, lambda v: batch_solve(THREE, "hycim", 1, v, FIVE_STEPS)),
    ("batch_solve", "jobs", 1, lambda v: batch_solve(THREE, "hycim", 1, 1, FIVE_STEPS, jobs=v)),
    ("batch_solve", "alpha", 1, lambda v: batch_solve(THREE, "dqubo", 1, 1, FIVE_STEPS, alpha=v)),
    ("batch_solve", "beta", 1, lambda v: batch_solve(THREE, "dqubo", 1, 1, FIVE_STEPS, beta=v)),
    ("build_dqubo", "alpha", 1, lambda v: repr(build_dqubo(THREE, alpha=v))),
    ("build_dqubo", "beta", 1, lambda v: repr(build_dqubo(THREE, beta=v))),
    ("dqubo_quantization_info", "alpha", 1, lambda v: dqubo_quantization_info(THREE, v, 2)),
    ("dqubo_quantization_info", "beta", 1, lambda v: dqubo_quantization_info(THREE, 2, v)),
    ("FilterConfig", "rows", 1, lambda v: FilterConfig(rows=v)),
    ("FilterConfig", "levels_per_cell", 1, lambda v: FilterConfig(levels_per_cell=v)),
    ("build_filter", "capacity", 1, lambda v: repr(build_filter([4, 7, 2], v))),
    ("filter_study", "num_samples", 2, lambda v: filter_study(THREE, v)),
    ("sample_balanced_configs", "num_feasible", 0,
     lambda v: [a.tolist() for a in sample_balanced_configs([4, 7, 2], 9, v, 1)]),
    ("sample_balanced_configs", "num_infeasible", 0,
     lambda v: [a.tolist() for a in sample_balanced_configs([4, 7, 2], 9, 1, v)]),
    ("QkpInstance", "n", 1, lambda v: QkpInstance("q", v, [[1]], [1], 1)),
    ("QkpInstance", "capacity", 1, lambda v: QkpInstance("q", 1, [[1]], [1], v)),
    ("generate_instance", "n", 2, lambda v: generate_instance(v)),
    ("generate_instance", "wmax", 1, lambda v: generate_instance(4, wmax=v)),
    ("generate_instance", "pmax", 1, lambda v: generate_instance(4, pmax=v)),
    ("success_rate_study", "num_initials", 1, lambda v: _study(num_initials=v)),
    ("success_rate_study", "runs_per_initial", 1, lambda v: _study(runs_per_initial=v)),
    ("success_rate_study", "iterations", 1, lambda v: _study(iterations=v)),
    ("success_rate_study", "jobs", 1, lambda v: _study(jobs=v)),
]
NOISY_FILTER = build_filter([4, 7, 2], 9, FilterConfig(noise_sigma=0.1))
# (the call site, the ValidationError field, the call) for every seed; seeds
# are integers in [0, 2^64), as the run seeds derived from a master seed are uint64
SEEDS = [
    ("batch_solve", "master_seed",
     lambda v: batch_solve(THREE, "hycim", 1, 2, FIVE_STEPS, master_seed=v)),
    ("success_rate_study", "master_seed", lambda v: _study(master_seed=v)),
    ("sa_run", "seed", lambda v: sa_run(build_inequality_qubo(THREE), schedule=FIVE_STEPS,
                                        initial=[0, 1, 0], seed=v)),
    ("generate_instance", "seed", lambda v: generate_instance(4, seed=v)),
    ("filter_study", "seed", lambda v: filter_study(THREE, 4, seed=v)),
    ("filter_suite", "seed", lambda v: filter_suite([THREE, THREE], 4, seed=v)),
    ("sample_balanced_configs", "seed",
     lambda v: [a.tolist() for a in sample_balanced_configs([4, 7, 2], 9, 1, 1, seed=v)]),
    ("filter_check", "rng", lambda v: filter_check(NOISY_FILTER, [1, 1, 0], v)),
]
RULES = ([(site, name, minimum, 2**63, call) for site, name, minimum, call in INT_SETTINGS]
         + [(site, name, 0, 2**64, call) for site, name, call in SEEDS])


def _outcome(call, value):
    """What a call gives: its result, or the type and text of what it raised."""
    try:
        result = call(value)
    except CimQuboError as exc:
        return type(exc), str(exc)
    return repr(result), result


# small integers in every numeric form, so a valid value never asks for much work
NEAR = st.integers(-3, 6)
SETTING_VALUES = st.one_of(
    NEAR, NEAR.map(float), NEAR.map(np.int64), NEAR.map(np.float64), st.integers(0, 6).map(np.uint8),
    st.integers(min_value=2**63), st.integers(2**63, 2**64 - 1).map(np.uint64),
    st.integers(max_value=-1),
    st.floats().filter(lambda f: not f.is_integer()),
    st.sampled_from([1e19, -1e19, 2.0**63, np.bool_(True), "3", b"3", 3j, (), [], (3,), np.array([3])]),
)


@pytest.mark.parametrize("site, name, minimum, limit, call", RULES,
                         ids=[f"{site}.{name}" for site, name, *_ in RULES])
@settings(max_examples=15, deadline=None)
@given(value=SETTING_VALUES)
@example(value=2.5)
@example(value=math.nan)
@example(value=math.inf)
@example(value=True)
@example(value=2**63)
@example(value="")
@example(value=None)
@example(value=[3])
# the holes before the rule: FilterConfig(rows=2.5) and build_filter(w, 2.5) ran silently,
# filter_study(inst, 3.0) raised a bare TypeError, batch_solve(..., jobs=0) ran serially and
# QkpInstance(n=np.int64(2)) was refused
@example(value=3.0)
@example(value=0)
@example(value=np.int64(2))
# seeds: a master seed of 2.5 reached numpy as a bare TypeError, -1 as a bare
# ValueError and True ran as 1; uint64 values past the int64 range are valid seeds
@example(value=-1)
@example(value=2**64)
@example(value="1")
@example(value=np.uint64(2**63 + 1))
@example(value=2**64 - 1)
def test_integer_settings_follow_one_rule(site, name, minimum, limit, call, value):
    for outside in (minimum - 1, limit):
        with pytest.raises(ValidationError) as refused:
            call(outside)
        assert refused.value.field == name
    number = ref_int_setting(value, minimum, limit)
    if value is None and name == "rng":
        call(value)  # None is the fresh-entropy default of a single read
    elif number is None:
        with pytest.raises(ValidationError) as refused:
            call(value)
        assert refused.value.field == name, site
    else:
        want = _outcome(call, number)
        assert _outcome(call, value) == want
        if float(number) == number:  # seeds past 2^53 have no float twin
            assert _outcome(call, float(number)) == want


@pytest.mark.parametrize("seed", [3.0, np.int64(3), np.uint64(3)], ids=["float", "int64", "uint64"])
def test_master_seed_forms_give_equal_records(seed):
    assert batch_solve(THREE, "hycim", 2, 2, FIVE_STEPS, master_seed=seed) == batch_solve(
        THREE, "hycim", 2, 2, FIVE_STEPS, master_seed=3)
    report = _study(master_seed=seed)
    assert report == _study(master_seed=3) and type(report.master_seed) is int


# ------------------------------------------------- one instance rule

# (the call site, the ValidationError field, the call) for every public
# function that takes an instance
INSTANCE_CALLS = [
    ("InequalityQuboModel", "instance", lambda v: InequalityQuboModel(v)),
    ("DQuboModel", "instance", lambda v: DQuboModel(v, 2, 2)),
    ("build_inequality_qubo", "instance", lambda v: build_inequality_qubo(v)),
    ("build_dqubo", "instance", lambda v: build_dqubo(v)),
    ("dqubo_quantization_info", "instance", lambda v: dqubo_quantization_info(v, 2, 2)),
    ("brute_force_oracle", "instance", lambda v: brute_force_oracle(v)),
    ("dump_instance", "instance", lambda v: dump_instance(v)),
    ("overhead_report", "instance", lambda v: overhead_report(v)),
    ("success_rate_study", "instance", lambda v: success_rate_study(v, 1, 1, iterations=5)),
    ("filter_study", "instance", lambda v: filter_study(v, 4)),
    ("filter_suite", "instances[1]", lambda v: filter_suite([THREE, v], 4)),
    ("batch_solve", "instance", lambda v: batch_solve(v, "hycim", 1, 1, FIVE_STEPS)),
]


@pytest.mark.parametrize("site, name, call", INSTANCE_CALLS,
                         ids=[site for site, *_ in INSTANCE_CALLS])
@pytest.mark.parametrize("value", [build_dqubo(THREE), None], ids=["model", "None"])
def test_instance_arguments_follow_one_rule(site, name, call, value):
    # a model in place of its instance escaped as a bare AttributeError
    with pytest.raises(ValidationError, match="must be a QkpInstance") as refused:
        call(value)
    assert refused.value.field == name, site
    call(THREE)


# (the call site, the ValidationError field, the call) for every public
# function whose model, matrix or record argument escaped as a bare
# AttributeError when given another type
TYPED_CALLS = [
    ("vmv_energy", "model", lambda path: vmv_energy(None, [1, 0])),
    ("filter_check", "model", lambda path: filter_check(None, [1, 0])),
    ("program_crossbar", "q", lambda path: program_crossbar(np.eye(3, dtype=np.int64))),
    ("write_trajectory_csv", "record", lambda path: write_trajectory_csv(None, path)),
]


@pytest.mark.parametrize("site, name, call", TYPED_CALLS, ids=[site for site, *_ in TYPED_CALLS])
def test_a_wrong_argument_type_is_refused(site, name, call, tmp_path):
    with pytest.raises(ValidationError, match="must be a ") as refused:
        call(tmp_path / "t.csv")
    assert refused.value.field == name, site
    assert not (tmp_path / "t.csv").exists()


# ------------------------------------------------- one real-number rule for settings

FLOAT_MAX = sys.float_info.max
# (the call site, the ValidationError field, the least and the greatest valid
# value, the call) for every real-valued setting
REAL_SETTINGS = [
    ("AnnealSchedule", "t_end", TINY, FLOAT_MAX, lambda v: AnnealSchedule(5, v, v)),
    ("AnnealSchedule", "t_start", 1.0, FLOAT_MAX, lambda v: AnnealSchedule(5, v, 1.0)),
    ("FilterConfig", "noise_sigma", 0.0, FLOAT_MAX, lambda v: FilterConfig(noise_sigma=v)),
    ("program_crossbar", "noise_sigma", 0.0, FLOAT_MAX,
     lambda v: vmv_energy(program_crossbar(build_inequality_qubo(THREE).qubo, v), [1, 0, 1], 3)),
    ("sa_run", "crossbar_noise_sigma", 0.0, FLOAT_MAX,
     lambda v: sa_run(build_inequality_qubo(THREE), "behavioral-cim", FIVE_STEPS, [0, 1, 0], 1,
                      crossbar_noise_sigma=v)),
    ("batch_solve", "crossbar_noise_sigma", 0.0, FLOAT_MAX,
     lambda v: batch_solve(THREE, "hycim", 1, 2, FIVE_STEPS, "behavioral-cim", crossbar_noise_sigma=v)),
    ("generate_instance", "density", 0.0, 1.0, lambda v: generate_instance(4, density=v)),
    ("generate_instance", "cap_ratio", TINY, FLOAT_MAX, lambda v: generate_instance(4, cap_ratio=v)),
]

# small reals in every numeric form, so a valid value never asks for much work
NEAR_REAL = st.floats(-2.0, 5.0)
REAL_VALUES = st.one_of(
    NEAR_REAL, NEAR_REAL.map(np.float64), NEAR_REAL.map(np.float32), NEAR, NEAR.map(np.int64),
    st.integers(0, 6).map(np.uint8), st.integers(min_value=2**1024), st.integers(max_value=-1),
    st.floats(max_value=-1.0), st.floats(allow_nan=True).filter(lambda f: not math.isfinite(f)),
    st.sampled_from([np.bool_(False), "1", b"1", 1j, (), [0.5], np.array(0.5), np.float32(-3e38)]),
)


@pytest.mark.parametrize("site, name, minimum, maximum, call", REAL_SETTINGS,
                         ids=[f"{site}.{name}" for site, name, *_ in REAL_SETTINGS])
@settings(max_examples=15, deadline=None)
@given(value=REAL_VALUES)
# the holes before the rule: True and np.bool_(True) ran as 1.0, None, "0.5", 1j and
# np.array([0.5]) escaped as a bare TypeError, 10**400 as a bare OverflowError, and a
# float32 compared against the float64 maximum overflows in the cast
@example(value=True)
@example(value=np.bool_(True))
@example(value=None)
@example(value="0.5")
@example(value=1j)
@example(value=np.array([0.5]))
@example(value=10**400)
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=np.float32(3e38))
def test_real_settings_follow_one_rule(site, name, minimum, maximum, call, value):
    for outside in (math.nextafter(minimum, -math.inf), math.nextafter(maximum, math.inf)):
        with pytest.raises(ValidationError) as refused:
            call(outside)
        assert refused.value.field == name
    call(minimum)
    number = ref_real_setting(value, minimum, maximum)
    if number is None:
        with pytest.raises(ValidationError) as refused:
            call(value)
        assert refused.value.field == name, site
    else:
        assert _outcome(call, value) == _outcome(call, number)


@settings(max_examples=20, deadline=None)
@given(density=st.floats(0.0, 1.0, width=32), cap_ratio=st.floats(0.0625, 4.0, width=32))
def test_generator_meta_from_numpy_floats_round_trips_through_json(density, cap_ratio):
    # float32 settings once reached meta as numpy scalars, which json.dumps refuses
    plain = generate_instance(4, density=density, cap_ratio=cap_ratio, seed=5)
    narrow = generate_instance(4, density=np.float32(density), cap_ratio=np.float32(cap_ratio), seed=5)
    text = dump_instance(narrow, JSON_FORMAT)
    assert text == dump_instance(plain, JSON_FORMAT)
    back = parse_instance(text, JSON_FORMAT)
    assert back == plain and back.meta == plain.meta
