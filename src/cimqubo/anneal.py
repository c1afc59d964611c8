"""Filter-gated simulated annealing over both problem formulations.

Modes follow the problem type: an InequalityQuboModel anneals n item bits with
the inequality filter screening every proposal before the crossbar is read
("hycim"), a DQuboModel anneals all n + C bits on the penalty landscape with
no filter ("dqubo").

One lockstep loop serves both modes and both backends.  It advances a block
of runs together on (runs, dim) arrays, one proposal per run per iteration.
Every run pregenerates its flips and Metropolis gates from its own seed, so
its record does not depend on the block size, on the runs it shares a block
with, or on the jobs worker count; sa_run is a block of one.  What depends on
the flips alone (their indices, positions and weights and the crossbar lines
they read) is gathered once per chunk of steps.  dqubo is the same loop with
a gate that always passes.  The backends differ only in the gate and the
energy: "exact-software" applies the weight inequality and updates energies
through local fields, "behavioral-cim" makes one filter check (in hycim mode)
and, when it passes, one crossbar read per run and proposal.  The behavioral
runs keep their array state as the exact runs keep their fields: each run's
packed configuration, per-plane conducting-cell counts and selected weight
sum, which crossbar_sim._RunCells updates from the flipped bit for all runs
at once, deriving each proposal's read terms.  The check and the read take
these tallies in place of a configuration and make only the run's noise
draws and sums.  A run's noise comes from its own generator, drawn ahead in
chunks of up to 64 steps' worth (qkp._NormalStream): the same numbers in the
same order as draws made call by call.  With noise disabled the two backends
return identical records.

A run's seed and generator are numpy's: run (i, r) of a batch has seed
SeedSequence(master_seed, spawn_key=(1, i, r)).generate_state(1, uint64) and
draws from default_rng(seed).  Neither is called per run.  _seed_table and
_generator_states derive every run seed of a batch and PCG64 (state, inc) of
a block in one vectorized pass over the fixed SeedSequence hash rounds and the
PCG64 seeding steps, and the property tests check both against numpy.  numpy
makes every draw, from one generator that takes each run's state in turn.
Run seeds are the (1, i, r) keys of _spawn_seeds, which bench.filter_suite
also calls with the one-word keys (k,) of its instances.

The exact backend never expands a model's matrix.  In both modes it anneals
the factored penalty of transform._penalty_flip_terms, keeping per run n + 1
fields (the profit fields and 2 alpha (sum y - 1)) and 2 beta s, so work and
kept memory do not grow with C; hycim is the fold at alpha = beta = 0 with no
slack bits, whose proposals skip the zero slope and cost terms.  flip_scale
and the bound below come from transform._flip_magnitudes, which sums the
magnitudes of the matrix's coefficients from the same fold.  A step gathers
the moved runs' rows when under half the block moved, else moves every row
under a 0 or +-1 mask, as multi-replica annealers do: at 1000 runs the gather
costs less below about 0.4 of runs moved with 21 fields, 0.6 with 101.  hycim
moves under a tenth of its runs a step, dqubo 56-65 % (criterion 7).

Proposals flip one uniformly chosen bit.  A proposal is accepted when its
energy change dE satisfies dE <= 0, otherwise with probability exp(-dE / T)
under a geometric temperature schedule.  In hycim mode the gated energy is
(w.x <= C) * x^T q x: while the current configuration is still infeasible it
sits at energy zero and over-weight proposals are accepted as zero-energy
drift without touching the crossbar; once a feasible configuration has been
accepted, over-weight proposals are filter-rejected outright and the walk
never leaves the feasible region.

Energies, fields and thresholds share one lane per context, chosen from a
bound on everything the loop holds: the matrix's sum |q_ij| + |offset|, or for
factored dqubo twice the term-by-term bound DQuboModel guards below 2^63.
The lane is int32 when that bound + 1 fits, else int64, and float64 under
crossbar read noise.  Fields start as one int64 product of the configurations
with the coupling, exact below the 2^63 lane guard.  An integer dE < T g iff
dE < ceil(T g), so lane thresholds are ceil(T g) in [1, sum |q_ij| + |offset| + 1].
"""
from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .crossbar_sim import _line_layout, _RunCells, program_crossbar, vmv_energy
from .errors import ConfigurationError, ValidationError
from .filter_sim import FilterConfig, _weight_tallies, build_filter, filter_check
from .qkp import (_FLOAT_EXACT, _LEAST_POSITIVE, _SEED_LIMIT, QkpInstance, _as_float, _as_int,
                  _as_type, _fields_equal, _NormalStream, as_bits)
from .transform import (
    DEFAULT_PENALTY,
    DQuboModel,
    InequalityQuboModel,
    _flip_magnitudes,
    _fold_weights,
    _penalty_bound,
    _penalty_flip_terms,
    build_dqubo,
    build_inequality_qubo,
)

MODE_HYCIM = "hycim"
MODE_DQUBO = "dqubo"
BACKEND_EXACT = "exact-software"
BACKEND_CIM = "behavioral-cim"

# Pregenerated draws per lockstep block: the gate buffer takes 4 MiB in the int32 lane.
_BLOCK_DRAWS = 1 << 20
_DRAW_CHUNK = 64  # runs whose float64 gate draws are scaled together, 512 KiB at 1000 steps
_STEP_CHUNK = 64  # steps whose flip-only terms are staged, and whose noise is drawn, at a time,
_STAGE_BYTES = 1 << 18  # but no more staged bytes per block than this, 256 KiB
_NOISE_DRAWS = 1 << 18  # and no more normals drawn ahead per block than this, 2 MiB
_GATHER_SHARE = 0.5  # an exact step gathers the moved rows when fewer runs than this share moved
# t_end / t_start of the default schedule, also used when only t_start is given
COOLING_RATIO = 0.5
# annealing steps per run unless a schedule or caller says otherwise
DEFAULT_ITERATIONS = 1000


# numpy's SeedSequence (NEP 19 keeps its output stable) mixes a 4-word uint32
# pool with these hash constants; PCG64 steps its 128-bit LCG by _PCG_MULT.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) pair of each use of a hash constant: it is XORed
    in, multiplied by mult, and the product multiplies the value."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & _MASK32)
    return list(zip(values, values[1:]))


# the sequences do not depend on the data: 4 pool words, 12 cross mixes and 4
# mixes per spawn-key word, then 8 output words (4 uint64) per generator state
_HASHMIX = _hash_constants(_INIT_A, _MULT_A, 4 + 12 + 4 * 3)
_OUTPUT = _hash_constants(_INIT_B, _MULT_B, 8)


def _seed_words(entropy, n_words: int) -> list[np.ndarray]:
    """SeedSequence(entropy).generate_state(n_words, uint64), one uint64 array
    per word, for uint32 entropy words (arrays that broadcast together, at
    least 4 of them: a seed's words zero-padded to 4, then any spawn key)."""
    consts = iter(_HASHMIX)

    def hashmix(value):
        xor, mult = next(consts)
        value = (value ^ xor) * mult
        return value ^ (value >> 16)

    def mix(x, y):
        value = _MIX_MULT_L * x - _MIX_MULT_R * y
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    halves = []
    for k, (xor, mult) in enumerate(_OUTPUT[: 2 * n_words]):
        value = (pool[k % 4] ^ xor) * mult
        halves.append((value ^ (value >> 16)).astype(np.uint64))
    return [lo | (hi << 32) for lo, hi in zip(halves[::2], halves[1::2])]


def _spawn_seeds(master_seed: int, *key) -> np.ndarray:
    """uint64 seed of each spawn key, equal to
    SeedSequence(master_seed, spawn_key=key).generate_state(1, uint64).  The
    key has at most three words, scalars or arrays that broadcast together,
    each below 2^32, where it is one spawn-key word."""
    words = (master_seed & _MASK32, master_seed >> 32, 0, 0, *key)
    return _seed_words([np.array(word, dtype=np.uint32, ndmin=1) for word in words], 1)[0]


def _generator_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of default_rng(seed) for each uint64 seed: a 256-bit
    SeedSequence output read as (state, sequence), then two LCG steps from 0."""
    lo = (seeds & _MASK32).astype(np.uint32)
    zero = np.zeros_like(lo)  # a seed with no spawn key is not padded, but a missing word hashes as 0
    words = [w.tolist() for w in _seed_words([lo, (seeds >> 32).astype(np.uint32), zero, zero], 4)]
    states = []
    for hi_state, lo_state, hi_seq, lo_seq in zip(*words):
        inc = ((hi_seq << 64 | lo_seq) << 1 | 1) & _MASK128
        states.append(((((hi_state << 64 | lo_state) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return states


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric cooling from t_start down to exactly t_end at the last step."""

    iterations: int
    t_start: float
    t_end: float

    def __post_init__(self):
        object.__setattr__(self, "iterations", _as_int(self.iterations, "iterations", 1))
        object.__setattr__(self, "t_end", _as_float(self.t_end, "t_end", _LEAST_POSITIVE))
        object.__setattr__(self, "t_start", _as_float(self.t_start, "t_start", self.t_end))

    def temperatures(self) -> np.ndarray:
        if self.iterations == 1:
            return np.array([self.t_start])
        ratio = (self.t_end / self.t_start) ** (1.0 / (self.iterations - 1))
        return self.t_start * ratio ** np.arange(self.iterations)


def _mode_of(problem) -> str:
    if isinstance(problem, InequalityQuboModel):
        return MODE_HYCIM
    if isinstance(problem, DQuboModel):
        return MODE_DQUBO
    raise ConfigurationError(f"cannot anneal a {type(problem).__name__}")


def flip_scale(problem: InequalityQuboModel | DQuboModel) -> float:
    """Mean magnitude scale of a single-bit flip: flipping bit j changes the
    energy by at most sum_i |(Q + Q^T)_ij| + |Q_jj|, averaged over j."""
    _mode_of(problem)
    return _flip_scale(_flip_magnitudes(problem))


def _flip_scale(magnitudes) -> float:
    return float(magnitudes[0].mean() + magnitudes[1].mean())


def default_schedule(
    problem: InequalityQuboModel | DQuboModel, iterations: int = DEFAULT_ITERATIONS
) -> AnnealSchedule:
    """Start hot enough to accept typical uphill swaps, halve over the run.

    A typical flip at half occupancy moves the energy by about half the flip
    scale; t_start = scale / 3.5 accepts such moves with probability around
    exp(-1.75) at the start and exp(-3.5) at the end.
    """
    return _default_schedule(flip_scale(problem), iterations)


def _default_schedule(scale: float, iterations: int) -> AnnealSchedule:
    t_start = max(scale / 3.5, 1.0)
    return AnnealSchedule(iterations=iterations, t_start=t_start, t_end=COOLING_RATIO * t_start)


@dataclass(eq=False, slots=True)  # slots: studies keep thousands of records
class RunRecord:
    seed: int
    mode: str
    best_energy: int | float
    best_config: np.ndarray
    best_qkp_value: int
    trajectory: list[tuple[int, float, bool, bool]] | None
    filter_rejections: int
    evaluations: int

    __eq__ = _fields_equal


class _Context:
    """Everything reusable across runs of one (problem, backend, schedule) triple;
    no schedule means default_schedule(problem)."""

    def __init__(self, problem, backend, schedule=None, filter_config=None,
                 crossbar_noise_sigma=0.0):
        crossbar_noise_sigma = _as_float(crossbar_noise_sigma, "crossbar_noise_sigma", 0.0)
        self.mode = _mode_of(problem)
        if backend not in (BACKEND_EXACT, BACKEND_CIM):
            raise ConfigurationError(f"unknown backend {backend!r}")
        if crossbar_noise_sigma and backend != BACKEND_CIM:
            raise ConfigurationError("crossbar_noise_sigma needs the behavioral-cim backend")
        if filter_config is not None:
            _as_type(filter_config, FilterConfig, "filter_config")
            if backend != BACKEND_CIM:
                raise ConfigurationError("filter_config needs the behavioral-cim backend")
        magnitudes = _flip_magnitudes(problem)
        if schedule is None:
            schedule = _default_schedule(_flip_scale(magnitudes), DEFAULT_ITERATIONS)
        elif not isinstance(schedule, AnnealSchedule):
            raise ValidationError("schedule",
                                  f"must be an AnnealSchedule, got {type(schedule).__name__}")
        bound = magnitudes[2]
        # the thresholds ceil(T g) are exact only for integers up to 2^53
        if bound > _FLOAT_EXACT:
            raise ConfigurationError(
                f"energies up to {bound} exceed 2^53, beyond exact Metropolis comparisons"
            )
        self.backend = backend
        self.instance = problem.instance
        self.dim = problem.dim
        alpha, beta, counts = _fold_weights(problem)
        self.offset = alpha
        self.weights = np.zeros(self.dim, dtype=np.int64)  # slack bits weigh nothing
        self.weights[: self.instance.n] = self.instance.weights
        self.iterations = schedule.iterations
        self.temps = schedule.temperatures()
        # the lane holds every quantity the loop keeps: energies, fields, thresholds, fold terms
        lane_bound = bound
        if backend == BACKEND_EXACT and self.mode == MODE_DQUBO:
            lane_bound = 2 * _penalty_bound(self.instance, alpha, beta)
            if lane_bound > np.iinfo(np.int64).max:
                raise ConfigurationError(
                    f"factored penalty terms up to {lane_bound} overflow 64-bit arithmetic"
                )
        lane = np.int32 if lane_bound + 1 <= np.iinfo(np.int32).max else np.int64
        # delta = 1 - 2 x_j looked up by x_j: +1 when a flip switches bit j on, -1 when off
        self.flip_sign = np.array([1, -1], dtype=lane)
        self.crossbar_noisy = crossbar_noise_sigma > 0
        self.energy_dtype = np.float64 if self.crossbar_noisy else lane
        # T g floored above 0 passes every dE <= 0 and no dE > 0; ceil(T g) is floored at 1
        # and capped at bound + 1 as the least integer float above bound (2^53 + 1 rounds down)
        self.threshold_clip = ((_LEAST_POSITIVE, math.inf) if self.crossbar_noisy
                               else (1, math.ceil(math.nextafter(bound, math.inf))))
        if backend == BACKEND_EXACT:
            self.beta = beta
            self.coupling, self.diag, self.slopes, self.costs = _penalty_flip_terms(
                self.instance, alpha, beta, counts, lane)
            self.steps = 2 * beta * self.slopes  # moves of 2 beta s
        else:
            self.crossbar = program_crossbar(problem.qubo, noise_sigma=crossbar_noise_sigma)
            self.layout = _line_layout(self.crossbar)
            self.filter_model = None  # dqubo proposals are never gated
            if self.mode == MODE_HYCIM:
                self.filter_model = build_filter(
                    self.instance.weights, self.instance.capacity, filter_config or FilterConfig()
                )


def _cim_evaluate(ctx, reads, checks, rngs, energies):
    """Gate verdicts (None when nothing gates) and energies of one configuration
    per run, given as its tallies: a filter check of its weight sum in hycim
    mode and, when it passes, a crossbar read of its cell counts, each with that
    run's generator.  Gated runs keep their given energy."""
    passed = None
    if checks is not None:
        passed = np.array([filter_check(ctx.filter_model, tally, rng).feasible
                           for tally, rng in zip(checks, rngs)])
    energies = energies.copy()
    for r in range(len(reads)) if passed is None else passed.nonzero()[0].tolist():
        reading = vmv_energy(ctx.crossbar, reads[r], rngs[r])
        energies[r] = reading.value if ctx.crossbar_noisy else reading.exact_value
    return passed, energies


def _anneal(ctx, initials, seeds, record_trajectory=False):
    """Advance one block of runs in lockstep; one RunRecord per seed, in order."""
    runs, iters, cap, n = len(seeds), ctx.iterations, ctx.instance.capacity, ctx.instance.n
    exact = ctx.backend == BACKEND_EXACT
    hycim = ctx.mode == MODE_HYCIM
    # drawn as int64 from each run's generator, stored in the smallest dtype that holds them
    flips = np.empty((iters, runs), dtype=np.min_scalar_type(ctx.dim - 1))
    thresholds = np.empty((iters, runs), dtype=ctx.energy_dtype)
    draws = np.empty((min(runs, _DRAW_CHUNK), iters))
    states = _generator_states(np.array(seeds, dtype=np.uint64))
    bits = np.random.PCG64()  # every run sets its own state before it draws
    gen = np.random.Generator(bits)
    # a behavioral step draws at most a filter check's normal and a read's per plane
    per_step = 0 if exact else 1 + ctx.crossbar.scale.size
    noise_chunk = max(per_step, min(_STEP_CHUNK * per_step, _NOISE_DRAWS // runs))
    rngs = []  # behavioral runs go on drawing noise, each from its own generator
    for start in range(0, runs, len(draws)):
        chunk = draws[: min(runs - start, len(draws))]
        for r, (state, inc) in enumerate(states[start:start + len(chunk)], start):
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            flips[:, r] = gen.integers(0, ctx.dim, size=iters)
            gen.random(out=chunk[r - start])
            if not exact:
                rngs.append(_NormalStream(np.random.Generator(copy.copy(bits)), noise_chunk))
        # Metropolis thresholds: accept dE > 0 iff dE < T * g with g = -log u
        np.log(chunk, out=chunk)
        chunk *= -ctx.temps
        if not ctx.crossbar_noisy:
            np.ceil(chunk, out=chunk)
        thresholds[:, start:start + len(chunk)] = np.clip(chunk, *ctx.threshold_clip, out=chunk).T

    x = np.array([as_bits(v, ctx.dim) for v in initials])
    xf = x.reshape(-1)
    base = np.arange(runs) * ctx.dim  # flat offset of each run's row
    wsum = x @ ctx.weights
    wn = wsum.copy()  # weight sums of the proposals, which the filter's tallies read
    if exact:
        # the fields cover the items and the slack count, which is 0 in hycim mode
        z = np.column_stack([x[:, :n], x[:, n:].sum(axis=1)])
        field = np.matmul(z, ctx.coupling, dtype=np.int64) + ctx.diag
        # the penalty energy less beta s^2 is sum_j z_j (field_j + diag_j) / 2 plus the
        # offset, summed in int64 since it may pass the lane
        qf = np.einsum("ri,ri->r", field + ctx.diag, z) // 2 + ctx.offset
        s = np.matmul(x, ctx.slopes, dtype=np.int64)  # w.x - sum_k k y_k
        qf += ctx.beta * s * s
        s2 = (2 * ctx.beta * s).astype(ctx.energy_dtype)
        field, qf = field.astype(ctx.energy_dtype), qf.astype(ctx.energy_dtype)
        fieldf = field.reshape(-1)
        fbase = np.arange(runs) * field.shape[1]
        feas = wsum <= cap if hycim else np.ones(runs, dtype=bool)
        energy = np.where(feas, qf, 0)
    else:
        # each run keeps its packed configuration, per-plane cell counts and weight sum
        cells = _RunCells(ctx.crossbar, ctx.layout, x)
        checks = None if ctx.filter_model is None else _weight_tallies(ctx.filter_model, wn)
        zeros = np.zeros(runs, dtype=ctx.energy_dtype)
        feas, energy = _cim_evaluate(ctx, cells.tallies, checks, rngs, zeros)
        if feas is None:
            feas = np.ones(runs, dtype=bool)
    all_feasible = bool(feas.all())
    track_weight = hycim or record_trajectory  # wsum gates, and shows in dqubo trajectories
    passed = None  # None: every proposal passes the gate
    best_e = energy.copy()
    best_x = x.copy()
    evaluations = np.zeros(runs, dtype=np.int64) if hycim else np.full(runs, iters)
    if record_trajectory:
        traj_e = np.empty((iters, runs), dtype=energy.dtype)
        traj_moved = np.empty((iters, runs), dtype=bool)
        traj_feas = np.empty((iters, runs), dtype=bool)

    # a (step, run) pair stages its flip, position, weight and, on behavioral-cim, its lines
    pair = 8 * (2 + track_weight) + (0 if exact else cells.units[0].nbytes + cells.lines[0].nbytes)
    steps = max(1, min(_STEP_CHUNK, _STAGE_BYTES // (runs * pair)))
    for i in range(iters):
        k = i % steps
        if not k:  # stage the terms that depend only on the flips, for the next chunk of steps
            js = flips[i:i + steps].astype(np.intp)  # indexes faster than the stored small type
            poss = js + base
            if track_weight:
                dws = ctx.weights[js]
            if not exact:
                units, lines = cells.units.take(js, axis=0), cells.lines.take(js, axis=0)
        j, pos = js[k], poss[k]
        delta = ctx.flip_sign[xf[pos]]
        if track_weight:
            np.multiply(delta, dws[k], out=wn)
            wn += wsum
        if exact:
            if hycim:  # no slack bits, and no slope or cost terms
                passed = wn <= cap
                col = j
                e_new = qf + delta * fieldf[fbase + j]
            else:
                # all slack bits read the count column; the change is summed before it meets qf
                col = np.minimum(j, n)
                e_new = qf + (delta * (fieldf[fbase + col] + ctx.slopes[j] * s2) + ctx.costs[j])
        else:
            cells.propose(units[k], lines[k], delta)
            passed, e_new = _cim_evaluate(ctx, cells.tallies, checks, rngs, energy)
        # every evaluated proposal counts as seen, accepted or not
        improved = e_new < best_e
        de = e_new - energy
        accepted = de < thresholds[i]
        if passed is not None:
            evaluations += passed
            improved &= passed
            accepted &= passed
        better = improved.nonzero()[0]
        if better.size:
            best_e[better] = e_new[better]
            best_x[better] = x[better]
            best_x[better, j[better]] ^= 1
        moved = accepted
        if not all_feasible:
            # zero-energy drift before the first feasible acceptance
            moved = accepted | ~(passed | feas)
            feas |= accepted
            all_feasible = bool(feas.all())
        np.putmask(energy, accepted, e_new)  # also qf, once qf is the energy
        if track_weight:
            np.putmask(wsum, moved, wn)
        idx = moved.nonzero()[0]
        if idx.size:
            xf[pos[idx]] ^= 1
            if exact:
                # once every run is feasible, qf is the energy; before, drift moves qf alone
                qf = energy if all_feasible else np.where(moved, e_new, qf)
                # the coupling is symmetric, so a row is the column its bit couples through;
                # rows are at most n + 1 wide, so one signed add beats adds split by sign.  Few
                # movers gather their rows; else every row moves, the unmoved by exact zeros
                rows = idx if idx.size < _GATHER_SHARE * runs else slice(None)
                d = delta[idx] if rows is idx else delta * moved
                terms = ctx.coupling.take(col[rows], axis=0)
                terms *= d[:, None]
                field[rows] += terms
                if not hycim:
                    s2[rows] += d * ctx.steps[j[rows]]
            else:
                cells.move(moved)  # drift moves too: their proposals were counted unread
        if record_trajectory:
            traj_e[i] = energy
            traj_moved[i] = moved
            traj_feas[i] = passed if hycim else wsum <= cap

    xs = best_x[:, :n].astype(np.int64)
    profit = np.einsum("ri,ij,rj->r", xs, ctx.instance.profits, xs)
    values = np.where(xs @ ctx.instance.weights <= cap, profit, 0).tolist()
    # records share equal counts, ints and configurations, as a study keeps thousands
    counts = _counts(iters)
    energies = best_e.tolist()
    shared = [{v: v for v in column} for column in (energies, values)]
    _, first, which = np.unique(best_x.view(np.dtype((np.void, ctx.dim))).reshape(-1),
                                return_index=True, return_inverse=True)
    configs = best_x[first]
    configs.setflags(write=False)
    configs = list(configs)  # read-only views, one per distinct configuration
    which = which.tolist()
    records = []
    for r, seed in enumerate(seeds):
        traj = None
        if record_trajectory:
            traj = list(zip(range(iters), traj_e[:, r].tolist(), traj_moved[:, r].tolist(),
                            traj_feas[:, r].tolist()))
        records.append(RunRecord(
            seed=seed,
            mode=ctx.mode,
            best_energy=shared[0][energies[r]],
            best_config=configs[which[r]],
            best_qkp_value=shared[1][values[r]],
            trajectory=traj,
            filter_rejections=counts[iters - evaluations[r]],
            evaluations=counts[evaluations[r]],
        ))
    return records


def sa_run(
    problem: InequalityQuboModel | DQuboModel,
    backend: str = BACKEND_EXACT,
    schedule: AnnealSchedule | None = None,
    initial=None,
    seed: int = 0,
    *,
    filter_config: FilterConfig | None = None,
    crossbar_noise_sigma: float = 0.0,
    record_trajectory: bool = False,
) -> RunRecord:
    """One annealing run from the given initial configuration."""
    if initial is None:
        raise ConfigurationError("an initial configuration is required")
    seed = _as_int(seed, "seed", 0, _SEED_LIMIT)
    ctx = _Context(problem, backend, schedule, filter_config, crossbar_noise_sigma)
    return _anneal(ctx, [initial], [seed], record_trajectory)[0]


@functools.lru_cache(maxsize=1)  # a study's two modes share one table, and records keep its ints
def _seed_table(master_seed: int, num_initials: int, runs_per_initial: int) -> tuple[int, ...]:
    """Seeds of runs (i, r) for i < num_initials and r < runs_per_initial, in that order."""
    initial = np.repeat(np.arange(num_initials), runs_per_initial)
    run = np.tile(np.arange(runs_per_initial), num_initials)
    return tuple(_spawn_seeds(master_seed, 1, initial, run).tolist())


@functools.lru_cache(maxsize=1)  # every batch of one iteration count shares its count ints
def _counts(iterations: int) -> tuple[int, ...]:
    return tuple(range(iterations + 1))


def _draw_initials(master_seed: int, num_initials: int, dim: int) -> np.ndarray:
    master_seed = _as_int(master_seed, "master_seed", 0, _SEED_LIMIT)  # the CLI trajectory draws here
    rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(0,)))
    return rng.integers(0, 2, size=(num_initials, dim), dtype=np.int8)


def _build_problem(instance, mode, alpha, beta):
    if mode == MODE_HYCIM:
        return build_inequality_qubo(instance)
    if mode == MODE_DQUBO:
        return build_dqubo(instance, alpha, beta)
    raise ConfigurationError(f"unknown mode {mode!r}")


def _batch_worker(ctx, initials, runs_per_initial, seeds):
    """Anneal runs_per_initial runs from each initial, block by block."""
    block = max(1, _BLOCK_DRAWS // ctx.iterations)
    out = []
    for start in range(0, len(seeds), block):
        stop = min(start + block, len(seeds))
        out += _anneal(ctx, initials[np.arange(start, stop) // runs_per_initial], seeds[start:stop])
    return out


def batch_solve(
    instance: QkpInstance,
    mode: str,
    num_initials: int,
    runs_per_initial: int,
    schedule: AnnealSchedule | None = None,
    backend: str = BACKEND_EXACT,
    master_seed: int = 0,
    *,
    alpha: int = DEFAULT_PENALTY,
    beta: int = DEFAULT_PENALTY,
    filter_config: FilterConfig | None = None,
    crossbar_noise_sigma: float = 0.0,
    jobs: int = 1,
) -> list[RunRecord]:
    """Anneal num_initials uniform starting points, runs_per_initial runs each.

    Every run's seed derives from (master_seed, initial_index, run_index), so
    results do not depend on execution order, on lockstep blocking or on the
    jobs worker count.  Records are ordered by (initial_index, run_index).
    """
    num_initials = _as_int(num_initials, "num_initials", 1)
    runs_per_initial = _as_int(runs_per_initial, "runs_per_initial", 1)
    master_seed = _as_int(master_seed, "master_seed", 0, _SEED_LIMIT)
    alpha, beta = _as_int(alpha, "alpha", 1), _as_int(beta, "beta", 1)
    jobs = min(_as_int(jobs, "jobs", 1), num_initials)
    ctx = _Context(_build_problem(instance, mode, alpha, beta), backend, schedule,
                   filter_config, crossbar_noise_sigma)
    initials = _draw_initials(master_seed, num_initials, ctx.dim)
    seeds = _seed_table(master_seed, num_initials, runs_per_initial)
    rows = [k * num_initials // jobs for k in range(jobs + 1)]  # jobs <= num_initials: none empty
    parts = [(ctx, initials[lo:hi], runs_per_initial,
              seeds[lo * runs_per_initial:hi * runs_per_initial]) for lo, hi in zip(rows, rows[1:])]
    if jobs == 1:
        return _batch_worker(*parts[0])
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        records = [rec for chunk in pool.map(_batch_worker, *zip(*parts)) for rec in chunk]
    for rec in records:
        rec.best_config.setflags(write=False)  # unpickled arrays come back writeable
    return records


def write_trajectory_csv(record: RunRecord, path) -> None:
    """Columns: iteration, energy, accepted, feasible (the gate verdict in hycim
    mode, the item-bit weight test in dqubo mode)."""
    if _as_type(record, RunRecord, "record").trajectory is None:
        raise ConfigurationError("run was made without record_trajectory")
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "energy", "accepted", "feasible"])
        for row in record.trajectory:
            writer.writerow([row[0], row[1], int(row[2]), int(row[3])])
