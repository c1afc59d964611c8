"""Shared fixtures and independent reference implementations.

The ref_* functions are deliberately written as plain Python loops over
the mathematical definitions, so test expectations never route through
the vectorized production code they are checking.
"""

import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from cimqubo import InequalityQuboModel, QkpInstance, generate_instance
from cimqubo.filter_sim import VDD
from cimqubo.transform import _SPARSE_THRESHOLD


def ref_objective(profits, x):
    """Sum p_ij x_i x_j over all ordered pairs, diagonal included once."""
    n = len(x)
    total = 0
    for i in range(n):
        for j in range(n):
            total += profits[i][j] * x[i] * x[j]
    return total


def ref_weight(weights, x):
    return sum(w * xi for w, xi in zip(weights, x))


def ref_qubo_energy(q, x, offset=0):
    n = len(x)
    total = 0
    for i in range(n):
        for j in range(n):
            total += q[i][j] * x[i] * x[j]
    return total + offset


def ref_constrained_energy(model, x):
    """(w.x <= C) * x^T q x of an inequality model: zero when x is over weight."""
    inst = model.instance
    if ref_weight(inst.weights.tolist(), x) > inst.capacity:
        return 0
    return ref_qubo_energy(model.qubo.q.tolist(), x, model.qubo.offset)


def ref_filter_check(weights, capacity, config, x, rng):
    """Working matchline and verdict of one filter read, replayed by hand.

    The matchline is max(0, VDD - (d * wsum + d * g * sigma * sqrt(wsum)))
    with d the unit drop VDD / (2 * max(C, max w)) and g one standard normal
    drawn from rng only when sigma > 0 and wsum > 0.  The input is feasible
    when that is at or above the replica, VDD - d * C.
    """
    drop = VDD / (2.0 * max(capacity, *weights))
    wsum = ref_weight(weights, x)
    noise = 0.0
    if config.noise_sigma > 0 and wsum > 0:
        noise = drop * (rng.standard_normal() * config.noise_sigma * math.sqrt(wsum))
    working = max(0.0, VDD - (drop * wsum + noise))
    return working, working >= VDD - drop * capacity


def ref_anneal(problem, schedule, initial, seed):
    """One exact annealing run replayed step by step.

    The run draws integers(0, dim, iterations) as its flips, then
    -log(random(iterations)) * T as its Metropolis thresholds, from
    default_rng(seed).  An inequality model gates each proposal by its weight;
    while the current configuration is over weight, a gated proposal is taken
    as a drift move and the energy stays 0.  A proposal that passes is
    accepted when e_new - e < max(threshold, smallest subnormal), and the best
    energy is the first strictly lower one.  Returns the run record's fields,
    its trajectory rows and the proposal of every step.
    """
    inst = problem.instance
    weights, cap, n = inst.weights.tolist(), inst.capacity, inst.n
    q, offset = problem.qubo.q.tolist(), problem.qubo.offset
    hycim = isinstance(problem, InequalityQuboModel)
    rng = np.random.default_rng(seed)
    flips = rng.integers(0, len(q), schedule.iterations).tolist()
    thresholds = (-np.log(rng.random(schedule.iterations)) * schedule.temperatures()).tolist()
    floor = float(np.finfo(np.float64).smallest_subnormal)

    def fits(x):
        return ref_weight(weights, x[:n]) <= cap

    x = [int(v) for v in initial]
    feasible = fits(x) or not hycim
    e = ref_qubo_energy(q, x, offset) if feasible else 0
    best_e, best_x = e, list(x)
    evaluations = 0
    trajectory, proposals = [], []
    for i, j in enumerate(flips):
        y = list(x)
        y[j] ^= 1
        proposals.append(y)
        passed = fits(y) or not hycim
        moved = False
        if passed:
            evaluations += 1
            e_new = ref_qubo_energy(q, y, offset)
            if e_new < best_e:
                best_e, best_x = e_new, list(y)
            if e_new - e < max(thresholds[i], floor):
                x, e, feasible, moved = y, e_new, True, True
        elif not feasible:
            x, moved = y, True
        trajectory.append((i, e, moved, passed if hycim else fits(x)))
    items = best_x[:n]
    value = ref_objective(inst.profits.tolist(), items) if fits(items) else 0
    return {
        "best_energy": best_e,
        "best_config": best_x,
        "best_qkp_value": value,
        "evaluations": evaluations,
        "filter_rejections": schedule.iterations - evaluations,
        "trajectory": trajectory,
        "proposals": proposals,
    }


def ref_plane_counts(q, x):
    """Conducting cells per bit plane, positive stack then negative stack:
    cell (i, j) of plane b conducts when x_i = x_j = 1 and bit b of the
    stack's magnitude (q_ij for the positive stack, -q_ij for the negative
    one, 0 where q_ij has the other sign) is set."""
    n = len(x)
    counts = []
    for sign in (1, -1):
        mags = [[max(0, sign * int(q[i][j])) for j in range(n)] for i in range(n)]
        width = max(m.bit_length() for row in mags for m in row)
        stack = [0] * width
        for i in range(n):
            for j in range(n):
                if x[i] and x[j]:
                    for b in range(width):
                        stack[b] += (mags[i][j] >> b) & 1
        counts.extend(stack)
    return counts


def ref_dqubo_energy(profits, weights, capacity, x, y, alpha, beta):
    """Unexpanded penalty form: -obj + alpha*(sum y - 1)^2 + beta*(W - sum k*y_k)^2."""
    obj = ref_objective(profits, x)
    wsum = ref_weight(weights, x)
    ysum = sum(y)
    ksum = sum(k * yk for k, yk in zip(range(1, capacity + 1), y))
    return -obj + alpha * (ysum - 1) ** 2 + beta * (wsum - ksum) ** 2


def ref_qubo_document(model):
    """The JSON value dump_qubo_json writes for model, by plain loops over
    model.qubo.q: every row ("dense"), or the row-major [i, j, value] triples
    of the nonzero cells ("sparse") when they are under _SPARSE_THRESHOLD of
    the cells, beside the mode, dim, offset, weights and capacity and, for the
    penalty form, alpha and beta."""
    q = model.qubo.q.tolist()
    dim = len(q)
    triples = [[i, j, q[i][j]] for i in range(dim) for j in range(dim) if q[i][j] != 0]
    doc = {"dim": dim, "offset": model.qubo.offset,
           "weights": model.instance.weights.tolist(), "capacity": model.instance.capacity}
    if isinstance(model, InequalityQuboModel):
        doc["mode"] = "inequality"
    else:
        doc.update(mode="dqubo", alpha=model.alpha, beta=model.beta)
    if len(triples) / (dim * dim) < _SPARSE_THRESHOLD:
        doc.update(encoding="sparse", entries=triples)
    else:
        doc.update(encoding="dense", entries=q)
    return doc


def ref_energy_bound(q, offset):
    """sum_ij |q_ij| + |offset| in Python ints."""
    return sum(abs(v) for row in q for v in row) + abs(offset)


def ref_flip_columns(q):
    """Column j's sum over i != j of |q_ij + q_ji|, in Python ints."""
    n = len(q)
    return [sum(abs(q[i][j] + q[j][i]) for i in range(n) if i != j) for j in range(n)]


def ref_flip_scale(q):
    """flip_scale as first written, with two matrix-sized temporaries: the
    float64 column sums of |Q + Q^T| off the diagonal, averaged, plus the
    mean |Q_jj|.  Float rounding depends on the summation order, so the
    reference keeps that formula rather than a plain loop."""
    paired = np.abs(q + q.T).astype(np.float64)
    np.fill_diagonal(paired, 0.0)
    return float(paired.sum(axis=0).mean() + np.abs(np.diagonal(q)).mean())


def ref_enumerate(profits, weights, capacity):
    """Brute-force oracle: (best_value, best_config, feasible_count), LSB-first ties."""
    n = len(weights)
    best_v = 0
    best_x = [0] * n
    feasible = 0
    for k in range(2 ** n):
        x = [(k >> i) & 1 for i in range(n)]
        if ref_weight(weights, x) <= capacity:
            feasible += 1
            v = ref_objective(profits, x)
            if v > best_v:
                best_v = v
                best_x = x
    return best_v, best_x, feasible


def ref_records_digest(records):
    """sha256 over each record's (seed, mode, best_energy, best_qkp_value,
    filter_rejections, evaluations) repr and its best configuration bytes."""
    h = hashlib.sha256()
    for r in records:
        fields = (r.seed, r.mode, r.best_energy, r.best_qkp_value,
                  r.filter_rejections, r.evaluations)
        h.update(repr(fields).encode())
        h.update(np.asarray(r.best_config, dtype=np.int8).tobytes())
    return h.hexdigest()


def ref_run_seed(master, i, r):
    """Seed of run r from initial i, as batch_solve derives it."""
    ss = np.random.SeedSequence(master, spawn_key=(1, i, r))
    return int(ss.generate_state(1, np.uint64)[0])


def ref_int_setting(value, minimum, limit=2**63):
    """The int an integer setting or seed stands for, or None when it must be
    refused: a Python or numpy integer, or a float with no fractional part, in
    [minimum, limit); never a bool."""
    if isinstance(value, (bool, np.bool_)):
        return None
    if isinstance(value, (float, np.floating)):
        if not (math.isfinite(value) and value == int(value)):
            return None
    elif not isinstance(value, (int, np.integer)):
        return None
    number = int(value)
    return number if minimum <= number < limit else None


def ref_real_setting(value, minimum, maximum=sys.float_info.max):
    """The float a real-valued setting stands for, or None when it must be
    refused: a Python or numpy integer or float in [minimum, maximum], never a
    bool, nan or an infinity.  Python ints compare exactly, numpy scalars as
    their float64 value."""
    if isinstance(value, (np.integer, np.floating)):
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return float(value) if Fraction(minimum) <= Fraction(value) <= Fraction(maximum) else None


def ref_initials(master, num_initials, dim):
    """The initial configurations batch_solve draws from master."""
    rng = np.random.default_rng(np.random.SeedSequence(master, spawn_key=(0,)))
    return rng.integers(0, 2, size=(num_initials, dim), dtype=np.int8)


def make_instance(profits, weights, capacity, name="test"):
    return QkpInstance(
        name=name,
        n=len(weights),
        profits=np.asarray(profits, dtype=np.int64),
        weights=np.asarray(weights, dtype=np.int64),
        capacity=capacity,
    )


def criterion7_instance(seed=1):
    return generate_instance(20, density=0.5, wmax=20, pmax=50, cap_ratio=0.5, seed=seed)


def hundred_items(capacity, weight):
    """100 items with a single profit of 100, so the profit matrix needs 7 bits."""
    profits = np.ones((100, 100), dtype=np.int64)
    profits[0, 0] = 100
    return QkpInstance(
        name=f"c{capacity}",
        n=100,
        profits=profits,
        weights=np.full(100, weight, dtype=np.int64),
        capacity=capacity,
    )


@pytest.fixture
def tiny():
    """Three items, capacity 9. Hand-checkable: optimum 9 at [1,0,1], 6 of 8 feasible."""
    profits = [
        [5, 2, 0],
        [2, 3, 1],
        [0, 1, 4],
    ]
    return make_instance(profits, [4, 7, 2], 9, name="tiny3")


@pytest.fixture
def tiny_profits():
    return [
        [5, 2, 0],
        [2, 3, 1],
        [0, 1, 4],
    ]


@pytest.fixture
def pair():
    """Two items, both selected is feasible. QUBO energy at [1,1] is -12."""
    return make_instance([[5, 2], [2, 3]], [1, 1], 2, name="pair")
