"""QUBO builds, penalty expansion, JSON serialization."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from cimqubo import (
    CapacityError,
    ParseError,
    QuboMatrix,
    ValidationError,
    build_dqubo,
    brute_force_oracle,
    build_inequality_qubo,
    dqubo_quantization_info,
    dump_qubo_json,
    generate_instance,
    load_qubo_json,
    quantization_info,
)

from cimqubo.transform import _flip_magnitudes

from conftest import (criterion7_instance, hundred_items, make_instance, ref_constrained_energy,
                      ref_dqubo_energy, ref_objective)


# ------------------------------------------------------- inequality mode

def test_inequality_negates_profits(pair):
    model = build_inequality_qubo(pair)
    assert model.qubo.q.tolist() == [[-5, -2], [-2, -3]]
    assert model.qubo.offset == 0
    assert model.qubo.energy([1, 1]) == -12


def test_constrained_energy_gates_on_weight(tiny):
    # the gated energy the annealer replay scores hycim moves with
    model = build_inequality_qubo(tiny)
    assert ref_constrained_energy(model, [1, 0, 1]) == model.qubo.energy([1, 0, 1]) == -9
    assert ref_constrained_energy(model, [0, 1, 1]) == -9   # weight 9, boundary counts
    assert ref_constrained_energy(model, [1, 1, 0]) == 0    # weight 11, gated out
    assert ref_constrained_energy(model, [0, 0, 0]) == 0


def test_inequality_energy_is_negated_objective():
    inst = generate_instance(10, density=0.6, seed=21)
    model = build_inequality_qubo(inst)
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.integers(0, 2, size=10).tolist()
        assert model.qubo.energy(x) == -ref_objective(inst.profits.tolist(), x)


# ------------------------------------------------------- penalty mode

def test_dqubo_dimension_and_shape(tiny):
    model = build_dqubo(tiny)
    assert model.qubo.dim == tiny.n + tiny.capacity == 12
    q = model.qubo.q
    assert np.array_equal(q, np.triu(q))
    assert model.qubo.offset == model.alpha == 2


def test_dqubo_coefficients_match_hand_fold(tiny):
    a, b = 3, 5
    q = build_dqubo(tiny, alpha=a, beta=b).qubo.q
    w = [4, 7, 2]
    p = tiny.profits
    # item pair (0, 1)
    assert q[0, 1] == -2 * p[0, 1] + 2 * b * w[0] * w[1]
    # item diagonal
    for i in range(3):
        assert q[i, i] == b * w[i] ** 2 - p[i, i]
    # slack pair (k=1, l=2) sits at rows 3, 4
    assert q[3, 4] == 2 * a + 2 * b * 1 * 2
    # slack diagonal k=9 at row 11
    assert q[11, 11] == b * 81 - a
    # cross item 0 with slack k=3
    assert q[0, 3 + 2] == -2 * b * w[0] * 3


def test_dqubo_energy_matches_unexpanded_penalty_exhaustively():
    inst = make_instance([[4, 1], [1, 6]], [1, 2], 2)
    model = build_dqubo(inst, alpha=2, beta=3)
    p = inst.profits.tolist()
    for bits in itertools.product((0, 1), repeat=4):
        x, y = list(bits[:2]), list(bits[2:])
        want = ref_dqubo_energy(p, [1, 2], 2, x, y, 2, 3)
        assert model.qubo.energy(bits) == want


def test_dqubo_energy_matches_on_random_configs(tiny):
    model = build_dqubo(tiny, alpha=2, beta=2)
    p = tiny.profits.tolist()
    rng = np.random.default_rng(9)
    for _ in range(200):
        bits = rng.integers(0, 2, size=12).tolist()
        want = ref_dqubo_energy(p, [4, 7, 2], 9, bits[:3], bits[3:], 2, 2)
        assert model.qubo.energy(bits) == want


def test_dqubo_consistent_onehot_recovers_negated_objective(tiny):
    model = build_dqubo(tiny)
    for bits in itertools.product((0, 1), repeat=3):
        wsum = int(np.dot([4, 7, 2], bits))
        if not 1 <= wsum <= 9:
            continue
        y = [0] * 9
        y[wsum - 1] = 1
        assert model.qubo.energy(list(bits) + y) == -ref_objective(tiny.profits.tolist(), bits)


def test_dqubo_violating_configs_keep_positive_penalty(tiny):
    # every over-capacity x must cost at least beta more than its raw profit
    model = build_dqubo(tiny, alpha=2, beta=2)
    for bits in itertools.product((0, 1), repeat=3):
        if int(np.dot([4, 7, 2], bits)) <= 9:
            continue
        obj = ref_objective(tiny.profits.tolist(), bits)
        penalties = [
            model.qubo.energy(list(bits) + list(y)) + obj
            for y in itertools.product((0, 1), repeat=9)
        ]
        assert min(penalties) >= 2


def test_dqubo_empty_knapsack_artifact(tiny):
    # x = 0 admits no zero-penalty slack assignment; floor is min(alpha, beta)
    for a, b in ((2, 2), (1, 5), (7, 3)):
        model = build_dqubo(tiny, alpha=a, beta=b)
        penalties = [
            model.qubo.energy([0, 0, 0] + list(y))
            for y in itertools.product((0, 1), repeat=9)
        ]
        assert min(penalties) == min(a, b)


def test_default_penalty_ground_state_is_over_weight():
    # alpha = beta = 2 is below the profit an over-weight selection gains, so
    # the penalty ground state takes all 7 items and the slacks 7 and 8
    inst = generate_instance(7, density=0.5, wmax=4, pmax=10, cap_ratio=0.5, seed=0)
    assert inst.weights.tolist() == [4, 3, 3, 2, 2, 1, 1]
    assert inst.capacity == 8
    qubo = build_dqubo(inst).qubo
    configs = (np.arange(2**qubo.dim)[:, None] >> np.arange(qubo.dim)) & 1
    energies = ((configs @ qubo.q) * configs).sum(axis=1) + qubo.offset
    ground = np.flatnonzero(energies == energies.min())
    assert ground.size == 1
    x = configs[ground[0]]
    assert x.tolist() == [1] * 7 + [0] * 6 + [1, 1]
    assert energies.min() == -148
    assert ref_objective(inst.profits.tolist(), x[:7].tolist()) == 152
    assert int(inst.weights @ x[:7]) == 16
    assert brute_force_oracle(inst).best_value == 80


# sha256 of the int64 matrix bytes, and the offset: every coefficient of the
# criterion 2-4 instances and of three annealing instances, as first built
PENALTY_MATRIX_PINS = [
    (lambda: hundred_items(100, 2), 2, 2,
     "384a513492481a3ce1b18a40dfc9ab7da998960e55d327bc6af6eaab5d8266c0", 2),
    (lambda: hundred_items(2536, 64), 2, 2,
     "0bda4fd6931b0e6da903280778cf0397cbed140c0fa0580a3313a092d18e949e", 2),
    (lambda: criterion7_instance(1), 2, 2,
     "d324662aa8ea6e8e32423e8b190162e621ac435f742c0dd05fd4d1635405d819", 2),
    (lambda: criterion7_instance(2), 2, 2,
     "4c71b6f3c14157684fb1846d980127d539a3e7a35650ecfcd578f5f914b2a547", 2),
    (lambda: criterion7_instance(3), 2, 2,
     "186ae4805c810fdf98451f21e65569cf00b58c5350a4d4b7dec5e7b0467102b7", 2),
    # alpha != beta, so swapped penalty weights show
    (lambda: criterion7_instance(3), 7, 3,
     "75fe8b7658c28360f572887f8a5fdf2c408f0a83a16a19c0e69fd113f7488106", 7),
]


@pytest.mark.parametrize("make,alpha,beta,digest,offset", PENALTY_MATRIX_PINS)
def test_penalty_matrices_are_pinned(make, alpha, beta, digest, offset):
    qubo = build_dqubo(make(), alpha, beta).qubo
    assert hashlib.sha256(qubo.q.tobytes()).hexdigest() == digest
    assert qubo.offset == offset


def test_penalty_peak_past_the_build_limit_is_pinned():
    inst = hundred_items(10_000, 64)  # dimension 10100, past the 8192 build limit
    with pytest.raises(CapacityError, match="dimension"):
        build_dqubo(inst)
    for alpha, beta, peak, bits in ((2, 2, 399_960_004, 29), (3, 5, 999_900_006, 30)):
        info = dqubo_quantization_info(inst, alpha, beta)
        assert (info.max_abs_element, info.bits) == (peak, bits)


def test_dqubo_rejects_bad_penalty_weights(tiny):
    with pytest.raises(ValidationError, match="alpha"):
        build_dqubo(tiny, alpha=0)
    with pytest.raises(ValidationError, match="beta"):
        build_dqubo(tiny, beta=-1)


def test_dqubo_overflow_guard():
    inst = make_instance([[1, 0], [0, 1]], [1, 1], 2_000_000_000)
    with pytest.raises(CapacityError, match="overflow"):
        build_dqubo(inst)


def test_dqubo_energy_sum_guard():
    # every coefficient fits in 64 bits (the largest is 2 beta * 3 * 4 = 2.4e18),
    # but the all-slack energy 9 alpha + 100 beta = 1e19 would wrap
    inst = make_instance([[1, 0], [0, 1]], [1, 1], 4)
    with pytest.raises(CapacityError, match="energies"):
        build_dqubo(inst, beta=10**17)
    assert _flip_magnitudes(build_dqubo(inst, beta=10**16))[2] < 2**63


def test_energy_bound_sums_absolute_coefficients():
    inst = generate_instance(8, density=0.6, wmax=15, pmax=40, seed=12)
    for model in (build_inequality_qubo(inst), build_dqubo(inst, alpha=3, beta=5)):
        q = model.qubo.q.tolist()
        exact = sum(abs(v) for row in q for v in row) + model.qubo.offset
        assert _flip_magnitudes(model)[2] == exact


def test_energy_bound_is_exact_past_64_bits():
    top = 2**63 - 1
    model = build_inequality_qubo(make_instance([[top, top], [top, top - 2]], [1, 1], 2))
    cols, diag, bound = _flip_magnitudes(model)
    assert bound == 4 * top - 2
    # 2 top wraps to -2 in int64; each column is its exact sum rounded once
    assert cols.tolist() == [float(2 * top)] * 2 and diag.tolist() == [top, top - 2]


def test_dqubo_dimension_guard():
    inst = make_instance([[1, 0], [0, 1]], [1, 1], 9000)
    with pytest.raises(CapacityError, match="dimension"):
        build_dqubo(inst)


# ------------------------------------------------------- quantization

@pytest.mark.parametrize(
    "max_abs,bits",
    [(0, 1), (1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (100, 7), (128, 7), (129, 8), (256, 8), (257, 9)],
)
def test_quantization_bit_table(max_abs, bits):
    info = quantization_info(np.array([[max_abs]]))
    assert info.max_abs_element == max_abs
    assert info.bits == bits


def test_quantization_uses_absolute_values(pair):
    info = quantization_info(build_inequality_qubo(pair).qubo)
    assert info.max_abs_element == 5
    assert info.bits == 3


def test_quantization_range_property():
    rng = np.random.default_rng(2)
    for _ in range(40):
        m = int(rng.integers(1, 10_000))
        bits = quantization_info(np.array([[m]])).bits
        assert m <= 2 ** bits
        if m >= 2:
            assert m > 2 ** (bits - 1)


def test_dqubo_peak_coefficient_formula(tiny):
    info = quantization_info(build_dqubo(tiny, alpha=2, beta=2).qubo)
    C = tiny.capacity
    assert info.max_abs_element == 2 * 2 + 2 * 2 * C * (C - 1)


def test_qubo_matrix_validation():
    with pytest.raises(ValidationError, match="square"):
        QuboMatrix(np.zeros((2, 3)))
    with pytest.raises(ValidationError, match="integers"):
        QuboMatrix(np.array([[0.5]]))
    # past the int64 range, a cast would wrap both to -2^63
    for q in (np.array([[1e19]]), np.array([[2**63]], dtype=np.uint64)):
        with pytest.raises(ValidationError, match="int64 range"):
            QuboMatrix(q)


def test_qubo_matrix_rejects_a_fractional_offset():
    with pytest.raises(ValidationError, match="offset: entries must be integers"):
        QuboMatrix(np.zeros((1, 1), dtype=np.int64), offset=2.9)
    assert QuboMatrix(np.zeros((1, 1), dtype=np.int64), offset=2.0).offset == 2


def test_qubo_matrix_keeps_read_only_int64_input_without_a_copy(tiny):
    q = build_dqubo(tiny).qubo.q
    assert QuboMatrix(q).q is q


# ------------------------------------------------------- JSON documents

def test_qubo_json_round_trip_dense(tiny):
    model = build_inequality_qubo(tiny)
    text = dump_qubo_json(model)
    doc = load_qubo_json(text)
    assert doc.mode == "inequality"
    assert doc.qubo == model.qubo
    sidecars = json.loads(text)
    assert sidecars["weights"] == [4, 7, 2]
    assert sidecars["capacity"] == 9


def test_qubo_json_round_trip_dqubo(tiny):
    model = build_dqubo(tiny, alpha=3, beta=4)
    text = dump_qubo_json(model)
    doc = load_qubo_json(text)
    assert doc.mode == "dqubo"
    sidecars = json.loads(text)
    assert sidecars["alpha"] == 3 and sidecars["beta"] == 4
    assert doc.qubo == model.qubo


def test_qubo_json_sparse_encoding_for_diagonal_matrix():
    inst = generate_instance(12, density=0.0, wmax=5, pmax=9, seed=2)
    model = build_inequality_qubo(inst)
    text = dump_qubo_json(model)
    assert '"encoding": "sparse"' in text
    assert load_qubo_json(text).qubo == model.qubo


def test_qubo_json_dense_encoding_for_full_matrix(pair):
    text = dump_qubo_json(build_inequality_qubo(pair))
    assert '"encoding": "dense"' in text


def test_qubo_json_error_paths():
    with pytest.raises(ParseError, match="missing key"):
        load_qubo_json("{}")
    with pytest.raises(ParseError, match="encoding"):
        load_qubo_json(
            '{"mode": "inequality", "dim": 1, "offset": 0, "encoding": "blob", "entries": []}'
        )
    with pytest.raises(ParseError, match="out of range"):
        load_qubo_json(
            '{"mode": "inequality", "dim": 1, "offset": 0, "encoding": "sparse", "entries": [[0, 5, 1]]}'
        )
    with pytest.raises(ParseError):
        load_qubo_json("not json")
    with pytest.raises(ParseError, match="object"):
        load_qubo_json("[1, 2]")


@pytest.mark.parametrize("changes, message", [
    ({"dim": "2"}, "dim"),
    ({"dim": -1}, "dim"),
    ({"dim": True}, "dim"),
    ({"mode": "zzz"}, "mode"),
    ({"encoding": "sparse", "entries": [[0, 1]]}, "triples"),
    ({"encoding": "sparse", "entries": [0, 1, 2]}, "triples"),
    ({"entries": [[1, 2], [3]]}, "2 rows of 2"),
    ({"entries": [[1, 2]]}, "2 rows of 2"),
    ({"entries": 5}, "2 rows of 2"),
], ids=["dim-string", "dim-negative", "dim-bool", "mode", "sparse-pair", "sparse-flat",
        "dense-ragged", "dense-short", "dense-scalar"])
def test_qubo_json_rejects_malformed_structure(changes, message):
    doc = {"mode": "inequality", "dim": 2, "offset": 0, "encoding": "dense",
           "entries": [[1, 2], [3, 4]]}
    assert load_qubo_json(json.dumps(doc)).qubo.q.tolist() == [[1, 2], [3, 4]]
    with pytest.raises(ParseError, match=message):
        load_qubo_json(json.dumps({**doc, **changes}))


@pytest.mark.parametrize("encoding, key, fractional, integral", [
    ("dense", "entries", [[1.5, 0], [0, 0]], [[1.0, 0], [0, 0]]),
    ("sparse", "entries", [[0, 1, 2.7]], [[0, 1, 3.0]]),
    ("sparse", "entries", [[0.5, 1, 2]], [[0.0, 1, 2]]),
    ("sparse", "offset", 2.9, 3.0),
], ids=["dense-value", "sparse-value", "sparse-index", "offset"])
def test_qubo_json_rejects_fractional_numbers(encoding, key, fractional, integral):
    doc = {"mode": "inequality", "dim": 2, "offset": 0, "encoding": encoding,
           "entries": [[0, 1, 2]]}
    with pytest.raises(ValidationError, match=f"{key}: entries must be integers"):
        load_qubo_json(json.dumps({**doc, key: fractional}))
    assert load_qubo_json(json.dumps({**doc, key: integral})).qubo.q.dtype == np.int64


@pytest.mark.parametrize("value", [1e19, float("inf"), 2**70, "3", None])
def test_qubo_json_rejects_entries_past_int64_and_non_numbers(value):
    doc = {"mode": "inequality", "dim": 1, "offset": 0, "encoding": "dense", "entries": [[value]]}
    with pytest.raises(ValidationError, match="entries must be integers in the int64 range"):
        load_qubo_json(json.dumps(doc))
