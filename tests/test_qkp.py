"""Instance model, serialization, objective, generator, oracle."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from cimqubo import (
    CapacityError,
    DimensionError,
    ParseError,
    QkpInstance,
    ValidationError,
    as_bits,
    brute_force_oracle,
    dump_instance,
    generate_instance,
    build_filter,
    filter_check,
    infer_format,
    load_instance,
    parse_instance,
    save_instance,
)
from cimqubo import qkp

from conftest import make_instance, ref_enumerate, ref_objective, ref_weight

TINY_TEXT = "tiny3\n3\n5 3 4\n2 0\n1\n9\n4 7 2\n"


# ---------------------------------------------------------------- objective

def test_objective_counts_both_orderings(tiny):
    # pair profit 2 between items 1,2 contributes 4 when both are selected
    assert ref_objective(tiny.profits.tolist(), [1, 1, 0]) == 5 + 3 + 2 * 2


def test_objective_frozen_values(tiny):
    profits, weights = tiny.profits.tolist(), tiny.weights.tolist()
    assert ref_objective(profits, [1, 0, 1]) == 9
    assert ref_weight(weights, [1, 0, 1]) == 6
    assert ref_objective(profits, [1, 1, 1]) == 18
    assert ref_weight(weights, [1, 1, 1]) == 13
    assert ref_objective(profits, [0, 0, 0]) == 0


def test_feasibility_boundary(tiny):
    model = build_filter(tiny.weights, tiny.capacity)
    assert filter_check(model, [0, 1, 1]).feasible       # weight 9 == capacity
    assert not filter_check(model, [1, 1, 0]).feasible   # weight 11


# ---------------------------------------------------------------- validation

def test_rejects_zero_weight():
    with pytest.raises(ValidationError, match="weights"):
        make_instance([[1]], [0], 5)


def test_rejects_negative_profit():
    with pytest.raises(ValidationError, match="profits"):
        make_instance([[1, -2], [-2, 1]], [1, 1], 2)


def test_rejects_asymmetric_profits():
    with pytest.raises(ValidationError, match="symmetric"):
        make_instance([[1, 2], [3, 1]], [1, 1], 2)


def test_rejects_bad_capacity():
    with pytest.raises(ValidationError, match="capacity"):
        make_instance([[1]], [1], 0)


def test_rejects_non_integer_profits():
    with pytest.raises(ValidationError):
        QkpInstance(name="f", n=1, profits=np.array([[1.5]]), weights=np.array([1]), capacity=2)


def test_accepts_integral_floats():
    inst = QkpInstance(name="f", n=1, profits=np.array([[2.0]]), weights=np.array([1.0]), capacity=2)
    assert inst.profits.dtype == np.int64


def test_profits_are_read_only(tiny):
    with pytest.raises(ValueError):
        tiny.profits[0, 0] = 99


# ---------------------------------------------------------------- text format

def test_parse_canonical_text(tiny):
    inst = parse_instance(TINY_TEXT)
    assert inst == tiny
    assert inst.profits[0, 1] == 2 and inst.profits[1, 0] == 2
    assert inst.profits[0, 2] == 0
    assert inst.profits[1, 2] == 1


def test_text_round_trip(tiny):
    assert parse_instance(dump_instance(tiny)) == tiny
    assert dump_instance(tiny) == TINY_TEXT


def test_json_round_trip(tiny):
    text = dump_instance(tiny, fmt="json")
    assert parse_instance(text, fmt="json") == tiny


@pytest.mark.parametrize("key, values", [("profits_diag", [3.7, 2]), ("profits_upper", [1.5])])
def test_json_rejects_fractional_profits(key, values):
    doc = {"name": "t", "n": 2, "profits_diag": [3, 2], "profits_upper": [1],
           "capacity": 3, "weights": [1, 2]}
    doc[key] = values
    with pytest.raises(ValidationError, match=f"{key}: entries must be integers"):
        parse_instance(json.dumps(doc), "json")
    doc[key] = [float(round(v)) for v in values]
    assert parse_instance(json.dumps(doc), "json").profits.dtype == np.int64


def test_parse_error_reports_line_number():
    bad = "tiny3\n3\n5 3 4\n2 0\n1\n9\n4 seven 2\n"
    with pytest.raises(ParseError, match="line 7"):
        parse_instance(bad)


def test_parse_error_on_truncated_input():
    with pytest.raises(ParseError, match="end of file"):
        parse_instance("tiny3\n3\n5 3 4\n")


def test_parse_error_on_trailing_content():
    with pytest.raises(ParseError, match="trailing"):
        parse_instance(TINY_TEXT + "0 0 0\n")


def test_parse_error_on_wrong_token_count():
    with pytest.raises(ParseError, match="line 3"):
        parse_instance("tiny3\n3\n5 3\n2 0\n1\n9\n4 7 2\n")


@pytest.mark.parametrize("name", ["", " a", "a ", "a\nb", "a\rb", "\n", 7, None])
def test_instance_name_must_be_one_trimmed_line(name):
    # the text format keeps the name on its first line, stripped
    with pytest.raises(ValidationError, match="name"):
        make_instance([[1]], [1], 1, name=name)


@pytest.mark.parametrize("key, value, error", [
    ("profits_diag", 5, ParseError),
    ("profits_upper", [[1]], ParseError),
    ("n", True, ParseError),
    ("name", 7, ValidationError),
    ("capacity", True, ValidationError),
    ("weights", [[1, 2], [3]], ValidationError),
])
def test_json_rejects_malformed_fields(key, value, error):
    doc = {"name": "t", "n": 2, "profits_diag": [3, 2], "profits_upper": [1],
           "capacity": 3, "weights": [1, 2]}
    with pytest.raises(error, match=key):
        parse_instance(json.dumps({**doc, key: value}), "json")


def test_file_round_trip_both_formats(tiny, tmp_path):
    for fname in ("t.qkp", "t.json"):
        path = tmp_path / fname
        save_instance(tiny, path)
        assert load_instance(path) == tiny
    assert infer_format("a/b/c.json") == "json"
    assert infer_format("a/b/c.qkp") == "canonical-text"


# ---------------------------------------------------------------- generator

def test_generator_is_deterministic():
    a = generate_instance(12, seed=7)
    b = generate_instance(12, seed=7)
    assert a == b
    c = generate_instance(12, seed=8)
    assert a != c


def test_generator_respects_bounds():
    inst = generate_instance(100, density=0.25, wmax=64, pmax=50, seed=3)
    assert inst.n == 100
    assert inst.weights.min() >= 1 and inst.weights.max() <= 64
    assert inst.profits.max() <= 50 and inst.profits.min() >= 0
    assert np.array_equal(inst.profits, inst.profits.T)
    assert np.all(np.diagonal(inst.profits) >= 1)
    assert inst.capacity == max(1, round(0.5 * inst.total_weight))


def test_total_weight_does_not_wrap():
    inst = QkpInstance("w", 2, np.eye(2, dtype=int), [2**62, 2**62], 1)
    assert inst.total_weight == 2**63


@pytest.mark.parametrize("x", [
    [0, 2], [-1, 0], [1, 127], np.array([1, 0, -128]),
    # entries that a cast to int8 would wrap, truncate or overflow
    np.array([256, 1]), [0.5, 1], [1.9, 0], [-255, 0],
])
def test_as_bits_rejects_entries_other_than_zero_and_one(x):
    with pytest.raises(ValidationError, match="0 or 1"):
        as_bits(x)


def test_as_bits_keeps_int8_input_without_a_copy():
    x = np.array([1, 0, 1], dtype=np.int8)
    assert as_bits(x, 3) is x


def test_as_bits_checks_shape_and_length():
    assert as_bits([]).size == 0
    assert as_bits(np.array([1, 0, 1]), 3).dtype == np.int8
    with pytest.raises(DimensionError):
        as_bits([[0, 1]])
    with pytest.raises(DimensionError):
        as_bits([0, 1], 3)


def test_generator_density_extremes():
    dense = generate_instance(10, density=1.0, seed=1)
    off = dense.profits[np.triu_indices(10, k=1)]
    assert np.all(off > 0)
    sparse = generate_instance(10, density=0.0, seed=1)
    off = sparse.profits[np.triu_indices(10, k=1)]
    assert np.all(off == 0)


def test_generator_rejects_bad_params():
    with pytest.raises(ValidationError):
        generate_instance(1)
    with pytest.raises(ValidationError):
        generate_instance(5, density=1.5)
    for cap_ratio in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="cap_ratio"):
            generate_instance(5, cap_ratio=cap_ratio)
    # a finite ratio whose capacity overflows meets the capacity rule, not round(inf)
    for cap_ratio in (1e18, 1e308):
        with pytest.raises(ValidationError) as refused:
            generate_instance(5, cap_ratio=cap_ratio)
        assert refused.value.field == "capacity"


@pytest.mark.parametrize("kwargs", [dict(wmax=2.5), dict(wmax=math.nan), dict(pmax=math.inf),
                                    dict(wmax=2**63), dict(n=3.5)],
                         ids=["wmax=2.5", "wmax=nan", "pmax=inf", "wmax=2**63", "n=3.5"])
def test_generator_counts_are_int64_integers(kwargs):
    # the shared integer rule of every instance field; before it, 2.5 drew from [1, 2]
    # and nan or inf escaped as a bare ValueError or OverflowError
    with pytest.raises(ValidationError, match=next(iter(kwargs))):
        generate_instance(**{"n": 5, **kwargs})


def test_generator_takes_integral_floats_as_integers():
    assert generate_instance(5, wmax=3.0, pmax=7.0) == generate_instance(5, wmax=3, pmax=7)


def test_generator_capacity_sums_weights_without_wrapping():
    # these weights sum past 2^63; an int64 sum wrapped negative and gave capacity 1
    inst = generate_instance(5, wmax=2**63 - 1, seed=0)
    assert sum(inst.weights.tolist()) > 2**63
    assert inst.capacity == round(0.5 * sum(inst.weights.tolist()))


# ---------------------------------------------------------------- oracle

def test_oracle_on_tiny(tiny):
    res = brute_force_oracle(tiny)
    assert res.best_value == 9
    assert res.best_config.tolist() == [1, 0, 1]
    assert res.feasible_count == 6


def test_oracle_tie_breaks_toward_smallest_k(tiny):
    # [1,0,1] (k=5) and [0,1,1] (k=6) both score 9; the smaller k wins
    assert ref_objective(tiny.profits.tolist(), [0, 1, 1]) == 9
    assert brute_force_oracle(tiny).best_config.tolist() == [1, 0, 1]


def test_oracle_matches_reference_enumeration():
    for seed in range(6):
        inst = generate_instance(9, density=0.6, wmax=12, pmax=15, seed=seed)
        got = brute_force_oracle(inst)
        want_v, want_x, want_count = ref_enumerate(
            inst.profits.tolist(), inst.weights.tolist(), inst.capacity
        )
        assert got.best_value == want_v
        assert got.best_config.tolist() == want_x
        assert got.feasible_count == want_count


def test_oracle_nothing_fits():
    inst = make_instance([[7, 0], [0, 5]], [10, 10], 3)
    res = brute_force_oracle(inst)
    assert res.best_value == 0
    assert res.best_config.tolist() == [0, 0]
    assert res.feasible_count == 1


def test_oracle_vacuous_capacity_selects_everything():
    inst = make_instance([[7, 1], [1, 5]], [2, 3], 50)
    res = brute_force_oracle(inst)
    assert res.best_value == 7 + 5 + 2
    assert res.best_config.tolist() == [1, 1]
    assert res.feasible_count == 4


def test_oracle_size_limit():
    inst = generate_instance(25, seed=0)
    with pytest.raises(CapacityError, match="n <= 24"):
        brute_force_oracle(inst)


def test_oracle_rejects_totals_past_float64_exact_range():
    # 2^53 + 1 rounds to 2^53 in float64, so this optimum would read 2^53
    inst = make_instance([[2 ** 53 + 1, 0], [0, 1]], [1, 1], 1)
    with pytest.raises(CapacityError, match="2\\^53"):
        brute_force_oracle(inst)
    # a weight sum of 2^53 + 1 would round down and pass the capacity
    inst = make_instance([[1, 0], [0, 1]], [2 ** 53, 1], 2 ** 53)
    with pytest.raises(CapacityError, match="2\\^53"):
        brute_force_oracle(inst)
    at_limit = make_instance([[2 ** 53 - 1, 0], [0, 1]], [1, 1], 2)
    assert brute_force_oracle(at_limit).best_value == 2 ** 53


def test_oracle_value_monotone_in_capacity():
    inst = generate_instance(8, seed=5)
    values = [
        brute_force_oracle(make_instance(inst.profits, inst.weights, c)).best_value
        for c in range(1, inst.total_weight + 2, 7)
    ]
    assert values == sorted(values)


# (value, k = sum x_i 2^i, feasible count) of the full 2^n enumeration the
# split-half oracle replaced, on the criterion-7 instances and one n = 24
# instance, where the low and high halves split the items 10/10 and 12/12
ENUMERATED = [(20, seed, out) for seed, out in enumerate([
    (3053, 973747, 524288), (2873, 502750, 539948), (2558, 847798, 533396),
    (2494, 909193, 537505), (3255, 1040052, 541037), (2628, 759243, 532020),
    (2654, 1009612, 531408), (2455, 1033527, 524288), (2483, 1032666, 536916),
    (3309, 483273, 538932),
], start=1)] + [(24, 3, (4196, 10354462, 8645397))]


def criterion7_like(n, seed):
    return generate_instance(n, seed=seed, density=0.5, wmax=20, pmax=50, cap_ratio=0.5)


@pytest.mark.parametrize("n, seed, pinned", ENUMERATED)
def test_oracle_is_pinned_to_full_enumeration(n, seed, pinned):
    inst = criterion7_like(n, seed)
    res = brute_force_oracle(inst)
    k = sum(int(b) << i for i, b in enumerate(res.best_config))
    assert (res.best_value, k, res.feasible_count) == pinned
    x = res.best_config.tolist()
    assert ref_objective(inst.profits.tolist(), x) == res.best_value
    assert ref_weight(inst.weights.tolist(), x) <= inst.capacity


@pytest.mark.parametrize("block", [1, 8])
def test_oracle_ties_across_blocks_keep_the_smallest_k(monkeypatch, block):
    # block 1 scores one high half per block, block 8 a few
    monkeypatch.setattr(qkp, "_ORACLE_BLOCK", block)
    # items 2 and 3 sit in the high half and tie at profit 1; k = 4 beats k = 8
    inst = make_instance(np.diag([0, 0, 1, 1]), [1, 1, 1, 1], 1)
    assert brute_force_oracle(inst).best_config.tolist() == [0, 0, 1, 0]
    rng = np.random.default_rng(block)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        upper = rng.integers(0, 2, size=(n, n))
        inst = make_instance(np.triu(upper) + np.triu(upper, k=1).T,
                             rng.integers(1, 4, size=n), int(rng.integers(1, n + 1)))
        res = brute_force_oracle(inst)
        want = ref_enumerate(inst.profits.tolist(), inst.weights.tolist(), inst.capacity)
        assert (res.best_value, res.best_config.tolist(), res.feasible_count) == want


def test_oracle_memory_is_bounded():
    inst = criterion7_like(24, 3)
    tracemalloc.start()
    try:
        brute_force_oracle(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
