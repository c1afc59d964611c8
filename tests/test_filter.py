"""Array geometry checks, matchline voltages, replica comparison, feasibility decisions."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from cimqubo import (
    CapacityError,
    FilterConfig,
    SamplingError,
    ValidationError,
    build_filter,
    filter_check,
    filter_study,
    generate_instance,
    sample_balanced_configs,
)
from cimqubo.filter_sim import VDD

from conftest import criterion7_instance, make_instance


# ------------------------------------------------------- array geometry

# A weight is decomposed over the R cells of its column, L levels each, so
# build_filter rejects any weight above the R x L column budget.

def test_decompose_overweight_raises():
    assert FilterConfig().column_budget == 64
    assert build_filter([64], 64).weights.tolist() == [64]
    with pytest.raises(CapacityError, match="weights\\[0\\] = 65"):
        build_filter([65], 1)


def test_decompose_respects_custom_geometry():
    cfg = FilterConfig(rows=2, levels_per_cell=3)
    assert build_filter([6, 0], 6, cfg).weights.tolist() == [6, 0]
    with pytest.raises(CapacityError):
        build_filter([7], 1, cfg)


def test_build_filter_rejects_a_capacity_over_the_replica_budget():
    with pytest.raises(CapacityError, match="6401"):
        build_filter([1] * 100, 6401)


def test_build_filter_keeps_a_read_only_copy_of_the_weights():
    weights = np.array([4, 7, 2])
    model = build_filter(weights, 9)
    weights[0] = 60
    assert model.weights.tolist() == [4, 7, 2]
    assert model.weights.dtype == np.int64
    assert not model.weights.flags.writeable


def test_build_filter_rejects_fractional_weights():
    # truncated to [1, 2], x = [1, 1] would pass at a true weight of 4.4 > 3
    with pytest.raises(ValidationError, match="weights: entries must be integers"):
        build_filter([1.5, 2.9], 3)
    assert build_filter([1.0, 2.0], 3).weights.tolist() == [1, 2]


def test_sample_balanced_configs_rejects_fractional_weights():
    with pytest.raises(ValidationError, match="weights: entries must be integers"):
        sample_balanced_configs([1.5, 2.9], 3, 1, 1)
    configs, labels = sample_balanced_configs([1.0, 2.0], 1, 1, 1)
    assert labels.tolist() == [True, False]


# ------------------------------------------------------- matchline voltages

def test_matchline_idle_at_vdd():
    model = build_filter([4, 7, 2], 9)
    assert VDD == 2.0
    assert filter_check(model, [0, 0, 0]).working_ml == VDD


def test_matchline_linear_drop():
    model = build_filter([4, 7, 2], 9)   # 2 V / (2 x 9) = 1/9 V per weight unit
    assert filter_check(model, [0, 0, 1]).working_ml == pytest.approx(2.0 - 2 / 9)
    assert filter_check(model, [1, 1, 0]).working_ml == pytest.approx(2.0 - 11 / 9)
    assert model.replica_ml == pytest.approx(1.0)
    assert not filter_check(model, [1, 1, 0]).feasible


def test_matchline_clamps_at_zero():
    model = build_filter([3, 3, 3], 3)   # 1/3 V per weight unit, so 9 units reach -1 V
    assert model.replica_ml == 1.0
    assert filter_check(model, [1, 1, 1]).working_ml == 0.0


def test_equal_weight_sums_give_equal_voltage():
    model = build_filter([3, 1, 2], 5)
    a = filter_check(model, [1, 0, 0]).working_ml
    b = filter_check(model, [0, 1, 1]).working_ml
    assert a == b


def test_auto_unit_drop_puts_replica_mid_rail():
    model = build_filter([4, 7, 2], 9)
    assert model.unit_drop == pytest.approx(2.0 / 18.0)
    assert model.replica_ml == pytest.approx(1.0)
    big = build_filter([30, 2], 9)   # max weight dominates the scale
    assert big.unit_drop == pytest.approx(2.0 / 60.0)


# ------------------------------------------------------- feasibility decisions

def test_filter_on_three_item_instance(tiny):
    model = build_filter(tiny.weights, tiny.capacity)
    verdicts = {
        bits: filter_check(model, list(bits)).feasible
        for bits in itertools.product((0, 1), repeat=3)
    }
    assert sum(verdicts.values()) == 6
    assert verdicts[(1, 1, 0)] is False
    assert verdicts[(1, 1, 1)] is False
    assert verdicts[(0, 1, 1)] is True   # weight 9 ties the replica and passes


def test_filter_matches_inequality_exhaustively():
    inst = generate_instance(12, density=0.4, wmax=30, pmax=9, seed=6)
    model = build_filter(inst.weights, inst.capacity)
    for bits in itertools.product((0, 1), repeat=12):
        expect = int(inst.weights @ np.array(bits)) <= inst.capacity
        assert filter_check(model, list(bits)).feasible == expect


def test_filter_matches_inequality_at_scale():
    inst = generate_instance(100, density=0.25, wmax=64, pmax=50, seed=8)
    model = build_filter(inst.weights, inst.capacity)
    rng = np.random.default_rng(1)
    configs = rng.integers(0, 2, size=(2000, 100), dtype=np.int8)
    for cfg in configs:
        expect = int(inst.weights @ cfg) <= inst.capacity
        assert filter_check(model, cfg).feasible == expect


# ------------------------------------------------------- noise

def test_noise_is_reproducible_and_unbiased():
    cfg = FilterConfig(noise_sigma=0.05)
    model = build_filter([4, 7, 2], 9, cfg)
    a = filter_check(model, [1, 1, 1], np.random.default_rng(5)).working_ml
    b = filter_check(model, [1, 1, 1], np.random.default_rng(5)).working_ml
    assert a == b
    clean = build_filter([4, 7, 2], 9)
    ideal = filter_check(clean, [1, 1, 1]).working_ml
    rng = np.random.default_rng(7)
    samples = [filter_check(model, [1, 1, 1], rng).working_ml for _ in range(3000)]
    # per-event sigma 0.05 over 13 events, mean of 3000 draws stays within 4 sigma
    tol = 4 * model.unit_drop * 0.05 * np.sqrt(13) / np.sqrt(3000)
    assert abs(np.mean(samples) - ideal) < tol


def test_matchline_noise_variance_scales_with_weight_sum():
    sigma = 0.05
    model = build_filter([4, 7, 2], 9, FilterConfig(noise_sigma=sigma))
    rng = np.random.default_rng(13)
    for x, wsum in (([1, 1, 1], 13), ([0, 1, 0], 7)):
        samples = np.array([filter_check(model, x, rng).working_ml for _ in range(4000)])
        assert samples.min() > 0   # never clamped, so the variance is the noise's
        want = (model.unit_drop * sigma) ** 2 * wsum
        assert samples.var() == pytest.approx(want, rel=0.1)


def test_noise_flips_boundary_decisions():
    cfg = FilterConfig(noise_sigma=0.5)
    model = build_filter([4, 7, 2], 9, cfg)
    rng = np.random.default_rng(11)
    verdicts = {filter_check(model, [0, 1, 1], rng).feasible for _ in range(200)}
    assert verdicts == {True, False}


def test_noiseless_classification_accuracy_is_exact():
    inst = generate_instance(40, density=0.3, wmax=25, pmax=20, seed=14)
    assert filter_study(inst, 100, seed=3).accuracy == 1.0


def test_heavy_noise_costs_accuracy():
    inst = generate_instance(40, density=0.3, wmax=25, pmax=20, seed=14)
    assert filter_study(inst, 200, FilterConfig(noise_sigma=0.8), seed=3).accuracy < 1.0


# ------------------------------------------------------- balanced sampling

def test_sample_balanced_shapes_and_labels(tiny):
    configs, labels = sample_balanced_configs(tiny.weights, tiny.capacity, 3, 2, seed=1)
    assert configs.shape == (5, 3)
    assert labels.tolist() == [True, True, True, False, False]
    wsums = configs @ tiny.weights
    assert all(w <= 9 for w in wsums[:3])
    assert all(w > 9 for w in wsums[3:])


def test_sample_balanced_unique_and_deterministic(tiny):
    a, _ = sample_balanced_configs(tiny.weights, tiny.capacity, 3, 2, seed=1)
    b, _ = sample_balanced_configs(tiny.weights, tiny.capacity, 3, 2, seed=1)
    assert np.array_equal(a, b)
    rows = {row.tobytes() for row in a}
    assert len(rows) == 5


# (weights, capacity, num_feasible, num_infeasible, seed) -> sha256 of the shape,
# configuration bytes and label bytes; the n = 3 cases draw many duplicates
BALANCED_DIGESTS = [
    (([4, 7, 2], 9, 3, 2, 1), "dadd649e1bf198d3204ba86a6cbb5ba778022fade6ec58428e81f576723ddcfe"),
    (([4, 7, 2], 9, 6, 2, 5), "628bbf7e00ec0568dc9c9faf914418e98a9a98905159b235bd88feeb848436df"),
    (("c7-1", 20, 20, 3), "6d8585cd28e544d99b3e4d3675cbb4ff49a1c57beab1c8ab736a893e3b17b6a1"),
    (("c7-2", 300, 200, 2**64 - 1), "2903424b0520fef5433753a86948e4ecde7e8e19f9766db2f916c7d8e355d91b"),
    (("n100", 22, 22, 9), "25b2a4f4c8747740e8d2d50ce9483dd0462019e776016d9e70a1b53b7f728403"),
]


@pytest.mark.parametrize("case, digest", BALANCED_DIGESTS)
def test_sample_balanced_configs_are_pinned(case, digest):
    if isinstance(case[0], str):
        name, *counts = case
        inst = {"c7-1": criterion7_instance(1), "c7-2": criterion7_instance(2),
                "n100": generate_instance(100, seed=4)}[name]
        case = (inst.weights, inst.capacity, *counts)
    *args, seed = case
    configs, labels = sample_balanced_configs(*args, seed=seed)
    h = hashlib.sha256(repr(configs.shape).encode())
    h.update(configs.tobytes())
    h.update(labels.tobytes())
    assert h.hexdigest() == digest


def test_sample_balanced_shortfall_counts_are_pinned():
    # tiny has 6 feasible and 2 infeasible configurations; the budget runs out on the third
    with pytest.raises(SamplingError, match="found 6/6 feasible and 2/3 infeasible") as err:
        sample_balanced_configs([4, 7, 2], 9, 6, 3, seed=2)
    assert (err.value.feasible_found, err.value.infeasible_found) == (6, 2)


def test_sample_balanced_reports_shortfall():
    # capacity covers the whole ground set, so no infeasible configuration exists
    with pytest.raises(SamplingError) as err:
        sample_balanced_configs([1, 1, 1], 10, 2, 2, seed=0)
    assert err.value.infeasible_found == 0
    assert err.value.feasible_found == 2


# ------------------------------------------------------- config validation

def test_filter_config_validation():
    with pytest.raises(ValidationError):
        FilterConfig(rows=0)
    with pytest.raises(ValidationError):
        FilterConfig(levels_per_cell=0)
    for sigma in (-0.1, math.nan, math.inf):
        # a NaN sigma passed the sign check and read as noiseless
        with pytest.raises(ValidationError, match="noise_sigma"):
            FilterConfig(noise_sigma=sigma)


def test_capacity_must_fit_replica():
    with pytest.raises(CapacityError):
        build_filter([1, 1], 200)   # two columns hold at most 128


def test_a_noisy_drop_past_float64_raises():
    model = build_filter([4, 7, 2], 9, FilterConfig(noise_sigma=1.7e308))
    rng = np.random.default_rng(0)
    raised = 0
    for _ in range(20):
        try:
            assert math.isfinite(filter_check(model, [1, 1, 1], rng).working_ml)
        except CapacityError as exc:
            assert "not a finite float64" in str(exc)
            raised += 1
    assert raised


@pytest.mark.parametrize("config", [5, None, {"rows": 16}])
def test_build_filter_refuses_a_config_that_is_not_a_filter_config(config):
    with pytest.raises(ValidationError) as refused:
        build_filter([4, 7, 2], 9, config)
    assert refused.value.field == "config"
