"""Multi-level weight planes, replica comparison, feasibility decisions."""

import itertools

import numpy as np
import pytest

from cimqubo import (
    CapacityError,
    ConfigurationError,
    FilterConfig,
    SamplingError,
    ValidationError,
    build_filter,
    build_replica,
    decompose_weights,
    evaluate_ml,
    filter_check,
    filter_study,
    generate_instance,
    sample_balanced_configs,
)

from conftest import make_instance


# ------------------------------------------------------- weight decomposition

def test_decompose_seven():
    plane = decompose_weights([7])
    col = plane.cells[:, 0].tolist()
    assert col == [4, 3] + [0] * 14


def test_decompose_full_budget():
    plane = decompose_weights([64])
    assert plane.cells[:, 0].tolist() == [4] * 16
    assert FilterConfig().column_budget == 64


def test_decompose_overweight_raises():
    with pytest.raises(CapacityError, match="weights\\[0\\] = 65"):
        decompose_weights([65])


def test_decompose_zero_weight_column():
    plane = decompose_weights([0, 5])
    assert plane.cells[:, 0].tolist() == [0] * 16
    assert plane.column_weights.tolist() == [0, 5]


def test_decompose_column_sums_and_greedy_shape():
    rng = np.random.default_rng(17)
    for _ in range(20):
        w = rng.integers(0, 65, size=12)
        plane = decompose_weights(w)
        assert plane.column_weights.tolist() == w.tolist()
        for col in plane.cells.T:
            c = col.tolist()
            # full levels first, at most one partial cell, zeros after
            assert c == sorted(c, reverse=True)
            assert sum(1 for v in c if 0 < v < 4) <= 1


def test_decompose_respects_custom_geometry():
    cfg = FilterConfig(rows=2, levels_per_cell=3)
    assert decompose_weights([5], cfg).cells[:, 0].tolist() == [3, 2]
    with pytest.raises(CapacityError):
        decompose_weights([7], cfg)


# ------------------------------------------------------- replica

def test_replica_capacity_nine():
    rep = build_replica(9, columns=3)
    assert rep.plane.cells[:, 0].tolist() == [4, 4, 1] + [0] * 13
    assert rep.plane.column_weights.tolist() == [9, 0, 0]
    assert rep.fixed_input.tolist() == [1, 0, 0]


def test_replica_spills_into_second_column():
    rep = build_replica(100, columns=4)
    assert rep.plane.column_weights.tolist() == [64, 36, 0, 0]
    assert rep.fixed_input.tolist() == [1, 1, 0, 0]


def test_replica_overflow():
    with pytest.raises(CapacityError, match="6401"):
        build_replica(6401, columns=100)


def test_replica_selects_exactly_capacity():
    rng = np.random.default_rng(23)
    for _ in range(15):
        cols = int(rng.integers(1, 20))
        cap = int(rng.integers(1, cols * 64 + 1))
        rep = build_replica(cap, columns=cols)
        assert int(rep.plane.column_weights @ rep.fixed_input) == cap


# ------------------------------------------------------- matchline voltages

def test_matchline_idle_at_vdd():
    model = build_filter([4, 7, 2], 9)
    assert evaluate_ml(model.working, [0, 0, 0], model.config) == 2.0


def test_matchline_linear_drop():
    cfg = FilterConfig(unit_drop=0.05)
    model = build_filter([4, 7, 2], 9, cfg)
    assert evaluate_ml(model.working, [1, 1, 0], model.config) == pytest.approx(1.45)
    assert model.replica_ml == pytest.approx(1.55)
    assert not filter_check(model, [1, 1, 0]).feasible


def test_matchline_clamps_at_zero():
    cfg = FilterConfig(unit_drop=1.0)
    assert evaluate_ml(decompose_weights([3, 3], cfg), [1, 1], cfg) == 0.0


def test_saturated_replica_is_rejected():
    # 0.25 x 9 = 2.25 V discharges the replica to the 0 V clamp, where the
    # over-weight [1, 1, 0] (11 > 9) would tie with it and pass
    with pytest.raises(ConfigurationError, match="saturates"):
        build_filter([4, 7, 2], 9, FilterConfig(unit_drop=0.25))
    with pytest.raises(ConfigurationError, match="saturates"):
        build_filter([4, 7, 2], 8, FilterConfig(unit_drop=0.25))
    model = build_filter([4, 7, 2], 7, FilterConfig(unit_drop=0.25))
    assert model.replica_ml == pytest.approx(0.25)
    assert not filter_check(model, [1, 1, 0]).feasible


def test_equal_weight_sums_give_equal_voltage():
    model = build_filter([3, 1, 2], 5)
    a = evaluate_ml(model.working, [1, 0, 0], model.config)
    b = evaluate_ml(model.working, [0, 1, 1], model.config)
    assert a == b


def test_auto_unit_drop_puts_replica_mid_rail():
    model = build_filter([4, 7, 2], 9)
    assert model.config.unit_drop == pytest.approx(2.0 / 18.0)
    assert model.replica_ml == pytest.approx(1.0)
    big = build_filter([30, 2], 9)   # max weight dominates the scale
    assert big.config.unit_drop == pytest.approx(2.0 / 60.0)


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
    a = evaluate_ml(model.working, [1, 1, 1], model.config, rng=np.random.default_rng(5))
    b = evaluate_ml(model.working, [1, 1, 1], model.config, rng=np.random.default_rng(5))
    assert a == b
    clean = build_filter([4, 7, 2], 9)
    ideal = evaluate_ml(clean.working, [1, 1, 1], clean.config)
    rng = np.random.default_rng(7)
    samples = [evaluate_ml(model.working, [1, 1, 1], model.config, rng) for _ in range(3000)]
    # per-event sigma 0.05 over 13 events, mean of 3000 draws stays within 4 sigma
    tol = 4 * model.config.unit_drop * 0.05 * np.sqrt(13) / np.sqrt(3000)
    assert abs(np.mean(samples) - ideal) < tol


def test_matchline_noise_variance_scales_with_weight_sum():
    sigma = 0.05
    model = build_filter([4, 7, 2], 9, FilterConfig(noise_sigma=sigma))
    rng = np.random.default_rng(13)
    for x, wsum in (([1, 1, 1], 13), ([0, 1, 0], 7)):
        samples = np.array([evaluate_ml(model.working, x, model.config, rng) for _ in range(4000)])
        assert samples.min() > 0   # never clamped, so the variance is the noise's
        want = (model.config.unit_drop * sigma) ** 2 * wsum
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
    with pytest.raises(ValidationError):
        FilterConfig(vdd=-1.0)
    with pytest.raises(ValidationError):
        FilterConfig(unit_drop=0.0)
    with pytest.raises(ValidationError):
        FilterConfig(noise_sigma=-0.1)


def test_capacity_must_fit_replica():
    with pytest.raises(CapacityError):
        build_filter([1, 1], 200)   # two columns hold at most 128
