"""Behavioral model of the multi-level inequality filter array.

The model keeps what decides a verdict: the column weights of the working
array and the matchline of its replica column.  Both matchlines precharge to
VDD.  Driving input x discharges the working matchline by unit_drop volts per
unit of selected weight, so it sits at VDD - unit_drop * sum(w_i x_i), clamped
at zero.  The replica stores exactly the capacity and its matchline is the
comparison reference: the working matchline at or above the replica means the
configuration is feasible.  Gaussian noise, when enabled, multiplies every
unit conduction event on the working side; the replica is read noiselessly.
VDD and unit_drop only set the voltage scale of the reported matchlines: the
verdict depends on w.x <= C and the noise alone.

Each weight is programmed over the rows of one column, every cell holding a
level in [0, levels_per_cell], and the replica spreads the capacity over as
many columns as there are items.  That multi-level geometry is a programming
constraint, which build_filter checks; it does not change a read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigurationError, SamplingError, ValidationError
from .qkp import _SEED_LIMIT, _as_float, _as_int, _as_int_array, _as_rng, _as_type, as_bits

# precharge voltage of both matchlines
VDD = 2.0


@dataclass(frozen=True)
class FilterConfig:
    rows: int = 16
    levels_per_cell: int = 4
    noise_sigma: float = 0.0

    def __post_init__(self):
        for name in ("rows", "levels_per_cell"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, 1))
        object.__setattr__(self, "noise_sigma", _as_float(self.noise_sigma, "noise_sigma", 0.0))

    @property
    def column_budget(self) -> int:
        """Largest weight one column can hold."""
        return self.rows * self.levels_per_cell


@dataclass(frozen=True, eq=False)
class FilterModel:
    """Working column weights, drop per weight unit, configuration, replica matchline."""

    weights: np.ndarray
    unit_drop: float
    config: FilterConfig
    replica_ml: float


@dataclass(frozen=True, slots=True)
class FilterDecision:
    working_ml: float
    replica_ml: float
    feasible: bool


def build_filter(weights, capacity: int, config: FilterConfig = FilterConfig()) -> FilterModel:
    """Check that the weights and the capacity fit the array and set the
    drop per weight unit.

    Every weight must fit one column of rows x levels_per_cell, and the
    capacity the replica's n columns.  unit_drop is VDD / (2 * max(capacity,
    max w)), so the replica matchline sits at VDD / 2 or above.  A replica
    matchline that a weight of capacity + 1 leaves at the same float64 value
    would tie with that over-weight input and raises ConfigurationError.
    """
    _as_type(config, FilterConfig, "config")
    w = _as_int_array(weights, "weights")
    if w.ndim != 1:
        raise ValidationError("weights", f"expected a vector, got shape {w.shape}")
    budget = config.column_budget
    for i, wi in enumerate(w.tolist()):
        if wi < 0:
            raise ValidationError(f"weights[{i}]", f"must be >= 0, got {wi}")
        if wi > budget:
            raise CapacityError(
                f"weights[{i}] = {wi} exceeds the {config.rows} x {config.levels_per_cell} "
                f"column budget {budget}; increase rows"
            )
    capacity = _as_int(capacity, "capacity", 1)
    columns = w.shape[0]
    if capacity > columns * budget:
        raise CapacityError(
            f"capacity {capacity} exceeds the replica total budget {columns * budget} "
            f"({columns} columns x {budget})"
        )
    w.setflags(write=False)
    unit_drop = VDD / (2.0 * max(capacity, int(w.max())))
    replica_ml = VDD - unit_drop * float(capacity)
    if VDD - unit_drop * float(capacity + 1) == replica_ml:
        raise ConfigurationError(
            f"unit_drop {unit_drop} is below the float64 resolution of VDD {VDD}: "
            f"weights {capacity} and {capacity + 1} give the same matchline"
        )
    return FilterModel(weights=w, unit_drop=unit_drop, config=config, replica_ml=replica_ml)


class _WeightTally:
    """A run's selected weight sum, which filter_check reads in place of the
    configuration.  wsum is a 0-d view into the annealer's array, so a check
    sees the sum as it stands at the call."""

    __slots__ = ("model", "wsum")

    def __init__(self, model: FilterModel, wsum: np.ndarray):
        self.model, self.wsum = model, wsum


def _weight_tallies(model: FilterModel, wsums: np.ndarray) -> list[_WeightTally]:
    """One tally per entry of the int64 vector wsums, each a view of its entry."""
    return [_WeightTally(model, wsums[r, ...]) for r in range(wsums.shape[0])]


def filter_check(model: FilterModel, x, rng=None) -> FilterDecision:
    """Compare the working matchline against the noiseless replica; ties pass.

    The selected weight sum wsum is w.x.  An annealer passes, in place of x,
    its run's tally of wsum, which it keeps from flip to flip; the check then
    sums nothing and does the rest.  The working matchline is clamped at zero.
    With noise enabled every unit conduction event drops unit_drop * (1 + eta)
    with eta ~ N(0, noise_sigma); the number of events equals wsum, so the
    events' perturbations add up to one Gaussian draw from rng scaled by
    noise_sigma * sqrt(wsum).  A noisy drop past the float64 range raises
    CapacityError.
    """
    if isinstance(x, _WeightTally):
        if x.model is not model:
            raise ValidationError("x", "is the weight tally of another filter")
        wsum = int(x.wsum)
    else:
        weights = _as_type(model, FilterModel, "model").weights
        wsum = int(weights @ as_bits(x, weights.shape[0]))
    sigma = model.config.noise_sigma
    drop = model.unit_drop * float(wsum)
    if sigma > 0 and wsum > 0:
        eta = _as_rng(rng).standard_normal() * sigma * math.sqrt(wsum)
        drop += model.unit_drop * float(eta)
        if not math.isfinite(drop):
            raise CapacityError(f"noisy matchline drop {drop} at noise_sigma {sigma} "
                                "is not a finite float64")
    working = max(0.0, VDD - drop)
    # positional, in field order (working_ml, replica_ml, feasible), which is faster than keywords
    return FilterDecision(working, model.replica_ml, bool(working >= model.replica_ml))


def sample_balanced_configs(
    weights,
    capacity: int,
    num_feasible: int,
    num_infeasible: int,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw unique uniform configurations until both class quotas are met.

    Returns (configs, labels) with the feasible block first.  Raises
    SamplingError with the achieved counts when the attempt budget runs out.
    """
    w = _as_int_array(weights, "weights", copy=False)
    num_feasible = _as_int(num_feasible, "num_feasible", 0)
    num_infeasible = _as_int(num_infeasible, "num_infeasible", 0)
    seed = _as_int(seed, "seed", 0, _SEED_LIMIT)
    n = w.shape[0]
    budget = max(20000, 400 * (num_feasible + num_infeasible))
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    feas: list[np.ndarray] = []
    infeas: list[np.ndarray] = []
    seen: set[bytes] = set()
    attempts = 0
    while (len(feas) < num_feasible or len(infeas) < num_infeasible) and attempts < budget:
        m = min(256, budget - attempts)
        attempts += m
        batch = rng.integers(0, 2, size=(m, n), dtype=np.int8)
        wsums = batch @ w
        for row, wsum in zip(batch, wsums.tolist()):
            key = row.tobytes()
            if key in seen:
                continue
            if wsum <= capacity:
                if len(feas) == num_feasible:
                    continue
                feas.append(row)
            elif len(infeas) < num_infeasible:
                infeas.append(row)
            else:
                continue
            seen.add(key)
            if len(feas) == num_feasible and len(infeas) == num_infeasible:
                break  # the rest of the batch would be neither kept nor seen
    if len(feas) < num_feasible or len(infeas) < num_infeasible:
        raise SamplingError(
            f"found {len(feas)}/{num_feasible} feasible and {len(infeas)}/{num_infeasible} "
            f"infeasible configurations within {budget} attempts",
            feasible_found=len(feas),
            infeasible_found=len(infeas),
        )
    configs = np.array(feas + infeas, dtype=np.int8)
    labels = np.array([True] * num_feasible + [False] * num_infeasible)
    return configs, labels
