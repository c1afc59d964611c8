"""Behavioral model of the bit-sliced coefficient crossbar.

Coefficient magnitudes |q_ij| are split into M binary planes; plane b holds
bit b and a conducting cell contributes one unit current scaled digitally by
2^b.  Signs stay digital: a single-signed matrix is stored as magnitudes with
one global sign, while a mixed-sign matrix is split into a positive and a
negative sub-array whose readings subtract.  Driving x activates cell (i, j)
when x_i = x_j = 1, so the noiseless reading is exactly x^T q x + offset.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError
from .qkp import _as_float, _as_rng, _as_type, as_bits
from .transform import QuboMatrix


@dataclass(frozen=True, eq=False)
class CrossbarModel:
    """Programmed bit planes in the layout a read uses.

    rows holds row i of every plane as little-endian uint64 words, laid out
    (dim, words, planes): bit j % 64 of word j // 64 is cell (i, j).  scale
    holds each plane's signed weight sign * 2^b, the positive stack's planes
    first, then the negative stack's."""

    rows: np.ndarray
    scale: np.ndarray
    offset: int
    noise_sigma: float = 0.0

    @property
    def dim(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True, slots=True)
class EnergyReading:
    value: float
    exact_value: int
    activated_cells: int


def _plane_rows(mags: np.ndarray, words: int) -> np.ndarray:
    """Bit planes of one single-signed magnitude matrix as (dim, words, bits) rows."""
    bits = max(1, int(mags.max()).bit_length())
    dim = mags.shape[0]
    padded = np.zeros((bits, dim, 8 * words), dtype=np.uint8)
    # one boolean plane at a time: all planes as int64 would take 8 bytes per cell and bit
    for b in range(bits):
        padded[b, :, : -(-dim // 8)] = np.packbits((mags & (1 << b)) != 0, axis=-1, bitorder="little")
    return padded.view("<u8").transpose(1, 2, 0)


def program_crossbar(q: QuboMatrix, noise_sigma: float = 0.0) -> CrossbarModel:
    """Slice a coefficient matrix into bit planes, splitting mixed signs."""
    noise_sigma = _as_float(noise_sigma, "noise_sigma", 0.0)
    mat = _as_type(q, QuboMatrix, "q").q
    words = -(-q.dim // 64)
    signs = [1] if np.any(mat > 0) else []
    # the zero matrix gets one all-zero negative stack
    if np.any(mat < 0) or not signs:
        signs.append(-1)
    stacks = [_plane_rows(np.maximum(sign * mat, 0), words) for sign in signs]
    rows = np.ascontiguousarray(np.concatenate(stacks, axis=2))
    rows.setflags(write=False)
    scale = np.concatenate([sign * (1 << np.arange(stack.shape[2], dtype=np.int64))
                            for sign, stack in zip(signs, stacks)])
    scale.setflags(write=False)
    return CrossbarModel(rows=rows, scale=scale, offset=q.offset, noise_sigma=noise_sigma)


def _pack(configs: np.ndarray, words: int) -> np.ndarray:
    """(R, dim) 0/1 configurations in the rows' word layout, as (R, words) uint64."""
    packed = np.zeros((configs.shape[0], 8 * words), dtype=np.uint8)
    packed[:, : -(-configs.shape[1] // 8)] = np.packbits(configs, axis=1, bitorder="little")
    return packed.view("<u8")


def _plane_counts(rows: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Conducting cells per plane of configuration bits."""
    # x in the rows' word layout, as a (words, 1) column against the plane axis;
    # through bytes, since _pack's padded block costs more for one vector
    packed = np.packbits(bits, bitorder="little").tobytes().ljust(8 * rows.shape[1], b"\0")
    xw = np.ndarray((rows.shape[1], 1), "<u8", packed)
    # row i contributes only when x_i = 1, and then cell (i, j) only when x_j = 1
    selected = rows.compress(bits, axis=0)
    selected &= xw
    return np.bitwise_count(selected).sum(axis=(0, 1), dtype=np.int64)


def _line_layout(model: CrossbarModel) -> tuple[np.ndarray, np.ndarray]:
    """The lines an annealer's single-bit flips read, as (lines, units).

    lines[j] holds row j and column j of every plane, laid out (dim, 2, words,
    planes) in the rows' word layout; the column copy has its diagonal cell
    cleared, so each cell of the two lines is counted once.  units[j] is bit j
    alone in the same words.  lines take twice the rows' memory, units one
    plane's."""
    rows = model.rows
    dim, words, planes = rows.shape
    lines = np.empty((dim, 2, words, planes), dtype=np.uint64)
    lines[:, 0] = rows
    for p in range(planes):
        # cell (i, j) is bit j of row i; the transpose puts it at bit i of line j
        cells = np.unpackbits(np.ascontiguousarray(rows[:, :, p]).view(np.uint8), axis=1,
                              count=dim, bitorder="little").T.copy()
        np.fill_diagonal(cells, 0)
        lines[:, 1, :, p] = _pack(cells, words)
    return lines, _pack(np.eye(dim, dtype=np.uint8), words)


class _CellTally:
    """A run's per-plane conducting-cell counts and their read terms, which
    vmv_energy reads in place of the configuration they count: sums holds
    counts @ scale and the activated cells, spread sqrt(counts) * scale (None
    without noise).  Each is a view of the run's row in the block's arrays,
    so a read sees them as they stand at the call."""

    __slots__ = ("model", "counts", "sums", "spread")

    def __init__(self, model: CrossbarModel, counts: np.ndarray, sums: np.ndarray, spread):
        self.model, self.counts, self.sums, self.spread = model, counts, sums, spread


class _RunCells:
    """Packed configurations and per-plane cell counts of a block of runs,
    updated from the flipped bit instead of recounted.

    Flipping bit j switches the cells of row j and column j that the
    configuration with bit j set selects: the same cells whether the flip sets
    the bit (delta = +1) or clears it (delta = -1).  So a proposal costs one
    AND and popcount over the two lines of every run, O(planes x words), and
    the read terms of every run's proposed counts are derived with it.
    tallies[r] reads run r's proposed counts."""

    def __init__(self, model: CrossbarModel, layout, configs: np.ndarray):
        self.lines, self.units = layout
        self.words = _pack(configs, self.units.shape[1])
        self.counts = np.array([_plane_counts(model.rows, bits) for bits in configs])
        self.proposed = self.counts.copy()  # until the first proposal, the initial counts
        runs, planes = self.proposed.shape
        # each run's counts @ scale and activated cells, as one product with [scale, 1]
        self.scale = model.scale
        self.plane_weights = np.column_stack([self.scale, np.ones(planes, dtype=np.int64)])
        self.sums = np.empty((runs, 2), dtype=np.int64)
        self.spread = np.empty((runs, planes)) if model.noise_sigma > 0 else None
        self._derive()
        self.mask = np.empty_like(self.words)  # the words with each run's flipped bit set
        self.mask_lines = self.mask[:, None, :, None]  # against the (runs, 2, words, planes) lines
        spreads = [None] * runs if self.spread is None else self.spread
        self.tallies = [_CellTally(model, *rows) for rows in zip(self.proposed, self.sums, spreads)]

    def _derive(self) -> None:
        """The read terms of every run's proposed counts."""
        np.dot(self.proposed, self.plane_weights, out=self.sums)
        if self.spread is not None:
            np.multiply(np.sqrt(self.proposed, out=self.spread), self.scale, out=self.spread)

    def propose(self, flipped: np.ndarray, cells: np.ndarray, delta: np.ndarray) -> None:
        """Counts and read terms of every run with its bit j[r] flipped, given
        units[j] and lines[j]; cells is overwritten."""
        self.flipped = flipped
        np.bitwise_or(self.words, flipped, out=self.mask)
        cells &= self.mask_lines
        runs, planes = self.proposed.shape
        change = np.add.reduce(np.bitwise_count(cells).reshape(runs, -1, planes), axis=1,
                               dtype=np.int64)
        np.multiply(change, delta[:, None], out=self.proposed)
        self.proposed += self.counts
        self._derive()

    def move(self, moved: np.ndarray) -> None:
        """Take the last proposal of every run where moved is set."""
        where = moved[:, None]
        np.copyto(self.counts, self.proposed, where=where)
        np.bitwise_xor(self.words, self.flipped, out=self.words, where=where)


def vmv_energy(model: CrossbarModel, x, rng=None) -> EnergyReading:
    """Read the energy of configuration x.

    exact_value is the digital reconstruction x^T q x + offset, counted from
    the conducting cells of every plane: x is packed into the rows' uint64
    words, the rows with x_i = 1 are ANDed with it, and the popcounts summed
    per plane are exact integers at any dim.  value adds, per conducting
    cell, a unit-current perturbation eta ~ N(0, noise_sigma) scaled by the
    cell's plane weight.  The count cells of one plane sum to a single
    N(0, count * noise_sigma^2) draw, so a noisy read takes one Gaussian per
    plane from rng and sums eta_p * spread_p with spread = sqrt(counts) *
    scale.  An annealer passes, in place of x, its run's tally, which it keeps
    from flip to flip: the counts and, derived for the whole block at each
    proposal, counts @ scale, the activated cells and the spread.  The read
    then only draws and sums its noise.  Noiseless readings satisfy value ==
    exact_value; a noisy value past the float64 range raises CapacityError.
    """
    if isinstance(x, _CellTally):
        if x.model is not model:
            raise ValidationError("x", "is the cell tally of another crossbar")
        (dot, active), spread = x.sums.tolist(), x.spread
    else:
        counts = _plane_counts(_as_type(model, CrossbarModel, "model").rows, as_bits(x, model.dim))
        dot, active = counts @ model.scale, sum(counts.tolist())
        spread = np.sqrt(counts) * model.scale if model.noise_sigma > 0 else None
    exact = model.offset + int(dot)
    value = float(exact)
    if model.noise_sigma > 0:
        eta = _as_rng(rng).standard_normal(model.scale.size)
        # eta * spread is (eta * sqrt(counts)) * scale exactly, as the scales are +-2^b;
        # summed in numpy's pairwise order, which no BLAS reorders
        eta *= spread
        value += model.noise_sigma * float(np.add.reduce(eta))
        if not math.isfinite(value):
            raise CapacityError(f"noisy reading {value} at noise_sigma {model.noise_sigma} "
                                "is not a finite float64")
    # positional, in field order (value, exact_value, activated_cells), which is faster than keywords
    return EnergyReading(value, exact, active)
