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

from .errors import CapacityError
from .qkp import _as_float, _as_rng, as_bits
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
    mat = q.q
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


def vmv_energy(model: CrossbarModel, x, rng=None) -> EnergyReading:
    """Read the energy of configuration x.

    exact_value is the digital reconstruction x^T q x + offset, counted from
    the conducting cells of every plane: x is packed into the rows' uint64
    words, the rows with x_i = 1 are ANDed with it, and the popcounts summed
    per plane are exact integers at any dim.  value adds, per conducting cell, a
    unit-current perturbation eta ~ N(0, noise_sigma) scaled by the cell's
    plane weight.  The count cells of one plane sum to a single
    N(0, count * noise_sigma^2) draw, so a noisy read takes one Gaussian per
    plane.  Noiseless readings satisfy value == exact_value; a noisy value
    past the float64 range raises CapacityError.
    """
    bits = as_bits(x, model.dim)
    rows, scale = model.rows, model.scale
    # x in the rows' word layout, as a (words, 1) column against the plane axis
    packed = np.packbits(bits, bitorder="little").tobytes().ljust(8 * rows.shape[1], b"\0")
    xw = np.ndarray((rows.shape[1], 1), "<u8", packed)
    # row i contributes only when x_i = 1, and then cell (i, j) only when x_j = 1
    selected = rows.compress(bits, axis=0)
    selected &= xw
    counts = np.bitwise_count(selected).sum(axis=(0, 1), dtype=np.int64)
    exact = model.offset + int(counts @ scale)
    value = float(exact)
    if model.noise_sigma > 0:
        eta = _as_rng(rng).standard_normal(scale.size) * np.sqrt(counts)
        value += model.noise_sigma * float(eta @ scale)
        if not math.isfinite(value):
            raise CapacityError(f"noisy reading {value} at noise_sigma {model.noise_sigma} "
                                "is not a finite float64")
    return EnergyReading(value=value, exact_value=exact, activated_cells=sum(counts.tolist()))
