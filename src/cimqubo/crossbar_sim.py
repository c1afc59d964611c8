"""Behavioral model of the bit-sliced coefficient crossbar.

Coefficient magnitudes |q_ij| are split into M binary planes; plane b holds
bit b and a conducting cell contributes one unit current scaled digitally by
2^b.  Signs stay digital: a single-signed matrix is stored as magnitudes with
one global sign, while a mixed-sign matrix is split into a positive and a
negative sub-array whose readings subtract.  Driving x activates cell (i, j)
when x_i = x_j = 1, so the noiseless reading is exactly x^T q x + offset.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .qkp import _as_rng, as_bits
from .transform import QuboMatrix


@dataclass(frozen=True, eq=False)
class SignedPlanes:
    """One single-signed bit-plane stack."""

    sign: int
    bits: int
    planes: np.ndarray  # (bits, dim, dim) of 0/1

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValidationError("sign", f"must be -1 or +1, got {self.sign}")
        planes = np.asarray(self.planes, dtype=np.uint8)
        if planes.ndim != 3 or planes.shape[0] != self.bits:
            raise ValidationError("planes", f"expected ({self.bits}, dim, dim), got {planes.shape}")
        planes.setflags(write=False)
        object.__setattr__(self, "planes", planes)

    def magnitudes(self) -> np.ndarray:
        scales = (1 << np.arange(self.bits, dtype=np.int64))[:, None, None]
        return (self.planes.astype(np.int64) * scales).sum(axis=0)


@dataclass(frozen=True, eq=False)
class CrossbarModel:
    dim: int
    bits: int
    parts: tuple[SignedPlanes, ...]  # the positive stack first, then the negative one
    offset: int
    noise_sigma: float = 0.0

    @cached_property
    def _read_stack(self) -> tuple[np.ndarray, np.ndarray]:
        """Row i of every plane of every part as little-endian uint64 words,
        laid out (dim, words, planes): bit j % 64 of word j // 64 is cell (i, j).
        Also each plane's signed weight sign * 2^b, in the same plane order."""
        words = -(-self.dim // 64)
        packed = np.concatenate(
            [np.packbits(part.planes, axis=-1, bitorder="little") for part in self.parts]
        )
        padded = np.zeros(packed.shape[:2] + (8 * words,), dtype=np.uint8)
        padded[..., : packed.shape[2]] = packed
        rows = np.ascontiguousarray(padded.view("<u8").transpose(1, 2, 0))
        rows.setflags(write=False)
        scale = np.concatenate(
            [part.sign * (1 << np.arange(part.bits, dtype=np.int64)) for part in self.parts]
        )
        return rows, scale

    def reconstruct(self) -> QuboMatrix:
        q = np.zeros((self.dim, self.dim), dtype=np.int64)
        for part in self.parts:
            q += part.sign * part.magnitudes()
        return QuboMatrix(q, offset=self.offset)


@dataclass(frozen=True)
class EnergyReading:
    value: float
    exact_value: int
    activated_cells: int


def _plane_stack(mags: np.ndarray, sign: int) -> SignedPlanes:
    bits = max(1, int(mags.max()).bit_length())
    shifts = np.arange(bits, dtype=np.int64)[:, None, None]
    planes = ((mags[None, :, :] >> shifts) & 1).astype(np.uint8)
    return SignedPlanes(sign=sign, bits=bits, planes=planes)


def program_crossbar(q: QuboMatrix, noise_sigma: float = 0.0) -> CrossbarModel:
    """Slice a coefficient matrix into bit planes, splitting mixed signs."""
    if noise_sigma < 0:
        raise ValidationError("noise_sigma", f"must be >= 0, got {noise_sigma}")
    mat = q.q
    parts = []
    if np.any(mat > 0):
        parts.append(_plane_stack(np.where(mat > 0, mat, 0), 1))
    # the zero matrix gets one all-zero negative stack
    if np.any(mat < 0) or not parts:
        parts.append(_plane_stack(np.where(mat < 0, -mat, 0), -1))
    return CrossbarModel(
        dim=q.dim,
        bits=max(part.bits for part in parts),
        parts=tuple(parts),
        offset=q.offset,
        noise_sigma=float(noise_sigma),
    )


def vmv_energy(model: CrossbarModel, x, rng=None) -> EnergyReading:
    """Read the energy of configuration x.

    exact_value is the digital reconstruction x^T q x + offset, counted from
    the conducting cells of every plane: x is packed into the rows' uint64
    words, the rows with x_i = 1 are ANDed with it, and the popcounts summed
    per plane are exact integers at any dim.  value adds, per conducting cell, a
    unit-current perturbation eta ~ N(0, noise_sigma) scaled by the cell's
    plane weight.  The count cells of one plane sum to a single
    N(0, count * noise_sigma^2) draw, so a noisy read takes one Gaussian per
    plane.  Noiseless readings satisfy value == exact_value.
    """
    bits = as_bits(x, model.dim)
    rows, scale = model._read_stack
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
    return EnergyReading(value=value, exact_value=exact, activated_cells=sum(counts.tolist()))


def linearity_sweep(model: CrossbarModel, max_cells: int, rng=None) -> list[tuple[int, float]]:
    """Activate 1..max_cells programmed cells in a fixed order and read unit currents.

    Cells are taken part by part, plane by plane, row-major.  Each step is a
    fresh read: with noise every conducting cell contributes 1 + eta units.
    Noiseless sweeps return exactly (k, k).
    """
    order = []
    for part in model.parts:
        for b in range(part.bits):
            coords = np.argwhere(part.planes[b] == 1)
            order.extend((part.sign, b, int(i), int(j)) for i, j in coords)
    if max_cells > len(order):
        raise ValidationError("max_cells", f"only {len(order)} cells are programmed, asked for {max_cells}")
    gen = _as_rng(rng) if model.noise_sigma > 0 else None
    series = [(0, 0.0)]
    for k in range(1, max_cells + 1):
        if gen is None:
            current = float(k)
        else:
            current = float(k) + gen.standard_normal(k).sum() * model.noise_sigma
        series.append((k, current))
    return series
