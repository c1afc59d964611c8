"""Bit-plane programming and vector-matrix-vector reads."""

import math

import numpy as np
import pytest

from cimqubo import (
    CapacityError,
    QuboMatrix,
    ValidationError,
    program_crossbar,
    quantization_info,
    vmv_energy,
)


def q2():
    return QuboMatrix(np.array([[-5, -2], [-2, -3]]))


def plane_cells(model):
    """Every plane as a dim x dim 0/1 list, unpacked bit by bit from the
    uint64 row words: bit j % 64 of word j // 64 of row i is cell (i, j)."""
    dim = model.dim
    return [[[(int(model.rows[i, j // 64, p]) >> (j % 64)) & 1 for j in range(dim)]
             for i in range(dim)]
            for p in range(model.scale.size)]


def reconstruct(model):
    """The matrix the planes hold: each plane's cells times its signed weight, summed."""
    cells = np.array(plane_cells(model), dtype=np.int64)
    return QuboMatrix(np.tensordot(model.scale, cells, 1), offset=model.offset)


def widest_stack(model):
    """Planes in the wider of the two sign stacks."""
    return max(abs(s) for s in model.scale.tolist()).bit_length()


# ------------------------------------------------------- programming

def test_program_single_signed_matrix():
    model = program_crossbar(q2())
    assert model.rows.dtype == np.uint64 and model.rows.shape == (2, 1, 3)
    assert model.scale.tolist() == [-1, -2, -4]   # one negative stack
    planes = plane_cells(model)
    assert planes[0] == [[1, 0], [0, 1]]   # LSB of 5, 2, 2, 3
    assert planes[1] == [[0, 1], [1, 1]]
    assert planes[2] == [[1, 0], [0, 0]]


def test_reconstruct_is_exact():
    model = program_crossbar(q2())
    assert reconstruct(model) == q2()


def test_program_mixed_sign_splits_stacks():
    q = QuboMatrix(np.array([[3, -2], [0, 5]]), offset=4)
    model = program_crossbar(q)
    # the positive stack (3 bits for 3 and 5) first, then the negative one (2 bits for 2)
    assert model.scale.tolist() == [1, 2, 4, -1, -2]
    assert plane_cells(model) == [
        [[1, 0], [0, 1]], [[1, 0], [0, 0]], [[0, 0], [0, 1]],
        [[0, 0], [0, 0]], [[0, 1], [0, 0]],
    ]
    assert reconstruct(model) == q


def test_program_zero_matrix():
    model = program_crossbar(QuboMatrix(np.zeros((3, 3), dtype=np.int64)))
    assert model.scale.tolist() == [-1]   # one all-zero negative stack
    assert plane_cells(model) == [[[0] * 3] * 3]
    assert reconstruct(model).q.tolist() == np.zeros((3, 3)).tolist()


def test_program_round_trips_across_word_boundaries():
    rng = np.random.default_rng(8)
    for dim in (1, 63, 64, 65, 129):
        q = QuboMatrix(rng.integers(-2**40, 2**40, size=(dim, dim)), offset=int(rng.integers(-9, 10)))
        model = program_crossbar(q)
        assert reconstruct(model) == q
        programmed = sum(bin(abs(v)).count("1") for row in q.q.tolist() for v in row)
        assert np.bitwise_count(model.rows).sum() == programmed


def test_programmed_bits_cover_quantization_width():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 10))
        q = QuboMatrix(rng.integers(-200, 201, size=(n, n)))
        model = program_crossbar(q)
        assert widest_stack(model) >= quantization_info(q).bits


def test_program_rejects_negative_sigma():
    for sigma in (-0.1, math.nan, math.inf):
        # a NaN sigma passed the sign check and read as noiseless
        with pytest.raises(ValidationError, match="noise_sigma"):
            program_crossbar(q2(), noise_sigma=sigma)


# ------------------------------------------------------- noiseless reads

def test_vmv_reads_frozen_example():
    reading = vmv_energy(program_crossbar(q2()), [1, 1])
    assert reading.exact_value == -12
    assert reading.value == -12.0
    assert reading.activated_cells == 6   # plane populations 2, 3, 1


def test_vmv_empty_selection_reads_offset():
    reading = vmv_energy(program_crossbar(QuboMatrix(np.array([[-5]]), offset=9)), [0])
    assert reading.exact_value == 9
    assert reading.activated_cells == 0


def test_vmv_matches_direct_energy_on_random_matrices():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 65))
        q = QuboMatrix(rng.integers(-50, 51, size=(n, n)), offset=int(rng.integers(-20, 21)))
        model = program_crossbar(q)
        x = rng.integers(0, 2, size=n)
        assert vmv_energy(model, x).exact_value == q.energy(x)


def test_vmv_counts_only_selected_pairs():
    q = QuboMatrix(np.array([[1, 1], [1, 1]]))
    model = program_crossbar(q)
    assert vmv_energy(model, [1, 0]).activated_cells == 1
    assert vmv_energy(model, [1, 1]).activated_cells == 4


# ------------------------------------------------------- noisy reads

def test_noisy_reads_are_seeded_and_unbiased():
    model = program_crossbar(q2(), noise_sigma=0.05)
    a = vmv_energy(model, [1, 1], rng=np.random.default_rng(3))
    b = vmv_energy(model, [1, 1], rng=np.random.default_rng(3))
    assert a.value == b.value
    assert a.exact_value == -12   # the digital reconstruction ignores noise
    rng = np.random.default_rng(6)
    samples = np.array([vmv_energy(model, [1, 1], rng).value for _ in range(4000)])
    assert np.any(samples != -12.0)
    # worst case all 6 cells on the 4-weighted plane: sem < 4*sqrt(6)*0.05/63
    assert abs(samples.mean() + 12.0) < 4 * np.sqrt(6) * 4 * 0.05 / np.sqrt(4000)


def test_noisy_read_is_pinned():
    # 70 columns span two 64-bit words; value is the float this read has always
    # returned, so the noise stream (one Gaussian per plane) must not change
    rng = np.random.default_rng(2024)
    q = QuboMatrix(rng.integers(-40, 41, size=(70, 70)), offset=-17)
    x = rng.integers(0, 2, size=70)
    reading = vmv_energy(program_crossbar(q, noise_sigma=0.05), x, rng=np.random.default_rng(11))
    assert reading.exact_value == 1131 == q.energy(x)
    assert reading.activated_cells == 2062
    assert reading.value == 1114.3552313914117


def test_noise_scales_with_plane_weight():
    lo = program_crossbar(QuboMatrix(np.array([[1]])), noise_sigma=0.1)
    hi = program_crossbar(QuboMatrix(np.array([[8]])), noise_sigma=0.1)
    rng = np.random.default_rng(12)
    lo_vals = np.array([vmv_energy(lo, [1], rng).value for _ in range(2000)])
    hi_vals = np.array([vmv_energy(hi, [1], rng).value for _ in range(2000)])
    ratio = hi_vals.std() / lo_vals.std()
    assert 6.5 < ratio < 9.5   # one cell on plane 3 reads 8x the unit noise


def ref_plane_variance(q, x):
    """sum over both sign stacks and planes b of 4^b times the number of
    conducting cells (x_i = x_j = 1 and bit b of |q_ij| set)."""
    n = len(x)
    total = 0
    for i in range(n):
        for j in range(n):
            if x[i] and x[j]:
                mag, b = abs(int(q[i][j])), 0
                while mag:
                    total += (mag & 1) * 4**b
                    mag >>= 1
                    b += 1
    return total


def test_noisy_read_variance_follows_plane_weights():
    q = QuboMatrix(np.array([[5, -3, 7], [0, -12, 2], [9, 1, -6]]), offset=3)
    x = [1, 1, 1]
    sigma = 0.05
    model = program_crossbar(q, noise_sigma=sigma)
    rng = np.random.default_rng(21)
    errors = np.array([r.value - r.exact_value
                       for r in (vmv_energy(model, x, rng) for _ in range(4000))])
    want = sigma**2 * ref_plane_variance(q.q, x)
    assert abs(errors.mean()) < 4 * np.sqrt(want / 4000)
    # the sample variance of 4000 normal draws is within 10 % with overwhelming odds
    assert errors.var() == pytest.approx(want, rel=0.1)


def test_a_noisy_read_past_float64_raises():
    model = program_crossbar(q2(), noise_sigma=1.7e308)
    rng = np.random.default_rng(3)
    raised = 0
    for _ in range(20):
        try:
            assert math.isfinite(vmv_energy(model, [1, 1], rng).value)
        except CapacityError as exc:
            assert "not a finite float64" in str(exc)
            raised += 1
    assert raised
