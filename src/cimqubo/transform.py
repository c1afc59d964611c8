"""QUBO constructions for the knapsack constraint.

Two formulations of the same problem:

* inequality form: q = -profits with the knapsack constraint kept outside the
  matrix; the constrained energy is (w.x <= C) * x^T q x, always <= 0.
* penalty form: n + C variables (x, y) minimizing
  -sum p_ij x_i x_j + alpha (sum_k y_k - 1)^2 + beta (sum_i w_i x_i - sum_k k y_k)^2
  with the constant alpha carried in the matrix offset.

Matrix energies are evaluated as x^T q x + offset.  The inequality matrix is
symmetric and counts both orderings of a pair; the penalty matrix keeps the
full folded coefficient of each pair in the upper triangle so that a single
cell holds the whole coupling.  A model holds only its instance (and the
penalty weights) and expands its matrix when .qubo is first read;
_flip_magnitudes gives the annealer what it needs of the matrix from the folds.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParseError, ValidationError
from .qkp import QkpInstance, _as_instance, _as_int, _as_int_array, _fields_equal, as_bits

INEQUALITY_MODE = "inequality"
DQUBO_MODE = "dqubo"

# alpha and beta of the penalty form unless given.  Criteria 2-4 (bit widths
# and cell savings) are stated at this value.  It does not make the penalty
# sound (min(alpha, beta) above the total profit does), so the lowest-energy
# configuration can be over weight.
DEFAULT_PENALTY = 2
_DQUBO_DIM_LIMIT = 8192
_INT64_MAX = int(np.iinfo(np.int64).max)
_SPARSE_THRESHOLD = 0.25


def _exact_sum(a: np.ndarray) -> int:
    """Sum of a uint64 array as a Python int, shifting the array right by 32
    in place.  The sum of the high halves cannot wrap below 2^32 entries, nor
    can the sum of the low halves, which the wrapped whole sum gives mod 2^64."""
    wrapped = int(a.sum())
    a >>= 32
    high = int(a.sum()) << 32
    return high + (wrapped - high) % (1 << 64)


@dataclass(frozen=True, eq=False)
class QuboMatrix:
    """Square integer coefficient matrix plus a constant offset."""

    q: np.ndarray
    offset: int = 0

    def __post_init__(self):
        q = np.asarray(self.q)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValidationError("q", f"must be square, got shape {q.shape}")
        # keep a frozen int64 array that owns its data, copy anything else
        q = _as_int_array(q, "q", copy=q.flags.writeable or not q.flags.owndata)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "offset", int(_as_int_array(self.offset, "offset")))

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    def energy(self, x) -> int:
        bits = as_bits(x, self.dim).astype(np.int64)
        return int(bits @ self.q @ bits) + self.offset

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class InequalityQuboModel:
    """Profit matrix negated into a QUBO, constraint handled by the filter.

    qubo, -profits with offset 0 (the profit fold's coupling halved, its
    diagonal on the diagonal), is expanded when first read."""

    instance: QkpInstance

    def __post_init__(self):
        _as_instance(self.instance)

    @property
    def dim(self) -> int:
        return self.instance.n

    @functools.cached_property
    def qubo(self) -> QuboMatrix:
        return QuboMatrix(-self.instance.profits, offset=0)


@dataclass(frozen=True, eq=False)
class DQuboModel:
    """Penalty formulation over n item bits plus C one-hot slack bits.

    qubo, _penalty_matrix with offset alpha, is expanded when first read.  The
    checks below guard every build: past them no energy or kept coefficient
    wraps int64 (discarded diagonals may)."""

    instance: QkpInstance
    alpha: int
    beta: int

    def __post_init__(self):
        instance = _as_instance(self.instance)
        alpha, beta = _as_int(self.alpha, "alpha", 1), _as_int(self.beta, "beta", 1)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        bound = _penalty_bound(instance, alpha, beta)
        if bound > _INT64_MAX:
            raise CapacityError(
                f"penalty energies up to {bound} overflow 64-bit arithmetic (capacity {instance.capacity})"
            )
        if self.dim > _DQUBO_DIM_LIMIT:
            raise CapacityError(
                f"penalty matrix dimension {self.dim} exceeds the {_DQUBO_DIM_LIMIT} build limit"
            )

    @property
    def dim(self) -> int:
        return self.instance.n + self.instance.capacity

    @functools.cached_property
    def qubo(self) -> QuboMatrix:
        q = _penalty_matrix(self.instance, self.alpha, self.beta)
        q.setflags(write=False)  # QuboMatrix keeps it without a copy
        return QuboMatrix(q, offset=self.alpha)


@dataclass(frozen=True)
class QuantizationInfo:
    max_abs_element: int
    bits: int


def build_inequality_qubo(instance: QkpInstance) -> InequalityQuboModel:
    return InequalityQuboModel(instance)


def _penalty_bound(instance: QkpInstance, alpha: int, beta: int) -> int:
    """Term by term, the |coefficients| of -profits, beta (w.x - sum k y_k)^2
    and alpha (sum y_k - 1)^2, offset included, sum to at most
    sum |p_ij| + beta (sum w + C (C + 1) / 2)^2 + alpha (C^2 + 1)."""
    C = instance.capacity
    return (_exact_sum(instance.profits.astype(np.uint64))
            + beta * (instance.total_weight + C * (C + 1) // 2) ** 2 + alpha * (C * C + 1))


def _profit_fold(instance: QkpInstance, dtype=np.int64):
    """-x^T p x as (coupling, diag): -2 p_il couples distinct items i, l and
    -p_ii sits on item i's diagonal."""
    p = instance.profits.astype(dtype)
    coupling = -2 * p
    np.fill_diagonal(coupling, 0)  # the doubled profit diagonal may wrap; it is discarded
    return coupling, -np.diagonal(p)


def _penalty_fold(instance: QkpInstance, alpha: int, beta: int, dtype=np.int64, counts=None):
    """beta s^2 + alpha (sum y - 1)^2 as (slopes, costs): s = v.(x, y), v = (w,
    -k for each slack count k, by default 1 ... C), and costs_j = beta v_j^2 +
    alpha [j >= n] is the part of a flip of bit j that no other bit changes."""
    counts = np.arange(1, instance.capacity + 1) if counts is None else counts
    slopes = np.concatenate([instance.weights, -np.asarray(counts, dtype=np.int64)]).astype(dtype)
    costs = beta * slopes * slopes
    costs[instance.n:] += alpha
    return slopes, costs


def _penalty_flip_terms(instance: QkpInstance, alpha: int, beta: int, dtype=np.int64, counts=None):
    """The penalty energy factored for single-bit flips, as (coupling, diag,
    slopes, costs), without the (n + C)^2 matrix.

    Write z = (x, sum_k y_k) for the n item bits and the slack count.  The
    (n + 1)^2 coupling is the profit fold with 2 alpha in its count corner,
    diag = (-p_ii, -2 alpha), and _penalty_fold gives slopes and costs.  The
    field F = z @ coupling + diag gives the energy sum_i z_i (F_i + diag_i) / 2
    + alpha + beta s^2, and flipping bit j by delta = +-1 changes it by
    delta (F[min(j, n)] + 2 beta s v_j) + costs_j, while s moves by delta v_j
    and F by delta coupling[min(j, n)].

    2 _penalty_bound covers every one of these quantities.  With
    T = sum w + C (C + 1) / 2: |F| <= sum |p_ij| or 2 alpha C, |2 beta s| <=
    2 beta T, |v_j 2 beta s| <= 2 beta T^2, so the sum in parentheses stays
    within it; every energy, energy change and cost stays within
    _penalty_bound itself.
    """
    coupling, diag = _profit_fold(instance, dtype)
    coupling = np.pad(coupling, (0, 1))
    coupling[-1, -1] = 2 * alpha
    return (coupling, np.pad(diag, (0, 1), constant_values=-2 * alpha),
            *_penalty_fold(instance, alpha, beta, dtype, counts))


def _penalty_matrix(instance: QkpInstance, alpha: int, beta: int, dtype=np.int64, counts=None):
    """The penalty objective expanded from its flip terms, squares folded onto
    the diagonal by v^2 = v: pair j < l holds 2 beta v_j v_l plus coupling of
    columns min(j, n), min(l, n), and diagonal j costs_j + diag[min(j, n)]."""
    coupling, diag, slopes, costs = _penalty_flip_terms(instance, alpha, beta, dtype, counts)
    n, dim = instance.n, len(slopes)
    q = np.zeros((dim, dim), dtype=dtype)
    q[:n, :n] = np.triu(2 * beta * np.outer(slopes[:n], slopes[:n]) + coupling[:n, :n])
    q[:n, n:] = 2 * beta * np.outer(slopes[:n], slopes[n:])  # items and the count do not couple
    yb = q[n:, n:]  # built in place: this block dominates memory at large capacity
    np.multiply.outer(2 * beta * slopes[n:], slopes[n:], out=yb)
    yb += coupling[n, n]
    yb[np.tri(dim - n, dtype=bool)] = 0
    np.fill_diagonal(q, costs + diag[np.minimum(np.arange(dim), n)])
    return q


def build_dqubo(
    instance: QkpInstance, alpha: int = DEFAULT_PENALTY, beta: int = DEFAULT_PENALTY
) -> DQuboModel:
    """The penalty objective over n + C bits with offset alpha."""
    return DQuboModel(instance, alpha, beta)


def _flip_magnitudes(model: InequalityQuboModel | DQuboModel) -> tuple[np.ndarray, np.ndarray, int]:
    """(cols, diag, bound) of model.qubo, from the folds without the matrix:
    cols_j = sum over i != j of |(q + q^T)_ij| as float64, diag_j = |q_jj| as
    int64, and bound = sum |q_ij| + |offset| exactly.

    The inequality form's cols are the column sums of the profit fold's
    |coupling| and its bound is sum p_ij.  Each pair of the penalty form sits
    in one triangle and holds 2 beta v_j v_l + coupling[min(j, n), min(l, n)]
    (see _penalty_matrix): 2 beta w_i w_l - 2 p_il for two items, -2 beta w_i k
    for item i and count k, 2 beta k m + 2 alpha for counts k != m.  So count
    k's column is 2 beta k (sum w + C (C + 1) / 2 - k) + 2 alpha (C - 1), the
    counts add beta w_l C (C + 1) to item l's, and bound = sum cols / 2 + sum
    diag + alpha.  Every column stays within the bound DQuboModel guards below
    2^63, so int64 holds it; inequality columns past int64 are Python ints."""
    inst = model.instance
    if isinstance(model, InequalityQuboModel):
        bound = _exact_sum(inst.profits.astype(np.uint64))
        coupling, diag = _profit_fold(inst, np.int64 if 2 * bound <= _INT64_MAX else object)
        return np.abs(coupling).sum(axis=0).astype(np.float64), np.abs(diag).astype(np.int64), bound
    n, C, alpha, beta = inst.n, inst.capacity, model.alpha, model.beta
    coupling, diag, slopes, costs = _penalty_flip_terms(inst, alpha, beta)
    items = 2 * beta * np.outer(slopes[:n], slopes[:n]) + coupling[:n, :n]
    np.fill_diagonal(items, 0)
    counts = -slopes[n:]
    cols = np.concatenate([np.abs(items).sum(axis=0) + beta * inst.weights * C * (C + 1),
                           2 * beta * counts * (inst.total_weight + C * (C + 1) // 2 - counts)
                           + 2 * alpha * (C - 1)])
    diag = np.abs(costs + diag[np.minimum(np.arange(n + C), n)])
    return (cols.astype(np.float64), diag,
            sum(cols.tolist()) // 2 + sum(diag.tolist()) + alpha)


def dqubo_quantization_info(instance: QkpInstance, alpha: int, beta: int) -> QuantizationInfo:
    """quantization_info of build_dqubo(instance, alpha, beta).qubo, from the
    matrix over the two largest slack counts (for C >= 2 their pair outgrows
    the count-1 diagonal |beta - alpha|).  Python ints keep it exact past the
    build's dimension and 64-bit limits."""
    _as_instance(instance)
    alpha, beta = _as_int(alpha, "alpha", 1), _as_int(beta, "beta", 1)
    q = _penalty_matrix(instance, alpha, beta, object, range(1, instance.capacity + 1)[-2:])
    return _quantization(int(np.abs(q).max()))


def _quantization(max_abs: int) -> QuantizationInfo:
    bits = 1 if max_abs <= 1 else (max_abs - 1).bit_length()
    return QuantizationInfo(max_abs_element=max_abs, bits=bits)


def quantization_info(q) -> QuantizationInfo:
    """Bit width ceil(log2(max |q_ij|)) needed to quantize the matrix, minimum 1.

    This is the paper's convention for counting cells.  program_crossbar
    programs the bit length of max |q_ij| in planes, one more at a
    power-of-two peak (64 gives 6 bits and 7 planes).
    Accepts a QuboMatrix or a plain integer array."""
    arr = q.q if isinstance(q, QuboMatrix) else np.asarray(q)
    return _quantization(max(int(arr.max()), -int(arr.min())) if arr.size else 0)


@dataclass(frozen=True, eq=False)
class QuboDocument:
    """A QUBO loaded from its JSON serialization, and the mode that built it."""

    qubo: QuboMatrix
    mode: str


def _matrix_payload(q: QuboMatrix) -> dict:
    dim = q.dim
    nnz = int(np.count_nonzero(q.q))
    if dim and nnz / (dim * dim) < _SPARSE_THRESHOLD:
        rows, cols = np.nonzero(q.q)
        entries = [[int(i), int(j), int(q.q[i, j])] for i, j in zip(rows.tolist(), cols.tolist())]
        return {"encoding": "sparse", "entries": entries}
    return {"encoding": "dense", "entries": q.q.tolist()}


def dump_qubo_json(model: InequalityQuboModel | DQuboModel) -> str:
    """The matrix, its offset and mode, and as side-cars the constraint
    weights and capacity and, for the penalty form, alpha and beta."""
    if isinstance(model, InequalityQuboModel):
        doc = {"mode": INEQUALITY_MODE}
    elif isinstance(model, DQuboModel):
        doc = {"mode": DQUBO_MODE, "alpha": model.alpha, "beta": model.beta}
    else:
        raise ValidationError("model", f"cannot serialize {type(model).__name__}")
    doc["dim"] = model.qubo.dim
    doc["offset"] = model.qubo.offset
    doc["weights"] = model.instance.weights.tolist()
    doc["capacity"] = model.instance.capacity
    doc.update(_matrix_payload(model.qubo))
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_qubo_json(text: str) -> QuboDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from None
    if not isinstance(doc, dict):
        raise ParseError(1, "top-level JSON value must be an object")
    for key in ("mode", "dim", "offset", "encoding", "entries"):
        if key not in doc:
            raise ParseError(1, f"missing key {key!r}")
    if doc["mode"] not in (INEQUALITY_MODE, DQUBO_MODE):
        raise ParseError(1, f"unknown mode {doc['mode']!r}")
    try:
        dim = _as_int(doc["dim"], "dim", 0)
    except ValidationError as exc:
        raise ParseError(1, str(exc)) from None
    entries = doc["entries"]
    if doc["encoding"] == "dense":
        if not (isinstance(entries, list) and len(entries) == dim
                and all(isinstance(row, list) and len(row) == dim for row in entries)):
            raise ParseError(1, f"dense entries must be {dim} rows of {dim} numbers")
        q = _as_int_array(entries, "entries", copy=False)
    elif doc["encoding"] == "sparse":
        triples = _as_int_array(entries, "entries")
        if triples.size and (triples.ndim != 2 or triples.shape[1] != 3):
            raise ParseError(1, "sparse entries must be [row, column, value] triples")
        q = np.zeros((dim, dim), dtype=np.int64)
        for i, j, v in triples.tolist():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ParseError(1, f"sparse index ({i}, {j}) out of range for dim {dim}")
            q[i, j] = v
    else:
        raise ParseError(1, f"unknown encoding {doc['encoding']!r}")
    return QuboDocument(qubo=QuboMatrix(q, offset=doc["offset"]), mode=doc["mode"])
