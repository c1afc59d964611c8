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
cell holds the whole coupling.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParseError, ValidationError
from .qkp import QkpInstance, _as_int, _as_int_array, _fields_equal, as_bits

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
    """Sum of a uint64 array as a Python int: the 32-bit halves of each entry
    are summed separately, so neither uint64 sum can wrap below 2^32 entries."""
    return (int((a >> 32).sum()) << 32) + int((a & 0xFFFFFFFF).sum())


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

    def energy_bound(self) -> int:
        """sum_ij |q_ij| + |offset|, exactly.  No energy, and no difference of
        two energies, exceeds it in magnitude."""
        # as uint64, |-2^63| wraps back to 2^63
        return _exact_sum(np.abs(self.q).view(np.uint64)) + abs(self.offset)

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class InequalityQuboModel:
    """Profit matrix negated into a QUBO, constraint handled by the filter."""

    qubo: QuboMatrix
    instance: QkpInstance


@dataclass(frozen=True, eq=False)
class DQuboModel:
    """Penalty formulation over n item bits plus C one-hot slack bits.

    qubo is build_dqubo(instance, alpha, beta).qubo; the exact annealer works
    from the factored terms of instance, alpha and beta instead."""

    qubo: QuboMatrix
    alpha: int
    beta: int
    instance: QkpInstance


@dataclass(frozen=True)
class QuantizationInfo:
    max_abs_element: int
    bits: int


def build_inequality_qubo(instance: QkpInstance) -> InequalityQuboModel:
    return InequalityQuboModel(qubo=QuboMatrix(-instance.profits, offset=0), instance=instance)


def _penalty_bound(instance: QkpInstance, alpha: int, beta: int) -> int:
    """Term by term, the |coefficients| of -profits, beta (w.x - sum k y_k)^2
    and alpha (sum y_k - 1)^2, offset included, sum to at most
    sum |p_ij| + beta (sum w + C (C + 1) / 2)^2 + alpha (C^2 + 1)."""
    C = instance.capacity
    return (_exact_sum(instance.profits.view(np.uint64))
            + beta * (instance.total_weight + C * (C + 1) // 2) ** 2 + alpha * (C * C + 1))


def build_dqubo(
    instance: QkpInstance, alpha: int = DEFAULT_PENALTY, beta: int = DEFAULT_PENALTY
) -> DQuboModel:
    """Expand the penalty objective into an (n + C)-variable matrix.

    Binary idempotence v^2 = v folds squared terms onto the diagonal.  Pair
    couplings land in the upper triangle with their full coefficient.  The
    alpha constant from the one-hot square goes to the offset.
    """
    alpha, beta = _as_int(alpha, "alpha", 1), _as_int(beta, "beta", 1)
    n, C = instance.n, instance.capacity
    dim = n + C
    # Below 2^63 neither an energy nor a kept coefficient can wrap; the
    # diagonals that are discarded or overwritten below may, harmlessly.
    bound = _penalty_bound(instance, alpha, beta)
    if bound > _INT64_MAX:
        raise CapacityError(
            f"penalty energies up to {bound} overflow 64-bit arithmetic (capacity {C})"
        )
    if dim > _DQUBO_DIM_LIMIT:
        raise CapacityError(
            f"penalty matrix dimension {dim} exceeds the {_DQUBO_DIM_LIMIT} build limit"
        )
    w = instance.weights
    q = np.zeros((dim, dim), dtype=np.int64)
    xb = 2 * beta * np.outer(w, w) - 2 * instance.profits
    q[:n, :n] = np.triu(xb, k=1)
    idx = np.arange(n)
    q[idx, idx] = beta * w * w - np.diagonal(instance.profits)
    k = np.arange(1, C + 1, dtype=np.int64)
    yb = q[n:, n:]  # built in place: this block dominates memory at large capacity
    np.multiply.outer(2 * beta * k, k, out=yb)
    yb += 2 * alpha
    yb[np.tri(C, dtype=bool)] = 0
    idy = np.arange(n, dim)
    q[idy, idy] = beta * k * k - alpha
    q[:n, n:] = -2 * beta * np.outer(w, k)
    q.setflags(write=False)  # QuboMatrix keeps it without a copy
    return DQuboModel(qubo=QuboMatrix(q, offset=alpha), alpha=alpha, beta=beta, instance=instance)


def _penalty_flip_terms(model: DQuboModel):
    """The penalty energy of model factored for single-bit flips, as
    (coupling, diag, slopes, costs, bound), without the (n + C)^2 matrix.

    Write z = (x, sum_k y_k) for the n item bits and the slack count, and
    s = v.(x, y) = w.x - sum_k k y_k with slopes v = (w, -1, ..., -C).  The
    (n + 1)^2 coupling holds -2 p_il off its diagonal and 2 alpha in its count
    corner, and diag = (-p_ii, -2 alpha).  The field F = z @ coupling + diag
    gives the energy sum_i z_i (F_i + diag_i) / 2 + alpha + beta s^2, and
    flipping bit j by delta = +-1 changes it by
    delta (F[min(j, n)] + 2 beta s v_j) + costs_j, costs_j = beta v_j^2 +
    alpha [j >= n], while s moves by delta v_j and F by delta coupling[min(j, n)].

    bound = 2 _penalty_bound covers every one of these quantities.  With
    T = sum w + C (C + 1) / 2: |F| <= sum |p_ij| or 2 alpha C, |2 beta s| <=
    2 beta T, |v_j 2 beta s| <= 2 beta T^2, so the sum in parentheses stays
    within the bound; every energy, energy change and cost stays within
    _penalty_bound itself.
    """
    inst, alpha, beta = model.instance, model.alpha, model.beta
    n = inst.n
    coupling = np.zeros((n + 1, n + 1), dtype=np.int64)
    coupling[:n, :n] = -2 * inst.profits
    np.fill_diagonal(coupling, 0)  # the doubled profit diagonal may wrap; it is discarded
    coupling[n, n] = 2 * alpha
    diag = np.append(-np.diagonal(inst.profits), -2 * alpha)
    slopes = np.concatenate([inst.weights, -np.arange(1, inst.capacity + 1, dtype=np.int64)])
    costs = beta * slopes * slopes
    costs[n:] += alpha
    return coupling, diag, slopes, costs, 2 * _penalty_bound(inst, alpha, beta)


def dqubo_quantization_info(instance: QkpInstance, alpha: int, beta: int) -> QuantizationInfo:
    """quantization_info of build_dqubo(instance, alpha, beta).qubo, from the
    coefficient formulas alone.  Python ints keep it exact past the build's
    dimension and 64-bit limits."""
    alpha, beta = _as_int(alpha, "alpha", 1), _as_int(beta, "beta", 1)
    C = instance.capacity
    w = np.array(instance.weights.tolist(), dtype=object)
    p = np.array(instance.profits.tolist(), dtype=object)
    xb = 2 * beta * np.outer(w, w) - 2 * p
    np.fill_diagonal(xb, beta * w * w - np.diagonal(p))
    ypair = 2 * alpha + 2 * beta * C * (C - 1) if C >= 2 else 0
    # |beta k^2 - alpha| peaks at k = 1 or k = C, and for C >= 2 the k = 1
    # value |beta - alpha| stays below ypair
    ydiag = abs(beta * C * C - alpha)
    cross = 2 * beta * max(instance.weights.tolist()) * C
    return _quantization(max(int(np.abs(xb).max()), ypair, ydiag, cross))


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
