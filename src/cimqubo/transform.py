"""QUBO constructions for the knapsack constraint and Ising conversions.

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

from .errors import CapacityError, DimensionError, ParseError, ValidationError
from .qkp import QkpInstance, as_bits

INEQUALITY_MODE = "inequality"
DQUBO_MODE = "dqubo"

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
        if not np.issubdtype(q.dtype, np.integer):
            rounded = np.rint(q)
            if not np.array_equal(rounded, q):
                raise ValidationError("q", "entries must be integers")
            q = rounded
        # keep a frozen int64 array that owns its data, copy anything else
        q = q.astype(np.int64, copy=q.flags.writeable or not q.flags.owndata)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "offset", int(self.offset))

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

    def __eq__(self, other):
        if not isinstance(other, QuboMatrix):
            return NotImplemented
        return self.offset == other.offset and np.array_equal(self.q, other.q)


@dataclass(frozen=True, eq=False)
class IsingModel:
    """Spin model H(s) = sum_ij J_ij s_i s_j + sum_i h_i s_i + offset, s in {-1,+1}.

    The coupling matrix is symmetric with zero diagonal and the double sum
    counts both orderings.  The offset keeps conversions energy-exact.
    """

    couplings: np.ndarray
    fields: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        J = np.asarray(self.couplings, dtype=np.float64)
        h = np.asarray(self.fields, dtype=np.float64)
        if J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise ValidationError("couplings", f"must be square, got shape {J.shape}")
        if not np.array_equal(J, J.T):
            raise ValidationError("couplings", "matrix must be symmetric")
        if np.any(np.diagonal(J) != 0):
            raise ValidationError("couplings", "diagonal must be zero")
        if h.shape != (J.shape[0],):
            raise ValidationError("fields", f"expected {J.shape[0]} entries, got {h.shape}")
        J.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "couplings", J)
        object.__setattr__(self, "fields", h)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def n(self) -> int:
        return self.couplings.shape[0]

    def energy(self, spins) -> float:
        s = np.asarray(spins, dtype=np.float64)
        if s.shape != (self.n,):
            raise DimensionError(f"expected {self.n} spins, got shape {s.shape}")
        if np.any(np.abs(s) != 1):
            raise ValidationError("spins", "entries must be -1 or +1")
        return float(s @ self.couplings @ s + self.fields @ s + self.offset)


@dataclass(frozen=True, eq=False)
class InequalityQuboModel:
    """Profit matrix negated into a QUBO, constraint handled by the filter."""

    qubo: QuboMatrix
    weights: np.ndarray
    capacity: int
    instance: QkpInstance


@dataclass(frozen=True, eq=False)
class DQuboModel:
    """Penalty formulation over n item bits plus C one-hot slack bits."""

    qubo: QuboMatrix
    alpha: int
    beta: int
    n: int
    capacity: int
    instance: QkpInstance


@dataclass(frozen=True)
class QuantizationInfo:
    max_abs_element: int
    bits: int


def build_inequality_qubo(instance: QkpInstance) -> InequalityQuboModel:
    q = QuboMatrix(-instance.profits, offset=0)
    return InequalityQuboModel(
        qubo=q, weights=instance.weights, capacity=instance.capacity, instance=instance
    )


def build_dqubo(instance: QkpInstance, alpha: int = 2, beta: int = 2) -> DQuboModel:
    """Expand the penalty objective into an (n + C)-variable matrix.

    Binary idempotence v^2 = v folds squared terms onto the diagonal.  Pair
    couplings land in the upper triangle with their full coefficient.  The
    alpha constant from the one-hot square goes to the offset.
    """
    if alpha < 1:
        raise ValidationError("alpha", f"must be >= 1, got {alpha}")
    if beta < 1:
        raise ValidationError("beta", f"must be >= 1, got {beta}")
    n, C = instance.n, instance.capacity
    dim = n + C
    # Term by term, |coefficients| of -profits, beta (w.x - sum k y_k)^2 and
    # alpha (sum y_k - 1)^2 sum to at most the bound below, offset included.
    # Below 2^63 neither an energy nor a kept coefficient can wrap; the
    # diagonals that are discarded or overwritten below may, harmlessly.
    wtot = sum(instance.weights.tolist())
    bound = (_exact_sum(instance.profits.view(np.uint64))
             + beta * (wtot + C * (C + 1) // 2) ** 2 + alpha * (C * C + 1))
    if bound > _INT64_MAX:
        raise OverflowError(
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
    return DQuboModel(
        qubo=QuboMatrix(q, offset=alpha),
        alpha=int(alpha),
        beta=int(beta),
        n=n,
        capacity=C,
        instance=instance,
    )


def constrained_energy(model: InequalityQuboModel, x) -> int:
    """Energy (w.x <= C) * x^T q x; zero whenever the configuration is over weight."""
    bits = as_bits(x, model.qubo.dim).astype(np.int64)
    if int(model.weights @ bits) > model.capacity:
        return 0
    return int(bits @ model.qubo.q @ bits) + model.qubo.offset


def quantization_info(q) -> QuantizationInfo:
    """Bit width ceil(log2(max |q_ij|)) needed to quantize the matrix, minimum 1.

    Accepts a QuboMatrix or a plain integer array."""
    arr = q.q if isinstance(q, QuboMatrix) else np.asarray(q)
    max_abs = max(int(arr.max()), -int(arr.min())) if arr.size else 0
    bits = 1 if max_abs <= 1 else (max_abs - 1).bit_length()
    return QuantizationInfo(max_abs_element=max_abs, bits=bits)


def ising_to_qubo(model: IsingModel) -> QuboMatrix:
    """Substitute s = 1 - 2x; exact for every assignment including the offset."""
    J = model.couplings
    h = model.fields
    n = model.n
    q = 4.0 * J
    row = J.sum(axis=1)
    q[np.arange(n), np.arange(n)] = -4.0 * row - 2.0 * h
    offset = float(J.sum() + h.sum() + model.offset)
    if not np.array_equal(np.rint(q), q) or offset != round(offset):
        raise ValidationError("couplings", "conversion requires integer-valued QUBO coefficients")
    return QuboMatrix(q.astype(np.int64), offset=int(offset))


def qubo_to_ising(q: QuboMatrix) -> IsingModel:
    """Substitute x = (1 - s) / 2; the inverse of ising_to_qubo."""
    Q = q.q.astype(np.float64)
    n = q.dim
    pair = Q + Q.T
    np.fill_diagonal(pair, 0.0)
    J = pair / 8.0
    diag = np.diagonal(Q).astype(np.float64)
    h = -diag / 2.0 - pair.sum(axis=1) / 4.0
    offset = float(pair.sum() / 8.0 + diag.sum() / 2.0 + q.offset)
    return IsingModel(couplings=J, fields=h, offset=offset)


@dataclass(frozen=True, eq=False)
class QuboDocument:
    """A QUBO loaded from its JSON serialization, with constraint side-cars."""

    qubo: QuboMatrix
    mode: str
    weights: np.ndarray | None = None
    capacity: int | None = None
    alpha: int | None = None
    beta: int | None = None


def _matrix_payload(q: QuboMatrix) -> dict:
    dim = q.dim
    nnz = int(np.count_nonzero(q.q))
    if dim and nnz / (dim * dim) < _SPARSE_THRESHOLD:
        rows, cols = np.nonzero(q.q)
        entries = [[int(i), int(j), int(q.q[i, j])] for i, j in zip(rows.tolist(), cols.tolist())]
        return {"encoding": "sparse", "entries": entries}
    return {"encoding": "dense", "entries": q.q.tolist()}


def qubo_document_dict(model: InequalityQuboModel | DQuboModel) -> dict:
    if isinstance(model, InequalityQuboModel):
        doc = {"mode": INEQUALITY_MODE}
    elif isinstance(model, DQuboModel):
        doc = {"mode": DQUBO_MODE, "alpha": model.alpha, "beta": model.beta}
    else:
        raise ValidationError("model", f"cannot serialize {type(model).__name__}")
    doc["dim"] = model.qubo.dim
    doc["offset"] = model.qubo.offset
    doc["weights"] = model.instance.weights.tolist()
    doc["capacity"] = model.capacity
    doc.update(_matrix_payload(model.qubo))
    return doc


def dump_qubo_json(model: InequalityQuboModel | DQuboModel) -> str:
    return json.dumps(qubo_document_dict(model), indent=2, sort_keys=True) + "\n"


def load_qubo_json(text: str) -> QuboDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from None
    for key in ("mode", "dim", "offset", "encoding", "entries"):
        if key not in doc:
            raise ParseError(1, f"missing key {key!r}")
    dim = doc["dim"]
    if doc["encoding"] == "dense":
        q = np.asarray(doc["entries"], dtype=np.int64)
        if q.shape != (dim, dim):
            raise ParseError(1, f"dense entries have shape {q.shape}, expected ({dim}, {dim})")
    elif doc["encoding"] == "sparse":
        q = np.zeros((dim, dim), dtype=np.int64)
        for i, j, v in doc["entries"]:
            if not (0 <= i < dim and 0 <= j < dim):
                raise ParseError(1, f"sparse index ({i}, {j}) out of range for dim {dim}")
            q[i, j] = v
    else:
        raise ParseError(1, f"unknown encoding {doc['encoding']!r}")
    weights = doc.get("weights")
    return QuboDocument(
        qubo=QuboMatrix(q, offset=doc["offset"]),
        mode=doc["mode"],
        weights=None if weights is None else np.asarray(weights, dtype=np.int64),
        capacity=doc.get("capacity"),
        alpha=doc.get("alpha"),
        beta=doc.get("beta"),
    )
