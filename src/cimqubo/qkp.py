"""Quadratic knapsack instances: file formats, random generator, exact oracle.

The oracle still scores all 2^n configurations, but builds each score from
the two halves of the items: each half's own profit and weight sums are
computed once, and only the cross term between the halves is computed per
configuration.

An instance asks to maximize sum_{i,j} p_ij x_i x_j over binary x subject to
sum_i w_i x_i <= C.  The profit matrix is symmetric and the double sum counts
both orderings, so an off-diagonal pair contributes p_ij + p_ji = 2 p_ij.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import CapacityError, DimensionError, ParseError, ValidationError

TEXT_FORMAT = "canonical-text"
JSON_FORMAT = "json"

ORACLE_MAX_ITEMS = 24
_FLOAT_EXACT = 1 << 53  # float64 holds every integer up to here
_INT8 = np.dtype(np.int8)
_ORACLE_BLOCK = 1 << 18  # oracle scores per block: 2 MiB per float64 temporary
_SEED_LIMIT = 1 << 64  # seeds are nonnegative and below this, as run seeds are uint64
_FLOAT_MAX, _LEAST_POSITIVE = float(np.finfo(float).max), float(np.finfo(float).smallest_subnormal)


def as_bits(x, n: int | None = None) -> np.ndarray:
    """Normalize a 0/1 sequence to an int8 vector, checking length when given."""
    bits = np.asarray(x)
    if bits.ndim != 1:
        raise DimensionError(f"expected a 1-d bit vector, got shape {bits.shape}")
    if n is not None and bits.shape[0] != n:
        raise DimensionError(f"bit vector has length {bits.shape[0]}, expected {n}")
    if bits.dtype != _INT8:
        # checked before the cast, which would wrap 256 to 0 and truncate 0.5 to 0
        if not ((bits == 0) | (bits == 1)).all():
            raise ValidationError("bits", "entries must be 0 or 1")
        return bits.astype(np.int8)
    # deleting every 0 and 1 byte leaves nothing; cheaper than a numpy
    # reduction on the short int8 vectors each annealing step checks
    if bits.tobytes().translate(None, b"\0\1"):
        raise ValidationError("bits", "entries must be 0 or 1")
    return bits


def _as_type(value, cls: type, name: str):
    """The rule for every argument of one class (instance, model, record): the value as given."""
    if not isinstance(value, cls):
        raise ValidationError(name, f"must be a {cls.__name__}, got {type(value).__name__}")
    return value


class _NormalStream:
    """A generator's standard normals in order, drawn ahead in chunks of at least chunk
    from the first request on.  standard_normal(k) then standard_normal(m) draws the
    numbers of standard_normal(k + m), so a caller gets the numbers the generator would
    give it.  Each number is handed out once, so a caller may scale its slice in place."""

    __slots__ = ("rng", "chunk", "buffer", "at")

    def __init__(self, rng: np.random.Generator, chunk: int):
        self.rng, self.chunk, self.buffer, self.at = rng, chunk, np.empty(0), 0

    def standard_normal(self, size=None):
        start, stop = self.at, self.at + (1 if size is None else size)
        if stop > self.buffer.size:
            more = self.rng.standard_normal(max(self.chunk, stop - self.buffer.size))
            self.buffer, start, stop = np.concatenate([self.buffer[start:], more]), 0, stop - start
        self.at = stop
        return self.buffer.item(start) if size is None else self.buffer[start:stop]


def _as_rng(rng) -> np.random.Generator | _NormalStream:
    """A Generator or an annealing run's _NormalStream as given, a fresh-entropy
    Generator for None, else one seeded by rng."""
    if isinstance(rng, (_NormalStream, np.random.Generator)):
        return rng
    return np.random.default_rng(None if rng is None else _as_int(rng, "rng", 0, _SEED_LIMIT))


def _as_int_array(values, fieldname: str, copy: bool = True) -> np.ndarray:
    """values as int64.  Integral floats such as 3.0 pass; 3.7, values past
    the int64 range and entries that are not numbers raise."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting has no array shape
        raise ValidationError(fieldname, "entries must form a rectangular array") from None
    kind = arr.dtype.kind if arr.size else "i"
    if kind == "f":
        rounded = np.rint(arr)
        fits = np.array_equal(rounded, arr) and np.abs(rounded).max() < 2.0**63
        arr = rounded
    else:
        fits = kind in "bi" or (kind == "u" and int(arr.max()) < 1 << 63)
    if not fits:
        raise ValidationError(fieldname, "entries must be integers in the int64 range")
    return arr.astype(np.int64, copy=copy)


def _as_int(value, name: str, minimum: int, limit: int = 1 << 63) -> int:
    """The rule for every integer setting, seeds included: a scalar integer in
    [minimum, limit), as a Python int.  3.0 counts as 3; bools, arrays, 2.5,
    nan, values out of range and values that are not numbers raise."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            or isinstance(value, (float, np.floating)) and float(value).is_integer()):
        if minimum <= int(value) < limit:
            return int(value)
    raise ValidationError(name, f"must be an integer in [{minimum}, 2^{limit.bit_length() - 1}), "
                          f"got {value!r}")


def _as_float(value, name: str, minimum: float, maximum: float = _FLOAT_MAX) -> float:
    """The rule for every real-valued setting: a scalar integer or float, not a bool, in
    [minimum, maximum], as a Python float.  Numpy scalars compare as float64 (a float32
    cast to the float64 maximum overflows), Python ints exactly, so 10**400 is refused."""
    number = float(value) if isinstance(value, (np.integer, np.floating)) else value
    if isinstance(number, (int, float)) and not isinstance(number, bool) and minimum <= number <= maximum:
        return float(number)
    raise ValidationError(name, f"must be a number in [{minimum!r}, {maximum!r}], got {value!r}")


def _fields_equal(a, b):
    """Dataclass equality over every field declared with compare=True;
    ndarray fields compare by shape and content."""
    if not isinstance(b, type(a)):
        return NotImplemented
    for f in fields(a):
        if f.compare:
            x, y = getattr(a, f.name), getattr(b, f.name)
            if not (np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y):
                return False
    return True


@dataclass(frozen=True, eq=False)
class QkpInstance:
    """One quadratic knapsack problem.

    name is one line of text with no surrounding whitespace, as the first
    line of the text format holds it.  profits is an n x n symmetric matrix of
    nonnegative integers, weights is a vector of n positive integers, capacity
    is a positive integer.  meta is an optional free-form dict (kept out of
    equality, serialized to JSON only).
    """

    name: str
    n: int
    profits: np.ndarray
    weights: np.ndarray
    capacity: int
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        name = self.name
        if not (isinstance(name, str) and name == name.strip() and name.splitlines() == [name]):
            raise ValidationError("name", f"must be one nonempty line with no surrounding "
                                  f"whitespace, got {name!r}")
        object.__setattr__(self, "n", _as_int(self.n, "n", 1))
        object.__setattr__(self, "capacity", _as_int(self.capacity, "capacity", 1))
        profits = _as_int_array(self.profits, "profits")
        weights = _as_int_array(self.weights, "weights")
        if profits.shape != (self.n, self.n):
            raise ValidationError("profits", f"expected shape ({self.n}, {self.n}), got {profits.shape}")
        if not np.array_equal(profits, profits.T):
            raise ValidationError("profits", "matrix must be symmetric")
        if profits.size and int(profits.min()) < 0:
            raise ValidationError("profits", "entries must be nonnegative")
        if weights.shape != (self.n,):
            raise ValidationError("weights", f"expected {self.n} weights, got {weights.shape[0]}")
        for i, wi in enumerate(weights.tolist()):
            if wi < 1:
                raise ValidationError(f"weights[{i}]", f"must be >= 1, got {wi}")
        profits.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "profits", profits)
        object.__setattr__(self, "weights", weights)

    @property
    def total_profit(self) -> int:
        return sum(self.profits.ravel().tolist())

    @property
    def total_weight(self) -> int:
        return sum(self.weights.tolist())

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class OracleResult:
    best_value: int
    best_config: np.ndarray
    feasible_count: int

    __eq__ = _fields_equal


def _read_int_line(line: str, lineno: int, expected: int) -> list[int]:
    tokens = line.split()
    if len(tokens) != expected:
        raise ParseError(lineno, f"expected {expected} integer(s), got {len(tokens)}")
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise ParseError(lineno, f"not an integer: {tok!r}") from None
    return out


def _parse_text(text: str) -> QkpInstance:
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    idx = 0

    def next_line() -> tuple[str, int]:
        nonlocal idx
        if idx >= len(lines):
            raise ParseError(len(lines) + 1, "unexpected end of file")
        idx += 1
        return lines[idx - 1], idx

    name_line, _ = next_line()
    name = name_line.strip()
    if not name:
        raise ParseError(1, "instance name is empty")
    nline, ln = next_line()
    n = _read_int_line(nline, ln, 1)[0]
    if n < 1:
        raise ParseError(ln, f"n must be positive, got {n}")
    dline, ln = next_line()
    diag = _read_int_line(dline, ln, n)
    profits = np.zeros((n, n), dtype=np.int64)
    np.fill_diagonal(profits, diag)
    for i in range(n - 1):
        row, ln = next_line()
        vals = _read_int_line(row, ln, n - 1 - i)
        profits[i, i + 1:] = vals
        profits[i + 1:, i] = vals
    cline, ln = next_line()
    capacity = _read_int_line(cline, ln, 1)[0]
    wline, ln = next_line()
    weights = _read_int_line(wline, ln, n)
    if idx < len(lines):
        raise ParseError(idx + 1, "unexpected trailing content")
    return QkpInstance(name=name, n=n, profits=profits, weights=weights, capacity=capacity)


def _parse_json(text: str) -> QkpInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from None
    if not isinstance(doc, dict):
        raise ParseError(1, "top-level JSON value must be an object")
    for key in ("name", "n", "profits_diag", "profits_upper", "capacity", "weights"):
        if key not in doc:
            raise ParseError(1, f"missing key {key!r}")
    try:
        n = _as_int(doc["n"], "n", 1)
    except ValidationError as exc:
        raise ParseError(1, str(exc)) from None
    diag = _as_int_array(doc["profits_diag"], "profits_diag")
    upper = _as_int_array(doc["profits_upper"], "profits_upper")
    if diag.shape != (n,):
        raise ParseError(1, f"profits_diag must be a list of {n} entries")
    if upper.shape != (n * (n - 1) // 2,):
        raise ParseError(1, f"profits_upper must be a list of {n * (n - 1) // 2} entries")
    profits = np.zeros((n, n), dtype=np.int64)
    profits[np.triu_indices(n, k=1)] = upper
    profits = profits + profits.T
    np.fill_diagonal(profits, diag)
    return QkpInstance(
        name=doc["name"],
        n=n,
        profits=profits,
        weights=doc["weights"],
        capacity=doc["capacity"],
        meta=doc.get("generator"),
    )


def parse_instance(source, fmt: str = TEXT_FORMAT) -> QkpInstance:
    """Parse an instance from a string or file object in either format."""
    text = source.read() if hasattr(source, "read") else source
    if fmt == TEXT_FORMAT:
        return _parse_text(text)
    if fmt == JSON_FORMAT:
        return _parse_json(text)
    raise ValidationError("format", f"unknown format {fmt!r}")


def dump_instance(instance: QkpInstance, fmt: str = TEXT_FORMAT) -> str:
    _as_type(instance, QkpInstance, "instance")
    if fmt == TEXT_FORMAT:
        lines = [instance.name, str(instance.n)]
        lines.append(" ".join(str(v) for v in np.diagonal(instance.profits).tolist()))
        for i in range(instance.n - 1):
            lines.append(" ".join(str(v) for v in instance.profits[i, i + 1:].tolist()))
        lines.append(str(instance.capacity))
        lines.append(" ".join(str(w) for w in instance.weights.tolist()))
        return "\n".join(lines) + "\n"
    if fmt == JSON_FORMAT:
        doc = {
            "name": instance.name,
            "n": instance.n,
            "profits_diag": np.diagonal(instance.profits).tolist(),
            "profits_upper": instance.profits[np.triu_indices(instance.n, k=1)].tolist(),
            "capacity": instance.capacity,
            "weights": instance.weights.tolist(),
        }
        if instance.meta is not None:
            doc["generator"] = instance.meta
        return json.dumps(doc, indent=2) + "\n"
    raise ValidationError("format", f"unknown format {fmt!r}")


def infer_format(path) -> str:
    return JSON_FORMAT if str(path).lower().endswith(".json") else TEXT_FORMAT


def load_instance(path) -> QkpInstance:
    """Read an instance file in the format its extension names."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh, infer_format(path))


def save_instance(instance: QkpInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_instance(instance, infer_format(path)))


def generate_instance(
    n: int,
    density: float = 0.5,
    wmax: int = 20,
    pmax: int = 50,
    cap_ratio: float = 0.5,
    seed: int = 0,
    name: str | None = None,
) -> QkpInstance:
    """Draw a random instance; the same arguments always give the same instance.

    Weights are uniform on [1, wmax].  Each unordered off-diagonal pair is
    nonzero with probability density with a value uniform on [1, pmax]; the
    diagonal is always drawn.  capacity = max(1, round(cap_ratio * sum(w))).
    """
    n, wmax, pmax = _as_int(n, "n", 2), _as_int(wmax, "wmax", 1), _as_int(pmax, "pmax", 1)
    seed = _as_int(seed, "seed", 0, _SEED_LIMIT)
    density = _as_float(density, "density", 0.0, 1.0)
    cap_ratio = _as_float(cap_ratio, "cap_ratio", _LEAST_POSITIVE)
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, wmax + 1, size=n, dtype=np.int64)
    diag = rng.integers(1, pmax + 1, size=n, dtype=np.int64)
    present = rng.random(size=(n, n)) < density
    values = rng.integers(1, pmax + 1, size=(n, n), dtype=np.int64)
    profits = np.zeros((n, n), dtype=np.int64)
    iu = np.triu_indices(n, k=1)
    profits[iu] = np.where(present[iu], values[iu], 0)
    profits = profits + profits.T
    np.fill_diagonal(profits, diag)
    capacity = max(1.0, float(np.rint(cap_ratio * float(sum(weights.tolist())))))  # int64 sums can wrap
    meta = {
        "seed": seed,
        "params": {"n": n, "density": density, "wmax": wmax, "pmax": pmax, "cap_ratio": cap_ratio},
    }
    return QkpInstance(
        name=name or f"gen_n{n}_s{seed}",
        n=n,
        profits=profits,
        weights=weights,
        capacity=capacity,
        meta=meta,
    )


def _subsets(k: int) -> np.ndarray:
    """Row s holds the bits of s, bit i in column i: all 2^k subsets of k items."""
    return ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.float64)


def brute_force_oracle(instance: QkpInstance) -> OracleResult:
    """Exact optimum over all 2^n configurations, enumerated as two halves.

    Configuration k maps to bits with item i at bit position i (LSB first),
    and ties are broken toward the smallest such integer k.  Items below
    h = n // 2 form the low half a, the rest the high half b, and
    k = a + (b << h).  Each half's own profit and weight sums are computed
    once; the cross term 2 a^T P_ab b is one matmul per block of high
    halves, and the feasible count sorts the low-half weights and counts,
    for each b, the a with w_a <= C - w_b (Horowitz and Sahni, J. ACM 21(2),
    1974).  Only instances with n <= ORACLE_MAX_ITEMS are accepted.  Scores
    are float64 sums, exact while the profit and weight totals stay within
    2^53; larger totals raise CapacityError.
    """
    n = _as_type(instance, QkpInstance, "instance").n
    if n > ORACLE_MAX_ITEMS:
        raise CapacityError(
            f"oracle handles n <= {ORACLE_MAX_ITEMS}, got n = {n}; use the annealer for larger instances"
        )
    totals = instance.total_profit, instance.total_weight
    if max(totals) > _FLOAT_EXACT:
        raise CapacityError(f"profit and weight totals {totals} exceed 2^53, the float64 exact range")
    h = n // 2
    lo, hi = _subsets(h), _subsets(n - h)
    p = instance.profits.astype(np.float64)
    w = instance.weights.astype(np.float64)
    # a capacity past the total weight admits everything; clamping it keeps C - w_b exact
    capacity = float(min(instance.capacity, totals[1]))
    own_a = np.einsum("ij,ij->i", lo @ p[:h, :h], lo)
    own_b = np.einsum("ij,ij->i", hi @ p[h:, h:], hi)
    cross_a = 2.0 * p[h:, :h] @ lo.T  # (n - h, 2^h): column a is 2 P_ba a
    w_a = lo @ w[:h]
    room = capacity - hi @ w[h:]  # weight left for the low half, per b
    feasible = int(np.searchsorted(np.sort(w_a), room, side="right").sum())
    best_value = -1.0
    best_k = 0
    step = max(1, _ORACLE_BLOCK >> h)  # high halves per block
    for start in range(0, 1 << (n - h), step):
        stop = start + step
        # block laid out (b, a): its first argmax is its smallest k
        obj = hi[start:stop] @ cross_a
        obj += own_b[start:stop, None]
        obj += own_a
        np.copyto(obj, -1.0, where=w_a > room[start:stop, None])
        local = int(obj.argmax())
        if obj.flat[local] > best_value:
            best_value = float(obj.flat[local])
            b, a = divmod(local, 1 << h)
            best_k = a + ((start + b) << h)
    bits = ((best_k >> np.arange(n)) & 1).astype(np.int8)
    return OracleResult(best_value=int(best_value), best_config=bits, feasible_count=feasible)
