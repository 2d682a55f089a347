"""Defining sets, ambient trace codes over GF(p), and weight distributions.

A trace code is the linear code whose codeword for each index element a is
(Tr(a*d1), ..., Tr(a*dn)) with the d's running over a defining set in
canonical field order. Its rows are hashed once, into the class ids that
its distinct words and every subcode are read from, and each distinct word's
symbols are counted once, into the table that its weight (n minus its count
of 0) and every subcode's composition are read from. The exhaustive weight
census shares no logic with the closed-form predictors it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charsums import quadratic_trace_sign
from .errors import (
    DegenerateSet,
    FieldMismatch,
    IdentityViolation,
    OddDegree,
    UnsupportedDegree,
    ZeroCode,
)
from .gfpm import Field, FieldElement

COUNT_BLOCK = 256  # rows counted by one bincount in symbol_counts


@dataclass(frozen=True)
class WeightDistribution:
    """Sorted (weight, frequency) pairs with positive frequencies."""

    pairs: tuple

    @classmethod
    def from_counts(cls, counts: dict) -> "WeightDistribution":
        return cls(tuple(sorted((int(w), int(c)) for w, c in counts.items() if c)))

    def as_dict(self) -> dict:
        return dict(self.pairs)

    def total(self) -> int:
        return sum(c for _, c in self.pairs)

    def __iter__(self):
        return iter(self.pairs)


class DefiningSet:
    """Ordered set of nonzero field elements indexing the code coordinates."""

    def __init__(self, field: Field, kind: str, alpha, indices: np.ndarray):
        self.field = field
        self.kind = kind  # "D-alpha" or "E"
        self.alpha = alpha
        indices = np.asarray(indices, dtype=np.int64)
        indices.setflags(write=False)
        self.indices = indices

    def __len__(self):
        return len(self.indices)

    def __repr__(self):
        tag = f"D({self.alpha})" if self.kind == "D-alpha" else "E"
        return f"DefiningSet({tag} over {self.field!r}, n={len(self)})"


def build_defining_set_D(field: Field, alpha: int) -> DefiningSet:
    """All nonzero d with Tr(d) = alpha, in canonical order."""
    alpha = int(alpha) % field.p
    if field.m < 2:
        if alpha == 0:
            raise DegenerateSet("the prime field has no nonzero element of trace zero")
        raise UnsupportedDegree("defining sets require extension degree at least 2")
    mask = field.trace_table == alpha
    mask[0] = False
    indices = np.flatnonzero(mask)
    if indices.size == 0:
        raise DegenerateSet(f"D({alpha}) is empty over {field!r}")
    return DefiningSet(field, "D-alpha", alpha, indices)


def build_defining_set_E(field: Field) -> DefiningSet:
    """All nonzero d with Tr(d**2) = 0; defined for even extension degree."""
    if field.m % 2:
        raise OddDegree("this defining set requires an even extension degree")
    trace_of_square = field.trace_table[field.square_index_table]
    mask = trace_of_square == 0
    mask[0] = False
    indices = np.flatnonzero(mask)
    if indices.size == 0:
        raise DegenerateSet(f"E is empty over {field!r}")
    return DefiningSet(field, "E", None, indices)


class TraceCode:
    """All q indexed codewords, their class ids and the distinct view.

    `matrix[i]` is the codeword of the element with canonical index i and
    `classes[i]` its class id (see row_classes); class k first occurs at row `first[k]`.
    """

    def __init__(self, defining_set, matrix, classes, first, dimension):
        self.defining_set = defining_set
        self.field = defining_set.field
        self.matrix = matrix
        self.classes = classes
        self.first = first
        self.counts = symbol_counts(matrix, first, self.field.p)  # [k, s]: s symbols in class k
        self.weights = self.length - self.counts[:, 0]  # of each distinct word
        self.dimension = dimension

    @property
    def length(self) -> int:
        return self.matrix.shape[1]

    @property
    def distinct_count(self) -> int:
        return len(self.first)

    @property
    def distinct_words(self) -> np.ndarray:
        return self.matrix[self.first]

    def codeword(self, a: FieldElement) -> np.ndarray:
        if a.field != self.field:
            raise FieldMismatch("index element belongs to a different field")
        return self.matrix[a.index].copy()

    def __repr__(self):
        return (
            f"TraceCode([{self.length}, {self.dimension}] over GF({self.field.p}), "
            f"defining set {self.defining_set.kind})"
        )


def row_classes(rows) -> np.ndarray:
    """Class id of each row: equal rows share one, numbered in order of first occurrence."""
    seen = {}
    ids = (seen.setdefault(row.tobytes(), len(seen)) for row in rows)
    return np.fromiter(ids, np.int64, count=len(rows))  # allocated before the first key is kept


def symbol_counts(matrix: np.ndarray, rows, p: int) -> np.ndarray:
    """Count of each symbol 0..p-1 in each listed row, COUNT_BLOCK rows per bincount."""
    counts = np.empty((len(rows), p), dtype=np.min_scalar_type(matrix.shape[1]))
    offsets = p * np.arange(COUNT_BLOCK)[:, None]  # row r of a block counts into bins r*p + s
    for start in range(0, len(rows), COUNT_BLOCK):
        block = matrix[rows[start : start + COUNT_BLOCK]]
        if block.size and not 0 <= block.min() <= block.max() < p:
            raise ValueError(f"a symbol lies outside 0..{p - 1}")
        out = counts[start : start + len(block)]
        out.flat = np.bincount((block + offsets[: len(block)]).ravel(), minlength=out.size)
    return counts


def build_trace_code(ds: DefiningSet) -> TraceCode:
    """Materialize every indexed codeword of the trace construction.

    Row k of gen = G @ digits(D).T (mod p), G the trace form, is the codeword
    of x^k, and the codeword of sum c_k x^k is sum c_k gen[k] (mod p). The
    matrix is built from the last digit to c_0, the most significant, in
    8-bit adds, each followed by one conditional subtraction of p.
    """
    field = ds.field
    p, m = field.p, field.m
    n = len(ds)
    gen = (field.trace_form @ field.digits[ds.indices].T.astype(np.int64)) % p
    matrix = np.zeros((1, n), dtype=np.uint8)
    for k in reversed(range(m)):
        mult = ((np.arange(p)[:, None] * gen[k]) % p).astype(np.uint8)  # c * gen[k] for c < p
        matrix = (mult[:, None, :] + matrix[None]).reshape(-1, n)
        # entries are below 2p, and x - p wraps above x in uint8 exactly when x < p
        np.minimum(matrix, matrix - np.uint8(p), out=matrix)
    matrix = matrix.view(np.int8)
    classes = row_classes(matrix)
    first = np.unique(classes, return_index=True)[1]
    count = len(first)
    dimension = round(math.log(count, p))
    if p**dimension != count:
        raise IdentityViolation(f"{count} distinct codewords is not a power of {p}")
    return TraceCode(ds, matrix, classes, first, dimension)


def weight_distribution(code: TraceCode) -> WeightDistribution:
    """Exhaustive weight census over the distinct codewords."""
    return WeightDistribution.from_counts(dict(enumerate(np.bincount(code.weights))))


def minimum_distance(code: TraceCode) -> int:
    """Minimum nonzero Hamming weight over the distinct codewords."""
    nonzero = code.weights[code.weights > 0]
    if nonzero.size == 0:
        raise ZeroCode("the code has no nonzero codeword")
    return int(nonzero.min())


def predicted_weight_distribution_thm31(p: int, m: int, alpha: int) -> WeightDistribution:
    """Closed-form weight table of the code defined by D(alpha)."""
    if m < 2:
        raise UnsupportedDegree("the closed form requires extension degree at least 2")
    alpha = int(alpha) % p
    counts = {0: 1}
    if alpha == 0:
        counts[p ** (m - 2) * (p - 1)] = p ** (m - 1) - 1
    else:
        counts[p ** (m - 1)] = p - 1
        counts[p ** (m - 2) * (p - 1)] = p**m - p
    return WeightDistribution.from_counts(counts)


def second_family_terms(p: int, m: int) -> tuple:
    """(tau, p^(m/2-1), n) of the E construction's closed forms; refuses an empty E."""
    if m < 2:
        raise UnsupportedDegree("the closed form requires extension degree at least 2")
    tau = quadratic_trace_sign(p, m)
    half = p ** (m // 2 - 1)
    n = p ** (m - 1) - tau * (p - 1) * half - 1
    if n <= 0:
        raise DegenerateSet(f"the E construction degenerates for p={p}, m={m}")
    return tau, half, n


def predicted_weight_distribution_lem41(p: int, m: int) -> WeightDistribution:
    """Closed-form two-weight table of the code defined by E (even m)."""
    tau, half, n = second_family_terms(p, m)
    counts = {0: 1}
    counts[(p - 1) * p ** (m - 2)] = n
    w2 = (p - 1) * (p ** (m - 2) - tau * half)
    counts[w2] = counts.get(w2, 0) + (p - 1) * (p ** (m - 1) + tau * half)
    return WeightDistribution.from_counts(counts)


# -- serialization -------------------------------------------------------------


def codewords_as_strings(words: np.ndarray, p: int) -> list:
    """Codewords as strings of base-p symbols: digits for p <= 10, else comma-separated."""
    return [("" if p <= 10 else ",").join(str(int(s)) for s in row) for row in words]


def trace_code_json(code: TraceCode, emit_codewords: bool = False) -> dict:
    field = code.field
    doc = {
        "p": field.p,
        "m": field.m,
        "modulus": list(field.modulus),
        "kind": code.defining_set.kind,
    }
    if code.defining_set.kind == "D-alpha":
        doc["alpha"] = code.defining_set.alpha
    doc["length"] = code.length
    doc["dimension"] = code.dimension
    doc["weight_distribution"] = [list(pair) for pair in weight_distribution(code)]
    if emit_codewords:
        doc["codewords"] = codewords_as_strings(code.distinct_words, field.p)
    return doc


def weight_table_csv(wd: WeightDistribution) -> str:
    lines = ["weight,frequency"]
    lines += [f"{w},{c}" for w, c in wd]
    return "\n".join(lines) + "\n"
