"""Defining sets, ambient trace codes over GF(p), and weight distributions.

A trace code is the linear code whose codeword for each index element a is
c_a = (Tr(a*d1), ..., Tr(a*dn)) with the d's running over a defining set in
canonical field order. GF(q)^* is cyclic, so the counts of 0 and 1 in all q words
are two FFT correlations of length q - 1, rounded only inside a stated margin: the code keeps
those two columns, as Tr is GF(p)-linear and s != 0 occurs in c_a as often as 1 in c_(a/s).
Each weight (n minus the count of 0), the kernel {a : c_a = 0}, checked to be {0} or GF(p),
whose cosets are the distinct words (a coset a + GF(p) moves only the constant term:
Field.add_constant), and every composition are read from them; words are built only on
request, by Field.trace_of_multiples. The census shares no logic with the closed-form predictors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .charsums import quadratic_trace_sign
from .errors import (
    DegenerateSet,
    IdentityViolation,
    OddDegree,
    UnsupportedDegree,
    ZeroCode,
)
from .gfpm import Field

ROUNDING_MARGIN = 0.25  # farthest a float64 correlation may lie from an integer count


@dataclass(frozen=True)
class WeightDistribution:
    """Sorted (weight, frequency) pairs with positive frequencies."""

    pairs: tuple

    @classmethod
    def from_counts(cls, counts: dict) -> "WeightDistribution":
        return cls(tuple(sorted((int(w), int(c)) for w, c in counts.items() if c)))

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
    """The q indexed codewords of a trace code, held as their counts of 0 and 1.

    `counts[a, s]` counts the symbols s = 0, 1 in the word of element a, `compositions` all p;
    `kernel` lists the a whose word is zero, so each word repeats over a + kernel.
    """

    def __init__(self, defining_set, counts, kernel, dimension):
        self.defining_set = defining_set
        self.field = defining_set.field
        self.length = len(defining_set)
        self.counts = counts
        self.kernel = kernel
        self.distinct_count = self.field.q // len(kernel)
        self.weights = self.length - counts[:, 0]  # of each indexed word
        self.dimension = dimension

    def words(self, rows) -> np.ndarray:
        """(len(rows), n) int8 codewords of the listed element indices: Tr(a*d) over D."""
        return self.field.trace_of_multiples(rows, self.defining_set.indices)

    def compositions(self, rows) -> np.ndarray:
        """(len(rows), p) symbol counts of the listed words: N[a, s] = N[a/s, 1] for s != 0."""
        field, rows = self.field, np.asarray(rows, dtype=np.int64)[:, None]
        logs = field.log[rows] - field.log[list(field.prime_subfield_indices())[1:]]
        quotients = np.where(rows > 0, field.powers[logs % (field.q - 1)], 0)  # 0/s = 0
        return np.hstack([self.counts[rows, 0], self.counts[quotients, 1]])

    @cached_property
    def matrix(self) -> np.ndarray:
        """All q codewords, row i that of the element with canonical index i."""
        return self.words(np.arange(self.field.q))

    def coset_rows(self, index) -> np.ndarray:
        """The least element of each kernel coset in the sorted `index`, a union of cosets."""
        index = np.asarray(index, dtype=np.int64)
        if len(self.kernel) == 1:  # each coset {a} is its own row
            return index
        least = self.field.add_constant(index)  # of each a + GF(p)
        rows = index[least == index]
        if not np.isin(least, rows).all() or len(rows) * len(self.kernel) != len(index):
            raise IdentityViolation("the index set is not a union of cosets of the kernel")
        return rows

    @property
    def distinct_words(self) -> np.ndarray:
        return self.words(self.coset_rows(np.arange(self.field.q)))

    def __repr__(self):
        return (
            f"TraceCode([{self.length}, {self.dimension}] over GF({self.field.p}), "
            f"defining set {self.defining_set.kind})"
        )


def trace_count_table(ds: DefiningSet) -> np.ndarray:
    """(q, 2) table of N[a, s] = #{d in D : Tr(a*d) = s} for s = 0 and 1, over every word.

    For a = g^i, N[a, s] = sum_k 1_D(g^k) [Tr(g^(i+k)) = s]: two cyclic correlations against
    the field's trace spectra, refused unless both lie within ROUNDING_MARGIN of integers and
    every row sums to n. As N[a, s] = N[a/s, 1] and g^e generates GF(p)^*, row g^i sums to
    N[g^i, 0] plus N[g^k, 1] over each k = i mod e, e = (q-1)/(p-1).
    """
    field, n, order = ds.field, len(ds), ds.field.q - 1
    member = np.zeros(2 * (field.trace_spectra.shape[1] - 1))
    member[field.log[ds.indices]] = 1.0
    corr = np.fft.irfft(np.conj(np.fft.rfft(member)) * field.trace_spectra, len(member))[:, :order]
    zeros, ones = table = np.rint(corr)
    rows = zeros.reshape(field.p - 1, -1) + ones.reshape(field.p - 1, -1).sum(axis=0)  # i mod e
    if np.abs(corr - table).max() > ROUNDING_MARGIN or (rows != n).any():
        raise IdentityViolation(f"the symbol-count correlations over {field!r} are not counts")
    counts = np.zeros((field.q, 2), dtype=np.min_scalar_type(n))
    counts[0, 0] = n  # the word of zero
    counts[field.powers] = table.T
    return counts


def build_trace_code(ds: DefiningSet) -> TraceCode:
    """Count the symbols of every codeword of the trace construction, building none.

    The kernel {a : N[a, 0] = n} of a -> c_a must be {0} or GF(p): dimension m or m - 1.
    """
    field = ds.field
    counts = trace_count_table(ds)
    kernel = np.flatnonzero(counts[:, 0] == len(ds))
    if kernel.tolist() not in ([0], list(field.prime_subfield_indices())):
        raise IdentityViolation(f"a {len(kernel)}-element kernel is not {{0}} or GF({field.p})")
    return TraceCode(ds, counts, kernel, field.m - (len(kernel) > 1))


def weight_distribution(code: TraceCode) -> WeightDistribution:
    """Exhaustive weight census: each distinct word occurs once per element of the kernel."""
    census, rest = np.divmod(np.bincount(code.weights), len(code.kernel))
    if rest.any():
        raise IdentityViolation(f"a weight count is not a multiple of {len(code.kernel)}")
    return WeightDistribution.from_counts(dict(enumerate(census)))


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
