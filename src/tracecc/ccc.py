"""Constant composition subcodes of the ambient trace codes.

A subcode is the ambient code's distinct words over the index set, which must be closed
under GF(p)^* and a union of cosets of the kernel {a : c_a = 0}, {0} or GF(p); each word is
kept as the least element of its coset (for GF(p), the one with constant term 0), in sorted
order. Word a counts s != 0 as word a/s counts 1, so all words share word 0's composition
iff their counts of 0 and 1 are constant. Only the oracle's words are built. Extraction
keeps two independent routes to the minimum distance, stored so reports can compare them:
the pairwise census (the oracle) and the ambient minimum weight (the shortcut justified by
the difference argument). Skipped above PAIRWISE_ORACLE_CAP words, the oracle compares one
word per orbit of the maps that extraction names from the field's log table, each with its
word permutation: scaling, the all-ones shift (for D(alpha != 0)), the Frobenius coordinate
permutation (D(alpha), E and every index set are closed under x -> x^p) and d -> lam*d. It
keeps a map only if its images, checked in row blocks, are the named words, so a wrong
permutation costs time, never a distance; per column block, each symbol's hit products are
added as made. D(0) and E are closed under GF(p)^*, and Tr(a*lam*d) = lam*Tr(a*d): before
any word is built, extraction checks on the m basis words x^i that column lam*d is lam times
column d, so every word's is, builds the words on one column per orbit of d -> lam*d alone,
and multiplies the oracle's distance by p - 1. On those columns Frobenius is a permutation
with a multiplier per column, checked on the words like every map.

The bound evaluation is exact integer/rational arithmetic throughout;
optimality means M * denominator == n * d with no floating point involved.

For alpha != 0, D(alpha) = c*D(alpha_ref) with c = alpha/alpha_ref in GF(p)^*, so
c_a over D(alpha) is c_(ca) over D(alpha_ref) with its coordinates permuted, and c*I = I
for the index set I. When that set identity is checked against a PairwiseReference (the
field's first alpha != 0 subcode whose extraction completed), build_construction gathers
the census N[a] = N_ref[c*a] instead of correlating and hands extraction the reference's
distance, if its oracle ran, in place of the oracle; the subcode reports the route.
Extraction reads nothing but its code and that distance.

CONSTRUCTIONS is the one place that tells the paper's three constructions
apart. Outside it, only the wrappers that the benchmark clocks by name branch on
a construction name: extract_subcode_* here, and sweep's verify_*_instance and
the run_sweep branch that picks one of them (and passes the reference only to the
first construction). On alpha, the first construction's closed forms and bound
checks branch at alpha = 0, and at alpha != 0 build_construction alone reads and
fills the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

from .charsums import quadratic_trace_sign
from .codes import (
    DefiningSet,
    TraceCode,
    build_defining_set_D,
    build_defining_set_E,
    build_trace_code,
    codewords_as_strings,
    minimum_distance,
    predicted_weight_distribution_lem41,
    predicted_weight_distribution_thm31,
    second_family_terms,
)
from .errors import CompositionLengthMismatch, DuplicateWords, IdentityViolation, UnsupportedDegree
from .gfpm import ROW_BLOCK, add_mod

#: largest word count for which the pairwise oracle runs (its match matrix is one column per orbit)
PAIRWISE_ORACLE_CAP = 5000
PAIRWISE_COLUMN_BLOCK = 256  # coordinates whose hit products the oracle sums at once


def pairwise_min_distance(words, symmetries=()) -> int:
    """Exact minimum Hamming distance over all unordered pairs of words.

    Each of `symmetries` is a map with its word permutation P, f(w_j) = w_P(j), as _kept_maps
    reads it. Maps that _kept_maps finds to permute the words keep distances, so one word per
    orbit of those is compared with all words (with none, every word is), and an equal pair
    meets a representative: distance 0 raises DuplicateWords. Hits are summed per column
    block. Besides the words, it holds an M x 256 hit block and three M x |R| arrays for the
    representatives R. Extraction folds columns before it builds the words (_fold), not here.
    """
    w = np.ascontiguousarray(np.asarray(words, dtype=np.int8))
    if w.ndim != 2 or w.shape[0] < 2:
        raise ValueError("need a 2-d array of at least two words")
    m_words, n = w.shape
    symbols = range(int(w.min(initial=0)), int(w.max(initial=0)) + 1)
    kept = _kept_maps(w, symmetries)
    reps = np.flatnonzero(_least_in_orbit(m_words, [perm for *_, perm in kept]) == np.arange(m_words))
    matches = np.zeros((m_words, len(reps)), dtype=np.float32)  # exact: counts stay below 2**24
    part = np.empty_like(matches)  # one symbol's products on one column block
    hits = np.empty((m_words, min(n, PAIRWISE_COLUMN_BLOCK)), dtype=np.float32)  # no bool copy
    rows_of = {}  # symbol s -> rows Q of its orbit's least symbol b with hits_s = hits_b[Q]
    for base in (s for s in symbols if s not in rows_of):
        rows_of[base], orbit = np.arange(m_words), [base]
        for s in orbit:  # f(w_j) = w_P(j) gives hits_t = hits_s[P] for t = f^-1(s)
            for inverse, _, perm in kept:
                if inverse is not None and inverse[s] not in rows_of:
                    rows_of[inverse[s]] = rows_of[s][perm]
                    orbit.append(inverse[s])
        for start in range(0, n, PAIRWISE_COLUMN_BLOCK):  # hits on a block of columns
            hits_j = hits[:, : min(n - start, PAIRWISE_COLUMN_BLOCK)]
            np.equal(w[:, start : start + PAIRWISE_COLUMN_BLOCK], base, out=hits_j, casting="unsafe")
            for s in orbit:  # part[x, i] = hits_b[x] . hits_s[reps[i]], as hits_s = hits_b[Q_s]
                np.matmul(hits_j, hits_j[rows_of[s][reps]].T, out=part)
                matches += part if s == base else part[rows_of[s]]  # row Q_s[x] is word x's
    matches[reps, np.arange(len(reps))] = -1.0
    if (distance := n - int(matches.max())) == 0:
        raise DuplicateWords("two identical words found (distance 0)")
    return distance


def _least_in_orbit(size, perms) -> np.ndarray:
    """The least of 0..size-1 in each one's orbit under the permutations: min-label propagation."""
    label, previous = np.arange(size), None
    while not np.array_equal(label, previous):
        previous, label = label, np.minimum.reduce([label] + [label[perm] for perm in perms])
    return label


def _kept_maps(w, symmetries) -> list:
    """(f^-1 for a symbol map f else None, sigma else None, P) of each named map that keeps w.

    ((a, b, p) or None, sigma or None, P) names f(w) = a*w[sigma] + b mod p, with None for no
    step on the symbols or on the coordinates; a is one multiplier or, with sigma, one per
    coordinate. Kept only if sigma and P are permutations, every a is a unit mod p and the
    words use no symbol outside 0..p-1, and f(w) == w[P] one ROW_BLOCK of rows at a time.
    """
    (m_words, n), kept, step = w.shape, [], ROW_BLOCK
    top = int(w.view(np.uint8).max(initial=0))  # a negative symbol reads as a large byte
    permutes = lambda x, size: np.array_equal(np.sort(x), np.arange(size))
    for affine, sigma, perm in symmetries:
        a, b, p = affine or (1, 0, top + 1)  # None: every symbol in use stays
        a, b, take = np.asarray(a) % p, b % p, lambda x: x if sigma is None else np.take(x, sigma, 1)
        ok = top < p and (np.gcd(a, p) == 1).all() and (sigma is None or permutes(sigma, n))
        if ok and permutes(perm, m_words) and all(
            np.array_equal(_affine(take(w[s : s + step]), a, b, p).view(np.int8), w[perm[s : s + step]])
            for s in range(0, m_words, step)
        ):
            inverse = np.argsort((a * np.arange(p) + b) % p).tolist() if sigma is None else None
            kept.append((inverse, sigma, perm))
    return kept


def _affine(rows, a, b, p) -> np.ndarray:
    """a*rows + b mod p in uint8 for a, b in 0..p-1 and p <= 127, as add_mod; a is one multiplier
    or one per column. Double-and-add from a's top bit, x masked in where a column's bit is set."""
    x, a = rows.view(np.uint8), np.asarray(a)
    masked = lambda bit: x if bit.all() else x & (bit * 255).astype(np.uint8)
    acc = masked(a >> (top := int(a.max()).bit_length() - 1) & 1)
    for bit in (a >> t & 1 for t in range(top - 1, -1, -1)):
        acc = add_mod(add_mod(acc, acc, p), masked(bit), p) if bit.any() else add_mod(acc, acc, p)
    return add_mod(acc, b, p) if b else acc


def _symmetries(code, rows) -> list:
    """((a, b, p), None, P) or (None, sigma, P) of each map the field names, f(w_j) = w_P(j).

    In order: scaling, lam*c_a = c_(lam*a); on D(alpha != 0) the shift, c_a + 1 = c_(a + 1/alpha);
    Frobenius, c_a[sigma] = c_(a^(1/p)), d_sigma(k) = d_k^p; and sigma_lam, c_a[sigma] = lam*c_a,
    d_sigma(k) = lam*d_k, a permutation only where lam*D = D; lam = g^((q-1)/(p-1)) generates
    GF(p)^*. P(j) is the row of the image's kernel coset, or M off the rows: _kept_maps drops it.
    A d^p or lam*d outside D reads another column, so its map keeps the words only by chance.
    """
    field, ds = code.field, code.defining_set
    p, order, e = field.p, field.q - 1, (field.q - 1) // (field.p - 1)
    a = field.prime_subfield_indices().index(field.powers[e])  # the residue of lam = g^e
    position = np.full(field.q, len(rows))  # the row of each element's kernel coset
    position[rows] = np.arange(len(rows))
    if len(code.kernel) > 1:  # GF(p): gathered at each coset's least element
        position = position[field.add_constant(np.arange(field.q))]
    logs, d = field.log[rows], field.log[ds.indices]
    scale = position[field.powers[(logs + e) % order]]
    maps = [((a, 0, p), None, scale)]
    if ds.alpha:  # Tr((a + 1/alpha)*d) = Tr(a*d) + 1 on D(alpha)
        maps.append(((1, 1, p), None, position[field.add_constant(rows, pow(ds.alpha, -1, p))]))
    images = field.powers[np.stack([p * d, d + e]) % order]  # d^p and lam*d
    frobenius, sigma_lam = np.minimum(np.searchsorted(ds.indices, images), len(ds) - 1)
    roots = field.powers[logs * (field.q // p) % order]  # a^(1/p) = a^(p^(m-1))
    return maps + [(None, frobenius, position[roots]), (None, sigma_lam, scale)]


def _fold(code, maps) -> tuple:
    """(columns, maps on them): one column per orbit of sigma_lam, if it folds, else all of them.

    maps are _symmetries': scaling by a first, Frobenius and sigma_lam last. sigma_lam folds if it
    permutes the n columns in orbits of p - 1 and the words of the basis x^0..x^(m-1) have
    w[:, sigma_lam] == a*w mod p: every word is the digits of its element times those words, so
    each has column sigma_lam(k) = a * column k, and two words differ at sigma_lam(k) exactly
    where they differ at k. Then d_k^p = lam^i * d_r, r the least column of its orbit, and
    Frobenius on the folded words is w -> mu*w[sigma] with sigma(k) the place of r and mu_k = a^i.
    """
    field, n = code.field, code.length
    ((a, _, p), _, _), (_, frobenius, roots), (_, sigma_lam, _) = maps[0], maps[-2], maps[-1]
    if not np.array_equal(np.sort(sigma_lam), np.arange(n)):
        return np.arange(n), maps
    basis = field.trace_of_multiples(list(field._index_weights), code.defining_set.indices)
    columns = np.flatnonzero(_least_in_orbit(n, [sigma_lam]) == np.arange(n))
    place, mu, k = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64), columns
    for i in range(p - 1):  # column k is a^i times column columns[place[k]]
        place[k], mu[k], k = np.arange(len(columns)), pow(a, i, p), sigma_lam[k]
    if not (len(columns) * (p - 1) == n and np.array_equal(k, columns)) or not np.array_equal(
        basis[:, sigma_lam].view(np.uint8), _affine(basis, a, 0, p)
    ):
        return np.arange(n), maps
    image = frobenius[columns]
    return columns, maps[:-2] + [((mu[image], 0, p), place[image], roots)]


@dataclass
class PairwiseReference:
    """One field's first alpha != 0 first-family subcode whose extraction completed.

    Made empty per field by the caller; build_construction alone reads and fills it. The
    subcode's source holds the reference's defining set and (q, 2) census, and its
    d_pairwise the distance if its oracle ran.
    """

    sub: Optional[CccCode] = None

    def scaling(self, ds: DefiningSet) -> Optional[np.ndarray]:
        """c*a for every index a, c = alpha/alpha_ref, if c maps the reference's set onto `ds`
        as sorted index arrays, else None: then N[a] = N_ref[c*a] and the distances agree
        (every index set I that _extract admits has c*I = I).
        """
        ref = None if self.sub is None else self.sub.source.defining_set
        if ref is None or ref.field != ds.field:
            return None
        field = ds.field
        c = ds.alpha * pow(ref.alpha, -1, field.p) % field.p
        shift = field.log[field.prime_subfield_indices()[c]]  # c*x = g^(log c + log x), x != 0
        scaled = np.where(field.log < 0, 0, field.powers[(field.log + shift) % (field.q - 1)])
        return scaled if np.array_equal(np.sort(scaled[ref.indices]), ds.indices) else None


class CccParams(NamedTuple):
    n: int
    M: int
    d: int
    omega: tuple


@dataclass(eq=False)
class CccCode:
    """Extracted subcode with its composition vector and both distance routes."""

    source: TraceCode
    construction: str  # a key of CONSTRUCTIONS
    rows: np.ndarray  # least element index of each kernel coset in the index set, sorted
    composition: tuple  # of word 0
    composition_ok: bool  # every word has word 0's composition
    index_count: int
    d_pairwise: Optional[int]
    d_ambient: int
    distance_route: str  # "pairwise", "transferred" (handed to extraction) or "ambient-only"
    alpha: Optional[int] = None
    tau: Optional[int] = None

    @property
    def words(self) -> np.ndarray:
        return self.source.words(self.rows)

    @property
    def n(self) -> int:
        return self.source.length

    @property
    def M(self) -> int:
        return len(self.rows)

    @property
    def d(self) -> int:
        return self.d_pairwise if self.d_pairwise is not None else self.d_ambient

    @property
    def params(self) -> CccParams:
        return CccParams(self.n, self.M, self.d, self.composition)

    def lfvc(self) -> "LfvcReport":
        return lfvc_evaluate(self.n, self.M, self.d, self.composition)

    def __repr__(self):
        return (
            f"CccCode({self.construction}, n={self.n}, M={self.M}, d={self.d}, "
            f"omega={self.composition})"
        )


def _extract(code: TraceCode, construction: str, *, transferred=None) -> CccCode:
    entry = CONSTRUCTIONS[construction]
    ds = code.defining_set
    if ds.kind != entry.defining_set:
        raise ValueError(f"{construction} subcodes come from a {entry.defining_set} code")
    field, mask = code.field, entry.index_mask(code.field)
    index = np.flatnonzero(mask)
    rows = code.coset_rows(index)
    logged = mask[field.powers].reshape(field.p - 1, -1)  # row j: g^(j*e) times row 0
    if (logged != logged[0]).any():  # g^e generates GF(p)^*, e = (q-1)/(p-1)
        raise IdentityViolation("the index set is not closed under GF(p)^*")
    composition = tuple(int(c) for c in code.compositions(index[:1])[0])  # of word 0
    composition_ok = bool((np.take(code.counts, index, axis=0) == code.counts[index[0]]).all())
    d_ambient = minimum_distance(code)
    d_pairwise, route = None, "ambient-only"
    if transferred is not None:  # checked by build_construction to carry over to this code
        d_pairwise, route = transferred, "transferred"
    elif len(rows) <= PAIRWISE_ORACLE_CAP:  # the words and maps are made for the oracle alone
        columns, maps = _fold(code, _symmetries(code, rows))
        words = field.trace_of_multiples(rows, ds.indices[columns])
        d_pairwise = code.length // len(columns) * pairwise_min_distance(words, maps)
        route = "pairwise"
    return CccCode(
        code,
        construction,
        rows,
        composition,
        composition_ok,
        index_count=len(index),
        d_pairwise=d_pairwise,
        d_ambient=d_ambient,
        distance_route=route,
        alpha=ds.alpha,
        tau=None if ds.kind == "D-alpha" else quadratic_trace_sign(field.p, field.m),
    )


def extract_subcode_first(code: TraceCode, *, transferred=None) -> CccCode:
    """Subcode indexed by every a outside the prime subfield; deduplicated.

    `transferred`, a distance checked to hold for this code, takes the oracle's place.
    """
    return _extract(code, "first", transferred=transferred)


def extract_subcode_second(code: TraceCode, which: str) -> CccCode:
    """Subcode of a C_E code indexed by S = {a : Tr(a**2) != 0} or its complement."""
    if which not in ("S", "complement"):
        raise ValueError("which must be 'S' or 'complement'")
    return _extract(code, f"second-{which}")


# -- closed-form parameter predictions ---------------------------------------


def predicted_ccc_first(p: int, m: int, alpha: int) -> CccParams:
    """Predicted (n, M, d, omega) of the first-construction subcode."""
    if m < 2:
        raise UnsupportedDegree("the closed form requires extension degree at least 2")
    alpha = int(alpha) % p
    base = p ** (m - 2)
    d = base * (p - 1)
    if alpha == 0:
        n = p ** (m - 1) - 1
        return CccParams(n, n, d, (base - 1,) + (base,) * (p - 1))
    return CccParams(p ** (m - 1), p**m - p, d, (base,) * p)


def predicted_ccc_second(p: int, m: int, which: str) -> CccParams:
    """Predicted (n, M, d, omega) of the S or complement subcode (even m)."""
    tau, half, n = second_family_terms(p, m)
    base = p ** (m - 2)
    d = (p - 1) * base if tau == -1 else (p - 1) * (base - half)
    if which == "S":
        M = p**m - p ** (m - 1) + tau * (p - 1) * half
        omega = (base - 1,) + (base - tau * half,) * (p - 1)
    elif which == "complement":
        M = n
        omega = (base - tau * (p - 1) * half - 1,) + (base,) * (p - 1)
    else:
        raise ValueError("which must be 'S' or 'complement'")
    return CccParams(n, M, d, omega)


# -- the size bound -----------------------------------------------------------


@dataclass(frozen=True)
class LfvcReport:
    denominator: int
    bound: Optional[Fraction]
    verdict: str  # "optimal" | "not-optimal" | "bound-inapplicable"

    def to_json_dict(self) -> dict:
        doc = {"denominator": self.denominator}
        if self.bound is not None:
            doc["bound"] = str(self.bound)
        doc["verdict"] = self.verdict
        return doc


def lfvc_evaluate(n: int, M: int, d: int, omega) -> LfvcReport:
    """Evaluate the size bound M <= n*d / (n*d - n**2 + sum of omega**2) exactly.

    The bound only applies when the denominator is positive; meeting it with
    equality makes the code optimal. All arithmetic is exact.
    """
    n, M, d = int(n), int(M), int(d)
    omega = tuple(int(w) for w in omega)
    if n <= 0 or M <= 0 or d <= 0:
        raise ValueError("n, M and d must be positive")
    if any(w < 0 for w in omega):
        raise ValueError("composition counts must be non-negative")
    if sum(omega) != n:
        raise CompositionLengthMismatch(
            f"composition sums to {sum(omega)} but the length is {n}"
        )
    denominator = n * d - n * n + sum(w * w for w in omega)
    if denominator <= 0:
        return LfvcReport(denominator, None, "bound-inapplicable")
    bound = Fraction(n * d, denominator)
    verdict = "optimal" if M * denominator == n * d else "not-optimal"
    return LfvcReport(denominator, bound, verdict)


# -- the three constructions ----------------------------------------------------


def _outside_prime_field(field) -> np.ndarray:
    keep = np.ones(field.q, dtype=bool)
    keep[list(field.prime_subfield_indices())] = False
    return keep


def _in_S(field) -> np.ndarray:
    return field.trace_table[field.square_index_table] != 0  # zero drops out automatically


def _outside_S(field) -> np.ndarray:
    keep = field.trace_table[field.square_index_table] == 0
    keep[0] = False
    return keep


def _first_bound_checks(sub: CccCode, report: LfvcReport) -> dict:
    # optimal for alpha = 0; for alpha != 0 the denominator vanishes
    ok = report.verdict == "optimal" if sub.alpha == 0 else report.denominator == 0
    return {"lfvc_verdict": ok}


def _S_bound_checks(sub: CccCode, report: LfvcReport) -> dict:
    return {
        "lfvc_bound_inapplicable": report.verdict == "bound-inapplicable",
        # index sets S, E and {0} partition the field
        "index_partition": sub.index_count + sub.source.length + 1 == sub.source.field.q,
    }


def _complement_bound_checks(sub: CccCode, report: LfvcReport) -> dict:
    return {
        "lfvc_consistent": report.denominator <= 0 or sub.M * report.denominator <= sub.n * sub.d
    }


class Construction(NamedTuple):
    """Everything that tells one construction of the paper from the others."""

    defining_set: str  # kind of the ambient code's defining set: "D-alpha" or "E"
    which: Optional[str]  # the second family's index set: "S" or "complement"
    index_mask: Callable  # field -> bool mask of the index set over canonical indices
    predict: Callable  # (p, m, alpha) -> closed-form CccParams of the subcode
    predict_census: Callable  # (p, m, alpha) -> closed-form ambient WeightDistribution
    bound_checks: Callable  # (subcode, LfvcReport) -> {check name: bool}


CONSTRUCTIONS = {
    "first": Construction(
        "D-alpha",
        None,
        _outside_prime_field,
        predicted_ccc_first,
        predicted_weight_distribution_thm31,
        _first_bound_checks,
    ),
    "second-S": Construction(
        "E",
        "S",
        _in_S,
        lambda p, m, _alpha: predicted_ccc_second(p, m, "S"),
        lambda p, m, _alpha: predicted_weight_distribution_lem41(p, m),
        _S_bound_checks,
    ),
    "second-complement": Construction(
        "E",
        "complement",
        _outside_S,
        lambda p, m, _alpha: predicted_ccc_second(p, m, "complement"),
        lambda p, m, _alpha: predicted_weight_distribution_lem41(p, m),
        _complement_bound_checks,
    ),
}


def build_construction(field, construction: str, alpha=None, *, reference=None) -> tuple:
    """The ambient trace code and the subcode of one named construction.

    `alpha` picks D(alpha) for the first construction and must be None for the other two.
    `reference`, a PairwiseReference of the field, is read and filled here alone: at alpha != 0
    a set that passes its scaling gathers its census and takes its distance.
    """
    entry = CONSTRUCTIONS.get(construction)
    if entry is None:
        raise ValueError(f"unknown construction {construction!r}")
    if entry.defining_set == "D-alpha":
        if alpha is None:
            raise ValueError("--alpha is required for the first construction")
        if not 0 <= alpha < field.p:
            raise ValueError(f"alpha {alpha} is not a residue mod {field.p}")
        ds = build_defining_set_D(field, alpha)
        scaled = reference.scaling(ds) if reference is not None and alpha else None
        if scaled is None:
            code = build_trace_code(ds)
            sub = extract_subcode_first(code)
        else:
            code = TraceCode(ds, reference.sub.source.counts[scaled])
            sub = extract_subcode_first(code, transferred=reference.sub.d_pairwise)
        if reference is not None and alpha and reference.sub is None:  # a completed extraction
            reference.sub = sub
        return code, sub
    if alpha is not None:
        raise ValueError("--alpha applies to the first construction only")
    code = build_trace_code(build_defining_set_E(field))
    return code, extract_subcode_second(code, entry.which)


# -- serialization -------------------------------------------------------------


def ccc_json(subcode: CccCode, emit_codewords: bool = False) -> dict:
    field = subcode.source.field
    doc = {"construction": subcode.construction, "p": field.p, "m": field.m}
    if subcode.alpha is not None:
        doc["alpha"] = subcode.alpha
    if subcode.tau is not None:
        doc["tau"] = subcode.tau
    doc["n"] = subcode.n
    doc["M"] = subcode.M
    doc["d"] = subcode.d
    doc["d_pairwise"] = subcode.d_pairwise
    doc["d_ambient"] = subcode.d_ambient
    doc["distance_route"] = subcode.distance_route
    doc["omega"] = list(subcode.composition)
    doc["lfvc"] = subcode.lfvc().to_json_dict()
    predicted = CONSTRUCTIONS[subcode.construction].predict(field.p, field.m, subcode.alpha)
    doc["checks"] = {  # composition, the two distance routes, the closed form
        "composition_ok": subcode.composition_ok,
        "distance_matches_ambient": (
            None if subcode.d_pairwise is None else subcode.d_pairwise == subcode.d_ambient
        ),
        "prediction_matches": subcode.params == predicted,
    }
    if emit_codewords:
        doc["codewords"] = codewords_as_strings(subcode.words, field.p)
    return doc
