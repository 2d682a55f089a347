"""Subcode extraction, composition vectors, the pairwise distance oracle,
closed-form parameter predictions, and exact bound evaluation.

Frozen (n, M, d, omega) tuples were derived with the independent naive
implementation (set dedup, per-word symbol counts, double-loop distances).
"""

import json
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tracecc import (
    PAIRWISE_ORACLE_CAP,
    CompositionLengthMismatch,
    DefiningSet,
    DegenerateSet,
    DuplicateWords,
    IdentityViolation,
    OddDegree,
    SweepSpec,
    UnsupportedDegree,
    build_defining_set_D,
    build_defining_set_E,
    build_trace_code,
    ccc,
    codes,
    extract_subcode_first,
    extract_subcode_second,
    lfvc_evaluate,
    make_field,
    minimum_distance,
    pairwise_min_distance,
    predicted_ccc_first,
    predicted_ccc_second,
    quadratic_trace_sign,
)
from tracecc.ccc import (
    CONSTRUCTIONS,
    PairwiseReference,
    _fold,
    _kept_maps,
    _symmetries,
    build_construction,
    ccc_json,
)
from tracecc.gfpm import ROW_BLOCK, Field

from conftest import SWEEP_POINTS, enumerate_field


def naive_pairwise_min(words):
    best = None
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            d = sum(1 for x, y in zip(words[i], words[j]) if x != y)
            best = d if best is None else min(best, d)
    return best


def named_maps(words, affine=(), sigmas=()):
    """Symbol maps (a, b, p) and coordinate maps sigma with P found through a tuple dictionary;
    an image that is no word gets row 0, so only the oracle's checks can drop its map."""
    rows = [tuple(w) for w in np.asarray(words).tolist()]
    index = {w: i for i, w in enumerate(rows)}
    perm = lambda images: np.array([index.get(tuple(x), 0) for x in images])
    maps = [((a, b, p), None, perm([[(a * s + b) % p for s in w] for w in rows]))
            for a, b, p in affine]  # fmt: skip
    return maps + [(None, sigma, perm([[w[k] for k in sigma] for w in rows])) for sigma in sigmas]


def first_subcode(p, m, alpha):
    code = build_trace_code(build_defining_set_D(make_field(p, m), alpha))
    return extract_subcode_first(code)


def second_subcode(p, m, which):
    code = build_trace_code(build_defining_set_E(make_field(p, m)))
    return extract_subcode_second(code, which)


# -- composition vectors -----------------------------------------------------------


def test_composition_of_zero_word(f27):
    code = build_trace_code(build_defining_set_D(f27, 0))
    # zero and the rest of the kernel (the constants) index the zero word
    assert code.compositions(code.kernel).tolist() == [[8, 0, 0]] * 3
    # the table keeps the counts of 0 and 1, in the smallest unsigned type that holds the length
    assert code.counts.shape == (27, 2) and code.counts.dtype == np.uint8
    wide = build_trace_code(build_defining_set_D(make_field(7, 4), 1))
    assert wide.counts.dtype == np.uint16 and wide.compositions([0]).tolist() == [[343] + [0] * 6]


def test_composition_simple_word(f27):
    code = build_trace_code(build_defining_set_D(f27, 1))
    a = f27.element([1, 2, 0])
    word = code.words([a.index])[0]
    assert code.compositions([a.index]).tolist() == [np.bincount(word, minlength=3).tolist()]


@pytest.mark.parametrize("symbol", [3, -1])
def test_composition_refuses_foreign_symbol(symbol):
    # a trace value outside 0..p-1 is counted under no symbol, so rows fall short of n
    field = make_field(3, 3)
    ds = build_defining_set_D(field, 1)
    trace = field.trace_table.copy()
    trace[5] = symbol
    field.__dict__["trace_table"] = trace  # the cached table the spectra are built from
    with pytest.raises(IdentityViolation, match="not counts"):
        build_trace_code(ds)


@pytest.mark.parametrize("p,m,construction,alpha", [(3, 3, "first", 1), (3, 4, "second-S", None)])
def test_one_perturbed_count_fails_the_composition_check(p, m, construction, alpha):
    code, sub = build_construction(make_field(p, m), construction, alpha)
    assert sub.composition_ok
    index = np.flatnonzero(CONSTRUCTIONS[construction].index_mask(code.field))
    outside = np.setdiff1d(np.arange(code.field.q), index)[-1]
    assert code.compositions([outside]).tolist() != [[code.length] + [0] * (p - 1)]
    code.counts[outside] = [code.length, 0]  # a row outside the index set is not read
    again = ccc._extract(code, construction)
    assert again.composition_ok and again.composition == sub.composition
    code.counts[index[-1], 0] += 1  # a subcode word other than word 0
    again = ccc._extract(code, construction)
    assert again.composition_ok is False
    assert again.composition == sub.composition
    code.counts[index[-1], 0] -= 1
    code.counts[index[0], 0] += 1  # the reported composition is word 0's
    again = ccc._extract(code, construction)
    assert again.composition_ok is False
    assert again.composition == (sub.composition[0] + 1,) + sub.composition[1:]


def test_constant_composition_guard(monkeypatch):
    # over D(1) the constants index the all-c words, of another composition than the rest
    code, sub = build_construction(make_field(3, 3), "first", 1)
    assert sub.composition_ok and sub.M == 24
    entry = CONSTRUCTIONS["first"]
    every_nonzero = entry._replace(index_mask=lambda field: np.arange(field.q) > 0)
    monkeypatch.setitem(CONSTRUCTIONS, "first", every_nonzero)
    wider = ccc._extract(code, "first")
    assert wider.composition_ok is False and wider.M == 26


def test_index_set_must_be_a_union_of_kernel_cosets(monkeypatch):
    # the D(0) kernel is the prime field {0, 9, 18}: x^2 + {0, 1, 2} is one coset, {1} is not
    code = build_trace_code(build_defining_set_D(make_field(3, 3), 0))
    assert code.coset_rows([1, 10, 19]).tolist() == [1]
    with pytest.raises(IdentityViolation, match="union of cosets"):  # three elements, two cosets
        code.coset_rows([1, 11, 20])
    one =CONSTRUCTIONS["first"]._replace(index_mask=lambda field: np.arange(field.q) == 9)
    monkeypatch.setitem(CONSTRUCTIONS, "first", one)
    with pytest.raises(IdentityViolation, match="union of cosets"):
        ccc._extract(code, "first")


def test_index_set_must_be_closed_under_the_prime_field_units(monkeypatch):
    # word a counts s != 0 as word a/s counts 1, so a composition is read within a closed set
    field = make_field(3, 3)
    code = build_trace_code(build_defining_set_D(field, 1))  # kernel {0}: every set is a union
    x = field.basis_element(1)  # outside GF(3), so 2x != x

    def index_set(*elements):
        mask = lambda f: np.isin(np.arange(f.q), [a.index for a in elements])
        entry = CONSTRUCTIONS["first"]._replace(index_mask=mask)
        monkeypatch.setitem(CONSTRUCTIONS, "first", entry)

    index_set(x)
    with pytest.raises(IdentityViolation, match=r"not closed under GF\(p\)\^\*"):
        ccc._extract(code, "first")
    index_set(x, x + x)
    sub = ccc._extract(code, "first")
    assert sub.M == 2 and sub.composition_ok and sub.composition == (3, 3, 3)


# -- pairwise distance oracle ---------------------------------------------------------


def test_pairwise_matches_naive_double_loop():
    import random

    rng = random.Random(17)
    for _ in range(20):
        words = [[rng.randrange(5) for _ in range(9)] for _ in range(8)]
        if len({tuple(w) for w in words}) < len(words):
            continue
        assert pairwise_min_distance(words) == naive_pairwise_min(words)


def test_pairwise_detects_duplicates():
    with pytest.raises(DuplicateWords):
        pairwise_min_distance([[0, 1, 2], [1, 1, 1], [0, 1, 2]])


def test_pairwise_needs_two_words():
    with pytest.raises(ValueError):
        pairwise_min_distance([[0, 1, 2]])


def test_pairwise_detects_duplicate_empty_words():
    # two words of length 0 are equal, and that is found before any symbol is read
    with pytest.raises(DuplicateWords):
        pairwise_min_distance(np.zeros((2, 0), dtype=np.int8))


def test_pairwise_oracle_drops_a_map_with_one_image_outside_the_words():
    # scaling by 2 swaps 11 and 22; the shift sends 11 to 22 but 22 to 00
    words = [[1, 1], [2, 2]]
    maps = named_maps(words, [(1, 1, 3), (2, 0, 3)])
    assert [table for table, _, _ in _kept_maps(np.array(words, np.int8), maps)] == [[0, 2, 1]]
    assert pairwise_min_distance(words, maps) == 2


def test_pairwise_oracle_with_the_shift_alone():
    import random

    rng = random.Random(5)
    bases = [[rng.randrange(5) for _ in range(7)] for _ in range(4)]
    words = [[(s + c) % 5 for s in base] for base in bases for c in range(5)]
    rows = {tuple(w) for w in words}
    assert len(rows) == len(words)
    assert all(tuple((s + 1) % 5 for s in w) in rows for w in words)  # closed under the shift
    assert any(tuple(2 * s % 5 for s in w) not in rows for w in words)  # but not under scaling
    maps = named_maps(words, [(1, 1, 5), (2, 0, 5)])
    kept = _kept_maps(np.array(words, np.int8), maps)
    assert [table for table, _, _ in kept] == [[4, 0, 1, 2, 3]]  # the shift's inverse alone
    assert pairwise_min_distance(words, maps) == naive_pairwise_min(words)


def test_pairwise_oracle_drops_maps_that_do_not_keep_the_words():
    p, m, sub = 5, 3, first_subcode(5, 3, 1)
    named = _symmetries(sub.source, sub.rows)  # scaling, the shift, Frobenius and sigma_lam
    sigma = named[-2][1]
    words = sub.words.copy()
    rows = words.tolist()
    index = {tuple(w): i for i, w in enumerate(rows)}
    frobenius = [np.arange(words.shape[1])]  # sigma^b for b < m
    while len(frobenius) < m:
        frobenius.append(sigma[frobenius[-1]])
    # the least index in each orbit of w -> 2^a * w[sigma^b] + c (2 is a primitive root mod 5)
    maps = [(pow(2, a, p), c, f) for a in range(p - 1) for c in range(p) for f in frobenius]
    orbit_min = [
        min(index[tuple((lam * s + c) % p for s in np.take(w, f))] for lam, c, f in maps)
        for w in rows
    ]
    reps = [i for i, r in enumerate(orbit_min) if i == r]
    # move the last word, no representative, one coordinate closer to a nearest
    # neighbour, to a symbol no representative has there: the set stays
    # duplicate-free but is no longer closed under any of the three maps
    last = len(words) - 1
    assert last not in reps
    dist = np.count_nonzero(words != words[last], axis=1)
    k, v = next(
        (k, v)
        for k in range(words.shape[1])
        for v in range(p)
        if v != words[last, k]
        and v not in words[reps, k]
        and np.any((dist == sub.d) & (words[:, k] == v))
    )
    words[last, k] = v
    closed = {tuple(w) for w in words.tolist()}
    for image in (np.take(words, sigma, axis=1), (words + 1) % p, 2 * words % p):
        assert not {tuple(w) for w in image.tolist()} <= closed
    # comparing only the old representatives would miss the new closest pair
    for r in reps:
        others = np.delete(np.count_nonzero(words != words[r], axis=1), r)
        assert others.min() == sub.d
    # the maps named for the old words, and the same maps with P found for the new ones
    for maps in (named, named_maps(words, [(2, 0, p), (1, 1, p)], [sigma])):
        assert _kept_maps(words, maps) == []
        assert pairwise_min_distance(words, maps) == naive_pairwise_min(words.tolist()) == sub.d - 1


def test_pairwise_oracle_uses_a_coordinate_map_only_if_it_is_a_permutation():
    # sigma sends every word to a word, but words 3 and 4 both to word 2, so it
    # does not keep distances: d(w3, w4) = 1 while their images coincide
    words = [[0, 0, 0, 1], [1, 1, 0, 0], [1, 1, 2, 2], [2, 1, 2, 1], [2, 2, 2, 1]]
    sigma = [3, 3, 2, 0]
    rows = [tuple(w) for w in words]
    assert [rows.index(tuple(w[j] for j in sigma)) for w in words] == [1, 0, 4, 2, 2]
    maps, w = named_maps(words, sigmas=[sigma]), np.array(words, np.int8)
    assert maps[0][2].tolist() == [1, 0, 4, 2, 2] and _kept_maps(w, maps) == []
    # nor a P past the last word, a symbol map that is no bijection, or one of too few symbols
    # (s -> s mod 2 fixes every word, but the words use 2)
    identity = np.arange(len(words))
    assert _kept_maps(w, [(None, np.arange(4), identity + 1), ((0, 1, 3), None, identity)]) == []
    assert _kept_maps(w, [((1, 0, 2), None, identity)]) == []
    assert pairwise_min_distance(words, maps) == naive_pairwise_min(words) == 1
    # s -> 3s mod 6 fixes every word over {0, 3} but is no bijection of the six symbols, and
    # symbol 3 would take its hits from symbol 1's through the inverse of no permutation
    halves, merge = 3 * np.array([[0, 0, 1], [0, 1, 1], [1, 1, 1]], np.int8), (3, 0, 6)
    assert _kept_maps(halves, [(merge, None, np.arange(3))]) == []
    assert pairwise_min_distance(halves, [(merge, None, np.arange(3))]) == 1


@pytest.mark.parametrize("p,m", SWEEP_POINTS)
def test_frobenius_permutation_matches_repeated_products(sweep_fields, p, m):
    field = sweep_fields[p, m]
    sets = [build_defining_set_D(field, alpha) for alpha in range(p)]
    if m % 2 == 0 and (p, m) != (5, 2):  # E is empty over GF(5^2)
        sets.append(build_defining_set_E(field))
    rng = np.random.default_rng(p * 10 + m)
    for ds in sets:
        sigma = _symmetries(build_trace_code(ds), np.arange(1, 2))[-2][1]  # the Frobenius map
        # every position up to 7^4, a seeded sample at 5^5 and 7^5: the scalar route is slow
        positions = np.arange(len(ds)) if field.q <= 7**4 else rng.choice(len(ds), 200)
        for j in positions:
            frobenius = (field.element_at(int(ds.indices[j])) ** p).index
            assert ds.indices[sigma[j]] == frobenius
        # on D(0) and E, one column per orbit, and d^p = mu * d_r for the column r it names
        columns, maps = _fold(build_trace_code(ds), _symmetries(build_trace_code(ds), np.arange(1, 2)))
        assert len(columns) * (p - 1 if ds.alpha is None or ds.alpha == 0 else 1) == len(ds)
        if len(columns) < len(ds):
            (mu, _, _), folded, _ = maps[-1]
            for k in np.arange(len(columns)) if field.q <= 7**4 else rng.choice(len(columns), 50):
                d, r = (field.element_at(int(ds.indices[columns[j]])) for j in (k, folded[k]))
                assert d**p == field.constant(int(mu[k])) * r


def test_pairwise_oracle_drops_a_coordinate_permutation_that_moves_a_word_out():
    sub = first_subcode(3, 3, 0)
    scale, (_, sigma, perm), _ = _symmetries(sub.source, sub.rows)  # sigma_lam left out
    for maps, kept in [([scale, (None, sigma, perm)], 1), ([scale, (None, sigma[::-1], perm)], 0)]:
        assert sum(table is None for table, _, _ in _kept_maps(sub.words, maps)) == kept
        assert pairwise_min_distance(sub.words, maps) == naive_pairwise_min(sub.words.tolist())


@pytest.mark.parametrize(
    "alpha,shift,symbol_maps",
    [
        (0, False, 1),  # scaling alone: symbols 1..p-1 share one hit matrix
        (2, True, 2),  # scaling and the shift: one hit matrix serves all p symbols
        (None, False, 0),  # no map: every symbol has its own hit matrix
    ],
)
def test_pairwise_oracle_kernel_per_symbol_orbit(alpha, shift, symbol_maps):
    p = 5
    if alpha is None:
        words = np.unique(np.random.default_rng(3).integers(0, p, (40, 12)), axis=0)
        maps = named_maps(words, [(1, 1, p), (2, 0, p)])  # checked, and dropped
    else:
        sub = first_subcode(p, 3, alpha)
        words, maps = sub.words, _symmetries(sub.source, sub.rows)
    assert words.max() + 1 == p
    kept = _kept_maps(words.astype(np.int8), maps)
    tables = [table for table, _, _ in kept if table is not None]
    assert (len(tables), [(s - 1) % p for s in range(p)] in tables) == (symbol_maps, shift)
    assert pairwise_min_distance(words, maps) == naive_pairwise_min(words.tolist())


def test_pairwise_oracle_traced_peak_stays_below_four_bytes_per_symbol():
    # the GF(7^5) alpha = 0 subcode (M = n = 2400) with its scaling and Frobenius maps, so no
    # column folds; maps are checked a row block at a time and hits are made 256 columns at
    # a time, so the peak reads 1.3 bytes a symbol
    sub = first_subcode(7, 5, 0)
    words, maps = sub.words, _symmetries(sub.source, sub.rows)[:-1]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pairwise_min_distance(words, maps)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 4 * words.size


@pytest.mark.parametrize("p,m,construction,alpha", [(7, 5, "first", 0), (7, 4, "second-S", None)])
def test_pairwise_oracle_traced_peak_with_both_sweep_maps(p, m, construction, alpha):
    # 7^5 alpha = 0 with the scaling map and sigma_lam as well, on all 2400 columns; 7^4
    # second-S (M = 2100, n = 300) has 92 representatives and one orbit of the 6 nonzero
    # symbols, whose products the oracle once held all together as a 12.6 MB block
    sub = build_construction(make_field(p, m), construction, alpha)[1]
    words, maps = sub.words, _symmetries(sub.source, sub.rows)
    kept = _kept_maps(words.astype(np.int8), maps)
    reps = (ccc._least_in_orbit(sub.M, [perm for *_, perm in kept]) == np.arange(sub.M)).sum()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        distance = pairwise_min_distance(words, maps)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert distance == sub.d_ambient
    # the words, the M x 256 hit block and the M x |R| float32 arrays, with room to spare
    assert peak < 1.5 * (sub.M * sub.n + 4 * sub.M * (2 * reps + min(sub.n, 256)))
    if construction == "first":  # n = 2400: the hit block is small beside the words
        assert peak < 4 * words.size
        # extraction builds the words on 400 columns, one per orbit of GF(7)^*
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert ccc._extract(sub.source, construction).d_pairwise == sub.d_ambient
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * sub.M * sub.n


def orbit_counts(monkeypatch):
    """(size, orbit count) of each _least_in_orbit call: the fold's columns, the oracle's rows."""
    calls, least = [], ccc._least_in_orbit

    def counted(size, perms):
        label = least(size, perms)
        calls.append((size, int((label == np.arange(size)).sum())))
        return label

    monkeypatch.setattr(ccc, "_least_in_orbit", counted)
    return calls


def built_tables(monkeypatch):
    """(rows, columns) of each word table that Field.trace_of_multiples builds."""
    built, trace = [], Field.trace_of_multiples
    monkeypatch.setattr(Field, "trace_of_multiples", lambda f, a, x: built.append((len(a), len(x))) or trace(f, a, x))
    return built


@pytest.mark.parametrize(
    "p,m,construction",
    [
        (3, 4, "first"),
        (3, 4, "second-S"),
        (3, 4, "second-complement"),
        (5, 4, "first"),
        (5, 4, "second-S"),
        (5, 4, "second-complement"),
        (5, 3, "first"),
    ],
)
def test_pairwise_oracle_with_both_sweep_maps_matches_naive(monkeypatch, p, m, construction):
    # D(0) and E are closed under GF(p)^*: column sigma_lam(k) is lam times column k, so the
    # words on one column per orbit, with Frobenius as a monomial map, give the distance / (p - 1)
    alpha = 0 if construction == "first" else None
    sub = build_construction(make_field(p, m), construction, alpha)[1]
    calls = orbit_counts(monkeypatch)
    columns, maps = _fold(sub.source, _symmetries(sub.source, sub.rows))
    assert len(_kept_maps(sub.words[:, columns], maps)) == 2  # scaling and Frobenius
    distance = (p - 1) * pairwise_min_distance(sub.words[:, columns], maps)
    assert distance == naive_pairwise_min(sub.words.tolist())
    assert calls[0] == (sub.n, len(columns)) == (sub.n, sub.n // (p - 1))


def test_pairwise_oracle_folds_nothing_with_a_broken_scaling_map(monkeypatch):
    # two entries of sigma_lam swapped: still a permutation, but its images are no words
    p, sub = 5, first_subcode(5, 3, 0)
    scale, (_, frobenius, perm_f), (_, scaling, perm) = _symmetries(sub.source, sub.rows)
    broken = scaling.copy()
    broken[[0, 1]] = scaling[[1, 0]]
    assert np.array_equal(np.sort(broken), np.arange(sub.n))
    maps = [scale, (None, frobenius, perm_f), (None, broken, perm)]
    kept = _kept_maps(sub.words, maps)
    assert [sigma is frobenius for _, sigma, _ in kept if sigma is not None] == [True]
    columns, unfolded = _fold(sub.source, maps)
    assert np.array_equal(columns, np.arange(sub.n)) and unfolded is maps
    distance = pairwise_min_distance(sub.words[:, columns], unfolded)
    assert distance == naive_pairwise_min(sub.words.tolist()) == sub.d_ambient


@pytest.mark.parametrize("broken", ["sigma_lam", "basis word", "orbits of (p - 1)/2"])
def test_a_broken_fold_proof_builds_the_words_on_every_column(monkeypatch, broken):
    # sigma_lam with two entries swapped, one symbol of one basis word x^i changed, or sigma_lam
    # and scaling squared, whose columns are a^2 times their preimages in orbits of 2 columns:
    # the proof fails, so extraction builds all n columns and checks the unfolded maps on them
    p, m, code = 5, 3, build_trace_code(build_defining_set_D(make_field(5, 3), 0))
    named, trace = _symmetries, Field.trace_of_multiples

    def swapped(code, rows):
        *maps, (_, sigma, perm) = named(code, rows)
        return maps + [(None, sigma[np.r_[1, 0, 2 : len(sigma)]], perm)]

    def squared(code, rows):
        ((a, b, p), _, scale), *maps, (_, sigma, perm) = named(code, rows)
        return [((a * a % p, b, p), None, scale[scale])] + maps + [(None, sigma[sigma], perm[perm])]

    def changed(field, a, x):
        table = trace(field, a, x)
        if list(a) == list(field._index_weights):
            table[1, 0] = (table[1, 0] + 1) % field.p
        return table

    if broken == "basis word":
        monkeypatch.setattr(Field, "trace_of_multiples", changed)
    else:
        monkeypatch.setattr(ccc, "_symmetries", swapped if broken == "sigma_lam" else squared)
    built = built_tables(monkeypatch)
    sub = ccc._extract(code, "first")
    assert built == [(m, sub.n), (sub.M, sub.n)]  # the basis words, then every column
    assert sub.distance_route == "pairwise"
    assert sub.d_pairwise == naive_pairwise_min(sub.words.tolist()) == sub.d_ambient


def test_a_monomial_frobenius_map_with_one_multiplier_off_is_dropped():
    p, sub = 7, build_construction(make_field(7, 3), "first", 0)[1]
    columns, (scale, ((mu, _, _), sigma, perm)) = _fold(sub.source, _symmetries(sub.source, sub.rows))
    words, unit, zero, clash = sub.words[:, columns], mu.copy(), mu.copy(), sigma.copy()
    unit[0], zero[0], clash[0] = mu[0] % (p - 1) + 1, p, sigma[1]  # another unit, 0 mod p
    assert len(_kept_maps(words, [scale, ((mu, 0, p), sigma, perm)])) == 2
    for broken in [((unit, 0, p), sigma, perm), ((zero, 0, p), sigma, perm), ((mu, 0, p), clash, perm)]:
        assert _kept_maps(words, [scale, broken]) == [_kept_maps(words, [scale])[0]]
        distance = (p - 1) * pairwise_min_distance(words, [scale, broken])
        assert distance == naive_pairwise_min(sub.words.tolist()) == sub.d_ambient


@pytest.mark.parametrize("p,m", SWEEP_POINTS)
def test_sweep_folds_columns_on_D0_and_E_and_never_on_D_alpha(sweep_fields, monkeypatch, p, m):
    # lam*D(alpha) = D(lam*alpha): for alpha != 0 sigma_lam is no permutation, so nothing folds
    # and no basis word is built; D(0) and E fold into orbits of p - 1 columns
    field = sweep_fields[p, m]
    calls, built = orbit_counts(monkeypatch), built_tables(monkeypatch)
    for construction in CONSTRUCTIONS:
        if CONSTRUCTIONS[construction].defining_set == "E" and (m % 2 or p**m == 25):
            continue  # E needs an even degree and is empty over GF(5^2)
        for alpha in range(p) if construction == "first" else [None]:
            calls.clear(), built.clear()
            sub = build_construction(field, construction, alpha)[1]
            sigma_lam = _symmetries(sub.source, sub.rows)[-1][1]
            assert np.array_equal(np.sort(sigma_lam), np.arange(sub.n)) == (not alpha)
            if sub.distance_route == "pairwise":
                folded = sub.n if alpha else sub.n // (p - 1)
                assert calls[:-1] == ([] if alpha else [(sub.n, folded)])
                assert built == ([] if alpha else [(m, sub.n)]) + [(sub.M, folded)]
            else:  # only 7^5 alpha != 0 is over the cap
                assert (p, m) == (7, 5) and alpha and calls == [] == built


def test_pairwise_oracle_exact_on_words_of_one_nonzero_symbol():
    # {s * e_i}, n = 40: any two words differ in at most two coordinates, and scaling and the
    # cycle of the coordinates both keep the set; both are kept, and what is kept was checked
    p, n = 5, 40
    words = np.concatenate([s * np.eye(n, dtype=np.int8) for s in range(1, p)])
    cycle = np.roll(np.arange(n), 1)
    maps = named_maps(words, [(2, 0, p)], [cycle])
    kept = _kept_maps(words, maps)
    assert len(kept) == 2
    for table, sigma, perm in kept:
        if table is None:
            assert sigma is cycle
            assert np.array_equal(np.take(words, cycle, axis=1), words[perm])
        else:
            assert np.array_equal(np.take(table, words[perm]), words)
    assert pairwise_min_distance(words, maps) == naive_pairwise_min(words.tolist()) == 1


def test_pairwise_oracle_drops_a_map_that_fails_only_in_the_last_row_block():
    # for every transposition tau = (a b): the first ROW_BLOCK words have w[a] = w[b],
    # so tau fixes them; the last three have w[b] = w[a] + 1, so their images are no words,
    # and only the check on the last block can drop tau with P the identity
    p, n, block = 5, 40, ROW_BLOCK
    rng = np.random.default_rng(11)
    first, last = rng.integers(0, p, (block, n)), rng.integers(0, p, (3, n))
    for a in range(n):
        for b in range(a + 1, n):
            tau = np.arange(n)
            tau[[a, b]] = b, a
            fixed = first.copy()
            fixed[:, b] = fixed[:, a]
            moved = last.copy()
            moved[:, b] = (moved[:, a] + 1) % p
            assert len(_kept_maps(fixed.astype(np.int8), [(None, tau, np.arange(block))])) == 1
            both = np.concatenate([fixed, moved]).astype(np.int8)
            assert _kept_maps(both, [(None, tau, np.arange(block + 3))]) == []


def test_pairwise_detects_a_duplicate_of_a_word_that_no_orbit_starts_at():
    # GF(5^3) alpha = 0 is closed under scaling; copies of the scaling orbit of a word that is
    # not the least index of its orbit keep the set closed, and are found all the same
    p, words = 5, first_subcode(5, 3, 0).words
    rows = words.tolist()
    index = {tuple(w): i for i, w in enumerate(rows)}
    orbit_min = [min(index[tuple(s * x % p for x in w)] for s in range(1, p)) for w in rows]
    late = next(i for i, least in enumerate(orbit_min) if least < i)
    scaled = [index[tuple(2 * x % p for x in w)] for w in rows]  # 2 is a primitive root mod 5
    orbit = [late]
    while scaled[orbit[-1]] != late:
        orbit.append(scaled[orbit[-1]])
    perm = scaled + [len(rows) + (k + 1) % len(orbit) for k in range(len(orbit))]
    copies, maps = np.concatenate([words, words[orbit]]), [((2, 0, p), None, np.array(perm))]
    assert len(_kept_maps(copies, maps)) == 1
    with pytest.raises(DuplicateWords):
        pairwise_min_distance(copies, maps)


@pytest.mark.parametrize("n", [1, ccc.PAIRWISE_COLUMN_BLOCK, ccc.PAIRWISE_COLUMN_BLOCK + 1])
def test_pairwise_oracle_across_column_blocks(n):
    # closed under scaling and the shift; the nearest pair differs in coordinate 0 alone,
    # so a coordinate block counted wrongly changes the distance
    p, rng = 3, np.random.default_rng(n)
    bases = rng.integers(0, p, (3, n))
    bases[1] = bases[0]
    bases[1, 0] = (bases[0, 0] + 1) % p
    orbits = [(s * b + c) % p for b in bases for s in range(1, p) for c in range(p)]
    words = np.unique(orbits, axis=0)
    maps = named_maps(words, [(1, 1, p), (2, 0, p)])
    assert len(_kept_maps(words.astype(np.int8), maps)) == 2
    assert pairwise_min_distance(words, maps) == naive_pairwise_min(words.tolist()) == 1


# -- first construction -----------------------------------------------------------------


def test_first_subcode_333_alpha0():
    sub = first_subcode(3, 3, 0)
    assert (sub.n, sub.M, sub.d) == (8, 8, 6)
    assert sub.composition == (2, 3, 3)
    assert sub.index_count == 24  # p-to-1 fan-in onto 8 distinct words
    assert sub.d_pairwise == sub.d_ambient == 6


def test_first_subcode_333_alpha1():
    sub = first_subcode(3, 3, 1)
    assert (sub.n, sub.M, sub.d) == (9, 24, 6)
    assert sub.composition == (3, 3, 3)
    assert sub.index_count == 24 == sub.M


def test_first_subcode_52_alpha0():
    sub = first_subcode(5, 2, 0)
    assert (sub.n, sub.M, sub.d) == (4, 4, 4)
    assert sub.composition == (0, 1, 1, 1, 1)


def test_first_subcode_words_all_share_composition():
    sub = first_subcode(3, 3, 1)
    for row in sub.words:
        assert tuple(np.bincount(row, minlength=3)) == sub.composition


def test_first_subcode_requires_D_code(f9):
    code = build_trace_code(build_defining_set_E(f9))
    with pytest.raises(ValueError):
        extract_subcode_first(code)


def test_pairwise_cap_falls_back_to_ambient(monkeypatch):
    # the cap is the constant the oracle reads, and the sweep reports that constant
    assert SweepSpec().to_json_dict()["pairwise_cap"] == PAIRWISE_ORACLE_CAP
    code = build_trace_code(build_defining_set_D(make_field(3, 3), 1))
    assert extract_subcode_first(code).d_pairwise is not None
    monkeypatch.setattr(ccc, "PAIRWISE_ORACLE_CAP", 5)
    sub = extract_subcode_first(code)
    assert sub.d_pairwise is None and sub.distance_route == "ambient-only"
    assert sub.d == sub.d_ambient == minimum_distance(code)


# -- a distance transferred through the scaling isometry ----------------------------------------


def d_code(field, alpha):
    return build_trace_code(build_defining_set_D(field, alpha))


TRANSFER_FIELDS = [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (5, 4), (7, 2), (7, 3)]


@pytest.mark.parametrize("p,m", TRANSFER_FIELDS)
def test_transferred_distance_equals_the_oracles(p, m):
    field, reference = make_field(p, m), PairwiseReference()
    first = build_construction(field, "first", 1, reference=reference)[1]
    assert first.distance_route == "pairwise" and reference.sub.d_pairwise == first.d_pairwise
    for alpha in range(2, p):
        sub = build_construction(field, "first", alpha, reference=reference)[1]
        oracle = extract_subcode_first(d_code(field, alpha))
        assert (sub.distance_route, oracle.distance_route) == ("transferred", "pairwise")
        assert sub.d_pairwise == oracle.d_pairwise == first.d_pairwise
        assert reference.sub.source.defining_set.alpha == 1  # the first completed one stays


def test_alpha_zero_and_the_second_family_neither_fill_nor_read_a_reference():
    field, reference = make_field(3, 4), PairwiseReference()
    for construction, alpha in [("first", 0), ("second-S", None)]:
        sub = build_construction(field, construction, alpha, reference=reference)[1]
        assert sub.distance_route == "pairwise"
        assert reference.sub is None
    reference.sub = replace(build_construction(field, "first", 1)[1], d_pairwise=999)
    zero = build_construction(field, "first", 0, reference=reference)[1]
    assert zero.distance_route == "pairwise" and zero.d_pairwise == 18


def _without_the_last_index(field):
    keep = ccc._outside_prime_field(field)
    keep[np.flatnonzero(keep)[-1]] = False  # so c*I = I fails for every c != 1
    return keep


@pytest.mark.parametrize("broken", ["reference-set", "index-closure"])
def test_a_broken_check_drops_the_transfer(monkeypatch, broken):
    field, reference = make_field(5, 3), PairwiseReference()
    build_construction(field, "first", 1, reference=reference)
    sub = build_construction(field, "first", 2, reference=reference)[1]
    assert sub.distance_route == "transferred"
    indices = reference.sub.source.defining_set.indices.copy()
    if broken == "reference-set":  # one element of D(1) swapped for one outside it
        indices[0] = np.setdiff1d(np.arange(1, field.q), indices)[0]
        reference.sub.source.defining_set = DefiningSet(field, "D-alpha", 1, np.sort(indices))
    else:
        entry = CONSTRUCTIONS["first"]._replace(index_mask=_without_the_last_index)
        monkeypatch.setitem(CONSTRUCTIONS, "first", entry)
    reference.sub.d_pairwise = 999  # would show if the transfer still ran
    if broken == "index-closure":  # not closed under GF(p)^*: refused before any distance
        with pytest.raises(IdentityViolation, match=r"not closed under GF\(p\)\^\*"):
            build_construction(field, "first", 2, reference=reference)
    else:
        code, sub = build_construction(field, "first", 2, reference=reference)
        assert sub.distance_route == "pairwise"
        assert sub.d_pairwise == extract_subcode_first(code).d_pairwise == sub.d_ambient


def test_a_reference_of_another_field_is_not_read():
    reference = PairwiseReference()  # indices of GF(81) lie past the end of GF(27)'s tables
    build_construction(make_field(3, 4), "first", 1, reference=reference)
    sub = build_construction(make_field(3, 3), "first", 2, reference=reference)[1]
    assert sub.distance_route == "pairwise"


def counted_correlations(monkeypatch):
    made = []
    count = codes.trace_count_table

    def counting(ds):
        made.append((ds.kind, ds.alpha))
        return count(ds)

    monkeypatch.setattr(codes, "trace_count_table", counting)
    return made


@pytest.mark.parametrize("p,m", [(3, 4), (5, 3), (7, 3)])
def test_a_census_gathered_from_the_reference_equals_its_own_correlation(monkeypatch, p, m):
    field, reference = make_field(p, m), PairwiseReference()
    made = counted_correlations(monkeypatch)
    codes_by_alpha = {alpha: build_construction(field, "first", alpha, reference=reference)[0]
                      for alpha in range(1, p)}  # fmt: skip
    assert made == [("D-alpha", 1)]  # D(alpha) = alpha*D(1): one correlation per field
    monkeypatch.undo()
    for alpha, code in codes_by_alpha.items():
        own = codes.trace_count_table(build_defining_set_D(field, alpha))
        assert np.array_equal(code.counts, own)
        assert code.counts.dtype == own.dtype


def test_a_reference_set_that_fails_the_identity_lends_no_census(monkeypatch):
    field, reference = make_field(5, 3), PairwiseReference()
    build_construction(field, "first", 1, reference=reference)
    dropped = reference.sub.source.defining_set.indices[:-1]  # one index dropped
    reference.sub.source.defining_set = DefiningSet(field, "D-alpha", 1, dropped)
    made = counted_correlations(monkeypatch)
    code, sub = build_construction(field, "first", 2, reference=reference)
    assert made == [("D-alpha", 2)]
    assert sub.distance_route == "pairwise"
    assert np.array_equal(code.counts, d_code(field, 2).counts)


# -- second construction --------------------------------------------------------------------


def test_second_subcode_32_S(f9):
    sub = second_subcode(3, 2, "S")
    assert (sub.n, sub.M, sub.d) == (4, 4, 2)
    assert sub.composition == (0, 2, 2)
    assert sub.tau == -1


def test_second_subcode_32_complement():
    sub = second_subcode(3, 2, "complement")
    assert (sub.n, sub.M, sub.d) == (4, 4, 2)
    assert sub.composition == (2, 1, 1)


def test_second_subcode_34():
    s = second_subcode(3, 4, "S")
    assert (s.n, s.M, s.d) == (20, 60, 12)
    assert s.composition == (8, 6, 6)
    assert s.tau == 1
    c = second_subcode(3, 4, "complement")
    assert (c.n, c.M, c.d) == (20, 20, 12)
    assert c.composition == (2, 9, 9)


def test_second_subcode_72_S():
    sub = second_subcode(7, 2, "S")
    assert (sub.n, sub.M, sub.d) == (12, 36, 6)
    assert sub.composition == (0, 2, 2, 2, 2, 2, 2)


def test_second_index_partition():
    s = second_subcode(3, 4, "S")
    c = second_subcode(3, 4, "complement")
    assert s.index_count + c.index_count + 1 == 81


def test_second_subcode_rejects_bad_inputs(f27, f9):
    with pytest.raises(OddDegree):
        build_defining_set_E(f27)
    code = build_trace_code(build_defining_set_E(f9))
    with pytest.raises(ValueError):
        extract_subcode_second(code, "both")
    d_code = build_trace_code(build_defining_set_D(f9, 1))
    with pytest.raises(ValueError):
        extract_subcode_second(d_code, "S")


# -- extraction against a naive reference --------------------------------------------------


def naive_index_set(field, construction):
    """Index elements of a subcode by scalar arithmetic, in canonical order."""
    if construction == "first":
        keep = lambda a: any(a.coeffs[1:])  # outside the prime subfield
    elif construction == "second-S":
        keep = lambda a: (a * a).trace() != 0
    else:
        keep = lambda a: not a.is_zero() and (a * a).trace() == 0
    return [a for a in enumerate_field(field) if keep(a)]


EXTRACTION_CASES = [
    (p, m, construction, alpha)
    for p, m in [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3)]
    for construction, alpha in [("first", a) for a in range(p)]
    # the second family needs even m, and E is empty over GF(5^2)
    + ([("second-S", None), ("second-complement", None)] if m % 2 == 0 and p**m != 25 else [])
]


@pytest.mark.parametrize("p,m,construction,alpha", EXTRACTION_CASES)
def test_extraction_matches_naive_dedupe(p, m, construction, alpha):
    field = make_field(p, m)
    code, sub = build_construction(field, construction, alpha)
    index = naive_index_set(field, construction)
    # the index set's codewords deduplicated by tuple, in row order
    reference = list(dict.fromkeys(tuple(code.words([a.index])[0].tolist()) for a in index))
    assert [tuple(word) for word in sub.words.tolist()] == reference
    assert sub.index_count == len(index)


@pytest.mark.parametrize("p,m,construction,alpha", EXTRACTION_CASES)
def test_pairwise_orbit_oracle_matches_naive(p, m, construction, alpha):
    sub = build_construction(make_field(p, m), construction, alpha)[1]
    words = sub.words.tolist()
    # the premise of the orbit reduction: the word set is closed under scaling,
    # and for D(alpha != 0) also under adding the all-ones word
    closed = {tuple(w) for w in words}
    lam = next(g for g in range(2, p) if len({pow(g, k, p) for k in range(1, p)}) == p - 1)
    assert {tuple(lam * s % p for s in w) for w in words} == closed
    if alpha:
        assert {tuple((s + 1) % p for s in w) for w in words} == closed
    assert sub.words.max() + 1 == p  # the words use no symbol past p - 1
    # and under the Frobenius map: sigma(j) is the position of d_j^p, by scalar arithmetic
    field, indices = sub.source.field, sub.source.defining_set.indices
    maps = _symmetries(sub.source, sub.rows)
    sigma = maps[-2][1]  # the Frobenius map
    assert np.array_equal(np.sort(sigma), np.arange(sub.n))
    assert indices[sigma].tolist() == [(field.element_at(int(d)) ** p).index for d in indices]
    assert {tuple(w) for w in np.take(sub.words, sigma, axis=1).tolist()} == closed
    distance = naive_pairwise_min(words)
    assert pairwise_min_distance(sub.words) == distance
    assert pairwise_min_distance(sub.words, maps[:-1]) == distance
    assert pairwise_min_distance(sub.words, maps) == distance


# -- distance oracle agrees with the ambient shortcut -----------------------------------------


@pytest.mark.parametrize(
    "p,m,alpha", [(3, 2, 0), (3, 2, 1), (3, 3, 0), (3, 3, 2), (5, 2, 0), (5, 2, 3)]
)
def test_subcode_distance_equals_ambient_first(p, m, alpha):
    sub = first_subcode(p, m, alpha)
    assert sub.d_pairwise == sub.d_ambient


@pytest.mark.parametrize("p,m,which", [(3, 2, "S"), (3, 2, "complement"), (7, 2, "S")])
def test_subcode_distance_equals_ambient_second(p, m, which):
    sub = second_subcode(p, m, which)
    assert sub.d_pairwise == sub.d_ambient


# -- closed-form parameter predictions ----------------------------------------------------------


def test_predicted_first_frozen():
    assert tuple(predicted_ccc_first(3, 3, 0)) == (8, 8, 6, (2, 3, 3))
    assert tuple(predicted_ccc_first(3, 3, 1)) == (9, 24, 6, (3, 3, 3))
    assert tuple(predicted_ccc_first(3, 2, 0)) == (2, 2, 2, (0, 1, 1))


def test_predicted_second_frozen():
    assert tuple(predicted_ccc_second(3, 2, "S")) == (4, 4, 2, (0, 2, 2))
    assert tuple(predicted_ccc_second(3, 2, "complement")) == (4, 4, 2, (2, 1, 1))
    assert tuple(predicted_ccc_second(3, 4, "S")) == (20, 60, 12, (8, 6, 6))
    assert tuple(predicted_ccc_second(3, 4, "complement")) == (20, 20, 12, (2, 9, 9))


def test_predicted_errors():
    with pytest.raises(UnsupportedDegree):
        predicted_ccc_first(3, 1, 0)
    with pytest.raises(OddDegree):
        predicted_ccc_second(3, 3, "S")
    with pytest.raises(DegenerateSet):
        predicted_ccc_second(5, 2, "S")
    with pytest.raises(ValueError):
        predicted_ccc_second(3, 2, "neither")


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2)])
def test_extraction_matches_prediction_first(p, m):
    for alpha in range(p):
        sub = first_subcode(p, m, alpha)
        assert sub.params == predicted_ccc_first(p, m, alpha)


@pytest.mark.parametrize("p,m", [(3, 2), (3, 4), (7, 2)])
def test_extraction_matches_prediction_second(p, m):
    for which in ("S", "complement"):
        sub = second_subcode(p, m, which)
        assert sub.params == predicted_ccc_second(p, m, which)


def test_predicted_composition_sums_to_length():
    for p, m in [(3, 2), (3, 4), (5, 3), (7, 2), (7, 4)]:
        for alpha in range(p):
            pred = predicted_ccc_first(p, m, alpha)
            assert sum(pred.omega) == pred.n
        if m % 2 == 0:
            for which in ("S", "complement"):
                try:
                    pred = predicted_ccc_second(p, m, which)
                except DegenerateSet:
                    continue
                assert sum(pred.omega) == pred.n


# -- bound evaluation --------------------------------------------------------------------------


def test_lfvc_optimal_case():
    report = lfvc_evaluate(8, 8, 6, (2, 3, 3))
    assert report.denominator == 6
    assert report.bound == Fraction(8)
    assert report.verdict == "optimal"


def test_lfvc_zero_denominator():
    report = lfvc_evaluate(9, 24, 6, (3, 3, 3))
    assert report.denominator == 0
    assert report.bound is None
    assert report.verdict == "bound-inapplicable"


def test_lfvc_negative_denominator():
    report = lfvc_evaluate(4, 4, 2, (2, 1, 1))
    assert report.denominator == -2
    assert report.verdict == "bound-inapplicable"


def test_lfvc_zero_denominator_S_32():
    assert lfvc_evaluate(4, 4, 2, (0, 2, 2)).denominator == 0


def test_lfvc_not_optimal_case():
    # the complement family at m=4 has a positive denominator but M below the bound
    report = lfvc_evaluate(20, 20, 12, (2, 9, 9))
    assert report.denominator == 6
    assert report.bound == Fraction(40)
    assert report.verdict == "not-optimal"


def test_lfvc_rejects_bad_composition():
    with pytest.raises(CompositionLengthMismatch):
        lfvc_evaluate(8, 8, 6, (2, 3, 4))
    with pytest.raises(ValueError):
        lfvc_evaluate(0, 8, 6, (0,))


def test_lfvc_exactness_uses_integers():
    report = lfvc_evaluate(12, 36, 6, (0, 2, 2, 2, 2, 2, 2))
    assert report.denominator == 12 * 6 - 144 + 24 == -48


def second_family_denominator(p, m, which):
    """The LFVC denominator of a second-family subcode, factored in h = p^(m/2-1) and tau."""
    h, tau = p ** (m // 2 - 1), quadratic_trace_sign(p, m)
    return {
        ("complement", 1): h * (p - 1) * (h * p - h * h + 1),
        ("complement", -1): -h * h * (p - 1) * (h * (p - 1) - 1),
        ("S", 1): -h * (p - 1) * (h - 1) ** 2,
        ("S", -1): -h * (h + 1) * (p - 1) * (h * (p - 1) - 2),
    }[which, tau]


def test_second_family_denominators_follow_their_factored_forms():
    # the README's theorem: every second-family denominator is <= 0 except the complement's
    # at m = 4, p*(p-1); it is 0 only on S at (3, 2)
    primes = [p for p in range(3, 1000, 2) if all(p % r for r in range(3, int(p**0.5) + 1, 2))]
    denominators = {}
    for p in primes:
        for m in range(2, 21, 2):
            for which in ("S", "complement"):
                try:
                    params = predicted_ccc_second(p, m, which)
                except DegenerateSet:  # E is empty at m = 2 when p = 1 mod 4
                    continue
                denominator = denominators[p, m, which] = lfvc_evaluate(*params).denominator
                assert denominator == second_family_denominator(p, m, which), (p, m, which)
    assert len(denominators) == 3180
    assert {k for k, v in denominators.items() if v > 0} == {(p, 4, "complement") for p in primes}
    assert {k for k, v in denominators.items() if v == 0} == {(3, 2, "S")}
    assert all(denominators[p, 4, "complement"] == p * (p - 1) for p in primes)
    golden = Path(__file__).parent / "golden" / "verify-sweep-default.json"
    golden = json.loads(golden.read_text())
    second = [r for r in golden["instances"] if r["construction"].startswith("second-")]
    second = [r for r in second if r["status"] == "ok"]  # the rest are skips: odd m, empty E
    assert len(second) == 10
    for r in second:
        which = r["construction"].removeprefix("second-")
        expected = second_family_denominator(r["p"], r["m"], which)
        assert r["detail"]["lfvc"]["denominator"] == expected, (r["p"], r["m"], which)


@pytest.mark.parametrize(
    "construction,m,alpha,check,corrupt",
    [
        ("first", 3, 0, "lfvc_verdict", {"verdict": "not-optimal"}),
        ("first", 3, 1, "lfvc_verdict", {"denominator": 1}),
        ("second-S", 4, None, "lfvc_bound_inapplicable", {"verdict": "not-optimal"}),
        ("second-complement", 4, None, "lfvc_consistent", {"denominator": 10**6}),
    ],
)
def test_bound_checks_can_fail(construction, m, alpha, check, corrupt):
    _, sub = build_construction(make_field(3, m), construction, alpha)
    bound_checks = CONSTRUCTIONS[construction].bound_checks
    assert bound_checks(sub, sub.lfvc())[check] is True
    assert bound_checks(sub, replace(sub.lfvc(), **corrupt))[check] is False


# -- internals and serialization -----------------------------------------------------------------


def test_ccc_json_shape():
    doc = ccc_json(first_subcode(3, 3, 0))
    assert doc["construction"] == "first" and doc["alpha"] == 0
    assert (doc["n"], doc["M"], doc["d"]) == (8, 8, 6)
    assert doc["omega"] == [2, 3, 3]
    assert doc["distance_route"] == "pairwise"
    assert doc["lfvc"] == {"denominator": 6, "bound": "8", "verdict": "optimal"}
    assert doc["checks"] == {
        "composition_ok": True,
        "distance_matches_ambient": True,
        "prediction_matches": True,
    }
    assert "tau" not in doc


def test_ccc_json_second_has_tau():
    doc = ccc_json(second_subcode(3, 2, "S"))
    assert doc["tau"] == -1
    assert "alpha" not in doc
    assert doc["lfvc"]["verdict"] == "bound-inapplicable"


def test_ccc_json_emit_codewords():
    doc = ccc_json(second_subcode(3, 2, "S"), emit_codewords=True)
    assert sorted(doc["codewords"]) == sorted(["2211", "1122", "1212", "2121"])
