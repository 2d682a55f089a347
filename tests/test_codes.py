"""Defining sets, trace codes, weight censuses and their closed forms.

Frozen censuses were derived with an independent naive implementation
(double-loop codewords, set-based dedup, Counter census); the in-test
`naive_codeword` reproduces that path element by element.
"""

import numpy as np
import pytest

from tracecc import (
    DegenerateSet,
    IdentityViolation,
    OddDegree,
    UnsupportedDegree,
    WeightDistribution,
    build_defining_set_D,
    build_defining_set_E,
    build_trace_code,
    codes,
    count_trace_square_fiber,
    make_field,
    minimum_distance,
    predicted_weight_distribution_lem41,
    predicted_weight_distribution_thm31,
    weight_distribution,
)
from tracecc.ccc import CONSTRUCTIONS, build_construction
from tracecc.codes import trace_code_json, weight_table_csv

from conftest import SWEEP_POINTS, enumerate_field, spike_spectra


def elements(ds):
    return [ds.field.element_at(int(i)) for i in ds.indices]


def naive_codeword(a, ds):
    return tuple((a * d).trace() for d in elements(ds))


# -- defining sets ---------------------------------------------------------------


def test_defining_set_sizes_f27(f27):
    assert len(build_defining_set_D(f27, 0)) == 8
    for alpha in (1, 2):
        assert len(build_defining_set_D(f27, alpha)) == 9


def test_defining_set_membership_and_order(f27):
    ds = build_defining_set_D(f27, 1)
    assert all(d.trace() == 1 and not d.is_zero() for d in elements(ds))
    indices = ds.indices.tolist()
    assert indices == sorted(indices)
    assert len(set(indices)) == len(indices)


def test_defining_set_rejects_prime_field():
    f3 = make_field(3, 1)
    with pytest.raises(DegenerateSet):
        build_defining_set_D(f3, 0)
    with pytest.raises(UnsupportedDegree):
        build_defining_set_D(f3, 1)


def test_defining_set_E_f9(f9):
    ds = build_defining_set_E(f9)
    assert len(ds) == 4
    assert {d.coeffs for d in elements(ds)} == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_defining_set_E_sizes():
    assert len(build_defining_set_E(make_field(3, 4))) == 20
    assert len(build_defining_set_E(make_field(7, 2))) == 12


def test_defining_set_E_degenerate_for_5_2():
    with pytest.raises(DegenerateSet):
        build_defining_set_E(make_field(5, 2))


def test_defining_set_E_rejects_odd_degree(f27):
    with pytest.raises(OddDegree):
        build_defining_set_E(f27)


@pytest.mark.parametrize("p,m", [(3, 2), (3, 4), (7, 2)])
def test_E_size_agrees_with_square_fiber(p, m):
    f = make_field(p, m)
    assert len(build_defining_set_E(f)) == count_trace_square_fiber(f)[0][0] - 1


# -- code construction --------------------------------------------------------------


def test_trace_code_shapes_f27(f27):
    code0 = build_trace_code(build_defining_set_D(f27, 0))
    assert code0.matrix.shape == (27, 8)
    assert code0.distinct_count == 9 and code0.dimension == 2
    code1 = build_trace_code(build_defining_set_D(f27, 1))
    assert code1.distinct_count == 27 and code1.dimension == 3


def test_trace_code_E_f9(f9):
    code = build_trace_code(build_defining_set_E(f9))
    assert code.length == 4
    assert code.distinct_count == 9 and code.dimension == 2


def test_zero_index_gives_zero_word(f27):
    code = build_trace_code(build_defining_set_D(f27, 2))
    assert not code.words([f27.zero.index])[0].any()


@pytest.mark.parametrize("alpha", [0, 1, 2])
def test_codewords_match_naive_evaluation_f27(f27, alpha):
    ds = build_defining_set_D(f27, alpha)
    code = build_trace_code(ds)
    for a in enumerate_field(f27):
        assert tuple(code.words([a.index])[0]) == naive_codeword(a, ds)


def test_codewords_match_naive_evaluation_E(f9):
    ds = build_defining_set_E(f9)
    code = build_trace_code(ds)
    for a in enumerate_field(f9):
        assert tuple(code.words([a.index])[0]) == naive_codeword(a, ds)


def test_codewords_match_naive_evaluation_sampled_f125():
    import random

    f = make_field(5, 3)
    ds = build_defining_set_D(f, 0)
    code = build_trace_code(ds)
    rng = random.Random(3)
    for _ in range(40):
        a = f.element_at(rng.randrange(f.q))
        assert tuple(code.words([a.index])[0]) == naive_codeword(a, ds)


def test_codewords_match_naive_evaluation_f49(f49):
    # p = 7 sends the digit-wise sums up to 12 before their reduction mod p
    ds = build_defining_set_D(f49, 3)
    code = build_trace_code(ds)
    for a in enumerate_field(f49):
        assert tuple(code.words([a.index])[0]) == naive_codeword(a, ds)


def test_dimension_is_checked(f27, monkeypatch):
    count = codes.trace_count_table

    def widened(ds):  # one more element whose word counts as zero: a kernel of p^k + 1 elements
        counts = count(ds)
        counts[-1] = [len(ds), 0]
        return counts

    monkeypatch.setattr(codes, "trace_count_table", widened)
    with pytest.raises(IdentityViolation, match=r"not \{0\} or GF\(3\)"):
        build_trace_code(build_defining_set_D(f27, 1))


def test_a_p_element_kernel_other_than_the_prime_field_is_refused(f27, monkeypatch):
    count = codes.trace_count_table
    x = f27.basis_element(2)  # outside GF(3)
    line = [(f27.constant(c) * x).index for c in range(3)]

    def lined(ds):  # the words of the line {c*x : c in GF(3)} count as zero: p elements
        counts = count(ds)
        counts[line] = [len(ds), 0]
        return counts

    monkeypatch.setattr(codes, "trace_count_table", lined)
    with pytest.raises(IdentityViolation, match=r"a 3-element kernel is not \{0\} or GF\(3\)"):
        build_trace_code(build_defining_set_D(f27, 1))


@pytest.mark.parametrize(
    "offset,row",
    # a whole count moved in one correlation passes the margin; only the row sums see it
    [(0.3, 1), (-0.3, 1), (0.3, 0), (-0.3, 0), (1.0, 0), (-1.0, 0), (1.0, 1), (-1.0, 1)],
    ids=["0.3", "-0.3", "0.3-row0", "-0.3-row0", "1.0-row0", "-1.0-row0", "1.0", "-1.0"],
)
def test_correlation_off_an_integer_is_refused(offset, row):
    field = make_field(3, 3)
    ds = build_defining_set_D(field, 1)
    spike_spectra(field, offset, row)
    with pytest.raises(IdentityViolation, match="not counts"):
        build_trace_code(ds)


def test_census_must_repeat_once_per_kernel_element(f27):
    code = build_trace_code(build_defining_set_D(f27, 0))
    assert dict(weight_distribution(code).pairs) == {0: 1, 6: 8}
    code.weights = code.weights.copy()
    code.weights[1] = 0  # one element more of weight 0, and one fewer of weight 6
    with pytest.raises(IdentityViolation, match="not a multiple of 3"):
        weight_distribution(code)


@pytest.mark.parametrize("builder", ["D0", "D1", "E"])
def test_distinct_words_closed_under_addition(f9, f27, builder):
    if builder == "D0":
        code = build_trace_code(build_defining_set_D(f27, 0))
    elif builder == "D1":
        code = build_trace_code(build_defining_set_D(f27, 1))
    else:
        code = build_trace_code(build_defining_set_E(f9))
    rows = {tuple(r) for r in code.distinct_words}
    for r1 in rows:
        for r2 in rows:
            s = tuple((x + y) % 3 for x, y in zip(r1, r2))
            assert s in rows
        for c in range(3):
            scaled = tuple((c * x) % 3 for x in r1)
            assert scaled in rows


def test_index_kernel_of_D0_is_prime_subfield(f27):
    code = build_trace_code(build_defining_set_D(f27, 0))
    zero_indices = {a.index for a in enumerate_field(f27) if not code.words([a.index])[0].any()}
    assert zero_indices == set(f27.prime_subfield_indices())


def test_coset_rows_of_a_zero_kernel_are_the_index_itself(f27, monkeypatch):
    def refused(self, a, c=None):
        raise AssertionError("a zero kernel needs no constant terms")

    monkeypatch.setattr(type(f27), "add_constant", refused)
    f81 = make_field(3, 4)
    cases = [("first", f27, 1), ("first", f27, 2), ("second-S", f81, None)]
    for construction, field, alpha in cases:
        entry = CONSTRUCTIONS[construction]
        ds = build_defining_set_D(field, alpha) if alpha else build_defining_set_E(field)
        code = build_trace_code(ds)
        index = np.flatnonzero(entry.index_mask(field))
        assert len(code.kernel) == 1
        assert np.array_equal(code.coset_rows(index), index)
    monkeypatch.undo()  # D(0) has the prime field as kernel: a row is the least of a + GF(3)
    rows = build_trace_code(build_defining_set_D(f27, 0)).coset_rows(np.arange(f27.q))
    least = {min((a + f27.constant(c)).index for c in range(3)) for a in enumerate_field(f27)}
    assert rows.tolist() == sorted(least)


def test_codeword_difference_matches_index_difference(f27):
    code = build_trace_code(build_defining_set_D(f27, 1))
    import random

    rng = random.Random(5)
    elems = list(enumerate_field(f27))
    for _ in range(100):
        a1, a2 = rng.choice(elems), rng.choice(elems)
        lhs = (code.words([a1.index])[0] - code.words([a2.index])[0]) % 3
        assert tuple(lhs) == tuple(code.words([(a1 - a2).index])[0])


# -- weight distributions --------------------------------------------------------------


def test_census_f27_frozen(f27):
    code0 = build_trace_code(build_defining_set_D(f27, 0))
    assert dict(weight_distribution(code0).pairs) == {0: 1, 6: 8}
    code1 = build_trace_code(build_defining_set_D(f27, 1))
    assert dict(weight_distribution(code1).pairs) == {0: 1, 6: 24, 9: 2}


def test_census_E_frozen(f9):
    code = build_trace_code(build_defining_set_E(f9))
    assert dict(weight_distribution(code).pairs) == {0: 1, 2: 4, 4: 4}


def test_census_E_34_frozen():
    code = build_trace_code(build_defining_set_E(make_field(3, 4)))
    assert dict(weight_distribution(code).pairs) == {0: 1, 12: 60, 18: 20}


def test_census_matches_naive_recount(f9):
    code = build_trace_code(build_defining_set_E(f9))
    recount = {}
    for row in code.distinct_words:
        w = sum(1 for s in row if s)
        recount[w] = recount.get(w, 0) + 1
    assert dict(weight_distribution(code).pairs) == recount


@pytest.mark.parametrize("p,m", SWEEP_POINTS + [(11, 2), (13, 2), (11, 3)])
def test_weights_from_symbol_counts_match_count_nonzero(sweep_fields, p, m):
    # the compositions against a count of every symbol in every word of the lazily built
    # matrix; symbols 2..p-1 are read from the column of 1 at a/s, 9 to 11 of them from p = 11 on
    field = sweep_fields[p, m] if (p, m) in sweep_fields else make_field(p, m)
    built = 0
    for construction in CONSTRUCTIONS:
        for alpha in range(p) if construction == "first" else [None]:
            try:
                code, _ = build_construction(field, construction, alpha)
            except (DegenerateSet, OddDegree):  # E: even m only; empty at m = 2 if p = 1 mod 4
                continue
            words = code.matrix
            assert code.weights.tolist() == np.count_nonzero(words, axis=1).tolist()
            compositions = code.compositions(np.arange(field.q))
            for s in range(p):
                assert compositions[:, s].tolist() == np.count_nonzero(words == s, axis=1).tolist()
            assert np.flatnonzero(~words.any(axis=1)).tolist() == code.kernel.tolist()
            built += 1
    assert built == p + 2 * (m % 2 == 0 and (m, p % 4) != (2, 1))
    assert field.trace_spectra.shape[0] == 2  # the correlations of symbols 0 and 1 alone


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)])
def test_census_equals_closed_form_first(p, m):
    f = make_field(p, m)
    for alpha in range(p):
        code = build_trace_code(build_defining_set_D(f, alpha))
        assert weight_distribution(code) == predicted_weight_distribution_thm31(p, m, alpha)


@pytest.mark.parametrize("p,m", [(3, 2), (3, 4), (7, 2)])
def test_census_equals_closed_form_E(p, m):
    code = build_trace_code(build_defining_set_E(make_field(p, m)))
    assert weight_distribution(code) == predicted_weight_distribution_lem41(p, m)


def test_predictor_thm31_frozen_tables():
    assert dict(predicted_weight_distribution_thm31(3, 3, 0).pairs) == {0: 1, 6: 8}
    assert dict(predicted_weight_distribution_thm31(3, 3, 1).pairs) == {0: 1, 6: 24, 9: 2}
    assert dict(predicted_weight_distribution_thm31(5, 2, 0).pairs) == {0: 1, 4: 4}


def test_predictor_lem41_frozen_tables():
    assert dict(predicted_weight_distribution_lem41(3, 2).pairs) == {0: 1, 2: 4, 4: 4}
    assert dict(predicted_weight_distribution_lem41(3, 4).pairs) == {0: 1, 12: 60, 18: 20}
    assert dict(predicted_weight_distribution_lem41(7, 2).pairs) == {0: 1, 6: 12, 12: 36}


@pytest.mark.parametrize("p,m", [(3, 2), (3, 4), (5, 3), (7, 2)])
def test_predictor_frequency_sums(p, m):
    for alpha in range(p):
        wd = predicted_weight_distribution_thm31(p, m, alpha)
        assert wd.total() == (p ** (m - 1) if alpha == 0 else p**m)
    if m % 2 == 0:
        assert predicted_weight_distribution_lem41(p, m).total() == p**m


def test_predictor_rejects_degenerate_and_bad_degrees():
    with pytest.raises(UnsupportedDegree):
        predicted_weight_distribution_thm31(3, 1, 0)
    with pytest.raises(OddDegree):
        predicted_weight_distribution_lem41(3, 3)
    with pytest.raises(DegenerateSet):
        predicted_weight_distribution_lem41(5, 2)


# -- minimum distance --------------------------------------------------------------------


def test_minimum_distance_frozen(f27, f9):
    assert minimum_distance(build_trace_code(build_defining_set_D(f27, 0))) == 6
    assert minimum_distance(build_trace_code(build_defining_set_E(f9))) == 2
    assert minimum_distance(build_trace_code(build_defining_set_E(make_field(3, 4)))) == 12


# -- serialization -------------------------------------------------------------------------


def test_trace_code_json_shape(f27):
    code = build_trace_code(build_defining_set_D(f27, 0))
    doc = trace_code_json(code)
    assert doc["p"] == 3 and doc["m"] == 3
    assert doc["modulus"] == [1, 0, 2, 1]
    assert doc["kind"] == "D-alpha" and doc["alpha"] == 0
    assert doc["length"] == 8 and doc["dimension"] == 2
    assert doc["weight_distribution"] == [[0, 1], [6, 8]]
    assert "codewords" not in doc


def test_trace_code_json_emit_codewords(f9):
    code = build_trace_code(build_defining_set_E(f9))
    doc = trace_code_json(code, emit_codewords=True)
    assert len(doc["codewords"]) == 9
    assert all(len(w) == 4 and set(w) <= set("012") for w in doc["codewords"])


@pytest.mark.parametrize("p", [11, 13])
def test_codewords_above_p10_split_into_symbols(p):
    code = build_trace_code(build_defining_set_D(make_field(p, 2), 1))
    strings = trace_code_json(code, emit_codewords=True)["codewords"]
    assert len(strings) == p**2
    for word, string in zip(code.distinct_words, strings):
        symbols = [int(s) for s in string.split(",")]
        assert len(symbols) == code.length == p
        assert all(0 <= s < p for s in symbols)
        assert symbols == word.tolist()


def test_json_has_no_alpha_for_E(f9):
    doc = trace_code_json(build_trace_code(build_defining_set_E(f9)))
    assert doc["kind"] == "E"
    assert "alpha" not in doc


def test_weight_table_csv():
    wd = WeightDistribution.from_counts({0: 1, 6: 8})
    assert weight_table_csv(wd) == "weight,frequency\n0,1\n6,8\n"
