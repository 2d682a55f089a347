"""Acceptance suite: every closed-form claim reproduced at desk scale.

The sweep covers p in {3, 5, 7}, 2 <= m <= 5 with p^m <= 10^5. The criteria:

1. first-family weight censuses equal the closed-form tables exactly;
2. first-family subcodes match the predicted (n, M, d, omega); alpha = 0
   codes meet the size bound with equality, alpha != 0 denominators are 0;
3. second-family censuses and both subcodes reproduce their closed forms,
   pairwise brute-force distances equal the ambient minimum weight, and the
   bound denominator is <= 0;
4. Gauss sums and quadratic completion sums match closed forms within 1e-9
   per component (all triples for q <= 27, >= 100 random triples beyond);
5. enumerated trace fiber counts equal the closed forms and sum to p^m;
6. structural properties (field axioms, trace invariance, character
   orthogonality and multiplicativity, duplicate-free subcodes) hold,
   exhaustively for q <= 243 and on >= 1000 sampled cases beyond.

Each test prints one pass/fail line; run
`pytest tests/test_acceptance.py -v -s` to see them. All table comparisons
are exact integer equality.

Known red: `test_second_family_bound_denominator_sign` (the second half of
criterion 3) asserts the bound denominator is never positive for either
second-family subcode. Exact arithmetic disproves this for the complement
subcode at m = 4, where the denominator equals p*(p-1) > 0 (those codes are
bound-applicable and not optimal). The assertion is kept as stated to
document the discrepancy; see the README note on bound applicability.
"""

import random

import numpy as np
import pytest

from tracecc import (
    EPS,
    lfvc_evaluate,
    predicted_ccc_first,
    predicted_ccc_second,
    predicted_weight_distribution_lem41,
    predicted_weight_distribution_thm31,
    quadratic_character,
)
from tracecc.sweep import EXHAUSTIVE_TRIPLE_LIMIT, fiber_check, gauss_check

from conftest import enumerate_field

EXHAUSTIVE_FIELD_LIMIT = 243  # full ternary law checks up to this field size
SAMPLE_COUNT = 1000

EXPECTED_SECOND_POINTS = {(3, 2), (3, 4), (5, 4), (7, 2), (7, 4)}


def _ok_records(report, construction):
    return [r for r in report.instances if r.construction == construction and r.status == "ok"]


def _wd_rows(wd):
    return [list(pair) for pair in wd]


# -- criterion 1: first-family weight distributions ------------------------------------


def test_first_family_weight_distributions(full_sweep_report):
    records = _ok_records(full_sweep_report, "first")
    assert len(records) == 60  # (3+5+7) primes' residues across m = 2..5
    for rec in records:
        predicted = predicted_weight_distribution_thm31(rec.p, rec.m, rec.alpha)
        assert rec.detail["census"] == _wd_rows(predicted), (rec.p, rec.m, rec.alpha)
        assert rec.checks["ambient_weight_distribution"] is True
        assert rec.checks["ambient_length"] is True
        assert rec.checks["ambient_dimension"] is True
    elapsed = sum(rec.seconds for rec in records)
    print(
        f"\n[PASS] criterion 1: first-family weight censuses equal the closed form "
        f"on {len(records)} instances, integer-exact ({elapsed:.1f}s incl. subcode checks)"
    )


# -- criterion 2: first-family subcode parameters and optimality -------------------------


def test_first_family_subcode_parameters(full_sweep_report):
    records = _ok_records(full_sweep_report, "first")
    assert len(records) == 60
    optimal = 0
    for rec in records:
        pred = predicted_ccc_first(rec.p, rec.m, rec.alpha)
        detail = rec.detail
        assert detail["n"] == pred.n and detail["M"] == pred.M
        assert detail["d"] == pred.d
        assert tuple(detail["omega"]) == pred.omega
        assert rec.checks["subcode_composition"] is True
        lfvc = detail["lfvc"]
        if rec.alpha == 0:
            assert lfvc["verdict"] == "optimal"
            assert detail["M"] * lfvc["denominator"] == detail["n"] * detail["d"]
            optimal += 1
        else:
            assert lfvc["denominator"] == 0
            assert lfvc["verdict"] == "bound-inapplicable"
    print(
        f"\n[PASS] criterion 2: first-family subcodes match predicted (n, M, d, omega); "
        f"{optimal} optimal at alpha=0, zero denominator otherwise"
    )


# -- criterion 3: second family -----------------------------------------------------------


def test_second_family_reproduction(full_sweep_report):
    for which, construction in (("S", "second-S"), ("complement", "second-complement")):
        records = _ok_records(full_sweep_report, construction)
        assert {(r.p, r.m) for r in records} == EXPECTED_SECOND_POINTS
        for rec in records:
            predicted_wd = predicted_weight_distribution_lem41(rec.p, rec.m)
            assert rec.detail["census"] == _wd_rows(predicted_wd), (rec.p, rec.m)
            pred = predicted_ccc_second(rec.p, rec.m, which)
            detail = rec.detail
            assert (detail["n"], detail["M"], detail["d"]) == (pred.n, pred.M, pred.d)
            assert tuple(detail["omega"]) == pred.omega
            # the pairwise oracle ran everywhere here and must agree with the
            # ambient minimum weight
            assert detail["d_pairwise"] is not None
            assert detail["d_pairwise"] == detail["d_ambient"]
            if construction == "second-S":
                assert rec.checks["index_partition"] is True
    print(
        "\n[PASS] criterion 3: second-family censuses, subcode parameters and "
        f"pairwise distances reproduced on {sorted(EXPECTED_SECOND_POINTS)}"
    )


def test_second_family_bound_denominator_sign(full_sweep_report):
    offenders = []
    for construction in ("second-S", "second-complement"):
        for rec in _ok_records(full_sweep_report, construction):
            den = rec.detail["lfvc"]["denominator"]
            if den > 0:
                offenders.append((rec.p, rec.m, construction, den))
    if offenders:
        print(
            "\n[FAIL] criterion 3 (bound denominator sign): expected <= 0 for both "
            f"subcode families, but exact arithmetic gives {offenders}"
        )
    else:
        print("\n[PASS] criterion 3 (bound denominator sign): all denominators <= 0")
    assert not offenders, (
        "bound denominator expected <= 0 for both second-family subcodes, "
        f"but these instances are positive: {offenders}"
    )


# -- criterion 4: Gauss-sum identities ------------------------------------------------------


def test_gauss_sum_identities(sweep_fields):
    checked_triples = 0
    for (p, m), field in sorted(sweep_fields.items()):
        report = gauss_check(field)
        assert report["gauss_fq"]["deviation"] <= EPS, (p, m)
        assert report["gauss_fp"]["deviation"] <= EPS, (p, m)
        assert report["quadratic"]["max_deviation"] <= EPS, (p, m)
        if field.q <= EXHAUSTIVE_TRIPLE_LIMIT:
            assert report["quadratic"]["mode"] == "exhaustive"
            assert report["quadratic"]["count"] == (field.q - 1) * field.q * field.q
        else:
            assert report["quadratic"]["count"] >= 100
        assert report["ok"] is True
        checked_triples += report["quadratic"]["count"]
    print(
        f"\n[PASS] criterion 4: Gauss sums match closed forms within 1e-9 per component "
        f"on all {len(sweep_fields)} fields; {checked_triples} quadratic triples checked"
    )


# -- criterion 5: fiber counts -----------------------------------------------------------------


def test_fiber_counts(sweep_fields):
    rows_checked = 0
    for (p, m), field in sorted(sweep_fields.items()):
        report = fiber_check(field)
        assert report["ok"] is True, (p, m)
        for row in report["rows"]:
            assert row["enumerated"] == row["predicted"], row
            rows_checked += 1
        assert report["totals"]["linear-trace"] == field.q
        assert report["totals"]["quadratic-trace"] == field.q
    print(
        f"\n[PASS] criterion 5: enumerated fiber counts equal closed forms "
        f"({rows_checked} fibers), per-kind sums equal p^m"
    )


# -- criterion 6: structural property suite ------------------------------------------------------


def _index_tables(field):
    """Full multiplication and addition index tables for small fields."""
    q, p, m = field.q, field.p, field.m
    elems = list(enumerate_field(field))
    mul = np.empty((q, q), dtype=np.int32)
    for i, a in enumerate(elems):
        mul[i] = [(a * b).index for b in elems]
    digits = field.digits.astype(np.int16)
    sums = (digits[:, None, :] + digits[None, :, :]) % p
    weights = np.array([p ** (m - 1 - i) for i in range(m)], dtype=np.int64)
    add = (sums.astype(np.int64) @ weights).astype(np.int32)
    return mul, add


def _check_laws_exhaustive(field):
    mul, add = _index_tables(field)
    q = field.q
    one = field.one.index
    assert (mul == mul.T).all()
    assert (add == add.T).all()
    assert (mul[one] == np.arange(q)).all()
    assert (add[0] == np.arange(q)).all()
    for a in range(q):
        row = mul[a]
        # associativity: (a*b)*c == a*(b*c), and distributivity over addition
        assert (mul[row] == row[mul]).all()
        assert (row[add] == add[np.ix_(row, row)]).all()
        if a:
            assert sorted(row) == list(range(q))  # nonzero rows are permutations
            assert one in row


def _check_laws_sampled(field, rng):
    for _ in range(SAMPLE_COUNT):
        a = field.element_at(rng.randrange(field.q))
        b = field.element_at(rng.randrange(field.q))
        c = field.element_at(rng.randrange(field.q))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == field.one


def _check_trace_frobenius(field, rng):
    p = field.p
    if field.q <= 2500:
        for x in enumerate_field(field):
            assert (x**p).trace() == x.trace()
    else:
        for _ in range(SAMPLE_COUNT):
            x = field.element_at(rng.randrange(field.q))
            assert (x**p).trace() == x.trace()
    # linearity on a sample
    for _ in range(200):
        a = field.element_at(rng.randrange(field.q))
        b = field.element_at(rng.randrange(field.q))
        assert (a + b).trace() == (a.trace() + b.trace()) % p


def _check_orthogonality(field, rng):
    # sum of chi1(c*x) over x vanishes for c != 0: the trace values are uniform
    p = field.p
    uniform = np.full(p, field.q // p)
    if field.q <= EXHAUSTIVE_FIELD_LIMIT:
        cs = np.arange(1, field.q)
    else:
        cs = np.array([rng.randrange(1, field.q) for _ in range(SAMPLE_COUNT)])
    everything = np.arange(field.q)
    for row in field.trace_of_multiples(cs, everything):
        counts = np.bincount(row, minlength=p)
        assert (counts == uniform).all()
    zero_counts = np.bincount(field.trace_of_multiples([0], everything)[0], minlength=p)
    assert zero_counts[0] == field.q


def _check_character_multiplicativity(field, rng):
    table = field.quadratic_character_table
    if field.q <= EXHAUSTIVE_FIELD_LIMIT:
        mul, _ = _index_tables(field)
        nz = slice(1, None)
        expected = np.outer(table, table)[nz, nz]
        assert (table[mul][nz, nz] == expected).all()
    else:
        for _ in range(SAMPLE_COUNT):
            a = field.element_at(rng.randrange(1, field.q))
            b = field.element_at(rng.randrange(1, field.q))
            assert quadratic_character(a * b) == quadratic_character(a) * quadratic_character(b)


def test_structural_property_suite(sweep_fields, full_sweep_report):
    rng = random.Random(20260811)
    exhaustive = sampled = 0
    for (p, m), field in sorted(sweep_fields.items()):
        if field.q <= EXHAUSTIVE_FIELD_LIMIT:
            _check_laws_exhaustive(field)
            exhaustive += 1
        else:
            _check_laws_sampled(field, rng)
            sampled += 1
        _check_trace_frobenius(field, rng)
        _check_orthogonality(field, rng)
        _check_character_multiplicativity(field, rng)
    # subcode words are duplicate-free: every computed pairwise distance is >= 1
    for rec in full_sweep_report.instances:
        if rec.status == "ok" and rec.detail.get("d_pairwise") is not None:
            assert rec.detail["d_pairwise"] >= 1
    print(
        f"\n[PASS] criterion 6: field axioms, trace invariance, orthogonality and "
        f"character multiplicativity hold ({exhaustive} fields exhaustive, "
        f"{sampled} sampled at >= {SAMPLE_COUNT} cases)"
    )
