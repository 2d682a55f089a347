"""The sweep's plan and run loop: one field build per (p, m), and a spec
refused before any instance runs; the gauss, fiber and ambient verdicts can
each read false, and gauss_check's work."""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from tracecc import (
    DegenerateSet, NotPrime, SweepSpec, ccc, charsums, codes, gfpm, make_field, run_sweep, sweep
)
from tracecc.codes import WeightDistribution

from conftest import spike_spectra


def test_each_field_is_built_once(monkeypatch):
    built = []
    make_field = sweep.make_field

    def counting(p, m, modulus=None):
        built.append((p, m))
        return make_field(p, m, modulus)

    monkeypatch.setattr(sweep, "make_field", counting)
    run_sweep(SweepSpec(p_list=(3,), m_min=2, m_max=3))
    assert built == [(3, 2), (3, 3)]


def test_the_default_sweep_makes_24_first_family_correlations(monkeypatch):
    made = Counter()
    count = codes.trace_count_table

    def counting(ds):
        made[ds.kind] += 1
        return count(ds)

    monkeypatch.setattr(codes, "trace_count_table", counting)
    run_sweep(SweepSpec())
    assert made == {"D-alpha": 24, "E": 10}  # D(alpha != 0) = alpha*D(1) for 12 fields


@pytest.mark.parametrize(
    "spec,error",
    [
        (SweepSpec(m_min=1, m_max=2), ValueError),
        (SweepSpec(p_list=(3, 9), m_min=2, m_max=2), NotPrime),
        (SweepSpec(p_list=(3,), m_min=2, m_max=2, constructions=("frist",)), ValueError),
        # a sweep that would check nothing
        (SweepSpec(p_list=()), ValueError),
        (SweepSpec(constructions=()), ValueError),
        (SweepSpec(alphas=(), constructions=("first",)), ValueError),
        # a sweep whose every planned instance is skipped (the first under a q-cap of 1)
        ((SweepSpec(p_list=(3,), m_min=2, m_max=2), 1), ValueError),
        (SweepSpec(p_list=(3,), m_min=3, m_max=3, constructions=("second-S",)), ValueError),
        (SweepSpec(p_list=(5,), m_min=2, m_max=2, constructions=("second-S",)), ValueError),
        # a degree whose every field exceeds the q-cap, refused before any entry is planned
        (SweepSpec(m_max=18), ValueError),
        # explicit alphas, but no requested construction takes one
        (SweepSpec(constructions=("second-S", "second-complement"), alphas=(1,)), ValueError),
    ],
)
def test_bad_spec_is_refused_before_any_instance(monkeypatch, spec, error):
    def must_not_run(*args, **kwargs):
        raise AssertionError("an instance ran before the spec was validated")

    monkeypatch.setattr(sweep, "verify_first_instance", must_not_run)
    monkeypatch.setattr(sweep, "verify_second_instance", must_not_run)
    if isinstance(spec, tuple):  # a spec and the q-cap it is planned under
        spec, q_cap = spec
        monkeypatch.setattr(sweep, "DEFAULT_Q_CAP", q_cap)
    with pytest.raises(error):
        run_sweep(spec)


def test_a_count_table_off_its_margin_fails_its_instances_and_the_sweep_goes_on(monkeypatch):
    make_field = sweep.make_field

    def spiked(p, m, modulus=None):
        field = make_field(p, m, modulus)
        if (p, m) == (3, 3):
            spike_spectra(field, 0.3)
        return field

    monkeypatch.setattr(sweep, "make_field", spiked)
    report = run_sweep(SweepSpec(p_list=(3,), m_min=2, m_max=4))
    failed = [inst for inst in report.instances if inst.status == "fail"]
    assert [inst.label() for inst in failed] == [f"first p=3 m=3 alpha={a}" for a in range(3)]
    reason = "IdentityViolation: the symbol-count correlations over GF(3^3) are not counts"
    assert {inst.reason for inst in failed} == {reason}
    assert report.summary() == {"pass": 10, "fail": 3, "skip": 2}


def test_the_q_cap_is_no_field_of_the_spec():
    with pytest.raises(TypeError):
        SweepSpec(q_cap=10)
    assert SweepSpec().to_json_dict()["q_cap"] == sweep.DEFAULT_Q_CAP == 100_000


def test_degree_range_stops_at_the_q_cap_bit_length(monkeypatch):
    # planned, never run: degree 17 still plans its skips, degree 18 is refused
    assert sweep.DEFAULT_Q_CAP.bit_length() == 17
    plan = sweep.plan_sweep(SweepSpec(m_max=17))
    assert max(m for _, _, m, _, _ in plan) == 17
    assert all(skip for _, p, m, _, skip in plan if p**m > sweep.DEFAULT_Q_CAP)
    planned, exceeds_q_cap = [], sweep.exceeds_q_cap

    def recording(p, m):
        planned.append((p, m))
        return exceeds_q_cap(p, m)

    monkeypatch.setattr(sweep, "exceeds_q_cap", recording)
    with pytest.raises(ValueError, match="q-cap"):
        sweep.plan_sweep(SweepSpec(m_max=18))
    assert planned == [(2, 17)]  # the degree refusal's own question, and no point's
    monkeypatch.setattr(sweep, "DEFAULT_Q_CAP", 10)  # 10 has 4 bits
    with pytest.raises(ValueError, match="q-cap"):
        sweep.plan_sweep(SweepSpec(p_list=(3,), m_max=5))
    assert sweep.plan_sweep(SweepSpec(p_list=(3,), m_max=4))


def test_plan_marks_degenerate_points_from_the_closed_form(monkeypatch):
    def must_not_build(*args, **kwargs):
        raise AssertionError("a field was built while planning")

    monkeypatch.setattr(sweep, "make_field", must_not_build)
    second = ("second-S", "second-complement")
    plan = sweep.plan_sweep(SweepSpec(p_list=(3, 5, 7, 13, 17), m_min=2, m_max=2))
    skips = {(c, p): skip for c, p, _, _, skip in plan if c in second}
    degenerate = {(c, p): "degenerate defining set" for c in second for p in (5, 13, 17)}
    assert skips == {**{(c, p): "" for c in second for p in (3, 7)}, **degenerate}
    assert all(skip == "" for c, *_, skip in plan if c == "first")


def test_plan_skip_precedence(monkeypatch):
    # odd degree first, then the q-cap, then a degenerate defining set (13^2 is both of the last)
    monkeypatch.setattr(sweep, "DEFAULT_Q_CAP", 30)
    plan = sweep.plan_sweep(SweepSpec(p_list=(3, 13), m_min=2, m_max=3))
    assert {(p, m): skip for c, p, m, _, skip in plan if c == "second-S"} == {
        (3, 2): "",
        (3, 3): "odd extension degree",
        (13, 2): "exceeds q-cap",
        (13, 3): "odd extension degree",
    }


def test_degenerate_set_at_run_time_is_a_fail_record(monkeypatch):
    # the closed form is defined at 3^2, so the plan runs it; the builder then refuses
    def degenerate(field):
        raise DegenerateSet(f"E is empty over {field!r}")

    monkeypatch.setattr(ccc, "build_defining_set_E", degenerate)
    report = run_sweep(SweepSpec(p_list=(3,), m_min=2, m_max=2, constructions=("second-S",)))
    (record,) = report.instances
    assert (record.status, record.reason) == ("fail", "DegenerateSet: E is empty over GF(3^2)")
    assert not report.ok


@pytest.mark.parametrize("p", [3, 5, 7, 127])
def test_exceeds_q_cap_is_p_to_the_m_over_the_cap(monkeypatch, p):
    for q_cap in (0, 1, 10, 10**5, 10**30):
        monkeypatch.setattr(sweep, "DEFAULT_Q_CAP", q_cap)
        assert [sweep.exceeds_q_cap(p, m) for m in range(41)] == [
            p**m > q_cap for m in range(41)
        ]


def test_repeated_prime_runs_once():
    spec = SweepSpec(p_list=(3, 3), m_min=2, m_max=2, constructions=("first",))
    report = run_sweep(spec)
    assert [(i.p, i.alpha) for i in report.instances] == [(3, 0), (3, 1), (3, 2)]
    assert report.to_json_dict()["spec"]["p_list"] == [3, 3]


def test_the_default_sweep_runs_the_oracle_33_times_every_time(monkeypatch):
    # one alpha != 0 oracle per field below the cap: 64 calls without the transfer
    calls, oracle = [], ccc.pairwise_min_distance
    monkeypatch.setattr(ccc, "pairwise_min_distance", lambda *a: calls.append(a) or oracle(*a))
    first = run_sweep(SweepSpec())
    assert len(calls) == 33
    second = run_sweep(SweepSpec())  # so nothing a sweep learnt outlives it
    assert len(calls) == 66
    assert first.to_json_dict(include_timing=False) == second.to_json_dict(include_timing=False)
    ran = [i for i in first.instances if i.status == "ok"]
    routes = Counter((i.detail["distance_route"], i.detail["d_pairwise"] is None) for i in ran)
    assert routes == {
        ("pairwise", False): 33, ("transferred", False): 31, ("ambient-only", True): 6
    }
    unconfirmed = {(i.p, i.m, i.alpha) for i in ran if i.detail["d_pairwise"] is None}
    assert unconfirmed == {(7, 5, alpha) for alpha in range(1, 7)}


def test_every_named_map_is_kept_on_the_default_sweep(monkeypatch):
    # a wrong P costs time, never a distance, so only this count shows one: scaling, the shift
    # and Frobenius keep every D(alpha != 0) subcode the oracle runs on; scaling, Frobenius and
    # sigma_lam every D(0) and E subcode
    sets, kept, named, check = [], [], ccc._symmetries, ccc._kept_maps

    def naming(code, rows):
        sets.append(code.defining_set)
        return named(code, rows)

    def checking(words, symmetries):
        out = check(words, symmetries)
        names = ["scale", "shift"][: len(symmetries) - 2] + ["frobenius", "sigma_lam"]
        kept.append(tuple(name for name, (_, sigma, perm) in zip(names, symmetries) if any(
            sigma is other and perm is same for _, other, same in out)))  # fmt: skip
        return out

    monkeypatch.setattr(ccc, "_symmetries", naming)
    monkeypatch.setattr(ccc, "_kept_maps", checking)
    report = run_sweep(SweepSpec())
    kinds = ["E" if ds.alpha is None else "D(0)" if ds.alpha == 0 else "D(alpha)" for ds in sets]
    assert Counter(zip(kinds, kept)) == {
        ("D(alpha)", ("scale", "shift", "frobenius")): 11,
        ("D(0)", ("scale", "frobenius", "sigma_lam")): 12,
        ("E", ("scale", "frobenius", "sigma_lam")): 10,
    }
    golden = json.loads((Path(__file__).parent / "golden" / "verify-sweep-default.json").read_text())
    assert [i.detail.get("d_pairwise") for i in report.instances] == [
        i.get("detail", {}).get("d_pairwise") for i in golden["instances"]
    ]


def test_no_sweep_imports_numpy_random():
    # numpy.random is 6 MB of the sweep's peak RSS, and nothing a sweep runs needs it
    script = (
        "import sys\nsys.path[:0] = [sys.argv[1]]\n"
        "from tracecc import SweepSpec, run_sweep\n"
        "run_sweep(SweepSpec(p_list=(3,), m_min=2, m_max=3))\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", script, str(src)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_a_two_prime_sweep_never_carries_a_reference_across_fields(monkeypatch):
    seen, verify = [], sweep.verify_first_instance

    def recording(field, alpha, *, reference):
        seen.append((field, alpha, reference))
        return verify(field, alpha, reference=reference)

    monkeypatch.setattr(sweep, "verify_first_instance", recording)
    report = run_sweep(SweepSpec(p_list=(3, 5), m_min=2, m_max=2, constructions=("first",)))
    assert len({id(reference) for _, _, reference in seen}) == 2  # one per field
    for field, alpha, reference in seen:
        assert reference.defining_set.field is field and reference.defining_set.alpha == 1
    routes = [(i.p, i.alpha, i.detail["distance_route"]) for i in report.instances]
    assert routes == [
        (3, 0, "pairwise"), (3, 1, "pairwise"), (3, 2, "transferred"),
        (5, 0, "pairwise"), (5, 1, "pairwise"),
        (5, 2, "transferred"), (5, 3, "transferred"), (5, 4, "transferred"),
    ]  # fmt: skip


def test_composition_violation_is_a_fail_record(monkeypatch):
    # letting the prime field in adds the zero word and the constant words
    whole_field = ccc.CONSTRUCTIONS["first"]._replace(index_mask=lambda f: np.ones(f.q, bool))
    monkeypatch.setitem(ccc.CONSTRUCTIONS, "first", whole_field)
    record = sweep.verify_first_instance(make_field(3, 3), 1).to_json_dict()
    assert record["status"] == "fail"
    assert record["checks"]["subcode_composition"] is False
    _, sub = ccc.build_construction(make_field(3, 3), "first", 1)
    assert ccc.ccc_json(sub)["checks"]["composition_ok"] is False


@pytest.mark.parametrize("p,m,mode", [(3, 2, "exhaustive"), (3, 3, "exhaustive"), (7, 2, "random")])
def test_gauss_check_catches_a_flipped_closed_form(monkeypatch, p, m, mode):
    closed_fq = charsums.gauss_sum_closed_fq
    monkeypatch.setattr(charsums, "gauss_sum_closed_fq", lambda p, m: -closed_fq(p, m))
    report = sweep.gauss_check(make_field(p, m))
    assert report["quadratic"]["mode"] == mode
    assert report["quadratic"]["max_deviation"] > sweep.EPS
    assert report["ok"] is False


def test_gauss_check_takes_no_scalar_trace_or_inverse_per_triple(monkeypatch):
    field = make_field(3, 3)
    for table in ("trace_form", "trace_table", "square_index_table", "quadratic_character_table"):
        getattr(field, table)
    traced, inverted = [], []
    trace, inverse = gfpm.FieldElement.trace, gfpm.FieldElement.inverse

    def counting_trace(x):
        traced.append(x.field)
        return trace(x)

    def counting_inverse(x):
        inverted.append(x.field)
        return inverse(x)

    monkeypatch.setattr(gfpm.FieldElement, "trace", counting_trace)
    monkeypatch.setattr(gfpm.FieldElement, "inverse", counting_inverse)
    report = sweep.gauss_check(field)
    assert report["quadratic"]["count"] == 26 * 27 * 27
    # not even the 1x1 trace form of the GF(3) that gauss_sum_fp builds takes a scalar trace
    assert traced == []
    assert inverted == []


def test_fiber_check_keeps_both_numbers_of_a_failing_row(monkeypatch):
    predicted = charsums.predicted_square_trace_fiber
    monkeypatch.setattr(
        charsums, "predicted_square_trace_fiber", lambda p, m, alpha: predicted(p, m, alpha) + 1
    )
    report = sweep.fiber_check(make_field(3, 3))
    assert report["ok"] is False
    quadratic = [r for r in report["rows"] if r["kind"] == "quadratic-trace"]
    assert quadratic[0] == {"kind": "quadratic-trace", "alpha": 0, "enumerated": 9, "predicted": 10}
    assert report["totals"] == {"linear-trace": 27, "quadratic-trace": 27}


def test_fiber_check_fails_fibers_that_miss_the_field(monkeypatch):
    # every row agrees with its prediction, but the linear fibers cover 3 of 27 elements
    monkeypatch.setattr(sweep, "count_trace_fiber", lambda field: ([1, 1, 1], [1, 1, 1]))
    report = sweep.fiber_check(make_field(3, 3))
    assert report["totals"]["linear-trace"] == 3
    assert report["ok"] is False


def test_fiber_check_drops_a_residue_past_the_last_bin():
    # one trace entry outside 0..p-1 is counted in no row, so the linear total misses q
    field = make_field(3, 3)
    table = field.trace_table.copy()
    alpha, table[5] = int(table[5]), 3
    field.__dict__["trace_table"] = table
    report = sweep.fiber_check(field)
    assert report["ok"] is False
    assert report["totals"]["linear-trace"] == 26
    linear = [r for r in report["rows"] if r["kind"] == "linear-trace"]
    short = [r for r in linear if r["enumerated"] != r["predicted"]]
    assert short == [{"kind": "linear-trace", "alpha": alpha, "enumerated": 8, "predicted": 9}]


def test_a_predicted_length_off_by_one_fails_ambient_length(monkeypatch):
    entry = ccc.CONSTRUCTIONS["first"]

    def one_longer(p, m, alpha):
        predicted = entry.predict(p, m, alpha)
        return predicted._replace(n=predicted.n + 1)

    monkeypatch.setitem(ccc.CONSTRUCTIONS, "first", entry._replace(predict=one_longer))
    record = sweep.verify_first_instance(make_field(3, 3), 1)
    assert record.failed == ["ambient_length", "subcode_parameters"]
    assert record.status == "fail"


def test_corrupted_census_fails_ambient_dimension(monkeypatch):
    entry = ccc.CONSTRUCTIONS["first"]

    def one_word_more(p, m, alpha):
        (weight, count), *rest = entry.predict_census(p, m, alpha)
        return WeightDistribution(((weight, count + 1), *rest))

    monkeypatch.setitem(ccc.CONSTRUCTIONS, "first", entry._replace(predict_census=one_word_more))
    record = sweep.verify_first_instance(make_field(3, 3), 0)
    assert record.checks["ambient_dimension"] is False
    assert record.status == "fail"
