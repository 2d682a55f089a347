"""Command line interface: reports, formats, determinism, exit codes."""

import argparse
import json
import re
from datetime import datetime
from pathlib import Path

import pytest

from tracecc import DuplicateWords, ccc, charsums, cli, codes, errors, sweep
from tracecc.cli import main


def run_json(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


# -- build ------------------------------------------------------------------------


def test_build_first_333(tmp_path, capsys):
    code, doc = run_json(
        tmp_path,
        "b.json",
        ["build", "--p", "3", "--m", "3", "--construction", "first", "--alpha", "0"],
    )
    assert code == 0
    assert doc["code"]["length"] == 8 and doc["code"]["dimension"] == 2
    ccc = doc["ccc"]
    assert (ccc["n"], ccc["M"], ccc["d"]) == (8, 8, 6)
    assert ccc["omega"] == [2, 3, 3]
    assert ccc["lfvc"]["verdict"] == "optimal"
    assert "generated_at" in doc
    human = capsys.readouterr().out
    assert "n=8 M=8 d=6" in human
    assert "verdict=optimal" in human


def test_build_second_S_32(tmp_path):
    code, doc = run_json(
        tmp_path, "b.json", ["build", "--p", "3", "--m", "2", "--construction", "second-S"]
    )
    assert code == 0
    ccc = doc["ccc"]
    assert (ccc["n"], ccc["M"], ccc["d"]) == (4, 4, 2)
    assert ccc["omega"] == [0, 2, 2]
    assert ccc["tau"] == -1
    assert ccc["lfvc"]["verdict"] == "bound-inapplicable"


def test_build_writes_json_to_stdout_without_out(capsys):
    code = main(
        ["build", "--p", "3", "--m", "2", "--construction", "first", "--alpha", "1",
         "--no-timestamp"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ccc"]["M"] == 6


def test_build_csv_weight_table(tmp_path):
    out = tmp_path / "w.csv"
    code = main(
        ["build", "--p", "3", "--m", "3", "--construction", "first", "--alpha", "0",
         "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text() == "weight,frequency\n0,1\n6,8\n"


def test_build_emit_codewords(tmp_path):
    code, doc = run_json(
        tmp_path,
        "b.json",
        ["build", "--p", "3", "--m", "2", "--construction", "second-S", "--emit-codewords"],
    )
    assert code == 0
    assert len(doc["code"]["codewords"]) == 9
    assert len(doc["ccc"]["codewords"]) == 4


def test_build_emit_codewords_p11_separates_symbols(tmp_path):
    code, doc = run_json(
        tmp_path,
        "b.json",
        ["build", "--p", "11", "--m", "2", "--construction", "first", "--alpha", "1",
         "--emit-codewords"],
    )
    assert code == 0
    n = doc["ccc"]["n"]
    for string in doc["code"]["codewords"] + doc["ccc"]["codewords"]:
        assert [int(s) < 11 for s in string.split(",")] == [True] * n


def test_build_emit_codewords_over_the_limit_exits_2(tmp_path, monkeypatch, capsys):
    # 3^2 second-S: 9 ambient words and 4 subcode words of length 4, 52 symbols
    monkeypatch.setattr(cli, "EMIT_CODEWORDS_MAX_BYTES", 51)
    built = property(lambda code: pytest.fail("an ambient word was built"))
    monkeypatch.setattr(codes.TraceCode, "distinct_words", built)
    out = tmp_path / "b.json"
    argv = ["build", "--p", "3", "--m", "2", "--construction", "second-S", "--out", str(out)]
    assert main(argv + ["--emit-codewords"]) == 2
    assert "--emit-codewords would write 52 symbols, over the limit" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv) == 0  # the limit is on the emitted words alone
    monkeypatch.undo()
    monkeypatch.setattr(cli, "EMIT_CODEWORDS_MAX_BYTES", 52)  # exactly at the limit
    assert main(argv + ["--emit-codewords"]) == 0


def test_build_csv_refuses_emit_codewords_before_building(tmp_path, monkeypatch, capsys):
    # the CSV holds only the weight table, so the flag is refused before any field is built
    monkeypatch.setattr(cli, "make_field", lambda *args: pytest.fail("a field was built"))
    out = tmp_path / "b.csv"
    argv = ["build", "--p", "3", "--m", "10", "--construction", "second-S", "--format", "csv"]
    assert main(argv + ["--emit-codewords", "--out", str(out)]) == 2
    assert "--emit-codewords does not apply to --format csv" in capsys.readouterr().err
    assert not out.exists()


def test_build_custom_modulus(tmp_path):
    code, doc = run_json(
        tmp_path,
        "b.json",
        ["build", "--p", "3", "--m", "2", "--construction", "first", "--alpha", "0",
         "--modulus", "2,1,1"],
    )
    assert code == 0
    assert doc["code"]["modulus"] == [2, 1, 1]


def test_build_no_timestamp_is_deterministic(tmp_path):
    argv = ["build", "--p", "3", "--m", "3", "--construction", "first", "--alpha", "1",
            "--no-timestamp"]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# -- parameter errors ---------------------------------------------------------------


def test_build_rejects_characteristic_two(capsys):
    code = main(["build", "--p", "2", "--m", "3", "--construction", "first", "--alpha", "0"])
    assert code == 2
    captured = capsys.readouterr()
    assert "error" in captured.err
    assert json.loads(captured.out)["error"]["type"] == "EvenCharacteristic"


def test_build_rejects_non_prime():
    assert main(["build", "--p", "9", "--m", "2", "--construction", "first", "--alpha", "0"]) == 2


def test_build_first_requires_alpha():
    assert main(["build", "--p", "3", "--m", "3", "--construction", "first"]) == 2


def test_build_second_rejects_alpha():
    assert main(
        ["build", "--p", "3", "--m", "2", "--construction", "second-S", "--alpha", "0"]
    ) == 2


@pytest.mark.parametrize("alpha", ["5", "-1"])
def test_build_rejects_alpha_outside_residues(capsys, alpha):
    argv = ["build", "--p", "3", "--m", "3", "--construction", "first", "--alpha", alpha]
    assert main(argv) == 2
    assert f"error: alpha {alpha} is not a residue mod 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--p", "3", "--m", "3", "--construction", "first", "--alpha", "0"],
        ["verify-sweep", "--p", "3", "--m", "2", "2"],
        ["gauss-check", "--p", "3", "--m", "2"],
        ["fibers", "--p", "3", "--m", "2", "--format", "csv"],
    ],
    ids=["build", "verify-sweep", "gauss-check", "fibers"],
)
def test_unwritable_out_exits_2_before_running(tmp_path, monkeypatch, capsys, argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the command ran although its report could not be written")

    monkeypatch.setattr(cli, "make_field", must_not_run)
    monkeypatch.setattr(cli, "run_sweep", must_not_run)
    for out in (tmp_path / "missing" / "report.json", tmp_path):
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write --out {out}")
    assert not (tmp_path / "missing").exists()


def test_build_degenerate_second_exits_2():
    assert main(["build", "--p", "5", "--m", "2", "--construction", "second-S"]) == 2


def test_build_reducible_modulus_exits_2():
    assert main(
        ["build", "--p", "3", "--m", "2", "--construction", "first", "--alpha", "0",
         "--modulus", "1,2,1"]
    ) == 2


# -- verify-sweep ---------------------------------------------------------------------


def test_verify_sweep_small(tmp_path, capsys):
    code, doc = run_json(
        tmp_path,
        "s.json",
        ["verify-sweep", "--p", "3", "--m", "2", "3", "--no-timestamp"],
    )
    assert code == 0
    summary = doc["summary"]
    # alphas 0..2 for m in {2,3} plus two second-construction instances at m=2
    # and two odd-degree skips at m=3
    assert summary == {"pass": 8, "fail": 0, "skip": 2}
    assert all(inst["status"] != "fail" for inst in doc["instances"])
    assert "seconds" not in doc["instances"][0]
    human = capsys.readouterr().out
    assert "summary: pass=8 fail=0 skip=2" in human


def test_verify_sweep_degenerate_is_skip_not_fail(tmp_path):
    code, doc = run_json(
        tmp_path,
        "s.json",
        ["verify-sweep", "--p", "5", "--m", "2", "2", "--constructions", "first", "second-S"],
    )
    assert code == 0
    assert doc["summary"] == {"pass": 5, "fail": 0, "skip": 1}
    assert doc["instances"][-1] == {
        "construction": "second-S", "p": 5, "m": 2, "status": "skip",
        "reason": "degenerate defining set", "seconds": 0.0,
    }


def test_verify_sweep_q_cap_skips(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep, "DEFAULT_Q_CAP", 10)
    code, doc = run_json(
        tmp_path,
        "s.json",
        ["verify-sweep", "--p", "3", "--m", "2", "3", "--constructions", "first"],
    )
    assert code == 0
    assert doc["summary"]["pass"] == 3  # only m=2 fits under the cap
    assert doc["summary"]["skip"] == 3
    assert all(
        inst["reason"] == "exceeds q-cap"
        for inst in doc["instances"]
        if inst["status"] == "skip"
    )


def test_verify_sweep_explicit_alphas(tmp_path):
    code, doc = run_json(
        tmp_path,
        "s.json",
        ["verify-sweep", "--p", "3", "--m", "3", "3", "--constructions", "first",
         "--alphas", "0,2"],
    )
    assert code == 0
    assert [inst["alpha"] for inst in doc["instances"]] == [0, 2]


def test_verify_sweep_alphas_2_and_3_transfer_from_the_first_oracle_run(tmp_path):
    # alpha = 2 is the field's first alpha != 0 instance, so it becomes the reference
    code, doc = run_json(
        tmp_path,
        "s.json",
        ["verify-sweep", "--p", "5", "--m", "3", "3", "--constructions", "first",
         "--alphas", "2,3"],
    )
    assert code == 0
    details = [inst["detail"] for inst in doc["instances"]]
    assert [d["distance_route"] for d in details] == ["pairwise", "transferred"]
    assert [d["d_pairwise"] for d in details] == [20, 20]


def test_verify_sweep_empty_spec(monkeypatch, capsys):
    # a sweep that would check nothing is bad input, not a pass
    def must_not_run(*args, **kwargs):
        raise AssertionError("an instance ran in an empty sweep")

    monkeypatch.setattr(sweep, "verify_first_instance", must_not_run)
    monkeypatch.setattr(sweep, "verify_second_instance", must_not_run)
    for argv in (
        ["--p"],
        ["--constructions"],
        ["--alphas", ""],
        ["--p", "3", "--m", "3", "3", "--constructions", "second-S"],  # every degree odd
        ["--p", "5", "--m", "2", "2", "--constructions", "second-S"],  # every point degenerate
        ["--p", "3", "--m", "2", "2"],  # every instance over the cap, once it is 1
    ):
        if argv == ["--p", "3", "--m", "2", "2"]:
            monkeypatch.setattr(sweep, "DEFAULT_Q_CAP", 1)
        assert main(["verify-sweep"] + argv) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValueError"


def test_verify_sweep_degree_past_the_q_cap_is_refused(monkeypatch, capsys):
    # 2**18 > 100,000, so every field of degree 18 exceeds the default cap
    def must_not_run(*args, **kwargs):
        raise AssertionError("an instance ran in a sweep past the q-cap")

    monkeypatch.setattr(sweep, "verify_first_instance", must_not_run)
    monkeypatch.setattr(sweep, "verify_second_instance", must_not_run)
    assert main(["verify-sweep", "--m", "2", "18"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ValueError" and "q-cap" in error["message"]


def test_verify_sweep_no_timestamp_is_deterministic(tmp_path):
    argv = ["verify-sweep", "--p", "3", "--m", "2", "2", "--no-timestamp"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gauss_check_sampling_is_deterministic(tmp_path):
    argv = ["gauss-check", "--p", "3", "--m", "4", "--no-timestamp"]
    out1, out2 = tmp_path / "g1.json", tmp_path / "g2.json"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["verify-sweep", "--p", "3", "--m", "2", "2"], ["gauss-check", "--p", "3", "--m", "2"]],
    ids=["verify-sweep", "gauss-check"],
)
def test_json_only_commands_refuse_csv_before_running(tmp_path, monkeypatch, argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the command ran although it takes no --format")

    monkeypatch.setattr(cli, "make_field", must_not_run)
    monkeypatch.setattr(cli, "run_sweep", must_not_run)
    out = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_only_build_and_fibers_take_format():
    parser = cli.build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    with_format = {
        name
        for name, subparser in subcommands.choices.items()
        if any("--format" in action.option_strings for action in subparser._actions)
    }
    assert with_format == {"build", "fibers"}


def test_verify_sweep_rejects_reversed_m_range(capsys):
    assert main(["verify-sweep", "--m", "5", "2"]) == 2
    assert "extension degree range 5..2 is empty" in capsys.readouterr().err


def test_verify_sweep_runs_repeated_alpha_once(tmp_path):
    code, doc = run_json(
        tmp_path,
        "s.json",
        ["verify-sweep", "--p", "3", "--m", "2", "2", "--constructions", "first",
         "--alphas", "0,0"],
    )
    assert code == 0
    assert [inst["alpha"] for inst in doc["instances"]] == [0]


def test_verify_sweep_bad_alpha_exits_before_any_instance(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("an instance ran before alpha was checked")

    monkeypatch.setattr(sweep, "verify_first_instance", must_not_run)
    assert main(["verify-sweep", "--p", "5", "3", "--m", "2", "2", "--alphas", "4"]) == 2


def test_verify_sweep_alphas_without_a_construction_that_takes_one_exit_before_any_field(
    monkeypatch, capsys
):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a field was built before the alphas were checked")

    monkeypatch.setattr(sweep, "make_field", must_not_run)
    for argv in (
        ["--constructions", "second-S", "--alphas", "1"],
        ["--p", "3", "--m", "2", "2", "--constructions", "second-S", "second-complement",
         "--alphas", "9"],
    ):
        assert main(["verify-sweep", *argv]) == 2
        assert "alphas apply only to a construction that takes an alpha" in capsys.readouterr().err


def test_verify_sweep_failing_instance_is_reported(tmp_path, capsys, monkeypatch):
    pairwise = ccc.pairwise_min_distance
    calls = []

    def fails_once(words, symmetries=()):
        calls.append(len(words))
        if len(calls) == 1:
            raise DuplicateWords("two identical words found (distance 0)")
        return pairwise(words, symmetries)

    monkeypatch.setattr(ccc, "pairwise_min_distance", fails_once)
    code, doc = run_json(
        tmp_path,
        "s.json",
        ["verify-sweep", "--p", "3", "--m", "2", "2", "--constructions", "first"],
    )
    assert code == 1
    reason = "DuplicateWords: two identical words found (distance 0)"
    first, *rest = doc["instances"]
    assert (first["alpha"], first["status"], first["reason"]) == (0, "fail", reason)
    assert [(inst["alpha"], inst["status"]) for inst in rest] == [(1, "ok"), (2, "ok")]
    assert doc["summary"] == {"pass": 2, "fail": 1, "skip": 0}
    assert f"FAIL  first p=3 m=2 alpha=0  {reason}" in capsys.readouterr().out


def test_verify_sweep_rejects_bad_alpha():
    assert main(
        ["verify-sweep", "--p", "3", "--m", "2", "2", "--alphas", "5"]
    ) == 2


# -- gauss-check -------------------------------------------------------------------------


def test_gauss_check_32(tmp_path):
    code, doc = run_json(tmp_path, "g.json", ["gauss-check", "--p", "3", "--m", "2"])
    assert code == 0
    assert doc["ok"] is True
    assert doc["gauss_fq"]["deviation"] < 1e-9
    assert doc["gauss_fq"]["closed_form"] == [3.0, 0.0]
    assert doc["quadratic"]["mode"] == "exhaustive"


def test_gauss_check_71_magnitude(tmp_path):
    code, doc = run_json(tmp_path, "g.json", ["gauss-check", "--p", "7", "--m", "1"])
    assert code == 0
    evaluated = complex(*doc["gauss_fq"]["evaluated"])
    assert abs(evaluated) == pytest.approx(7**0.5, abs=1e-9)


def test_gauss_check_34_closed_form(tmp_path):
    code, doc = run_json(tmp_path, "g.json", ["gauss-check", "--p", "3", "--m", "4"])
    assert code == 0
    assert doc["gauss_fq"]["closed_form"] == [-9.0, 0.0]
    assert doc["quadratic"]["mode"] == "random"
    assert doc["quadratic"]["count"] >= 100


# -- fibers ---------------------------------------------------------------------------------


def test_fibers_32_json(tmp_path):
    code, doc = run_json(tmp_path, "f.json", ["fibers", "--p", "3", "--m", "2"])
    assert code == 0
    quad = {r["alpha"]: r["enumerated"] for r in doc["rows"] if r["kind"] == "quadratic-trace"}
    assert quad == {0: 5, 1: 2, 2: 2}
    assert doc["totals"] == {"linear-trace": 9, "quadratic-trace": 9}


def test_fibers_33_linear(tmp_path):
    code, doc = run_json(tmp_path, "f.json", ["fibers", "--p", "3", "--m", "3"])
    assert code == 0
    linear = [r["enumerated"] for r in doc["rows"] if r["kind"] == "linear-trace"]
    assert linear == [9, 9, 9]


def test_fibers_csv(tmp_path):
    out = tmp_path / "f.csv"
    assert main(["fibers", "--p", "3", "--m", "2", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "kind,alpha,enumerated,predicted"
    assert "quadratic-trace,0,5,5" in lines
    assert len(lines) == 7


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_fibers_wrong_prediction_exits_1(tmp_path, monkeypatch, fmt):
    predicted = charsums.predicted_square_trace_fiber
    monkeypatch.setattr(
        charsums, "predicted_square_trace_fiber", lambda p, m, alpha: predicted(p, m, alpha) + 1
    )
    out = tmp_path / f"f.{fmt}"
    assert main(["fibers", "--p", "3", "--m", "3", "--format", fmt, "--out", str(out)]) == 1
    if fmt == "csv":
        assert "quadratic-trace,0,9,10" in out.read_text().splitlines()
    else:
        doc = json.loads(out.read_text())
        assert doc["ok"] is False
        row = {"kind": "quadratic-trace", "alpha": 0, "enumerated": 9, "predicted": 10}
        assert row in doc["rows"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_build_composition_violation_exits_1(tmp_path, monkeypatch, fmt):
    count = codes.trace_count_table

    def perturbed(ds):  # the last element's word, not word 0, gets one more 1
        counts = count(ds)
        counts[-1, 1] += 1
        return counts

    monkeypatch.setattr(codes, "trace_count_table", perturbed)
    out = tmp_path / f"b.{fmt}"
    argv = ["build", "--p", "3", "--m", "3", "--construction", "first", "--alpha", "0"]
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 1
    if fmt == "csv":
        assert out.read_text() == "weight,frequency\n0,1\n6,8\n"
    else:
        assert json.loads(out.read_text())["ccc"]["checks"]["composition_ok"] is False


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_build_corrupted_census_exits_1(tmp_path, monkeypatch, capsys, fmt):
    entry = ccc.CONSTRUCTIONS["first"]

    def one_word_more(p, m, alpha):  # the census closed form claims one word too many
        (weight, count), *rest = entry.predict_census(p, m, alpha)
        return codes.WeightDistribution(((weight, count + 1), *rest))

    monkeypatch.setitem(ccc.CONSTRUCTIONS, "first", entry._replace(predict_census=one_word_more))
    out = tmp_path / f"b.{fmt}"
    argv = ["build", "--p", "3", "--m", "3", "--construction", "first", "--alpha", "0"]
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 1
    if fmt == "csv":
        assert out.read_text() == "weight,frequency\n0,1\n6,8\n"
    else:  # the subcode's own verdicts hold; the ambient ones do not
        assert all(json.loads(out.read_text())["ccc"]["checks"].values())
        human = capsys.readouterr().out
        assert "checks         FAILED: ambient_dimension, ambient_weight_distribution\n" in human


def test_build_failed_bound_check_exits_1(tmp_path, monkeypatch, capsys):
    entry = ccc.CONSTRUCTIONS["second-S"]
    forced = entry._replace(bound_checks=lambda sub, report: {"lfvc_bound_inapplicable": False})
    monkeypatch.setitem(ccc.CONSTRUCTIONS, "second-S", forced)
    code, doc = run_json(
        tmp_path, "b.json", ["build", "--p", "3", "--m", "2", "--construction", "second-S"]
    )
    assert code == 1
    assert all(doc["ccc"]["checks"].values())
    assert "checks         FAILED: lfvc_bound_inapplicable\n" in capsys.readouterr().out


# -- build and verify-sweep agree ------------------------------------------------------------


def test_build_and_sweep_report_the_same_subcode_verdicts(tmp_path, full_sweep_report):
    sweep_names = {
        "composition_ok": "subcode_composition",
        "distance_matches_ambient": "distance_matches_ambient",
        "prediction_matches": "subcode_parameters",
    }
    records = [
        inst
        for inst in full_sweep_report.instances
        if inst.p == 3 and inst.m <= 4 and inst.status != "skip"
    ]
    assert len(records) == 13
    for inst in records:
        argv = ["build", "--p", "3", "--m", str(inst.m), "--construction", inst.construction]
        if inst.alpha is not None:
            argv += ["--alpha", str(inst.alpha)]
        code, doc = run_json(tmp_path, "b.json", argv)
        assert code == 0
        built = {sweep_names[name]: v for name, v in doc["ccc"]["checks"].items()}
        assert built == {name: inst.checks[name] for name in sweep_names.values()}, inst.label()


# -- fields the int8 tables cannot hold, or too large to build -----------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--p", "131", "--m", "2", "--construction", "first", "--alpha", "1"],
        ["fibers", "--p", "131", "--m", "1"],
        ["gauss-check", "--p", "131", "--m", "1"],
        ["verify-sweep", "--p", "131", "--m", "2", "2"],
    ],
    ids=["build", "fibers", "gauss-check", "verify-sweep"],
)
def test_characteristic_above_127_exits_2(capsys, argv):
    assert main(argv) == 2
    assert "characteristic 131 is above 127" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--p", "3", "--m", "20", "--construction", "first", "--alpha", "1"],
        ["fibers", "--p", "3", "--m", "20"],
        ["gauss-check", "--p", "3", "--m", "20"],
        ["fibers", "--p", "7", "--m", "10" * 6],
    ],
    ids=["build", "fibers", "gauss-check", "fibers-huge-m"],
)
def test_field_over_q_cap_is_refused_before_it_is_built(monkeypatch, capsys, argv):
    def must_not_build(*args, **kwargs):
        raise AssertionError("a field over the q-cap was built")

    monkeypatch.setattr(cli, "make_field", must_not_build)
    assert main(argv) == 2
    assert "more than 100000 elements" in capsys.readouterr().err


def test_field_at_q_cap_boundary_is_built(tmp_path):
    # 3^10 = 59049 is under the cap, 3^11 = 177147 over it
    code, doc = run_json(tmp_path, "f.json", ["fibers", "--p", "3", "--m", "10"])
    assert code == 0 and doc["totals"]["linear-trace"] == 59049
    assert main(["fibers", "--p", "3", "--m", "11"]) == 2


def test_one_q_cap_rules_the_sweep_and_the_single_field_commands(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sweep, "DEFAULT_Q_CAP", 10)
    code, doc = run_json(
        tmp_path, "s.json", ["verify-sweep", "--p", "3", "--m", "2", "3", "--constructions", "first"]
    )
    assert code == 0 and doc["spec"]["q_cap"] == 10
    assert {(i["m"], i["status"], i.get("reason")) for i in doc["instances"]} == {
        (2, "ok", None), (3, "skip", "exceeds q-cap")
    }
    capsys.readouterr()
    assert main(["build", "--p", "3", "--m", "3", "--construction", "first", "--alpha", "0"]) == 2
    assert "GF(3^3) has more than 10 elements" in capsys.readouterr().err


def test_verify_sweep_has_no_cap_option(monkeypatch, capsys):
    # a sweep cannot ask for a field that build refuses: 3^11 is over the one cap
    def must_not_run(*args, **kwargs):
        raise AssertionError("a sweep ran with a cap of its own")

    for name in ("make_field", "verify_first_instance", "verify_second_instance"):
        monkeypatch.setattr(sweep, name, must_not_run)
    with pytest.raises(SystemExit) as exited:
        main(["verify-sweep", "--q-cap", "200000", "--p", "3", "--m", "11", "11"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --q-cap" in capsys.readouterr().err


def test_exactly_the_parameter_errors_exit_2(monkeypatch, capsys):
    # the one place the exit-code split lives is the ParameterError base class
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.TraceCCError)
    ]  # fmt: skip
    parameter = {c.__name__ for c in classes if issubclass(c, errors.ParameterError)}
    assert parameter - {"ParameterError"} == {
        "NotPrime",
        "EvenCharacteristic",
        "ReducibleModulus",
        "OddDegree",
        "DegenerateSet",
        "UnsupportedDegree",
    }
    for cls in classes:
        assert issubclass(cls, ValueError) == (cls.__name__ in parameter)

        def failing(field, cls=cls):
            raise cls("injected")

        monkeypatch.setattr(cli, "fiber_check", failing)
        expected = 2 if cls.__name__ in parameter else 1
        assert main(["fibers", "--p", "3", "--m", "2"]) == expected, cls.__name__
        assert json.loads(capsys.readouterr().out)["error"]["type"] == cls.__name__


# -- the one output path: main stamps, writes and routes every report --------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--p", "3", "--m", "2", "--construction", "first", "--alpha", "1"],
        ["verify-sweep", "--p", "3", "--m", "2", "2", "--constructions", "first"],
        ["gauss-check", "--p", "3", "--m", "2"],
        ["fibers", "--p", "3", "--m", "2"],
    ],
    ids=["build", "verify-sweep", "gauss-check", "fibers"],
)
def test_every_report_is_stamped_and_human_lines_go_where_the_report_does_not(
    tmp_path, capsys, argv
):
    def untimed(text):  # the sweep's per-instance timings differ between runs
        return re.sub(r"\(\d+\.\d+s\)", "", text)

    out = tmp_path / "r.json"
    assert main([*argv, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert list(doc)[:2] == ["command", "generated_at"] and doc["command"] == argv[0]
    datetime.fromisoformat(doc["generated_at"])
    with_out = capsys.readouterr()
    assert with_out.out and with_out.err == ""

    assert main(argv) == 0
    without_out = capsys.readouterr()
    assert list(json.loads(without_out.out))[:2] == ["command", "generated_at"]
    assert untimed(without_out.err) == untimed(with_out.out)


def test_readme_flags_line_lists_the_parser_options():
    # the README's Flags: paragraph names every long option of the four subcommands, no more
    parser = cli.build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        option
        for subparser in subcommands.choices.values()
        for action in subparser._actions
        for option in action.option_strings
        if option.startswith("--") and option not in ("--help", "--version")
    }
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (paragraph,) = re.findall(r"^Flags:.*?(?:\n\n|\Z)", readme, flags=re.M | re.S)
    assert set(re.findall(r"`(--[\w-]+)", paragraph)) == options
