"""Reports stay byte-identical to the stored `--no-timestamp` goldens.

tests/golden/ holds the default `verify-sweep` report, the README's
`build` examples, and `gauss-check` and `fibers` reports. The floats in the
`gauss-check` reports are deterministic, so they are compared byte for byte
too. Regenerate a file only for an intended report change,
with the command its test runs plus `--out`.

The default sweep is also run on a second basis: any two fields of order q are
isomorphic by a map that keeps the trace, so weights, compositions, distances
and verdicts do not depend on the modulus (Lidl & Niederreiter, *Finite
Fields*, ch. 2), while every table built from it does.
"""

import itertools
import json
from pathlib import Path

import pytest

from tracecc import ReducibleModulus, SweepSpec, make_field, run_sweep, sweep
from tracecc.cli import main

GOLDEN = Path(__file__).parent / "golden"


def sweep_text(report) -> str:
    doc = {"command": "verify-sweep", **report.to_json_dict(include_timing=False)}
    return json.dumps(doc, indent=2) + "\n"


def test_default_sweep_matches_golden(full_sweep_report):
    assert sweep_text(full_sweep_report) == (GOLDEN / "verify-sweep-default.json").read_text()


def test_default_sweep_on_the_largest_moduli_matches_golden(monkeypatch):
    built = []

    def largest(p, m):  # the first irreducible of a descending scan, constant term first
        for tail in itertools.product(range(p - 1, -1, -1), repeat=m):
            try:
                field = make_field(p, m, tail + (1,))
            except ReducibleModulus:
                continue
            built.append(field)
            return field

    monkeypatch.setattr(sweep, "make_field", largest)
    text = sweep_text(run_sweep(SweepSpec()))
    assert len(built) == 12
    assert all(f.modulus != make_field(f.p, f.m).modulus for f in built)
    assert text == (GOLDEN / "verify-sweep-default.json").read_text()


@pytest.mark.parametrize(
    "name,argv",
    [
        (
            "build-first-p3-m3-alpha0.json",
            ["--p", "3", "--m", "3", "--construction", "first", "--alpha", "0", "--no-timestamp"],
        ),
        (
            "build-second-S-p3-m2.json",
            ["--p", "3", "--m", "2", "--construction", "second-S", "--no-timestamp"],
        ),
        (
            "build-first-p3-m3-alpha0.csv",
            ["--p", "3", "--m", "3", "--construction", "first", "--alpha", "0", "--format", "csv"],
        ),
    ],
)
def test_build_matches_golden(tmp_path, name, argv):
    out = tmp_path / name
    assert main(["build", *argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "name,argv",
    [
        ("gauss-check-p3-m3.json", ["gauss-check", "--p", "3", "--m", "3"]),
        ("gauss-check-p5-m2.json", ["gauss-check", "--p", "5", "--m", "2"]),
        ("gauss-check-p5-m4.json", ["gauss-check", "--p", "5", "--m", "4"]),
        ("fibers-p3-m3.json", ["fibers", "--p", "3", "--m", "3"]),
        ("gauss-check-p7-m5.json", ["gauss-check", "--p", "7", "--m", "5"]),
    ],
)
def test_charsums_commands_match_golden(tmp_path, name, argv):
    out = tmp_path / name
    assert main([*argv, "--no-timestamp", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
