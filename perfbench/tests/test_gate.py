"""The correctness gate passes the seed commit's values and fails on any change."""

import copy
import subprocess
import sys
from pathlib import Path

import pytest
import run
import workloads
from tracecc import make_field, sweep

PERFBENCH = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def gf27_instance():
    """The real record of one default-sweep instance, as the CLI reports it."""
    inst = sweep.verify_first_instance(make_field(3, 3), 0).to_json_dict()
    return workloads.instance_key(inst), workloads.project_instance(inst)


def test_seed_values_pass(gf27_instance):
    key, observed = gf27_instance
    expected = workloads.load_expected("sweep-default")
    result = workloads.gate({key: expected[key]}, {key: observed})
    assert result == {"attempted": 1, "failed": 0, "failures": []}


@pytest.mark.parametrize("field, bad", [("omega", [2, 3, 4]), ("d", 5), ("lfvc_verdict", "x")])
def test_one_corrupted_value_fails_its_operation(gf27_instance, field, bad):
    key, observed = gf27_instance
    expected = workloads.load_expected("sweep-default")
    corrupted = copy.deepcopy(expected)
    corrupted[key][field] = bad
    observed_all = {k: v for k, v in expected.items() if k != key}
    observed_all[key] = observed
    result = workloads.gate(corrupted, observed_all)
    assert result["attempted"] == 84
    assert result["failed"] == 1
    assert result["failures"][0].startswith(f"{key}: {field} ")


def test_missing_extra_and_raising_operations_fail():
    expected = {"a": {"ok": True}, "b": {"ok": True}, "c": {"ok": True}}
    observed = {"a": {"ok": True}, "d": {"ok": True}}
    result = workloads.gate(expected, observed, errors={"b": "ValueError: boom"})
    assert result["attempted"] == 4
    assert result["failed"] == 3  # b raised, c missing, d unexpected


def test_fields_added_to_a_report_are_ignored():
    expected = {"a": {"d": 6}}
    assert workloads.gate(expected, {"a": {"d": 6, "distance_route": "pairwise"}})["failed"] == 0


def test_corrupted_expected_value_lowers_op_ok_share():
    """One wrong stored count fails one field, and op_ok_share drops below 1."""
    observed = workloads.load_expected("charsums-fields")
    corrupted = copy.deepcopy(observed)
    corrupted["GF(3^3)"]["quadratic_count"] += 1
    gated = workloads.gate(corrupted, observed)
    assert (gated["attempted"], gated["failed"]) == (12, 1)
    assert gated["failures"] == ["GF(3^3): quadratic_count 18954 != 18955"]
    one_pass = {"wall_s": 19.0, "slowest_op_s": 12.0, **gated}
    worker = {"passes": [one_pass], "peak_rss_mb": 35.0}
    assert run.end_to_end([0.1], worker)["op_ok_share"]["value"] == pytest.approx(11 / 12)


def test_refuses_a_directory_without_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit nonzero, print no result."""
    root = PERFBENCH.parent
    (tmp_path / "BENCHMARK.json").write_bytes((root / "BENCHMARK.json").read_bytes())
    dest = tmp_path / "perfbench"
    for path in PERFBENCH.rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            target = dest / path.relative_to(PERFBENCH)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-default", "--seed", "1",
         "--seconds", "30", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
