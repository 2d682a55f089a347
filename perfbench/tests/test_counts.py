"""The traced run's work counts repeat exactly, so a count claim can rest on them.

Each case runs a workload traced, in fresh worker processes, twice; about
three minutes in all at the seed commit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent

COUNTS = (
    ("calls", "gfpm.scalar_trace"),
    ("counts", "gfpm.scalar_mul.calls"),
    ("calls", "gfpm.make_field"),
    ("counts", "codes.build_trace_code.cells"),
    ("calls", "ccc.pairwise"),
    ("counts", "ccc.pairwise.skipped"),
    ("counts", "ccc.pairwise.madds"),
    ("calls", "charsums.quadratic_sum"),
)


def traced_counts(tmp_path, workload, seed):
    result = tmp_path / f"{workload}-{seed}.json"
    subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1", "--result", str(result)],
        check=True, stdout=subprocess.DEVNULL, timeout=170,
    )  # fmt: skip
    worker = json.loads(result.read_text())
    assert worker["passes"][0]["failed"] == 0
    summary = worker["trace_summary"]
    return {name: summary[kind].get(name, 0) for kind, name in COUNTS}


@pytest.mark.parametrize(
    "workload, seeds",
    [("sweep-default", (1, 1)), ("charsums-fields", (1, 2))],
)
def test_counts_repeat_exactly(tmp_path, workload, seeds):
    first, second = (traced_counts(tmp_path, workload, seed) for seed in seeds)
    assert first == second
    assert any(first.values())
