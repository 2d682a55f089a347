"""The two workloads and the correctness gate.

Each workload is a closed loop with one client: its operations run back to
back, in the CLI's fixed order, in one process. An operation is one sweep
instance record or one charsums field. The gate compares what the program
produced with values stored from the seed commit under ``expected/``, field
by field, so fields that later reports add do not trip it. It reads only
computed values, never the report's own pass/fail booleans.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

SWEEPS = {
    "sweep-default": ["verify-sweep"],
}
# the 12 fields of the default sweep, p^m <= 1e5
CHARSUMS_FIELDS = [(p, m) for p in (3, 5, 7) for m in range(2, 6)]
WORKLOADS = (*SWEEPS, "charsums-fields")

# the gauss-check verdict tolerance, re-applied to the reported deviations
EPS = 1e-9


def load_expected(name: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text())


def instance_key(inst: dict) -> str:
    key = f"{inst['construction']} p={inst['p']} m={inst['m']}"
    return key + (f" alpha={inst['alpha']}" if "alpha" in inst else "")


def project_instance(inst: dict) -> dict:
    """The values of one sweep instance record that the gate compares."""
    if inst["status"] == "skip":
        return {"status": "skip", "reason": inst.get("reason")}
    detail = inst.get("detail", {})
    out = {"status": inst["status"]}
    for name in ("n", "M", "d", "d_pairwise", "d_ambient", "omega", "census"):
        out[name] = detail.get(name)
    out["lfvc_verdict"] = detail.get("lfvc", {}).get("verdict")
    return out


def project_field(gauss: dict, fibers: dict) -> dict:
    """The values of one field's gauss_check and fiber_check results the gate compares."""
    deviations = (
        gauss["gauss_fq"]["deviation"],
        gauss["gauss_fp"]["deviation"],
        gauss["quadratic"]["max_deviation"],
    )
    return {
        "gauss_ok": gauss["ok"],
        "within_eps": max(deviations) <= EPS,
        "quadratic_mode": gauss["quadratic"]["mode"],
        "quadratic_count": gauss["quadratic"]["count"],
        "fibers_ok": fibers["ok"],
        "fiber_rows": fibers["rows"],
        "fiber_totals": fibers["totals"],
    }


def field_key(p: int, m: int) -> str:
    return f"GF({p}^{m})"


def field_seeds(seed: int) -> list:
    """One gauss_check seed per charsums field, all drawn from the workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(2**32) for _ in CHARSUMS_FIELDS]


def run_sweep_pass(name: str, out_path: Path):
    """Run one verify-sweep through the CLI; return (observed, exit code, report bytes)."""
    from tracecc import cli

    code = cli.main([*SWEEPS[name], "--out", str(out_path)])
    report = json.loads(out_path.read_text())
    observed = {instance_key(inst): project_instance(inst) for inst in report["instances"]}
    return observed, code, out_path.stat().st_size


def run_charsums_pass(seed: int, clock):
    """gauss_check then fiber_check on each field; return (observed, errors by key)."""
    from tracecc import gfpm, sweep

    observed, errors = {}, {}
    for (p, m), field_seed in zip(CHARSUMS_FIELDS, field_seeds(seed)):
        key = field_key(p, m)
        try:
            with clock.op(key):
                field = gfpm.make_field(p, m)
                gauss = sweep.gauss_check(field, seed=field_seed)
                fibers = sweep.fiber_check(field)
            observed[key] = project_field(gauss, fibers)
        except Exception as exc:  # a failing operation is counted, not fatal
            errors[key] = f"{type(exc).__name__}: {exc}"
    return observed, errors


def gate(expected: dict, observed: dict, errors=None) -> dict:
    """Compare observed with expected operation by operation.

    Returns attempted and failed operation counts plus one line per
    mismatch. A missing operation, an unexpected one, an exception or any
    differing field fails the operation.
    """
    errors = errors or {}
    failures = []
    for key, want in expected.items():
        if key in errors:
            failures.append(f"{key}: {errors[key]}")
            continue
        got = observed.get(key)
        if got is None:
            failures.append(f"{key}: missing")
            continue
        bad = [f for f in want if got.get(f) != want[f]]
        if bad:
            failures.append(
                f"{key}: " + ", ".join(f"{f} {got.get(f)!r} != {want[f]!r}" for f in bad)
            )
    extra = [key for key in observed if key not in expected]
    failures += [f"{key}: unexpected operation" for key in extra]
    return {
        "attempted": len(expected) + len(extra),
        "failed": len(failures),
        "failures": failures,
    }
