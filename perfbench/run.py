"""tracecc benchmark: two verification workloads, traced per layer on request.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a tracecc checkout; it uses that checkout's
``src/`` and writes only under ``.bench_build/perfbench/``. Workloads:

- sweep-default: ``verify-sweep`` with its defaults (84 instance records);
- charsums-fields: ``gauss_check`` and ``fiber_check`` on the 12 fields of
  the default sweep, with gauss_check's sampled triples drawn from --seed.

Set-up time is the median of several fresh ``import tracecc`` processes.
Each workload runs in one fresh worker process (worker.py), so peak
RSS is per workload. With --trace 0 the worker runs whole passes for about
--seconds and the last stdout line carries the end-to-end metrics, each
the median over those passes. With --trace 1 one untraced pass runs, then
one traced pass in a second process, and the line carries the per-layer
metrics and the tracing overhead. The environment, every gate failure and
both processes' raw measurements go to a result file next to the reports.

``trace.coverage`` is the layers' self times over the traced wall time. It
is near 1 by construction: untraced code charges its time to the nearest
traced caller, and the root wrappers (``cli.main``, ``sweep.run_sweep``,
``sweep.gauss_check``, ``sweep.fiber_check``) enclose nearly all of a pass.
``trace.coverage_below_roots`` leaves those wrappers' self time out, so it
is the share of the pass that the layers' own spans account for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 8
DEADLINE_S = 170.0  # the whole run, set-up included, must end within 180 s
# traced groups whose spans enclose a whole pass or a whole field
ROOT_GROUPS = ("cli.main", "sweep.run_sweep", "sweep.gauss_check", "sweep.fiber_check")


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def setup_times(count: int) -> list:
    """Seconds from starting a fresh interpreter until tracecc is imported."""
    probe = "import sys, tracecc; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    times = []
    for _ in range(count):
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", probe], stdout=subprocess.PIPE, env=_src_env()
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - started)
            proc.stdout.read()
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"importing tracecc failed (exit {proc.returncode})")
    return times


def run_worker(workload, seed, seconds, trace, deadline) -> dict:
    result = OUT_DIR / f"worker-{workload}-seed{seed}-trace{trace}.json"
    result.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--result", str(result),
    ]  # fmt: skip
    proc = subprocess.run(
        cmd,
        env=_src_env(),
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0 or not result.is_file():
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(result.read_text())


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )  # fmt: skip
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256() -> str:
    """Digest of every file under src/, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup, worker) -> dict:
    passes = worker["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": _metric(worker["peak_rss_mb"], "MB"),
        "slowest_op_s": _metric(statistics.median(p["slowest_op_s"] for p in passes), "s"),
        "op_ok_share": _metric(1.0 - failed / attempted, "ratio"),
    }


def per_layer(untraced, traced) -> dict:
    summary = traced["trace_summary"]
    calls, busy, own = summary["calls"], summary["busy_s"], summary["self_s"]
    layer_self, counts = summary["layer_self_s"], summary["counts"]
    (traced_pass,) = traced["passes"]
    wall = traced_pass["wall_s"]
    rows = counts["ccc.extract.rows"]
    covered = sum(layer_self.values())
    root_self = sum(own.get(group, 0.0) for group in ROOT_GROUPS)
    out = {
        "gfpm.scalar_trace.calls": (calls.get("gfpm.scalar_trace", 0), "count"),
        "gfpm.scalar_trace.busy_s": (busy.get("gfpm.scalar_trace", 0.0), "s"),
        "gfpm.scalar_mul.calls": (counts["gfpm.scalar_mul.calls"], "count"),
        "gfpm.make_field.calls": (calls.get("gfpm.make_field", 0), "count"),
        "gfpm.make_field.busy_s": (busy.get("gfpm.make_field", 0.0), "s"),
        "gfpm.tables.busy_s": (busy.get("gfpm.tables", 0.0), "s"),
        "gfpm.trace_of_multiples.busy_s": (busy.get("gfpm.trace_of_multiples", 0.0), "s"),
        "codes.defining_set.busy_s": (busy.get("codes.defining_set", 0.0), "s"),
        "codes.build_trace_code.busy_s": (busy.get("codes.build_trace_code", 0.0), "s"),
        "codes.build_trace_code.self_s": (own.get("codes.build_trace_code", 0.0), "s"),
        "codes.build_trace_code.cells": (counts["codes.build_trace_code.cells"], "count"),
        "codes.build_trace_code.maxrss_rise_mb": (
            counts["codes.build_trace_code.maxrss_rise_mb"], "MB",
        ),
        "codes.weight_distribution.busy_s": (busy.get("codes.weight_distribution", 0.0), "s"),
        "codes.minimum_distance.busy_s": (busy.get("codes.minimum_distance", 0.0), "s"),
        "ccc.extract.self_s": (own.get("ccc.extract", 0.0), "s"),
        "ccc.extract.keep_ratio": (
            counts["ccc.extract.words"] / rows if rows else 0.0, "ratio",
        ),
        "ccc.pairwise.calls": (calls.get("ccc.pairwise", 0), "count"),
        "ccc.pairwise.skipped": (counts["ccc.pairwise.skipped"], "count"),
        "ccc.pairwise.busy_s": (busy.get("ccc.pairwise", 0.0), "s"),
        "ccc.pairwise.madds": (counts["ccc.pairwise.madds"], "count"),
        "charsums.quadratic_sum.calls": (calls.get("charsums.quadratic_sum", 0), "count"),
        "charsums.quadratic_sum.busy_s": (busy.get("charsums.quadratic_sum", 0.0), "s"),
        "charsums.quadratic_sum.self_s": (own.get("charsums.quadratic_sum", 0.0), "s"),
        "charsums.gauss_sum.busy_s": (busy.get("charsums.gauss_sum", 0.0), "s"),
        "charsums.fiber.busy_s": (busy.get("charsums.fiber", 0.0), "s"),
        "cli.report_bytes": (traced_pass["report_bytes"], "bytes"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - untraced["passes"][0]["wall_s"], "s"),
        "trace.coverage": (covered / wall, "ratio"),
        "trace.coverage_below_roots": ((covered - root_self) / wall, "ratio"),
        "trace.spans": (summary["spans"], "count"),
    }  # fmt: skip
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_s"] = (seconds, "s")
    return {name: _metric(value, unit) for name, (value, unit) in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "tracecc" / "__init__.py").is_file():
        print(f"error: no tracecc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    if args.trace:
        setup = []
        workers = [
            run_worker(args.workload, args.seed, 0, 0, deadline),
            run_worker(args.workload, args.seed, 0, 1, deadline),
        ]
        metrics = per_layer(*workers)
    else:
        # half the set-up probes before the workload and half after, so that a
        # short burst of load on a shared machine moves few of them
        setup = setup_times(SETUP_PROBES // 2)
        workers = [run_worker(args.workload, args.seed, args.seconds, 0, deadline)]
        setup += setup_times(SETUP_PROBES - SETUP_PROBES // 2)
        metrics = end_to_end(setup, workers[0])

    passes = [p for w in workers for p in w["passes"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    environment = {
        **workers[0]["environment"],
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    record = {
        "environment": environment,
        "setup_s_samples": setup,
        "metrics": metrics,
        "workers": [{k: v for k, v in w.items() if k != "environment"} for w in workers],
    }
    result_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1))
    for line in (f for p in passes for f in p["failures"]):
        print(f"gate: {line}")
    print("environment: " + json.dumps(environment, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
