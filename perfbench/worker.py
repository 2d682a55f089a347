"""Run one workload in this fresh process and write its measurements as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --result PATH

run.py starts it; tests start it directly. Whole passes of the workload run
back to back, and the run ends at the pass boundary nearest to --seconds: a
pass starts only if, taking the median pass so far as its length, less than
half of it would run past --seconds (at least one pass, exactly one when
traced).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import tracecc  # noqa: E402

import workloads  # noqa: E402
from tracer import OpClock, Tracer  # noqa: E402

def environment() -> dict:
    """Interpreter, numpy and BLAS versions and the BLAS thread count."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        cdll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(cdll, symbol):
                threads = getattr(cdll, symbol)()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": os.cpu_count(),
    }


def _one_pass(name, seed, clock, expected, out_dir):
    """Run one pass; return its gate result and report size."""
    if name in workloads.SWEEPS:
        report_bytes = 0
        try:
            observed, code, report_bytes = workloads.run_sweep_pass(name, out_dir / f"{name}.json")
        except Exception:  # the CLI raised: every operation of the pass failed
            traceback.print_exc()
            observed, code = {}, None
        result = workloads.gate(expected, observed)
        if code != 0:
            result["failures"].append(f"verify-sweep exit code {code}")
            result["failed"] = result["attempted"]
        return result, report_bytes
    observed, errors = workloads.run_charsums_pass(seed, clock)
    return workloads.gate(expected, observed, errors), 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(tracecc.__file__).resolve().parents:
        raise SystemExit(f"tracecc was imported from {tracecc.__file__}, not from {src}")
    expected = workloads.load_expected(args.workload)
    out_dir = args.result.parent

    clock = OpClock()
    tracer = Tracer(clock) if args.trace else None
    if tracer:
        tracer.install()
    if args.workload in workloads.SWEEPS:
        clock.install_sweep_ops()

    passes = []
    started = time.perf_counter()
    while True:
        clock.times.clear()
        t0 = time.perf_counter()
        gated, report_bytes = _one_pass(args.workload, args.seed, clock, expected, out_dir)
        wall = time.perf_counter() - t0
        passes.append(
            {
                "wall_s": wall,
                "slowest_op_s": max((s for _, s in clock.times), default=wall),
                "report_bytes": report_bytes,
                **gated,
            }
        )
        elapsed = time.perf_counter() - started
        typical = statistics.median(p["wall_s"] for p in passes)
        if tracer or elapsed + typical / 2 >= args.seconds:
            break

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        doc["trace_summary"] = tracer.summarize()
        tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz")
    args.result.write_text(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
