"""The benchmark's op clock and tracer still install on this source tree.

perfbench/tracer.py wraps tracecc functions by name (the verify_*_instance
wrappers, the fiber counters, the Gauss sums, ...), and its op clock times one
operation per sweep instance. This runs both, unmodified, in a fresh process
(they rebind module globals for good) on a small sweep and one field's
charsums checks, so deleting or renaming a name they need fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import OpClock, Tracer
from tracecc import SweepSpec, make_field, sweep

clock = OpClock()
tracer = Tracer(clock)
tracer.install()
clock.install_sweep_ops()
report = sweep.run_sweep(SweepSpec(p_list=(3,), m_min=2, m_max=2))
field = make_field(3, 2)
gauss, fibers = sweep.gauss_check(field), sweep.fiber_check(field)
print(json.dumps({
    "ran": [inst.label() for inst in report.instances if inst.status != "skip"],
    "ok": report.ok and gauss["ok"] and fibers["ok"],
    "ops": [label for label, _ in clock.times],
    "spans": sorted({span[0] for span in tracer.spans}),
}))
"""


def test_op_clock_and_tracer_install_and_time_every_instance():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["ok"] is True
    assert len(result["ran"]) == 5  # first alpha 0, 1, 2; second-S; second-complement
    assert result["ops"] == result["ran"]  # one op time per instance that runs
    for name in (
        "sweep.verify_first_instance",
        "sweep.verify_second_instance",
        "ccc.extract_subcode_first",
        "ccc.pairwise_min_distance",
        "charsums.gauss_sum_fq",
        "charsums.count_trace_square_fiber",
    ):
        assert name in result["spans"]
