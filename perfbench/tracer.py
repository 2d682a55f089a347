"""Op timing and layer tracing, installed on tracecc from outside.

Nothing in tracecc knows about this module. Both classes replace functions
by rebinding attributes: every tracecc module that holds a reference to a
wrapped function (``tracecc.sweep.build_trace_code``,
``tracecc.ccc.pairwise_min_distance``, ...) gets the wrapper, not only the
module that defines it, because the callers bind those names at import.
"""

from __future__ import annotations

import gzip
import json
import resource
import time
from contextlib import contextmanager
from functools import cached_property

_clock = time.perf_counter


def tracecc_modules():
    import tracecc
    from tracecc import ccc, charsums, cli, codes, gfpm, sweep

    return (tracecc, gfpm, codes, ccc, charsums, sweep, cli)


def rebind(original, replacement) -> None:
    """Point every tracecc module attribute that is `original` at `replacement`."""
    hits = 0
    for mod in tracecc_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                hits += 1
    if not hits:
        raise RuntimeError(f"{original!r} is bound in no tracecc module")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class OpClock:
    """Wall time of each operation (sweep instance or charsums field)."""

    def __init__(self):
        self.current = None  # label of the operation now running
        self.times = []  # (label, seconds), in completion order

    @contextmanager
    def op(self, label):
        outer, self.current = self.current, label
        started = _clock()
        try:
            yield
        finally:
            self.times.append((label, _clock() - started))
            self.current = outer

    def wrap(self, fn, label_of):
        def timed(*args, **kwargs):
            with self.op(label_of(*args, **kwargs)):
                return fn(*args, **kwargs)

        timed.__wrapped__ = fn
        return timed

    def install_sweep_ops(self):
        """Time each verify_*_instance call; run_sweep reaches them by module global."""
        from tracecc import sweep

        rebind(
            sweep.verify_first_instance,
            self.wrap(
                sweep.verify_first_instance,
                lambda field, alpha, **_: f"first p={field.p} m={field.m} alpha={alpha}",
            ),
        )
        rebind(
            sweep.verify_second_instance,
            self.wrap(
                sweep.verify_second_instance,
                lambda field, which, **_: (
                    f"second-{'S' if which == 'S' else 'complement'} p={field.p} m={field.m}"
                ),
            ),
        )


# metric group of every traced function; a group's busy time counts only the
# outermost of its nested spans (trace_table -> digits, gauss_sum_fp -> _fq)
_GROUPS = {
    "gfpm.make_field": "gfpm.make_field",
    "gfpm.FieldElement.trace": "gfpm.scalar_trace",
    "gfpm.Field.digits": "gfpm.tables",
    "gfpm.Field.trace_table": "gfpm.tables",
    "gfpm.Field.square_index_table": "gfpm.tables",
    "gfpm.Field.quadratic_character_table": "gfpm.tables",
    "gfpm.Field.trace_of_multiples": "gfpm.trace_of_multiples",
    "codes.build_defining_set_D": "codes.defining_set",
    "codes.build_defining_set_E": "codes.defining_set",
    "codes.build_trace_code": "codes.build_trace_code",
    "codes.weight_distribution": "codes.weight_distribution",
    "codes.minimum_distance": "codes.minimum_distance",
    "ccc.extract_subcode_first": "ccc.extract",
    "ccc.extract_subcode_second": "ccc.extract",
    "ccc.pairwise_min_distance": "ccc.pairwise",
    "charsums.quadratic_sum": "charsums.quadratic_sum",
    "charsums.gauss_sum_fq": "charsums.gauss_sum",
    "charsums.gauss_sum_fp": "charsums.gauss_sum",
    "charsums.count_trace_fiber": "charsums.fiber",
    "charsums.count_trace_square_fiber": "charsums.fiber",
    "sweep.run_sweep": "sweep.run_sweep",
    "sweep.verify_first_instance": "sweep.verify_instance",
    "sweep.verify_second_instance": "sweep.verify_instance",
    "sweep.gauss_check": "sweep.gauss_check",
    "sweep.fiber_check": "sweep.fiber_check",
    "cli.main": "cli.main",
}

LAYERS = ("gfpm", "codes", "ccc", "charsums", "sweep", "cli")


class Tracer:
    """One span per call of each public layer function, kept in memory.

    A span is ``[name, start, end, parent, op]``: `parent` is the index of
    the enclosing span (-1 at top level) and `op` the label of the
    operation the OpClock had open when the span started.
    """

    def __init__(self, clock: OpClock):
        self.clock = clock
        self.spans = []
        self.counts = {
            "gfpm.scalar_mul.calls": 0,
            "codes.build_trace_code.cells": 0,
            "codes.build_trace_code.maxrss_rise_mb": 0.0,
            "ccc.extract.rows": 0,
            "ccc.extract.words": 0,
            "ccc.pairwise.skipped": 0,
            "ccc.pairwise.madds": 0,
        }
        self._stack = []

    def span(self, name, fn, after=None):
        """Wrap `fn` so each call records a span; `after(result)` runs outside it."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            record = [name, _clock(), 0.0, stack[-1] if stack else -1, clock.current]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = _clock()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        from tracecc import ccc, charsums, cli, codes, gfpm, sweep

        counts = self.counts

        def functions(mod, prefix, names, after=None):
            for fname in names:
                fn = getattr(mod, fname)
                rebind(fn, self.span(f"{prefix}.{fname}", fn, after))

        functions(gfpm, "gfpm", ["make_field"])
        for attr in ("digits", "trace_table", "square_index_table", "quadratic_character_table"):
            prop = cached_property(self.span(f"gfpm.Field.{attr}", gfpm.Field.__dict__[attr].func))
            prop.__set_name__(gfpm.Field, attr)
            setattr(gfpm.Field, attr, prop)
        gfpm.Field.trace_of_multiples = self.span(
            "gfpm.Field.trace_of_multiples", gfpm.Field.trace_of_multiples
        )
        gfpm.FieldElement.trace = self.span("gfpm.FieldElement.trace", gfpm.FieldElement.trace)
        # 2.8 M calls per sweep: counted, not spanned
        mul = gfpm.FieldElement.__mul__

        def counted_mul(a, b):
            counts["gfpm.scalar_mul.calls"] += 1
            return mul(a, b)

        gfpm.FieldElement.__mul__ = counted_mul

        functions(codes, "codes", ["build_defining_set_D", "build_defining_set_E"])
        functions(codes, "codes", ["weight_distribution", "minimum_distance"])
        self._install_build_trace_code(codes)

        def extracted(sub):
            counts["ccc.extract.rows"] += sub.index_count
            counts["ccc.extract.words"] += sub.M
            if sub.d_pairwise is None:
                counts["ccc.pairwise.skipped"] += 1
            else:
                symbols = sum(1 for c in sub.composition if c)
                counts["ccc.pairwise.madds"] += symbols * sub.M * sub.M * sub.n

        functions(ccc, "ccc", ["extract_subcode_first", "extract_subcode_second"], extracted)
        functions(ccc, "ccc", ["pairwise_min_distance"])

        functions(charsums, "charsums", ["quadratic_sum", "gauss_sum_fq", "gauss_sum_fp"])
        functions(charsums, "charsums", ["count_trace_fiber", "count_trace_square_fiber"])
        functions(sweep, "sweep", ["run_sweep", "verify_first_instance", "verify_second_instance"])
        functions(sweep, "sweep", ["gauss_check", "fiber_check"])
        functions(cli, "cli", ["main"])

    def _install_build_trace_code(self, codes):
        counts = self.counts
        fn = codes.build_trace_code

        def measured(ds):
            before = _maxrss_mb()
            code = fn(ds)
            counts["codes.build_trace_code.maxrss_rise_mb"] += _maxrss_mb() - before
            counts["codes.build_trace_code.cells"] += code.matrix.shape[0] * code.matrix.shape[1]
            return code

        rebind(fn, self.span("codes.build_trace_code", measured))

    # -- analysis --------------------------------------------------------------

    def summarize(self) -> dict:
        """Calls, busy time and self time per group; self time per layer."""
        spans = self.spans
        groups = [_GROUPS[s[0]] for s in spans]
        covered = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        calls, busy, self_s = {}, {}, {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, parent, _op) in enumerate(spans):
            group = groups[i]
            own = end - start - covered[i]
            calls[group] = calls.get(group, 0) + 1
            self_s[group] = self_s.get(group, 0.0) + own
            layer_self[name.split(".", 1)[0]] += own
            while parent >= 0 and groups[parent] != group:
                parent = spans[parent][3]
            if parent < 0:  # outermost span of its group
                busy[group] = busy.get(group, 0.0) + end - start
        return {
            "calls": calls,
            "busy_s": busy,
            "self_s": self_s,
            "layer_self_s": layer_self,
            "counts": dict(self.counts),
            "spans": len(spans),
        }

    def write_spans(self, path) -> None:
        """Dump every span, columnwise, as gzipped JSON."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "name": [code[s[0]] for s in self.spans],
            "start": [s[1] for s in self.spans],
            "end": [s[2] for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "op": [s[4] for s in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
