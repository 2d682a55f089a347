"""Batch command line frontend.

Commands: build, verify-sweep, gauss-check, fibers. JSON is the machine
interface (written to --out, or to stdout when --out is omitted). Only build
and fibers take --format, whose csv gives their weight and fiber tables.
Human-readable lines go to stdout with --out and to stderr without it.
Exit codes: 0 all checks pass, 1 verification mismatch, 2 invalid parameters.

Reports are byte-identical across identical invocations once the volatile
fields (timestamp, timings) are excluded with --no-timestamp.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, sweep
from .ccc import CONSTRUCTIONS, build_construction, ccc_json
from .codes import trace_code_json, weight_distribution, weight_table_csv
from .errors import TraceCCError
from .gfpm import check_characteristic, make_field
from .sweep import SweepSpec, exceeds_q_cap, fiber_check, gauss_check, judge, run_sweep

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_PARAMS = 2
EMIT_CODEWORDS_MAX_BYTES = 100_000_000  # most symbols (one byte each) --emit-codewords writes


def _parse_modulus(text):
    if text is None:
        return None
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse modulus {text!r}: {exc}") from None


def _field(args):
    """The field of a single-field command, refused above DEFAULT_Q_CAP before any table exists."""
    check_characteristic(args.p)
    if exceeds_q_cap(args.p, args.m):
        raise ValueError(f"GF({args.p}^{args.m}) has more than {sweep.DEFAULT_Q_CAP} elements")
    return make_field(args.p, args.m, _parse_modulus(args.modulus))


# Each handler returns (JSON document, human lines, ok), or (CSV text, None, ok) with
# --format csv; main stamps and writes the report, routes the lines and sets the exit code.
def _cmd_build(args):
    if args.emit_codewords and args.format == "csv":
        raise ValueError("--emit-codewords does not apply to --format csv, which holds no codeword")
    field = _field(args)
    code, sub = build_construction(field, args.construction, args.alpha)
    emitted = (code.distinct_count + sub.M) * code.length  # the build holds no codeword matrix
    if args.emit_codewords and emitted > EMIT_CODEWORDS_MAX_BYTES:
        raise ValueError(f"--emit-codewords would write {emitted:,} symbols, over the limit")
    failed = judge(sub).failed  # the same verdict as the instance's sweep record
    if args.format == "csv":
        return weight_table_csv(weight_distribution(code)), None, not failed
    doc = {
        "code": trace_code_json(code, emit_codewords=args.emit_codewords),
        "ccc": ccc_json(sub, emit_codewords=args.emit_codewords),
    }
    report = sub.lfvc()
    lines = [
        f"construction   {sub.construction}"
        + (f" (alpha={sub.alpha})" if sub.alpha is not None else ""),
        f"field          {field!r}, modulus {','.join(str(c) for c in field.modulus)}",
        f"ambient code   [{code.length}, {code.dimension}] over GF({field.p}),"
        f" min distance {sub.d_ambient}",
        f"ccc            n={sub.n} M={sub.M} d={sub.d} omega={sub.composition}",
        f"lfvc           denominator={report.denominator}"
        + (f" bound={report.bound}" if report.bound is not None else "")
        + f" verdict={report.verdict}",
    ]
    lines.append(f"checks         {'FAILED: ' + ', '.join(failed) if failed else 'all ok'}")
    return doc, lines, not failed


def _cmd_verify_sweep(args):
    alphas = "all"
    if args.alphas != "all":
        alphas = tuple(int(part) for part in args.alphas.split(","))
    spec = SweepSpec(
        p_list=tuple(args.p),
        m_min=args.m[0],
        m_max=args.m[1],
        constructions=tuple(args.constructions),
        alphas=alphas,
    )
    report = run_sweep(spec)
    lines = []
    for inst in report.instances:
        if inst.status == "skip":
            lines.append(f"skip  {inst.label()}  ({inst.reason})")
        elif inst.status == "ok":
            lines.append(f"ok    {inst.label()}  ({inst.seconds:.3f}s)")
        else:
            lines.append(f"FAIL  {inst.label()}  {inst.reason or inst.failed}")
    lines.append("summary: " + " ".join(f"{k}={v}" for k, v in report.summary().items()))
    return report.to_json_dict(include_timing=not args.no_timestamp), lines, report.ok


def _cmd_gauss_check(args):
    field = _field(args)
    result = gauss_check(field)
    lines = [
        f"G over {field!r}: deviation {result['gauss_fq']['deviation']:.3e}",
        f"G over GF({field.p}): deviation {result['gauss_fp']['deviation']:.3e}",
        f"quadratic sums ({result['quadratic']['mode']}, {result['quadratic']['count']}):"
        f" max deviation {result['quadratic']['max_deviation']:.3e}",
        "all within tolerance" if result["ok"] else "TOLERANCE EXCEEDED",
    ]
    return result, lines, result["ok"]


def _cmd_fibers(args):
    field = _field(args)
    result = fiber_check(field)
    if args.format == "csv":
        lines = ["kind,alpha,enumerated,predicted"]
        for row in result["rows"]:
            lines.append(f"{row['kind']},{row['alpha']},{row['enumerated']},{row['predicted']}")
        return "\n".join(lines) + "\n", None, result["ok"]
    lines = [
        f"{row['kind']:<16} alpha={row['alpha']}  enumerated={row['enumerated']}"
        f"  predicted={row['predicted']}"
        for row in result["rows"]
    ]
    lines.append("all counts match" if result["ok"] else "COUNT MISMATCH")
    return result, lines, result["ok"]


def _add_common(parser, with_modulus=True):
    parser.add_argument("--out", metavar="PATH", help="write the report to this file")
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit volatile fields (timestamp, timings) for byte-identical output",
    )
    if with_modulus:
        parser.add_argument(
            "--modulus",
            metavar="C0,C1,...",
            help="modulus coefficients, constant term first (default: smallest irreducible)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracecc",
        description="Build and verify constant composition codes from trace codes over GF(p).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build one construction and report it")
    p_build.add_argument("--p", type=int, required=True, help="odd prime characteristic")
    p_build.add_argument("--m", type=int, required=True, help="extension degree")
    p_build.add_argument("--construction", choices=tuple(CONSTRUCTIONS), required=True)
    p_build.add_argument("--alpha", type=int, help="trace value (first construction)")
    p_build.add_argument(
        "--emit-codewords", action="store_true", help="include codewords (digits for p <= 10, comma-separated for p >= 11)"
    )
    p_build.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
    _add_common(p_build)
    p_build.set_defaults(handler=_cmd_build)

    p_sweep = sub.add_parser("verify-sweep", help="verify closed forms over a parameter sweep")
    p_sweep.add_argument("--p", type=int, nargs="*", default=[3, 5, 7], help="primes to sweep")
    p_sweep.add_argument(
        "--m", type=int, nargs=2, default=[2, 5], metavar=("MIN", "MAX"),
        help="inclusive extension degree range",
    )
    p_sweep.add_argument(
        "--constructions",
        nargs="*",
        choices=tuple(CONSTRUCTIONS),
        default=list(CONSTRUCTIONS),
    )
    p_sweep.add_argument(
        "--alphas", default="all", help="'all' or comma-separated residues, e.g. 0,1"
    )
    _add_common(p_sweep, with_modulus=False)
    p_sweep.set_defaults(handler=_cmd_verify_sweep, format="json")

    p_gauss = sub.add_parser("gauss-check", help="check Gauss and quadratic sum closed forms")
    p_gauss.add_argument("--p", type=int, required=True)
    p_gauss.add_argument("--m", type=int, required=True)
    _add_common(p_gauss)
    p_gauss.set_defaults(handler=_cmd_gauss_check, format="json")

    p_fibers = sub.add_parser("fibers", help="tabulate trace fiber counts vs closed forms")
    p_fibers.add_argument("--p", type=int, required=True)
    p_fibers.add_argument("--m", type=int, required=True)
    p_fibers.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
    _add_common(p_fibers)
    p_fibers.set_defaults(handler=_cmd_fibers)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
            raise ValueError(f"cannot write --out {args.out}: a directory, or in a missing one")
        report, lines, ok = args.handler(args)
    except (TraceCCError, ValueError) as exc:
        bad_params = isinstance(exc, ValueError)  # every ParameterError is a ValueError
        print(f"{'error' if bad_params else 'verification failure'}: {exc}", file=sys.stderr)
        if args.format == "json":
            doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
            sys.stdout.write(json.dumps(doc, indent=2) + "\n")
        return EXIT_BAD_PARAMS if bad_params else EXIT_MISMATCH
    if args.format == "json":
        stamp = {"command": args.command}
        if not args.no_timestamp:
            stamp["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
        report = json.dumps({**stamp, **report}, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(report)
    else:
        sys.stdout.write(report)
    for line in lines or ():
        print(line, file=sys.stdout if args.out else sys.stderr)
    return EXIT_OK if ok else EXIT_MISMATCH


if __name__ == "__main__":
    raise SystemExit(main())
