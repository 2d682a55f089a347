"""Verification engine: reproduce every closed-form claim by enumeration.

Each instance record pairs exhaustively enumerated quantities (weight
censuses, subcode parameters, pairwise distances, fiber counts, character
sums) with their closed-form predictions and reports one boolean per check.
A sweep is planned first: the spec is validated and every skip decided,
from each construction's closed form, before any instance runs. The plan then
runs in its deterministic (p, m, construction, alpha) order, and `judge` is
the one verdict on an instance, for the sweep and for `build` alike.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .ccc import CONSTRUCTIONS, PAIRWISE_ORACLE_CAP, PairwiseReference, build_construction, ccc_json
from .charsums import (
    EPS,
    count_trace_fiber,
    count_trace_square_fiber,
    gauss_sum_fp,
    gauss_sum_fq,
    quadratic_sums,
)
from .codes import weight_distribution
from .errors import DegenerateSet, OddDegree, TraceCCError
from .gfpm import Field, check_characteristic, make_field

#: quadratic-sum spot checks use every triple up to this field size, then sampling
EXHAUSTIVE_TRIPLE_LIMIT = 27
QUADRATIC_SAMPLE_COUNT = 100
#: every command's field-size ceiling, set by no option: larger fields are skipped or refused
DEFAULT_Q_CAP = 100_000


@dataclass(frozen=True)
class SweepSpec:
    p_list: tuple = (3, 5, 7)
    m_min: int = 2
    m_max: int = 5
    constructions: tuple = tuple(CONSTRUCTIONS)
    alphas: object = "all"  # "all" or an explicit tuple of residues

    def to_json_dict(self) -> dict:
        return {
            "p_list": list(self.p_list),
            "m_range": [self.m_min, self.m_max],
            "q_cap": DEFAULT_Q_CAP,
            "constructions": list(self.constructions),
            "alphas": "all" if self.alphas == "all" else list(self.alphas),
            "pairwise_cap": PAIRWISE_ORACLE_CAP,
        }


@dataclass
class InstanceResult:
    construction: str
    p: int
    m: int
    alpha: object = None
    tau: object = None
    status: str = "ok"  # "ok" | "fail" | "skip"
    reason: str = ""
    checks: dict = dataclass_field(default_factory=dict)
    detail: dict = dataclass_field(default_factory=dict)
    seconds: float = 0.0

    @property
    def failed(self) -> list:
        return [k for k, v in self.checks.items() if v is False]

    def finalize(self):
        self.status = "fail" if self.failed else "ok"
        return self

    def label(self) -> str:
        extra = f" alpha={self.alpha}" if self.alpha is not None else ""
        return f"{self.construction} p={self.p} m={self.m}{extra}"

    def to_json_dict(self, include_timing: bool = True) -> dict:
        doc = {"construction": self.construction, "p": self.p, "m": self.m}
        if self.alpha is not None:
            doc["alpha"] = self.alpha
        if self.tau is not None:
            doc["tau"] = self.tau
        doc["status"] = self.status
        if self.reason:
            doc["reason"] = self.reason
        if self.checks:
            doc["checks"] = dict(self.checks)
        if self.detail:
            doc["detail"] = dict(self.detail)
        if include_timing:
            doc["seconds"] = round(self.seconds, 6)
        return doc


@dataclass
class VerificationReport:
    spec: SweepSpec
    instances: list

    def summary(self) -> dict:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for inst in self.instances:
            key = {"ok": "pass", "fail": "fail", "skip": "skip"}[inst.status]
            out[key] += 1
        return out

    @property
    def ok(self) -> bool:
        return all(inst.status != "fail" for inst in self.instances)

    def to_json_dict(self, include_timing: bool = True) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "instances": [i.to_json_dict(include_timing) for i in self.instances],
            "summary": self.summary(),
        }


def _wd_rows(wd) -> list:
    return [list(pair) for pair in wd]


def judge(sub) -> InstanceResult:
    """Check a subcode and its ambient code (`sub.source`) against all closed forms."""
    code, field = sub.source, sub.source.field
    p, m = field.p, field.m
    entry = CONSTRUCTIONS[sub.construction]
    census = weight_distribution(code)
    predicted_wd = entry.predict_census(p, m, sub.alpha)
    predicted = entry.predict(p, m, sub.alpha)
    doc = ccc_json(sub)
    verdicts = doc["checks"]
    return InstanceResult(
        sub.construction, p, m, alpha=sub.alpha, tau=sub.tau,
        checks={
            "ambient_length": code.length == predicted.n,
            "ambient_dimension": p**code.dimension == predicted_wd.total(),
            "ambient_weight_distribution": census == predicted_wd,
            "subcode_composition": verdicts["composition_ok"],
            "subcode_parameters": verdicts["prediction_matches"],
            "distance_matches_ambient": verdicts["distance_matches_ambient"],
            **entry.bound_checks(sub, sub.lfvc()),
        },
        detail={
            "census": _wd_rows(census),
            "predicted_census": _wd_rows(predicted_wd),
            **{k: doc[k] for k in ("n", "M", "d", "d_pairwise", "d_ambient", "distance_route")},
            "omega": doc["omega"],
            "predicted": {**predicted._asdict(), "omega": list(predicted.omega)},
            "lfvc": doc["lfvc"],
        },
    ).finalize()


def _verify(construction: str, field: Field, alpha, reference=None) -> InstanceResult:
    started = time.perf_counter()
    result = judge(build_construction(field, construction, alpha, reference=reference)[1])
    result.seconds = time.perf_counter() - started
    return result


def verify_first_instance(field: Field, alpha: int, *, reference=None):
    """Check the D(alpha) code and its subcode against all closed forms.

    `reference`, a PairwiseReference of this field, lends its census or is filled.
    """
    return _verify("first", field, alpha, reference)


def verify_second_instance(field: Field, which: str):
    """Check the E code and one of its two subcodes against all closed forms."""
    return _verify(f"second-{which}", field, None)


def exceeds_q_cap(p: int, m: int) -> bool:
    """Whether p**m > DEFAULT_Q_CAP, for p >= 2, without raising p to a huge m."""
    # 2**m > DEFAULT_Q_CAP once m reaches the cap's bit length
    return p ** min(m, DEFAULT_Q_CAP.bit_length()) > DEFAULT_Q_CAP


def plan_sweep(spec: SweepSpec) -> list:
    """Ordered (construction, p, m, alpha, skip reason) tuples, "" for an instance that runs.

    The whole spec is validated here, so bad input is refused before any
    instance runs. Repeated primes and alphas run once; a sweep that would
    check nothing is refused.
    """
    if not (spec.p_list and spec.constructions):
        raise ValueError("a sweep needs at least one prime and one construction")
    if spec.m_min < 2:
        raise ValueError("the constructions need extension degree at least 2")
    if spec.m_min > spec.m_max:
        raise ValueError(f"extension degree range {spec.m_min}..{spec.m_max} is empty")
    if exceeds_q_cap(2, spec.m_max - 1):  # each field of degree m_max is over twice the cap
        raise ValueError(f"every field of degree {spec.m_max} exceeds the q-cap {DEFAULT_Q_CAP}")
    for construction in spec.constructions:
        if construction not in CONSTRUCTIONS:
            raise ValueError(f"unknown construction {construction!r}")
    alphas = spec.alphas
    if alphas != "all":
        if not alphas or not all(isinstance(a, int) and a >= 0 for a in alphas):
            raise ValueError("alphas must be 'all' or one or more non-negative integers")
        if all(CONSTRUCTIONS[c].defining_set != "D-alpha" for c in spec.constructions):
            raise ValueError("alphas apply only to a construction that takes an alpha")
        alphas = tuple(dict.fromkeys(alphas))
    plan = []
    for p in dict.fromkeys(spec.p_list):
        check_characteristic(p)
        for m in range(spec.m_min, spec.m_max + 1):
            over_cap = "exceeds q-cap" if exceeds_q_cap(p, m) else ""
            for construction, entry in CONSTRUCTIONS.items():
                if construction not in spec.constructions:
                    continue
                takes_alpha = entry.defining_set == "D-alpha"
                for alpha in (range(p) if alphas == "all" else alphas) if takes_alpha else [None]:
                    if takes_alpha and alpha >= p:
                        raise ValueError(f"alpha {alpha} is not a residue mod {p}")
                    try:  # the closed form is defined exactly where the construction is
                        entry.predict(p, m, alpha)
                        skip = over_cap
                    except OddDegree:
                        skip = "odd extension degree"
                    except DegenerateSet:
                        skip = over_cap or "degenerate defining set"
                    plan.append((construction, p, m, alpha, skip))
    if all(skip for *_, skip in plan):
        raise ValueError("every planned instance is skipped, so the sweep would check nothing")
    return plan


def run_sweep(spec: SweepSpec) -> VerificationReport:
    """Run the planned instances, building each field once.

    The first family's alpha != 0 instances of a field share one PairwiseReference,
    dropped with the field, so the correlation and oracle run once per field for them. A
    TraceCCError in an instance becomes a fail record carrying the error, and the
    sweep goes on.
    """
    fields, reference = {}, None
    records = []
    for construction, p, m, alpha, reason in plan_sweep(spec):
        record = InstanceResult(construction, p, m, alpha=alpha, status="skip", reason=reason)
        if not reason:
            if (p, m) not in fields:  # the plan runs one field at a time, so only its tables stay
                fields, reference = {(p, m): make_field(p, m)}, PairwiseReference()
            try:
                if construction == "first":
                    record = verify_first_instance(fields[p, m], alpha, reference=reference)
                else:
                    record = verify_second_instance(fields[p, m], CONSTRUCTIONS[construction].which)
            except TraceCCError as exc:
                record.status, record.reason = "fail", f"{type(exc).__name__}: {exc}"
        records.append(record)
    return VerificationReport(spec, records)


# -- character-sum and fiber checks -------------------------------------------


def gauss_check(field: Field, seed=None) -> dict:
    """Compare directly summed Gauss and quadratic sums with their closed forms.

    All (a2, a1, a0) triples are checked for q <= EXHAUSTIVE_TRIPLE_LIMIT,
    otherwise QUADRATIC_SAMPLE_COUNT seeded-random triples.
    """
    p, m, q = field.p, field.m, field.q

    def deviation(evaluated, closed):  # per real/imaginary component, of numbers or arrays
        return np.maximum(abs(evaluated.real - closed.real), abs(evaluated.imag - closed.imag))

    def entry(pair):
        evaluated, closed = pair
        return {
            "evaluated": [evaluated.real, evaluated.imag],
            "closed_form": [closed.real, closed.imag],
            "deviation": float(deviation(evaluated, closed)),
        }

    fq = entry(gauss_sum_fq(field))
    fp = entry(gauss_sum_fp(p))
    if q <= EXHAUSTIVE_TRIPLE_LIMIT:
        mode = "exhaustive"
        a1, a0 = np.divmod(np.arange(q * q), q)
        # a single call over all triples raised the charsums-fields benchmark's peak RSS
        # from 35.0-35.2 to 37.2-37.6 MB (past its 5% bound), so the batches stay per a2
        batches = ((np.full(q * q, a2), a1, a0) for a2 in range(1, q))  # one per nonzero a2
    else:
        mode = "random"
        rng = random.Random(seed if seed is not None else 10_007 * p + m)
        drawn = [[rng.randrange(lo, q) for lo in (1, 0, 0)] for _ in range(QUADRATIC_SAMPLE_COUNT)]
        batches = [np.array(drawn, dtype=np.int64).reshape(-1, 3).T]  # a2 drawn nonzero
    count, max_dev = 0, 0.0
    for a2, a1, a0 in batches:  # a running maximum keeps the arrays one batch long
        evaluated, closed = quadratic_sums(field, a2, a1, a0)
        dev = deviation(evaluated, closed)
        count, max_dev = count + len(dev), max(max_dev, float(dev.max(initial=0.0)))
    ok = fq["deviation"] <= EPS and fp["deviation"] <= EPS and max_dev <= EPS
    return {
        "p": p,
        "m": m,
        "epsilon": EPS,
        "gauss_fq": fq,
        "gauss_fp": fp,
        "quadratic": {"mode": mode, "count": count, "max_deviation": max_dev},
        "ok": ok,
    }


def fiber_check(field: Field) -> dict:
    """Enumerated vs predicted fiber counts of both kinds; ok if all agree and cover the field.

    A residue outside 0..p-1 lands in no row, so its kind's total falls short of q.
    """
    rows, totals = [], {}
    for kind, counter in (
        ("linear-trace", count_trace_fiber),
        ("quadratic-trace", count_trace_square_fiber),
    ):
        enumerated, predicted = counter(field)
        rows += [
            {"kind": kind, "alpha": alpha, "enumerated": count, "predicted": closed}
            for alpha, (count, closed) in enumerate(zip(enumerated, predicted))
        ]
        totals[kind] = sum(enumerated)
    ok = all(r["enumerated"] == r["predicted"] for r in rows)
    ok = ok and all(total == field.q for total in totals.values())
    return {"p": field.p, "m": field.m, "rows": rows, "totals": totals, "ok": ok}
