"""Character sums over GF(p**m) and their closed forms.

Directly summed quantities (quadratic Gauss sums, completed quadratic sums)
are evaluated exactly as integer counts per trace residue and only turned
into complex numbers at the very end, which keeps roundoff far below the
comparison tolerance. Closed-form predictions compute powers of sqrt(-1) as
exact quarter turns so the predictor side cannot drift in sign.

Completed quadratic sums run in blocks of triples of element indices, by the log
table `Field.log`: the residues of y = g^k are contiguous window rows of Tr(g^j)
and of its half of log a2's parity, and the quotients are powers of g. No scalar
trace or inverse runs per triple, and the scalar routes stay the oracle.

Trace fibers come as one census per kind, a single histogram over every
alpha of Tr(x) or Tr(x**2), beside the closed-form sizes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import FieldMismatch, OddDegree, ZeroLeadingCoefficient
from .gfpm import Field, FieldElement, add_mod, make_field

#: absolute tolerance, per real/imaginary component, for closed-form agreement
EPS = 1e-9
#: trace residues (triples times q - 1) one block of quadratic_sums holds; 2**14 -> 2**16 took a
#: charsums-fields pass from 31 to 27 ms and its peak RSS from 34.3 to 34.6 MB (numpy 2.4.6)
QUADRATIC_BLOCK_CELLS = 2**16

_QUARTER_TURNS = (1, 1j, -1, -1j)


@lru_cache(maxsize=None)
def _zeta_table(p: int) -> np.ndarray:
    table = np.exp(2j * np.pi * np.arange(p) / p)
    table.setflags(write=False)
    return table


def quadratic_trace_sign(p: int, m: int) -> int:
    """The sign (-1)^(((p-1)/2)^2 * m/2) attached to even extension degrees."""
    if m % 2:
        raise OddDegree("the sign is defined for even extension degrees only")
    return -1 if (((p - 1) // 2) ** 2 * (m // 2)) % 2 else 1


def gauss_sum_closed_fq(p: int, m: int) -> complex:
    """Closed form of the quadratic Gauss sum over GF(p**m)."""
    turn = _QUARTER_TURNS[(((p - 1) // 2) ** 2 * m) % 4]
    return (-1) ** ((m - 1) % 2) * turn * math.sqrt(p**m)


def _gauss_sum_direct(field: Field) -> complex:
    # integer count of eta over each trace residue, then one length-p dot
    counts = np.bincount(
        field.trace_table,
        weights=field.quadratic_character_table.astype(np.float64),
        minlength=field.p,
    )
    return complex(np.dot(counts, _zeta_table(field.p)))


def gauss_sum_fq(field: Field):
    """Quadratic Gauss sum over GF(p**m): (direct summation, closed form)."""
    return _gauss_sum_direct(field), gauss_sum_closed_fq(field.p, field.m)


def gauss_sum_fp(p: int):
    """Quadratic Gauss sum over the prime field GF(p)."""
    return gauss_sum_fq(make_field(p, 1))


def quadratic_sum(a2: FieldElement, a1: FieldElement, a0: FieldElement):
    """Sum of chi1(a2*x**2 + a1*x + a0) over the field: (direct, closed form).

    The closed form is chi1(a0 - a1**2/(4*a2)) * eta(a2) * G(eta, chi1).
    """
    field = a2.field
    if a1.field != field or a0.field != field:
        raise FieldMismatch("quadratic coefficients belong to different fields")
    evaluated, closed = quadratic_sums(field, *([x.index] for x in (a2, a1, a0)))
    return complex(evaluated[0]), complex(closed[0])


def completed_square(field: Field, a2, a1, a0):
    """Tr(a0 - a1**2/(4*a2)) and eta(a2) for index arrays with a2 nonzero.

    The trace is additive, so the shift's trace is Tr(a0) - Tr(a1**2/(4*a2)); the
    ratio is g^(2 log a1 - log 4 - log a2), and zero where a1 is (log[0] is -1).
    """
    log = field.log
    ratio = field.powers[(2 * log[a1] - log[field.constant(4).index] - log[a2]) % (field.q - 1)]
    shift_trace = (field.trace_table[a0] - field.trace_table[ratio] * (log[a1] >= 0)) % field.p
    return shift_trace, field.quadratic_character_table[a2]


def quadratic_sums(field: Field, a2, a1, a0):
    """quadratic_sum for index arrays of triples, a2 nonzero: complex arrays (direct, closed).

    For y = g^k, Tr(a2*y**2) = T[log a2 + 2k] and Tr(a1*y) = T[log a1 + k] with T[j] = Tr(g^j):
    each triple's residues over k < q-1 are a window row of Field.power_traces over T's half of
    log a2's parity, one over T, and Tr(a0); y = 0 adds one count at Tr(a0). The direct side runs
    in blocks of QUADRATIC_BLOCK_CELLS // q triples, each holding q - 1 residues.
    """
    p, order, zeta, log = field.p, field.q - 1, _zeta_table(field.p), field.log
    if ((l2 := log[a2]) < 0).any():
        raise ZeroLeadingCoefficient("leading coefficient must be nonzero")
    w = np.lib.stride_tricks.sliding_window_view(field.power_traces, order, axis=1)
    squares = l2 % 2 * 2 * order + l2 // 2  # a2's row of w[1]
    rows = max(1, QUADRATIC_BLOCK_CELLS // field.q)
    evaluated = np.empty(len(a2), dtype=np.complex128)
    for b in (slice(s, s + rows) for s in range(0, len(a2), rows)):
        t0, bins = field.trace_table[a0[b]].view(np.uint8), p * np.arange(len(squares[b]))
        residues = add_mod(add_mod(w[1, squares[b]], w[0, log[a1[b]]], p), t0[:, None], p)
        counts = np.bincount((residues + bins[:, None]).ravel(), minlength=len(bins) * p)
        counts[bins + t0] += 1  # y = 0; triple r counts into bins r*p .. r*p + p-1
        evaluated[b] = np.vecdot(counts.reshape(-1, p).astype(np.float64), zeta)
    shift_trace, eta = completed_square(field, a2, a1, a0)
    return evaluated, zeta[shift_trace] * eta * gauss_sum_closed_fq(p, field.m)


# -- trace fibers ------------------------------------------------------------


def count_trace_fiber(field: Field):
    """Sizes of {x : Tr(x) = alpha} for alpha = 0..p-1: (enumerated, predicted p^(m-1))."""
    enumerated = np.bincount(field.trace_table, minlength=field.p)[: field.p]
    return enumerated.tolist(), [field.p ** (field.m - 1)] * field.p


def predicted_square_trace_fiber(p: int, m: int, alpha: int) -> int:
    """Closed-form size of {x : Tr(x**2) = alpha}, split on parity of m and alpha = 0."""
    alpha = int(alpha) % p
    if m % 2:
        if alpha == 0:
            return p ** (m - 1)
        eta = 1 if pow(-alpha, (p - 1) // 2, p) == 1 else -1  # Euler's criterion for -alpha
        return p ** (m - 1) + eta * quadratic_trace_sign(p, m + 1) * p ** ((m - 1) // 2)
    tau = quadratic_trace_sign(p, m)
    if alpha == 0:
        return p ** (m - 1) - tau * (p - 1) * p ** ((m - 2) // 2)
    return p ** (m - 1) + tau * p ** ((m - 2) // 2)


def count_trace_square_fiber(field: Field):
    """Sizes of {x : Tr(x**2) = alpha} for alpha = 0..p-1: (enumerated, closed form)."""
    p = field.p
    enumerated = np.bincount(field.trace_table[field.square_index_table], minlength=p)[:p]
    return enumerated.tolist(), [predicted_square_trace_fiber(p, field.m, a) for a in range(p)]
