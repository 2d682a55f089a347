"""Character sums vs closed forms, and trace fiber counts.

The frozen complex values below were derived by direct naive summation
(e.g. over GF(3): zeta - zeta^2 = i*sqrt(3)).
"""

import cmath
import math
import random
from collections import Counter

import numpy as np
import pytest

from tracecc import (
    EPS,
    FieldMismatch,
    OddDegree,
    ZeroLeadingCoefficient,
    count_trace_fiber,
    count_trace_square_fiber,
    gauss_sum_fp,
    gauss_sum_fq,
    make_field,
    quadratic_character,
    quadratic_sum,
    quadratic_trace_sign,
)
from tracecc import charsums
from tracecc.charsums import completed_square, predicted_square_trace_fiber, quadratic_sums

from conftest import enumerate_field

SQRT3 = math.sqrt(3.0)


def naive_character_sum(field, weight):
    zeta = cmath.exp(2j * cmath.pi / field.p)
    return sum(weight(x) * zeta ** x.trace() for x in enumerate_field(field))


# -- additive character ----------------------------------------------------------


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3)])
def test_character_orthogonality(p, m):
    total = naive_character_sum(make_field(p, m), lambda x: 1)
    assert abs(total) < 1e-9


# -- Gauss sums --------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,m,expected",
    [
        (3, 1, complex(0.0, SQRT3)),
        (3, 2, complex(3.0, 0.0)),
        (3, 3, complex(0.0, -3.0 * SQRT3)),
        (3, 4, complex(-9.0, 0.0)),
        (5, 2, complex(-5.0, 0.0)),
        (7, 2, complex(7.0, 0.0)),
    ],
)
def test_gauss_sum_fq_frozen_values(p, m, expected):
    evaluated, closed = gauss_sum_fq(make_field(p, m))
    for value in (evaluated, closed):
        assert value.real == pytest.approx(expected.real, abs=1e-9)
        assert value.imag == pytest.approx(expected.imag, abs=1e-9)


def test_gauss_sum_matches_naive_summation(f27):
    evaluated, _ = gauss_sum_fq(f27)
    direct = naive_character_sum(f27, quadratic_character)
    assert abs(evaluated - direct) < 1e-9


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2)])
def test_gauss_sum_magnitude(p, m):
    evaluated, _ = gauss_sum_fq(make_field(p, m))
    assert abs(evaluated) == pytest.approx(math.sqrt(p**m), abs=1e-9)


@pytest.mark.parametrize(
    "p,expected",
    [
        (3, complex(0.0, SQRT3)),
        (5, complex(math.sqrt(5.0), 0.0)),
        (7, complex(0.0, math.sqrt(7.0))),
    ],
)
def test_gauss_sum_fp_frozen_values(p, expected):
    evaluated, closed = gauss_sum_fp(p)
    assert evaluated.real == pytest.approx(expected.real, abs=1e-9)
    assert evaluated.imag == pytest.approx(expected.imag, abs=1e-9)
    assert abs(closed - expected) < 1e-9


# -- quadratic completion sums -------------------------------------------------------


def test_quadratic_sum_x_squared_over_f3():
    f = make_field(3, 1)
    evaluated, closed = quadratic_sum(f.one, f.zero, f.zero)
    assert evaluated == pytest.approx(complex(0.0, SQRT3), abs=1e-9)
    assert closed == pytest.approx(complex(0.0, SQRT3), abs=1e-9)


def test_quadratic_sum_square_leading_coefficient_gives_gauss_sum(f25):
    gauss, _ = gauss_sum_fq(f25)
    for a in list(enumerate_field(f25, nonzero_only=True))[:6]:
        evaluated, closed = quadratic_sum(a * a, f25.zero, f25.zero)
        assert abs(evaluated - gauss) < 1e-9
        assert abs(closed - gauss) < 1e-9


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 3), (5, 1)])
def test_quadratic_sum_all_triples_agree(p, m):
    f = make_field(p, m)
    a2, a1, a0 = np.indices((f.q, f.q, f.q)).reshape(3, -1)
    nonzero = a2 != 0
    evaluated, closed = quadratic_sums(f, a2[nonzero], a1[nonzero], a0[nonzero])
    assert len(evaluated) == (f.q - 1) * f.q * f.q
    assert (abs(evaluated.real - closed.real) <= EPS).all()
    assert (abs(evaluated.imag - closed.imag) <= EPS).all()


def scalar_closed_parts(f, i2, i1, i0):
    a2, a1, a0 = (f.element_at(int(i)) for i in (i2, i1, i0))
    return (a0 - a1 * a1 * (f.constant(4) * a2).inverse()).trace(), quadratic_character(a2)


@pytest.mark.parametrize(
    "p,m,sample", [(3, 1, None), (7, 1, None), (3, 2, None), (5, 2, 400), (3, 4, 400)]
)
def test_completed_square_matches_scalar_route(p, m, sample):
    f = make_field(p, m)
    if sample is None:  # every triple
        a2, a1, a0 = np.indices((f.q - 1, f.q, f.q)).reshape(3, -1)
        a2 = a2 + 1
    else:
        rng = random.Random(p * 100 + m)
        a2, a1, a0 = np.array(
            [[rng.randrange(low, f.q) for low in (1, 0, 0)] for _ in range(sample)]
        ).T
    shift_trace, eta = completed_square(f, a2, a1, a0)
    expected = [scalar_closed_parts(f, *abc) for abc in zip(a2, a1, a0)]
    assert list(zip(shift_trace.tolist(), eta.tolist())) == expected


@pytest.mark.parametrize("p,m,sample", [(3, 2, None), (3, 3, 40), (5, 2, 40), (7, 2, 40), (3, 4, 40)])
def test_quadratic_sums_direct_side_matches_scalar_traces(p, m, sample):
    # sum zeta^Tr(a2*x*x + a1*x + a0) over every x by scalar arithmetic: no table, no log
    f = make_field(p, m)
    if sample is None:  # every triple
        a2, a1, a0 = np.indices((f.q - 1, f.q, f.q)).reshape(3, -1)
        a2 = a2 + 1
    else:  # every fourth triple has a1 = 0, every fourth after it a0 = 0
        rng = random.Random(p * 100 + m)
        a2, a1, a0 = np.array(
            [[rng.randrange(low, f.q) for low in (1, 0, 0)] for _ in range(sample)]
        ).T
        a1[::4], a0[1::4] = 0, 0
    assert {quadratic_character(f.element_at(int(i))) for i in a2} == {1, -1}
    evaluated, _ = quadratic_sums(f, a2, a1, a0)
    elements, zeta = list(enumerate_field(f)), cmath.exp(2j * cmath.pi / p)
    for value, abc in zip(evaluated, zip(a2, a1, a0)):
        c2, c1, c0 = (f.element_at(int(i)) for i in abc)
        direct = sum(zeta ** (c2 * x * x + c1 * x + c0).trace() for x in elements)
        assert abs(value - direct) < 1e-9


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_quadratic_sums_direct_side_at_even_and_odd_logs(p, m):
    # Tr(a2*g^(2k)) reads the even half of Tr(g^j) at an even log a2 and the odd half at an odd
    f = make_field(p, m)
    logs = [0, 1, 2, 3, f.q - 3, f.q - 2]  # q - 3 is even, q - 2 odd
    a1 = [0, 1, int(f.powers[-1])]
    a2, a1, a0 = (np.array(x).ravel() for x in np.meshgrid(f.powers[logs], a1, [0, f.q - 1]))
    evaluated, _ = quadratic_sums(f, a2, a1, a0)
    elements, zeta = list(enumerate_field(f)), cmath.exp(2j * cmath.pi / p)
    assert {int(f.log[i]) % 2 for i in a2} == {0, 1}
    for value, abc in zip(evaluated, zip(a2, a1, a0)):
        c2, c1, c0 = (f.element_at(int(i)) for i in abc)
        direct = sum(zeta ** (c2 * x * x + c1 * x + c0).trace() for x in elements)
        assert abs(value - direct) < 1e-9


def test_quadratic_sum_matches_naive_summation(f9):
    a2, a1, a0 = f9.element([1, 1]), f9.element([0, 2]), f9.element([2, 0])
    evaluated, _ = quadratic_sum(a2, a1, a0)
    zeta = cmath.exp(2j * cmath.pi / 3)
    direct = sum(zeta ** ((a2 * x * x + a1 * x + a0).trace()) for x in enumerate_field(f9))
    assert abs(evaluated - direct) < 1e-9


def test_quadratic_sum_rejects_zero_leading_coefficient(f9):
    with pytest.raises(ZeroLeadingCoefficient):
        quadratic_sum(f9.zero, f9.one, f9.one)


def test_quadratic_sums_reject_a_zero_leading_coefficient_anywhere(f9, monkeypatch):
    monkeypatch.setattr(charsums, "QUADRATIC_BLOCK_CELLS", f9.q)  # one triple a block
    a2 = np.array([1, 4, 0, 2])  # one zero a2 among nonzero ones, in the third block
    with pytest.raises(ZeroLeadingCoefficient):
        quadratic_sums(f9, a2, np.arange(4), np.arange(4))


def test_quadratic_sum_rejects_mixed_fields(f9, f25):
    with pytest.raises(FieldMismatch):
        quadratic_sum(f9.one, f25.one, f9.one)


# -- fiber counts ----------------------------------------------------------------------


def test_linear_fibers_f27(f27):
    enumerated, predicted = count_trace_fiber(f27)
    assert enumerated == predicted == [9, 9, 9]


def test_linear_fibers_prime_field():
    f = make_field(5, 1)
    enumerated, _ = count_trace_fiber(f)
    assert enumerated == [1] * 5


@pytest.mark.parametrize(
    "p,m,expected",
    [
        (3, 2, [5, 2, 2]),
        (3, 3, [9, 6, 12]),
        (3, 4, [21, 30, 30]),
        (5, 2, [1, 6, 6, 6, 6]),
        (5, 3, [25, 30, 20, 20, 30]),
        (7, 2, [13, 6, 6, 6, 6, 6, 6]),
    ],
)
def test_square_fibers_frozen_values(p, m, expected):
    f = make_field(p, m)
    counts, _ = count_trace_square_fiber(f)
    assert counts == expected
    assert sum(counts) == p**m


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2), (7, 2)])
def test_fiber_partition(p, m):
    f = make_field(p, m)
    assert sum(count_trace_fiber(f)[0]) == f.q
    assert sum(count_trace_square_fiber(f)[0]) == f.q


@pytest.mark.parametrize("p,m", [(3, 3), (5, 2), (7, 2), (3, 4)])
def test_fiber_census_matches_the_scalar_trace(p, m):
    # the tables are derived from scalar Frobenius traces; count those directly
    f = make_field(p, m)
    elements = list(enumerate_field(f))
    linear = Counter(x.trace() for x in elements)
    square = Counter((x * x).trace() for x in elements)
    assert count_trace_fiber(f) == ([linear[a] for a in range(p)], [p ** (m - 1)] * p)
    closed = [predicted_square_trace_fiber(p, m, a) for a in range(p)]
    assert count_trace_square_fiber(f) == ([square[a] for a in range(p)], closed)


# -- the even-degree sign ---------------------------------------------------------------


@pytest.mark.parametrize(
    "p,m,expected",
    [(3, 2, -1), (3, 4, 1), (5, 2, 1), (5, 4, 1), (7, 2, -1), (7, 4, 1)],
)
def test_quadratic_trace_sign(p, m, expected):
    assert quadratic_trace_sign(p, m) == expected


def test_quadratic_trace_sign_rejects_odd_degree():
    with pytest.raises(OddDegree):
        quadratic_trace_sign(3, 3)
