"""Field layer: construction, arithmetic, trace, quadratic character, ordering.

The multiplication oracle below is deliberately naive (schoolbook product
followed by long division) and shares no code with the package.
"""

import itertools
import random
import weakref

import numpy as np
import pytest

from tracecc import (
    DivisionByZero,
    EvenCharacteristic,
    FieldMismatch,
    IdentityViolation,
    NotPrime,
    ReducibleModulus,
    make_field,
    quadratic_character,
)
from tracecc import gfpm
from tracecc.gfpm import ROW_BLOCK, Field

from conftest import SWEEP_POINTS, enumerate_field


def naive_mul(a, b, modulus, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    m = len(modulus) - 1
    while len(prod) > m:
        c = prod[-1]
        if c:
            off = len(prod) - 1 - m
            for i in range(m + 1):
                prod[off + i] = (prod[off + i] - c * modulus[i]) % p
        prod.pop()
    while len(prod) < m:
        prod.append(0)
    return tuple(prod)


def poly_has_root(coeffs, p):
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return True
    return False


# -- construction -------------------------------------------------------------


def test_rejects_characteristic_two():
    with pytest.raises(EvenCharacteristic):
        make_field(2, 3)


@pytest.mark.parametrize("p", [1, 4, 9, 15])
def test_rejects_non_primes(p):
    with pytest.raises(NotPrime):
        make_field(p, 2)


def test_rejects_non_positive_degree():
    with pytest.raises(ValueError):
        make_field(3, 0)


def test_default_modulus_prime_field_is_x():
    assert make_field(3, 1).modulus == (0, 1)


def test_default_modulus_f9_is_x_squared_plus_one():
    assert make_field(3, 2).modulus == (1, 0, 1)


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3)])
def test_default_modulus_matches_independent_scan(p, m):
    # for degree 2 and 3, irreducible == no roots; scan in the same tuple order
    expected = None
    for coeffs in itertools.product(range(p), repeat=m):
        f = list(coeffs) + [1]
        if not poly_has_root(f, p):
            expected = tuple(f)
            break
    assert make_field(p, m).modulus == expected


@pytest.mark.parametrize(
    "p,m,modulus",
    [
        (3, 4, (1, 0, 1, 1, 1)),
        (3, 5, (1, 0, 0, 0, 2, 1)),
        (5, 4, (1, 0, 1, 1, 1)),
        (5, 5, (1, 0, 0, 0, 4, 1)),
        (7, 4, (1, 0, 0, 1, 1)),
        (7, 5, (1, 0, 0, 0, 3, 1)),
    ],
)
def test_default_modulus_frozen_above_degree_three(p, m, modulus):
    # the scan skips the candidates with a zero constant term, which x divides
    assert make_field(p, m).modulus == modulus


def test_explicit_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        make_field(3, 2, [1, 2, 1])  # (x+1)^2


def test_malformed_modulus_rejected():
    with pytest.raises(ValueError):
        make_field(3, 2, [1, 0, 0, 1])  # degree 3, not m
    with pytest.raises(ValueError):
        make_field(3, 2, [1, 0, 2])  # not monic


def test_explicit_modulus_accepted():
    f = make_field(3, 2, [2, 1, 1])  # x^2 + x + 2, irreducible over GF(3)
    assert f.modulus == (2, 1, 1)
    x = f.element([0, 1])
    assert (x * x).coeffs == (1, 2)  # x^2 = -x - 2 = 2x + 1


# -- arithmetic ----------------------------------------------------------------


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2)])
def test_mul_matches_naive_oracle_exhaustively(p, m):
    f = make_field(p, m)
    elems = list(enumerate_field(f))
    for a in elems:
        for b in elems:
            assert (a * b).coeffs == naive_mul(a.coeffs, b.coeffs, f.modulus, p)


def test_t_squared_is_minus_one_in_f9(f9):
    t = f9.element([0, 1])
    assert (t * t) == f9.constant(2)


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2), (7, 2)])
def test_inverse_and_group_order(p, m):
    f = make_field(p, m)
    for x in enumerate_field(f, nonzero_only=True):
        assert x * x.inverse() == f.one
        assert x ** (f.q - 1) == f.one


def test_division_by_zero(f9):
    with pytest.raises(DivisionByZero):
        f9.zero.inverse()
    with pytest.raises(DivisionByZero):
        f9.one / f9.zero


def test_field_mismatch_raises(f9, f25):
    with pytest.raises(FieldMismatch):
        f9.one + f25.one


def test_equal_fields_built_twice_interoperate():
    a = make_field(3, 2).element([1, 2])
    b = make_field(3, 2).element([0, 1])
    assert (a + b).coeffs == (1, 0)


def test_additive_axioms_sampled(f27):
    rng = random.Random(7)
    elems = list(enumerate_field(f27))
    for _ in range(200):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == f27.zero
        assert -(-a) == a


def test_pow_negative_exponent(f25):
    x = f25.element([2, 3])
    assert x**-3 == (x**3).inverse()


# -- trace ---------------------------------------------------------------------


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_trace_of_zero_and_one(p, m):
    f = make_field(p, m)
    assert f.zero.trace() == 0
    assert f.one.trace() == m % p


def test_trace_of_t_in_f9_is_zero(f9):
    assert f9.element([0, 1]).trace() == 0


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
def test_trace_frobenius_invariance_exhaustive(p, m):
    f = make_field(p, m)
    for x in enumerate_field(f):
        assert (x**p).trace() == x.trace()


def test_trace_is_linear(f27):
    rng = random.Random(11)
    elems = list(enumerate_field(f27))
    for _ in range(200):
        a, b = rng.choice(elems), rng.choice(elems)
        c = rng.randrange(3)
        assert (a + b).trace() == (a.trace() + b.trace()) % 3
        assert (f27.constant(c) * a).trace() == (c * a.trace()) % 3


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2), (7, 2)])
def test_trace_fibers_are_uniform(p, m):
    f = make_field(p, m)
    counts = [0] * p
    for x in enumerate_field(f):
        counts[x.trace()] += 1
    assert counts == [p ** (m - 1)] * p


@pytest.mark.parametrize("p,m", [(3, 3), (3, 4), (5, 2), (7, 2)])
def test_trace_table_matches_elementwise(p, m):
    f = make_field(p, m)
    expected = [x.trace() for x in enumerate_field(f)]
    assert f.trace_table.tolist() == expected


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3), (3, 4)])
def test_trace_form_matches_scalar_traces(p, m):
    f = make_field(p, m)
    g = f.trace_form
    assert g.shape == (m, m)
    assert (g == g.T).all()
    for i in range(m):
        for k in range(m):
            assert g[i, k] == (f.basis_element(i) * f.basis_element(k)).trace()


@pytest.mark.parametrize("p,m", [(5, 5), (7, 5)])
def test_trace_form_matches_scalar_traces_at_degree_five(p, m):
    # the Hankel matrix of 2m - 1 traces against all m * m products' scalar traces
    f = make_field(p, m)
    g = f.trace_form
    assert g.shape == (m, m)
    assert (g == g.T).all()
    for i in range(m):
        for k in range(m):
            assert g[i, k] == (f.basis_element(i) * f.basis_element(k)).trace()


@pytest.mark.parametrize("p,m", [(3, 6), (3, 7), (5, 6)])
def test_trace_form_reads_the_rows_past_x_to_the_2m_minus_2(p, m):
    # Tr(x^(2m-2)) reads the diagonal of x^(2m-2), ..., x^(3m-3)
    f = make_field(p, m)
    assert len(f._xpow) == 3 * m - 2
    x = f.basis_element(1)
    for k in range(2 * m - 1):
        assert f.trace_form[min(k, m - 1), k - min(k, m - 1)] == (x**k).trace()


def test_building_every_table_takes_no_scalar_trace_or_power(monkeypatch):
    calls = []
    trace, power = gfpm.FieldElement.trace, gfpm.FieldElement.__pow__

    def counting_trace(x):
        calls.append(("trace", x))
        return trace(x)

    def counting_power(x, e):
        calls.append(("pow", x))
        return power(x, e)

    monkeypatch.setattr(gfpm.FieldElement, "trace", counting_trace)
    monkeypatch.setattr(gfpm.FieldElement, "__pow__", counting_power)
    for p, m in [(7, 5), (3, 1)]:
        f = make_field(p, m)
        for table in ("trace_form", "trace_table", "powers", "log", "trace_spectra",
                      "square_index_table", "quadratic_character_table"):  # fmt: skip
            getattr(f, table)
    assert calls == []
    make_field(3, 2).element_at(1) ** 2  # the counters do see the scalar routes
    make_field(3, 2).element_at(1).trace()
    assert [kind for kind, _ in calls][:2] == ["pow", "trace"]


def _scalar_primitive(f, x, primes):
    return all(x ** ((f.q - 1) // r) != f.one for r in primes)


@pytest.mark.parametrize("p,m", SWEEP_POINTS)
def test_g_is_the_first_index_that_passes_the_scalar_primitivity_test(p, m):
    f = make_field(p, m)
    primes = [r for r in range(2, f.q) if (f.q - 1) % r == 0 and all(r % k for k in range(2, r))]
    g = int(f.powers[1])
    assert _scalar_primitive(f, f.element_at(g), primes)
    assert not any(_scalar_primitive(f, f.element_at(i), primes) for i in range(1, g))


def test_fft_length_is_the_least_even_5_smooth_length():
    smooth = sorted(
        2**a * 3**b * 5**c for a in range(1, 22) for b in range(14) for c in range(10)
        if 2**a * 3**b * 5**c <= 2 * 10**6 + 1000  # past 2(q - 1) for every q <= 10^6
    )  # fmt: skip
    odd_primes = [p for p in range(3, 128) if all(p % k for k in range(2, p))]
    qs = [p**m for p in odd_primes for m in range(1, 20) if p**m <= 10**6]
    assert len(qs) == 111
    for q in qs:
        assert gfpm.fft_length(q) == next(n for n in smooth if n >= 2 * (q - 1))
    f = make_field(7, 2)
    assert f.trace_spectra.shape == (2, gfpm.fft_length(49) // 2 + 1)


@pytest.mark.parametrize(
    "p,m,rows,columns",
    [
        (3, 2, None, None),
        (3, 3, None, None),
        # more rows than one block, and columns that are neither sorted nor contiguous
        (37, 2, ROW_BLOCK + 300, 5),
    ],
    ids=["3-2", "3-3", "37-2-two-blocks"],
)
def test_trace_of_multiples_matches_elementwise(p, m, rows, columns):
    f = make_field(p, m)
    rng = np.random.default_rng(5)
    a = np.arange(f.q) if rows is None else rng.permutation(f.q)[:rows]
    x = np.arange(f.q) if columns is None else rng.permutation(f.q)[:columns]
    ys = [f.element_at(int(j)) for j in x]
    expected = [[(f.element_at(int(i)) * y).trace() for y in ys] for i in a]
    table = f.trace_of_multiples(a, x)
    assert table.dtype == np.int8 and table.tolist() == expected


@pytest.mark.parametrize("p,m", [(3, 1), (7, 1), (3, 3), (3, 4), (5, 2), (7, 2)])
def test_square_table_matches_elementwise(p, m):
    f = make_field(p, m)
    expected = [(x * x).index for x in enumerate_field(f)]
    assert f.square_index_table.tolist() == expected


@pytest.mark.parametrize("p,m", [(3, 3), (5, 2), (7, 3)])
def test_add_constant_matches_scalar_sums(p, m):
    f = make_field(p, m)
    a = np.arange(f.q)
    for c in range(p):
        expected = [(f.element_at(int(i)) + f.constant(c)).index for i in a]
        assert f.add_constant(a, c).tolist() == expected
    least = [min((f.element_at(int(i)) + f.constant(c)).index for c in range(p)) for i in a]
    assert f.add_constant(a).tolist() == least


# at (5, 3) and (7, 3) the step matrix is squared several times and the last block is partial
@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2), (5, 3), (7, 3)])
def test_powers_and_log_match_scalar_powers(p, m):
    f = make_field(p, m)
    g = f.element_at(int(f.powers[1]))
    assert f.powers.tolist() == [(g**k).index for k in range(f.q - 1)]
    assert f.log[0] == -1
    assert [int(f.powers[f.log[x]]) for x in range(1, f.q)] == list(range(1, f.q))

    def order(x):
        return next(k for k in range(1, f.q) if x**k == f.one)

    # g is the first element of order q - 1 in canonical order
    assert order(g) == f.q - 1
    assert all(order(f.element_at(i)) < f.q - 1 for i in range(1, g.index))


@pytest.mark.parametrize("p", [131, 257])
def test_rejects_characteristic_above_int8(p):
    with pytest.raises(ValueError, match="above 127"):
        make_field(p, 1)


# -- quadratic character ---------------------------------------------------------


def test_character_of_zero(f9):
    assert quadratic_character(f9.zero) == 0


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2)])
def test_character_is_one_on_squares(p, m):
    f = make_field(p, m)
    for y in enumerate_field(f, nonzero_only=True):
        assert quadratic_character(y * y) == 1


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2)])
def test_character_multiplicative(p, m):
    f = make_field(p, m)
    nz = list(enumerate_field(f, nonzero_only=True))
    for a in nz:
        for b in nz:
            assert quadratic_character(a * b) == quadratic_character(a) * quadratic_character(b)


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2)])
def test_character_restricted_to_prime_field(p, m):
    # odd degree: restriction equals the prime-field character; even degree: constant +1
    f = make_field(p, m)
    for c in range(1, p):
        eta = quadratic_character(f.constant(c))
        if m % 2 == 0:
            assert eta == 1
        else:
            legendre = 1 if pow(c, (p - 1) // 2, p) == 1 else -1
            assert eta == legendre


@pytest.mark.parametrize("p,m", [(3, 1), (7, 1), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
def test_square_count_and_table(p, m):
    f = make_field(p, m)
    values = [quadratic_character(x) for x in enumerate_field(f)]
    assert values.count(1) == (f.q - 1) // 2
    assert f.quadratic_character_table.tolist() == values


# x^2 - 1 splits over GF(3), so this ring is GF(3) x GF(3) and not a field
@pytest.mark.parametrize(
    "check,message",
    [
        (lambda ring: ring.basis_element(1).trace(), "left the prime field"),
        (lambda ring: ring.quadratic_character_table, "miss a nonzero element"),
        (lambda ring: quadratic_character(ring.element([1, 1])), "neither 1 nor -1"),
        # 1 + x passes the scalar test for order 8, but (1 + x)^3 = 1 + x
        (lambda ring: ring.log, "miss a nonzero element"),
    ],
    ids=["trace", "character-table", "euler", "powers"],
)
def test_field_identities_are_checked(check, message):
    with pytest.raises(IdentityViolation, match=message):
        check(Field(3, 2, (2, 0, 1)))


def test_a_dropped_field_is_freed_at_once():
    # no element is stored on the field, so no cycle keeps it and its tables for the collector
    field = make_field(7, 2)
    field.quadratic_character_table
    ref = weakref.ref(field)
    del field
    assert ref() is None


# -- canonical order -------------------------------------------------------------


def test_prime_field_order_is_residue_order():
    f = make_field(3, 1)
    assert [x.coeffs[0] for x in enumerate_field(f)] == [0, 1, 2]


def test_canonical_order_f9(f9):
    elems = list(enumerate_field(f9))
    assert len(elems) == 9
    assert elems[0].is_zero()
    assert all(a.coeffs < b.coeffs for a, b in zip(elems, elems[1:]))
    assert [e.index for e in elems] == list(range(9))


def test_nonzero_only_enumeration(f9):
    nz = list(enumerate_field(f9, nonzero_only=True))
    assert len(nz) == 8
    assert not any(e.is_zero() for e in nz)


def test_element_index_roundtrip(f27):
    for i in range(27):
        assert f27.element_at(i).index == i


def test_constant_embedding_and_subfield_indices(f49):
    indices = f49.prime_subfield_indices()
    assert len(indices) == 7
    for c in range(7):
        assert f49.constant(c).index == indices[c]
        assert f49.constant(c).coeffs == (c, 0)


def test_digits_rows_match_coefficients(f27):
    for i, x in enumerate(enumerate_field(f27)):
        assert tuple(f27.digits[i]) == x.coeffs
