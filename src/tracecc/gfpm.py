"""Exact arithmetic in GF(p) and GF(p**m) in a fixed polynomial basis.

Elements are dense coefficient vectors over GF(p), constant term first,
reduced modulo a monic irreducible polynomial of degree m. The canonical
element order is lexicographic on the coefficient tuple; it fixes the
coordinate order of every code built downstream, so it must never change.
An element's position in that order is its *index*:

    index(c0, c1, ..., c_{m-1}) = c0*p^(m-1) + c1*p^(m-2) + ... + c_{m-1}

When no modulus is supplied, the lexicographically smallest monic
irreducible polynomial (same scan order) is selected, which makes every
field, and hence every report, reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from .errors import (
    DivisionByZero,
    EvenCharacteristic,
    FieldMismatch,
    IdentityViolation,
    NotPrime,
    ReducibleModulus,
)

ROW_BLOCK = 1024  # rows of an 8-bit (rows x width) temporary: trace tables, oracle map checks


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % i for i in range(2, math.isqrt(n) + 1))


def _poly_divides(g, f, p):
    """Whether the monic polynomial g divides f over GF(p); coeff lists, constant first."""
    f = list(f)
    dg = len(g) - 1
    while len(f) > dg:
        c = f[-1]
        if c:
            off = len(f) - 1 - dg
            for i in range(dg + 1):
                f[off + i] = (f[off + i] - c * g[i]) % p
        f.pop()
    return all(c == 0 for c in f)


def _is_irreducible(f, p) -> bool:
    # trial division by every monic polynomial of degree 1 .. deg(f)//2;
    # feasible because p and m stay small at desk scale
    m = len(f) - 1
    for d in range(1, m // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if _poly_divides(list(tail) + [1], f, p):
                return False
    return True


def _smallest_irreducible(p, m):
    for coeffs in itertools.product(range(m > 1, p), *[range(p)] * (m - 1)):  # x divides c0 = 0
        f = list(coeffs) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def check_characteristic(p: int) -> None:
    """Raise unless p is an odd prime small enough for the int8 digit tables."""
    if p == 2:
        raise EvenCharacteristic("characteristic 2 is not supported; p must be an odd prime")
    if p > 127:
        raise ValueError(f"characteristic {p} is above 127, the largest int8 digit")
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")


def make_field(p: int, m: int, modulus=None) -> "Field":
    """Construct GF(p**m) for an odd prime p.

    If `modulus` (coefficient list, constant term first, monic of degree m)
    is omitted, the lexicographically smallest monic irreducible polynomial
    is chosen by deterministic scan.
    """
    if not isinstance(p, int) or not isinstance(m, int):
        raise TypeError("p and m must be integers")
    check_characteristic(p)
    if m < 1:
        raise ValueError("extension degree m must be at least 1")
    if modulus is None:
        modulus = _smallest_irreducible(p, m)
    else:
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m, constant term first")
        if not _is_irreducible(modulus, p):
            raise ReducibleModulus(f"modulus {list(modulus)} is reducible over GF({p})")
    return Field(p, m, modulus)


class Field:
    """GF(p**m) with a fixed modulus; lookup tables are lazy and treated as immutable."""

    def __init__(self, p, m, modulus):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = tuple(modulus)
        self._index_weights = tuple(p ** (m - 1 - i) for i in range(m))
        # digits of x**k mod modulus, k = 0 .. 3m-3: products reduce by k <= 2m-2, traces read all
        top = tuple((-c) % p for c in modulus[:m])
        rows = [tuple(1 if j == k else 0 for j in range(m)) for k in range(m)]
        for _ in range(2 * m - 2):
            prev = rows[-1]
            carry = prev[m - 1]
            rows.append(tuple(((prev[j - 1] if j else 0) + carry * top[j]) % p for j in range(m)))
        self._xpow = tuple(rows)

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"

    def __eq__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    # -- element construction -------------------------------------------------
    # zero and one are built on each access: stored, they would tie the field into a
    # reference cycle, and it and its tables would wait for the cyclic collector

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.m)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.m - 1))

    def element(self, coeffs) -> "FieldElement":
        """Element from a length-m coefficient sequence, constant term first."""
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.m:
            raise ValueError(f"expected {self.m} coefficients, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    def constant(self, c: int) -> "FieldElement":
        """Embed a prime-field residue as a constant element."""
        return FieldElement(self, (int(c) % self.p,) + (0,) * (self.m - 1))

    def basis_element(self, i: int) -> "FieldElement":
        """The residue of x**i, 0 <= i < m."""
        if not 0 <= i < self.m:
            raise ValueError("basis exponent out of range")
        return FieldElement(self, self._xpow[i])

    def element_at(self, index: int) -> "FieldElement":
        """Element at a given position of the canonical order."""
        if not 0 <= index < self.q:
            raise ValueError("element index out of range")
        return FieldElement(self, tuple((index // w) % self.p for w in self._index_weights))

    def prime_subfield_indices(self) -> tuple:
        """Canonical indices of the constants 0, 1, ..., p-1."""
        return tuple(c * self._index_weights[0] for c in range(self.p))

    # -- scalar core ----------------------------------------------------------

    def _mul_coeffs(self, a, b):
        p, m = self.p, self.m
        conv = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        out = [0] * m
        for k in range(2 * m - 1):
            ck = conv[k] % p
            if ck:
                row = self._xpow[k]
                for j in range(m):
                    out[j] = (out[j] + ck * row[j]) % p
        return tuple(out)

    # -- bulk tables ------------------------------------------------------------
    # All tables are indexed by canonical element index and never mutated after
    # construction, so they may be shared freely across threads.

    @cached_property
    def digits(self) -> np.ndarray:
        """(q, m) int8 array; row i holds the coefficients of element i."""
        r = np.arange(self.q, dtype=np.int64)
        mat = np.column_stack([((r // w) % self.p).astype(np.int8) for w in self._index_weights])
        mat.setflags(write=False)
        return mat

    @cached_property
    def trace_form(self) -> np.ndarray:
        """(m, m) int16 Gram matrix of the trace form, G[i, k] = Tr(x^i * x^k) = Tr(x^(i+k)).

        Tr(a*b) = digits(a) @ G @ digits(b) (mod p). Tr(y) is the trace of multiplication by y,
        whose row j is y * x^j: Tr(x^k) sums the diagonal digits of x^k, ..., x^(k+m-1).
        """
        diagonal = np.array(self._xpow)[np.add.outer(np.arange(2 * self.m - 1), np.arange(self.m))]
        traces = (np.trace(diagonal, axis1=1, axis2=2) % self.p).astype(np.int16)
        g = traces[np.add.outer(np.arange(self.m), np.arange(self.m))]
        g.setflags(write=False)
        return g

    @cached_property
    def trace_table(self) -> np.ndarray:
        """(q,) int8 array of Tr(x) for every element: the trace form's row for 1."""
        t = ((self.digits.astype(np.int16) @ self.trace_form[0]) % self.p).astype(np.int8)
        t.setflags(write=False)
        return t

    @cached_property
    def square_index_table(self) -> np.ndarray:
        """(q,) int64 index of the square of each element index: g^k to g^(2k), and 0 to 0."""
        idx = np.zeros(self.q, dtype=np.int64)
        idx[self.powers] = np.tile(self.powers[::2], 2)  # g^k and g^(k + (q-1)/2) square to g^(2k)
        idx.setflags(write=False)
        return idx

    @cached_property
    def quadratic_character_table(self) -> np.ndarray:
        """(q,) int8 array of the quadratic character: eta(g^k) = (-1)^k, and 0 at zero."""
        table = np.zeros(self.q, dtype=np.int8)
        table[self.powers[0::2]] = 1
        table[self.powers[1::2]] = -1
        table.setflags(write=False)
        return table

    @cached_property
    def powers(self) -> np.ndarray:
        """(q-1,) int64 indices of g^0, ..., g^(q-2), g the first primitive element by index.

        g is the first index whose multiplication matrix M (row j: g * x^j) has M^((q-1)/r) != I
        mod p for each prime r | q - 1, tested in blocks [1, 2), [2, 4), ... by square and
        multiply. Multiplication by g^L is GF(p)-linear: its matrix gives the next L powers,
        and squaring it mod p doubles L. The powers must list every nonzero index once.
        Every multiplicative table reads them: squares, eta, log and spectra.
        """
        p, m, order = self.p, self.m, self.q - 1
        divisors = (r for r in range(1, math.isqrt(order) + 1) if order % r == 0)  # trial division
        factors = {f for r in divisors for f in (r, order // r) if _is_prime(f)}
        hankel = np.array(self._xpow, dtype=np.int64)[np.add.outer(np.arange(m), np.arange(m))]
        eye = np.eye(m, dtype=np.int64)
        g, step = self.one.index, eye  # in a ring none may pass
        for low in (2**k for k in range(self.q.bit_length())):
            block = np.arange(low, min(2 * low, self.q))
            mats = np.einsum("bi,ijk->bjk", self.digits[block].astype(np.int64), hankel) % p
            passes = np.ones(len(block), dtype=bool)
            for r in factors:
                power, base, e = eye, mats, order // r
                while e:
                    power = power @ base % p if e & 1 else power
                    base, e = base @ base % p, e >> 1
                passes &= (power != eye).any(axis=(1, 2))
            if passes.any():
                g, step = int(block[passes.argmax()]), mats[passes.argmax()]
                break
        weights = np.array(self._index_weights)
        powers = np.array([self.one.index])
        while len(powers) < order:  # step multiplies by g^L, L = len(powers)
            block = self.digits[powers[: order - len(powers)]] @ step % p
            powers, step = np.append(powers, block @ weights), step @ step % p
        if not np.array_equal(np.sort(powers), np.arange(1, self.q)):
            raise IdentityViolation(f"the powers of {self.element_at(g)!r} miss a nonzero element")
        powers.setflags(write=False)
        return powers

    @cached_property
    def log(self) -> np.ndarray:
        """(q,) int64 discrete logarithm to the base g: powers[log[x]] = x; log[0] is -1.

        The census, the Frobenius map and charsums.completed_square's quotients read it.
        """
        log = np.full(self.q, -1)
        log[self.powers] = np.arange(self.q - 1)
        log.setflags(write=False)
        return log

    @cached_property
    def trace_spectra(self) -> np.ndarray:
        """(2, L/2 + 1) rfft of [Tr(g^j) = s] over two periods of g, for s = 0 and 1 only.

        L = fft_length(q), so a correlation of length q - 1 never wraps and pocketfft stays on
        its fast radices. Tr is GF(p)-linear: s != 0 is s = 1 at a/s.
        """
        length = fft_length(self.q)
        symbols = np.tile(self.trace_table[self.powers], 2) == np.arange(2)[:, None]
        spectra = np.fft.rfft(symbols, length)
        spectra.setflags(write=False)
        return spectra

    def add_constant(self, a, c=None):
        """Indices of a + c, c in GF(p), by the leading digit; without c, the least of a + GF(p)."""
        w0 = self._index_weights[0]
        return a % w0 if c is None else (a // w0 + c) % self.p * w0 + a % w0

    def trace_of_multiples(self, a, x) -> np.ndarray:
        """(len(a), len(x)) int8 table of Tr(a_i * x_j) for two arrays of element indices.

        Tr(a*x) is GF(p)-linear in each factor: the table is digits[a] @ gen mod p with
        gen = G @ digits[x].T and G the trace form, summed one digit at a time in 8 bits,
        ROW_BLOCK rows at a time, so a temporary holds one byte a cell.
        """
        p = self.p
        gen = self.trace_form @ self.digits[x].T.astype(np.int64)
        out = np.zeros((len(a), len(x)), dtype=np.uint8)
        for start in range(0, len(out), ROW_BLOCK):
            block = out[start : start + ROW_BLOCK]
            for g, digit in zip(gen, self.digits[a[start : start + ROW_BLOCK]].T):
                add_mod(block, (np.arange(p)[:, None] * g % p).astype(np.uint8)[digit], p, block)
        return out.view(np.int8)


def fft_length(q: int) -> int:
    """The least even 2^a 3^b 5^c >= 2(q - 1): those n <= 2^64 are the divisors of 30^64."""
    return next(n for n in itertools.count(2 * (q - 1), 2) if pow(30, 64, n) == 0)


def add_mod(x, y, p, out=None) -> np.ndarray:
    """(x + y) mod p in uint8 for x, y in 0..p-1: a sum s - p wraps above s exactly when s < p."""
    return np.minimum(total := np.add(x, y, out=out), total - np.uint8(p), out=total)


class FieldElement:
    """Immutable element of a Field; supports +, -, *, /, ** and equality."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    # -- representation -------------------------------------------------------

    def __repr__(self):
        return f"{self.field!r}{list(self.coeffs)}"

    @property
    def index(self) -> int:
        """Position of this element in the canonical field order."""
        return sum(c * w for c, w in zip(self.coeffs, self.field._index_weights))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- equality / hashing -----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected a FieldElement, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatch("operands belong to different fields")

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FieldElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FieldElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field._mul_coeffs(self.coeffs, other.coeffs))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("zero has no multiplicative inverse")
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    # -- field-theoretic maps -----------------------------------------------------

    def trace(self) -> int:
        """Tr(x) = x + x^p + ... + x^(p^(m-1)), read off as a residue mod p."""
        p, m = self.field.p, self.field.m
        acc = self
        frob = self
        for _ in range(m - 1):
            frob = frob**p
            acc = acc + frob
        if any(acc.coeffs[1:]):
            raise IdentityViolation(f"the trace of {self!r} left the prime field")
        return acc.coeffs[0]


def quadratic_character(x: FieldElement) -> int:
    """0 at zero, +1 on nonzero squares, -1 on nonsquares (Euler's criterion)."""
    if x.is_zero():
        return 0
    v = x ** ((x.field.q - 1) // 2)
    if v not in (x.field.one, -x.field.one):
        raise IdentityViolation(f"{x!r} ** ((q-1)/2) is neither 1 nor -1")
    return 1 if v == x.field.one else -1
