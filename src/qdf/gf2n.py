"""Exact arithmetic in GF(2^n) for odd n.

Field elements are plain ints in [0, 2^n): bit i is the coefficient of
z^i in the polynomial basis, so addition is XOR and the elements 0 and 1
are the ints 0 and 1.  A GF2n instance fixes the degree and the
irreducible modulus and precomputes exp/log/trace/sqrt tables once, after
which every scalar operation is a table lookup.  Instances are immutable
(lazy caches aside) and safe to share across threads.

Multiplicative structure: exp/log tables are built on a generator of the
cyclic group GF(2^n)*, found by trying small elements until one has full
period.  The doubled exp table makes mul/div/inv modulo-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroCoefficientsError,
    EvenDegreeError,
    NotADivisorError,
    QdfError,
    ReduciblePolynomialError,
    ZeroInverseError,
)

# Above this degree the scalar tables stay as numpy arrays instead of
# python lists; everything still works, just with more lookup overhead.
_LIST_TABLE_MAX_N = 16

# A python list entry: its 8-byte slot plus the int object it points at
# (28 bytes, rounded up to 32 by the allocator).
_LIST_ENTRY_BYTES = 8 + 32


def table_bytes(n: int) -> int:
    """Peak bytes of the tables GF2n(n) builds, for preflight estimates.

    The generator search holds exp and log as python lists while the
    int32 arrays and their temporaries are built, 11 int32 words per
    element at the peak; for n <= _LIST_TABLE_MAX_N the list copies of
    exp2 (two entries per element), logs and sqrt follow, and that of
    the {0, 1}-valued trace, whose ints are shared.  Within 15 % of the
    peak RSS growth measured for n = 13..19.
    """
    q = 1 << n
    peak = 2 * q * _LIST_ENTRY_BYTES + 11 * q * 4
    if n <= _LIST_TABLE_MAX_N:
        peak += 4 * q * _LIST_ENTRY_BYTES + 8 * q
    return peak


def poly_degree(p: int) -> int:
    """Degree of a GF(2)[z] polynomial given as a bitmask (-1 for 0)."""
    return p.bit_length() - 1


def poly_mod(a: int, m: int) -> int:
    """Remainder of carry-less division of a by m (m != 0)."""
    dm = poly_degree(m)
    da = poly_degree(a)
    while da >= dm:
        a ^= m << (da - dm)
        da = poly_degree(a)
    return a


def poly_divmod(a: int, m: int) -> tuple[int, int]:
    """Carry-less quotient and remainder of a by m (m != 0)."""
    dm = poly_degree(m)
    q = 0
    da = poly_degree(a)
    while da >= dm:
        q |= 1 << (da - dm)
        a ^= m << (da - dm)
        da = poly_degree(a)
    return q, a


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor in GF(2)[z]."""
    while b:
        a, b = b, poly_mod(a, b)
    return a


def is_irreducible(p: int) -> bool:
    """Exhaustive trial division by every polynomial of degree <= deg(p)/2.

    Adequate for the supported degree range (n <= 25); no factor tables.
    """
    d = poly_degree(p)
    if d <= 0:
        return False
    for q in range(2, 1 << (d // 2 + 1)):
        if poly_mod(p, q) == 0:
            return False
    return True


def smallest_irreducible(n: int) -> int:
    """Lexicographically smallest irreducible degree-n polynomial over GF(2)."""
    # constant term must be 1, otherwise z divides p
    for c in range(1, 1 << n, 2):
        p = (1 << n) | c
        if is_irreducible(p):
            return p
    raise AssertionError(f"no irreducible polynomial of degree {n} found")


@dataclass(frozen=True)
class QuadraticOutcome:
    """Distinct solutions of a quadratic (or degenerate) equation."""

    count: int
    roots: tuple[int, ...]


class GF2n:
    """The field GF(2^n) with a fixed irreducible modulus, n odd.

    Parameters
    ----------
    n : odd extension degree, n >= 3.
    modulus : optional degree-n irreducible polynomial bitmask; when
        absent the lexicographically smallest one is searched for, which
        keeps every run (and every language binding) byte-reproducible.
    """

    def __init__(self, n: int, modulus: int | None = None) -> None:
        if n % 2 == 0:
            raise EvenDegreeError(f"extension degree must be odd, got n={n}")
        if n < 3:
            raise QdfError(f"extension degree must be at least 3, got n={n}")
        if modulus is None:
            modulus = smallest_irreducible(n)
        else:
            if poly_degree(modulus) != n:
                raise QdfError(
                    f"modulus {modulus:#x} has degree {poly_degree(modulus)}, expected {n}"
                )
            if not is_irreducible(modulus):
                raise ReduciblePolynomialError(f"modulus {modulus:#x} factors over GF(2)")
        self.n = n
        self.modulus = modulus
        self.order = 1 << n

        self._build_tables()
        self._subfields: dict[int, list[int]] = {}
        self._halftrace = None

    # -- table construction -------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        # carry-less multiply with interleaved reduction; used only before
        # the exp/log tables exist
        n, mod = self.n, self.modulus
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> n:
                a ^= mod
        return r

    def _build_tables(self) -> None:
        q = self.order
        m = q - 1
        for g in range(2, q):
            exp = [0] * m
            log = [-1] * q
            v = 1
            ok = True
            for i in range(m):
                if log[v] >= 0:  # period of g is shorter than q-1
                    ok = False
                    break
                exp[i] = v
                log[v] = i
                v = self._mul_raw(v, g)
            if ok and v == 1:
                break
        else:  # pragma: no cover - a cyclic group always has a generator
            raise AssertionError("no generator found")

        self.generator = g
        exp_np = np.asarray(exp, dtype=np.int32)
        # doubled table: exp2[i] = g^(i mod (q-1)) for 0 <= i < 2(q-1)
        self.exp2 = np.concatenate([exp_np, exp_np])
        self.logs = np.asarray(log, dtype=np.int32)

        # Frobenius permutation x -> x^2, then trace and sqrt tables
        sq = np.zeros(q, dtype=np.int32)
        nz = np.arange(1, q, dtype=np.int64)
        sq[1:] = self.exp2[2 * self.logs[nz]]
        acc = np.arange(q, dtype=np.int32)
        cur = acc.copy()
        for _ in range(self.n - 1):
            cur = sq[cur]
            acc = acc ^ cur
        if acc.max() > 1:  # pragma: no cover - guards table construction
            raise AssertionError("trace is not {0,1}-valued; tables corrupt")
        sqrt = np.empty(q, dtype=np.int32)
        sqrt[sq] = np.arange(q, dtype=np.int32)

        self._sq_np = sq
        self.traces = acc
        if self.n <= _LIST_TABLE_MAX_N:
            self._exp = self.exp2.tolist()
            self._log = self.logs.tolist()
            self._trace = acc.tolist()
            self._sqrt = sqrt.tolist()
        else:
            self._exp = self.exp2
            self._log = self.logs
            self._trace = acc
            self._sqrt = sqrt

    # -- scalar arithmetic ---------------------------------------------------

    @staticmethod
    def add(a: int, b: int) -> int:
        """Characteristic-2 addition: XOR of coordinate vectors."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def sqr(self, a: int) -> int:
        if a == 0:
            return 0
        return self._exp[2 * self._log[a]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverseError("zero has no multiplicative inverse")
        return self._exp[self.order - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroInverseError("division by zero")
        if a == 0:
            return 0
        return self._exp[self._log[a] - self._log[b] + self.order - 1]

    def sqrt(self, a: int) -> int:
        """The unique square root, x -> x^(2^(n-1)); squaring is a bijection."""
        return self._sqrt[a]

    def trace(self, a: int) -> int:
        """Absolute trace sum(a^(2^i), i < n), valued in {0, 1}."""
        return self._trace[a]

    def half_trace(self, u: int) -> int:
        """H(u) = sum(u^(4^i), i <= (n-1)/2), defined for odd n.

        Whenever trace(u) = 0, H(u) solves y^2 + y = u.
        """
        ht = self._halftrace
        if ht is None:
            q = self.order
            sq = self._sq_np
            acc = np.arange(q, dtype=np.int32)
            cur = acc.copy()
            for _ in range((self.n - 1) // 2):
                cur = sq[sq[cur]]
                acc = acc ^ cur
            ht = acc.tolist() if self.n <= _LIST_TABLE_MAX_N else acc
            self._halftrace = ht
        return ht[u]

    def solve_quadratic(self, a: int, b: int, c: int) -> QuadraticOutcome:
        """Distinct roots of a*x^2 + b*x + c = 0 in this field.

        Cases, following the solvability criterion Tr(ac/b^2):
          * a = b = 0, c = 0: rejected (identically-zero equation);
            with c != 0 the constant equation has no roots.
          * a = 0, b != 0: linear, one root c/b.
          * b = 0, a != 0: one root sqrt(c/a).
          * otherwise: zero or two roots; two exactly when trace(a*c/b^2)
            is 0, obtained from the half-trace of u = a*c/b^2 through the
            substitution x = (b/a)*y.
        """
        if a == 0 and b == 0:
            if c == 0:
                raise AllZeroCoefficientsError("0 = 0 is not a quadratic equation")
            return QuadraticOutcome(0, ())
        if a == 0:
            return QuadraticOutcome(1, (self.div(c, b),))
        if b == 0:
            return QuadraticOutcome(1, (self.sqrt(self.div(c, a)),))
        u = self.div(self.mul(a, c), self.sqr(b))
        if self._trace[u]:
            return QuadraticOutcome(0, ())
        s = self.div(b, a)
        r0 = self.mul(s, self.half_trace(u))
        r1 = r0 ^ s
        return QuadraticOutcome(2, (r0, r1) if r0 < r1 else (r1, r0))

    # -- subfields and element ranges -----------------------------------------

    def subfield(self, d: int) -> list[int]:
        """The 2^d elements fixed by x -> x^(2^d), sorted; requires d | n."""
        if d <= 0 or self.n % d != 0:
            raise NotADivisorError(f"{d} does not divide {self.n}")
        cached = self._subfields.get(d)
        if cached is None:
            x = np.arange(self.order, dtype=np.int32)
            cur = x
            for _ in range(d):
                cur = self._sq_np[cur]
            cached = np.flatnonzero(cur == x).tolist()
            self._subfields[d] = cached
        return list(cached)

    def elements(self) -> range:
        return range(self.order)

    def nonzero_elements(self) -> range:
        return range(1, self.order)

    def seeds(self) -> range:
        """All valid block/hexagon seeds: the units other than 1."""
        return range(2, self.order)

    # -- misc -----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF2n) and (self.n, self.modulus) == (other.n, other.modulus)

    def __hash__(self) -> int:
        return hash((self.n, self.modulus))

    def __repr__(self) -> str:
        return f"GF2n(n={self.n}, modulus={self.modulus:#x})"


def make_field(n: int, modulus: int | None = None) -> GF2n:
    """Construct GF(2^n) for odd n >= 3; see GF2n."""
    return GF2n(n, modulus)
