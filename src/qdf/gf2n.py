"""Exact arithmetic in GF(2^n) for odd n.

Field elements are plain ints in [0, 2^n): bit i is the coefficient of
z^i in the polynomial basis, so addition is XOR and the elements 0 and 1
are the ints 0 and 1.  A GF2n instance fixes the degree and the
irreducible modulus and precomputes exp/log/trace/sqrt tables once, after
which every scalar operation is a table lookup.  Instances are immutable
(lazy caches aside) and safe to share across threads.

Multiplicative structure: exp/log tables are built on the smallest
generator of the cyclic group GF(2^n)*, the first g with g^((2^n-1)/p) != 1
for every prime p dividing 2^n - 1.  The exp table is filled as arrays, a
block of powers at a time; the doubled exp table makes mul/div/inv
modulo-free.
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

    Eight int32 words per element at the peak: exp2 (two words), logs,
    the squaring, trace and sqrt tables and two temporaries; for
    n <= _LIST_TABLE_MAX_N the list copies of exp2 (two entries per
    element), logs and sqrt follow, and that of the {0, 1}-valued trace,
    whose ints are shared.  Within 5 % of the peak RSS growth measured
    for n = 15..21; at n = 13 about a fifth of the list copies land in
    heap pages already resident, so the growth reads lower.
    """
    q = 1 << n
    peak = 8 * q * 4
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


def poly_mulmod(a: int, b: int, m: int) -> int:
    """Carry-less product of a and b, reduced modulo m."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return poly_mod(r, m)


def poly_powmod(a: int, e: int, m: int) -> int:
    """a^e modulo m, by square-and-multiply."""
    r = 1
    while e:
        if e & 1:
            r = poly_mulmod(r, a, m)
        e >>= 1
        a = poly_mulmod(a, a, m)
    return r


def _prime_factors(m: int) -> list[int]:
    """The distinct prime divisors of m >= 2, by trial division."""
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def _times_table(c: int, m: int) -> np.ndarray:
    """t[x] = c * x modulo m for every x of degree below deg(m), as int32.

    Multiplying by c is GF(2)-linear, so the table doubles once per
    basis image z^i * c: t[x + 2^i] = t[x] ^ z^i * c for x < 2^i.
    """
    n = poly_degree(m)
    t = np.zeros(1, dtype=np.int32)
    for _ in range(n):
        t = np.concatenate([t, t ^ c])
        c <<= 1
        if c >> n:
            c ^= m
    return t


def _exp_table(g: int, m: int) -> np.ndarray:
    """The doubled exp table of g modulo m: exp2[i] = g^(i mod (2^n - 1))
    for 0 <= i < 2(2^n - 1), n = deg(m), as int32.

    The first K = 2^ceil(n/2) powers walk x -> g*x; then block by block
    exp[i+K] = g^K * exp[i], one lookup in the table of x -> g^K * x per
    block of K.
    """
    n = poly_degree(m)
    units = (1 << n) - 1
    K = 1 << (n + 1) // 2
    exp2 = np.empty(2 * units, dtype=np.int32)
    times = _times_table(g, m)
    v = 1
    for i in range(K):
        exp2[i] = v
        v = int(times[v])
    times = _times_table(v, m)
    for lo in range(K, units, K):
        hi = min(lo + K, units)
        exp2[lo:hi] = times.take(exp2[lo - K : hi - K])
    exp2[units:] = exp2[:units]
    return exp2


def log_table(exp: np.ndarray, order: int) -> np.ndarray:
    """Discrete logs from the exp table of a field of `order` elements,
    with -1 at 0.

    Raises unless exp is a permutation of the units, i.e. unless every
    nonzero element gets exactly one log.
    """
    logs = np.full(order, -1, dtype=np.int32)
    logs[exp] = np.arange(len(exp), dtype=np.int32)
    if len(exp) != order - 1 or logs[1:].min() < 0:
        raise AssertionError("exp table is not a permutation of the units; tables corrupt")
    return logs


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

    def _build_tables(self) -> None:
        q, mod = self.order, self.modulus
        m = q - 1
        # g generates F* iff g^(m/p) != 1 for every prime p dividing m
        cofactors = [m // p for p in _prime_factors(m)]
        g = next(
            x for x in range(2, q) if all(poly_powmod(x, c, mod) != 1 for c in cofactors)
        )

        exp2 = _exp_table(g, mod)
        self.generator = g
        self.exp2 = exp2
        self.logs = log_table(exp2[:m], q)

        # Frobenius permutation x -> x^2, then trace and sqrt tables
        sq = np.zeros(q, dtype=np.int32)
        sq[1:] = exp2[2 * self.logs[1:]]
        acc = np.arange(q, dtype=np.int32)
        cur = acc.copy()
        for _ in range(self.n - 1):
            cur = sq[cur]
            acc ^= cur
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
