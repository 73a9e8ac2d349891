"""Exact arithmetic in GF(2^n) for odd n.

Field elements are plain ints in [0, 2^n): bit i is the coefficient of
z^i in the polynomial basis, so addition is XOR and the elements 0 and 1
are the ints 0 and 1.  A GF2n instance fixes the degree and the
irreducible modulus and keeps two int32 ndarrays, exp and log, and the
int trace_mask, bit i the trace of z^i.  The array code reads the
ndarrays; the scalar accessors mul, sqr, inv and div look up memoryviews
of the same buffers, whose items are Python ints, and trace(a) is the
parity of a & trace_mask.  The square root, the half-trace and the
quadratic solver are scalar definitions in `qdf.reference`.
Instances are immutable and safe to share across threads; they hold
memoryviews, so they do not pickle.

Multiplicative structure: exp/log tables are built on the smallest
generator of the cyclic group GF(2^n)*, the first g with g^((2^n-1)/p) != 1
for every prime p dividing 2^n - 1.  The exp table is filled as arrays, a
block of powers at a time; the doubled exp table makes mul/div/inv
modulo-free.  x -> c*x is GF(2)-linear, so its table is built from its
images of the basis z^i by doubling (_linear_table); the trace of z^i
sums the n Frobenius images of z^i.
"""

from __future__ import annotations

from functools import reduce
from operator import xor

import numpy as np

from .errors import (
    EvenDegreeError,
    NotADivisorError,
    QdfError,
    ReduciblePolynomialError,
    ZeroInverseError,
)


def table_bytes(n: int) -> int:
    """Peak bytes of the tables GF2n(n) builds, for preflight estimates.

    Three int32 words per element, the tables the field keeps: exp2, two
    words, and logs.  The exp table's fill stays within them, its
    x -> c*x tables in pages of exp2 not yet written, and log_table
    scatters _LOG_CHUNK logs at a time, adding one chunk of int32 values
    and numpy's 64 KiB buffer of 8,192 indices cast to intp.  The sqrt
    and half-trace tables of `qdf.reference` serve tests and demos only.
    """
    return 3 * 4 * (1 << n) + 4 * _LOG_CHUNK + 8192 * 8


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


def _linear_table(images) -> np.ndarray:
    """The table of the GF(2)-linear map sending z^i to images[i], over
    all 2^len(images) elements, as int32: t[x + 2^i] = t[x] ^ images[i]
    for x < 2^i, one doubling per basis image."""
    t = np.zeros(1 << len(images), dtype=np.int32)
    for i, image in enumerate(images):
        np.bitwise_xor(t[: 1 << i], image, out=t[1 << i : 2 << i])
    return t


def _times_table(c: int, m: int) -> np.ndarray:
    """t[x] = c * x modulo m for every x of degree below deg(m), as int32;
    the basis images z^i * c come by shift-and-reduce."""
    n = poly_degree(m)
    images = []
    for _ in range(n):
        images.append(c)
        c <<= 1
        if c >> n:
            c ^= m
    return _linear_table(images)


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


# Logs per chunk of log_table's scatter; bounds its int32 values.
_LOG_CHUNK = 1 << 15


def log_table(exp: np.ndarray, order: int) -> np.ndarray:
    """Discrete logs from the exp table of a field of `order` elements,
    with -1 at 0, scattered _LOG_CHUNK at a time.

    Raises unless exp is a permutation of the units, i.e. unless every
    nonzero element gets exactly one log.
    """
    logs = np.full(order, -1, dtype=np.int32)
    for lo in range(0, len(exp), _LOG_CHUNK):
        hi = min(lo + _LOG_CHUNK, len(exp))
        logs[exp[lo:hi]] = np.arange(lo, hi, dtype=np.int32)
    if len(exp) != order - 1 or logs[1:].min() < 0:
        raise AssertionError("exp table is not a permutation of the units; tables corrupt")
    return logs


def is_irreducible(p: int) -> bool:
    """Exhaustive trial division by every polynomial of degree <= deg(p)/2.

    Adequate for the supported degree range (n <= 25); no factor tables.
    """
    if p < 2:
        return False
    d = poly_degree(p)
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


def _frobenius_walks(ctx: GF2n) -> list[list[int]]:
    """walks[i][j] = (z^i)^(2^j) for i, j < n, by repeated squaring: the
    trace of z^i sums walk i, its square root is the walk's last entry
    and its half-trace the sum of its even entries."""
    walks = []
    for i in range(ctx.n):
        walk = [1 << i]
        for _ in range(ctx.n - 1):
            walk.append(ctx.sqr(walk[-1]))
        walks.append(walk)
    return walks


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
            if modulus < 0:
                raise QdfError(f"modulus {modulus:#x} is negative")
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

    # -- table construction -------------------------------------------------

    def _build_tables(self) -> None:
        q, mod = self.order, self.modulus
        m = q - 1
        # g generates F* iff g^(m/p) != 1 for every prime p dividing m
        cofactors = [m // p for p in _prime_factors(m)]
        g = next(
            x for x in range(2, q) if all(poly_powmod(x, c, mod) != 1 for c in cofactors)
        )

        self.generator = g
        self.exp2 = _exp_table(g, mod)
        self.logs = log_table(self.exp2[:m], q)
        self._exp = memoryview(self.exp2)
        self._log = memoryview(self.logs)

        images = [reduce(xor, walk) for walk in _frobenius_walks(self)]
        if max(images) > 1:  # pragma: no cover - guards table construction
            raise AssertionError("trace is not {0,1}-valued; tables corrupt")
        self.trace_mask = sum(bit << i for i, bit in enumerate(images))

    # -- scalar arithmetic ---------------------------------------------------

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

    def trace(self, a: int) -> int:
        """Absolute trace sum(a^(2^i), i < n), valued in {0, 1}."""
        return (int(a) & self.trace_mask).bit_count() & 1

    # -- subfields and seeds --------------------------------------------------

    def subfield(self, d: int) -> list[int]:
        """The 2^d elements fixed by x -> x^(2^d), sorted; requires d | n."""
        if d <= 0 or self.n % d != 0:
            raise NotADivisorError(f"{d} does not divide {self.n}")
        # the units of GF(2^d) are the subgroup of order 2^d - 1
        m = self.order - 1
        return [0, *sorted(self._exp[: m : m // ((1 << d) - 1)])]

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

