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
for every prime p dividing 2^n - 1.  The exp table holds the 2^n - 1
powers once, doubled in length a step at a time, exp[d:2d] = g^d *
exp[:d].  x -> c*x is GF(2)-linear, so it is applied as the XOR of two
split tables of 2^ceil(n/2) and 2^floor(n/2) entries, on the low and
the high bits of x, each doubled once per image of a basis element z^i
(_split_tables).  An index of the exp table that reaches past its end,
a sum of two logs, a doubled log or 2^n - 1 minus a log, comes back
below it through wrap_log, one subtraction and no division.  The trace
of z^i sums the n Frobenius images of z^i.
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

    Two int32 words per element, the tables the field keeps: exp and
    logs.  log_table scatters _LOG_CHUNK logs at a time, adding one chunk
    of int32 values and numpy's 64 KiB buffer of 8,192 indices cast to
    intp.  One int32 chunk of _DOUBLING_CHUNK powers stands for what the
    exp table's build leaves in the heap: its doublings' temporaries,
    three such chunks, are freed before the logs exist, and its split
    tables and walk hold 2^ceil(n/2) ints or fewer.  In fresh processes,
    with every array in fresh pages, GF2n(n) grows anonymous RSS by 396,
    1,164 and 4,244 KiB at n = 15, 17 and 19: 8 B per element and
    140-148 KiB.  The sqrt and half-trace tables of `qdf.reference` serve
    tests and demos only.
    """
    return 2 * 4 * (1 << n) + 4 * _LOG_CHUNK + 4 * _DOUBLING_CHUNK + 8192 * 8


def wrap_log(k, v: int):
    """k mod v for every k in [0, 2v), with no division: k - v where
    k >= v.  A sum of two logs, a doubled log or v minus a log, each
    below 2v, so becomes an index of the exp table of the v units.  An
    int gives an int; an int array is wrapped in place, in its own
    dtype, and returned.  Read as unsigned, k - v wraps past 0 to more
    than k when k < v, so the array's wrapped value is the smaller of k
    and k - v: two passes, with no mask."""
    if isinstance(k, np.ndarray):
        u = k.view(k.dtype.str.replace("i", "u"))
        np.minimum(u, u - v, out=u)
        return k
    return k - v if k >= v else k


def poly_degree(p: int) -> int:
    """Degree of a GF(2)[z] polynomial given as a bitmask (-1 for 0)."""
    return p.bit_length() - 1


def poly_mod(a: int, m: int) -> int:
    """Remainder of carry-less division of a by m (m != 0)."""
    dm = m.bit_length()
    while (da := a.bit_length()) >= dm:
        a ^= m << (da - dm)
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


def _split_tables(c: int, m: int) -> tuple[list[int], list[int]]:
    """The split tables lo and hi of x -> c * x modulo m, n = deg(m), as
    int lists of 2^h and 2^(n - h) entries, h = ceil(n/2), with
    c * x = lo[x & (2^h - 1)] ^ hi[x >> h] for every x of degree below
    n.  Each table doubles once per basis image z^i * c, which comes by
    shift-and-reduce: lo's for i < h, hi's for the rest."""
    n = poly_degree(m)
    lo, hi = [0], [0]
    for i in range(n):
        t = lo if i < (n + 1) // 2 else hi
        t += [x ^ c for x in t]
        c <<= 1
        if c >> n:
            c ^= m
    return lo, hi


# Powers per chunk of _exp_table's doublings; bounds their int32 temporaries.
_DOUBLING_CHUNK = 1 << 13

# Powers that _exp_table walks at least, the whole table below n = 9: a
# step of the walk costs about 1/100 of a doubling's numpy calls.
_WALK = 1 << 7


def _exp_table(g: int, m: int) -> np.ndarray:
    """The exp table of g modulo m: exp[i] = g^i for 0 <= i < 2^n - 1,
    n = deg(m), as int32.

    The first 2^ceil(n/2) powers, or _WALK if more, walk x -> g * x
    through the split tables of g.  Then the table doubles,
    exp[d:2d] = g^d * exp[:d], through the split tables of g^d,
    _DOUBLING_CHUNK powers at a time; the tables of g^(2d) are those of
    g^d applied to themselves, the map x -> g^d * x taken twice.
    """
    n = poly_degree(m)
    units = (1 << n) - 1
    h = (n + 1) // 2
    K = 1 << h
    lo, hi = _split_tables(g, m)
    powers = [1]
    for _ in range(min(max(K, _WALK), units)):
        x = powers[-1]
        powers.append(lo[x & (K - 1)] ^ hi[x >> h])
    d = len(powers) - 1
    exp = np.empty(units, dtype=np.int32)
    exp[:d] = powers[:d]
    if d < units:
        lo, hi = _split_tables(powers[d], m)
        t = np.array(lo + hi, dtype=np.int32)
    while d < units:
        lo, hi = t[:K], t[K:]
        top = min(d, units - d)
        for a in range(0, top, _DOUBLING_CHUNK):
            x = exp[a : min(a + _DOUBLING_CHUNK, top)]
            np.bitwise_xor(lo.take(x & (K - 1)), hi.take(x >> h), out=exp[d + a : d + a + len(x)])
        d *= 2
        if d < units:
            t = np.bitwise_xor(lo.take(t & (K - 1)), hi.take(t >> h))
    return exp


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
    """Exhaustive trial division by every polynomial of degree 1 to
    deg(p)/2 with constant term 1: z divides p iff p has none, and then p
    is irreducible iff it is z.

    Adequate for the supported degree range (n <= 25); no factor tables.
    """
    if p < 2:
        return False
    if not p & 1:
        return p == 2
    return all(poly_mod(p, q) for q in range(3, 1 << (poly_degree(p) // 2 + 1), 2))


def smallest_irreducible(n: int) -> int:
    """Lexicographically smallest irreducible degree-n polynomial over GF(2)."""
    # constant term must be 1, otherwise z divides p
    for c in range(1, 1 << n, 2):
        p = (1 << n) | c
        if is_irreducible(p):
            return p
    raise AssertionError(f"no irreducible polynomial of degree {n} found")


def _frobenius_walks(ctx: GF2n) -> list[list[int]]:
    """walks[i][j] = (z^i)^(2^j) = g^(2^j k) for i, j < n, k the log of
    z^i: doubling a log modulo 2^n - 1 rotates its n bits left, so the
    walk reads the exp table at the n rotations of k.  The trace of z^i sums
    walk i, its square root is the walk's last entry and its half-trace
    the sum of its even entries."""
    n, exp, v = ctx.n, ctx._exp, ctx.order - 1
    walks = []
    for i in range(n):
        k = ctx._log[1 << i]
        walk = []
        for _ in range(n):
            walk.append(exp[k])
            k = (k << 1 | k >> (n - 1)) & v
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
        self.exp = _exp_table(g, mod)
        self.logs = log_table(self.exp, q)
        self._exp = memoryview(self.exp)
        self._log = memoryview(self.logs)

        images = [reduce(xor, walk) for walk in _frobenius_walks(self)]
        if max(images) > 1:  # pragma: no cover - guards table construction
            raise AssertionError("trace is not {0,1}-valued; tables corrupt")
        self.trace_mask = sum(bit << i for i, bit in enumerate(images))

    # -- scalar arithmetic ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[wrap_log(self._log[a] + self._log[b], self.order - 1)]

    def sqr(self, a: int) -> int:
        if a == 0:
            return 0
        return self._exp[wrap_log(2 * self._log[a], self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverseError("zero has no multiplicative inverse")
        return self._exp[wrap_log(self.order - 1 - self._log[a], self.order - 1)]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroInverseError("division by zero")
        if a == 0:
            return 0
        return self._exp[wrap_log(self._log[a] - self._log[b] + self.order - 1, self.order - 1)]

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

