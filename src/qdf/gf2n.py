"""Exact arithmetic in GF(2^n) for odd n.

Field elements are plain ints in [0, 2^n): bit i is the coefficient of
z^i in the polynomial basis, so addition is XOR and the elements 0 and 1
are the ints 0 and 1.  A GF2n instance keeps the int32 logs, 4 B per
element, to the smallest generator g of GF(2^n)* (the first g with
g^((2^n-1)/p) != 1 for every prime p dividing 2^n - 1), the split tables
of x -> x^2 and the int trace_mask, bit i the trace of z^i: trace(a) is
the parity of a & trace_mask.  x -> c*x and x -> x^2 are GF(2)-linear,
each the XOR of two split tables of 2^ceil(n/2) and 2^floor(n/2) entries
on the low and the high bits of x, doubled once per basis image z^i.

No table of powers is kept.  `walk` yields g^k a chunk of C = 2^13
powers at a time, each chunk the one before mapped through the split
tables of g^C, and beside it, for the hexagons, g^-k = 1/g^k; the field
keeps the first chunk, every power once v = 2^n - 1 fits in it.  The
logs are scattered from one walk; `exp`, walked on first read, serves
the scalar mul, inv and div, `qdf.reference` (the square root, the
half-trace and the quadratic solver), tests and offenders.  wrap_log
brings a sum of two logs or v minus a log below v with one subtraction.
Instances are safe to share across threads; they hold memoryviews, so
they do not pickle.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import (
    EvenDegreeError,
    NotADivisorError,
    QdfError,
    ReduciblePolynomialError,
    ZeroInverseError,
)


def table_bytes(n: int, exp: bool = False) -> int:
    """Peak bytes of the field's tables and walks, for preflight estimates: per
    element 4 B of int32 logs and, if asked, 4 B of the exp table that
    --seed-system max reads; 36 B per power of a walk chunk (the first chunk,
    two intp chunks, their scratch and int32 logs).  GF2n(n) grows anonymous
    RSS by 336-412, 736-812 and 2,272-2,372 KiB at n = 15, 17 and 19, as the
    heap the import leaves varies, against 416, 800 and 2,336 KiB."""
    return (8 if exp else 4) * (1 << n) + 36 * _WALK_CHUNK


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


def _split_tables(images: list[int], dtype=np.intp) -> tuple:
    """The split tables lo and hi, of 2^h and 2^(n - h) entries, h = ceil(n/2),
    of the GF(2)-linear map sending z^i to images[i]: x maps to
    lo[x & (2^h - 1)] ^ hi[x >> h].  Each doubles once per basis image."""
    h = (len(images) + 1) // 2
    lo, hi = np.zeros(1 << h, dtype=dtype), np.zeros(1 << len(images) - h, dtype=dtype)
    for i, image in enumerate(images):
        t, j = (lo, i) if i < h else (hi, i - h)
        np.bitwise_xor(t[: 1 << j], image, out=t[1 << j : 2 << j])
    return lo, hi


def _times(c: int, m: int, count: int = 0) -> list[int]:
    """The basis images z^i * c modulo m, i < deg(m) or `count`, of
    x -> c * x, by shift-and-reduce."""
    n, images = poly_degree(m), []
    for _ in range(count or n):
        images.append(c)
        c = c << 1 ^ (m if c >> (n - 1) else 0)
    return images


def _times_chunk(c: int, m: int):
    """x -> c * x modulo m on intp chunks through the split tables of c: the
    returned call maps x into `out`, with `tmp` as scratch, allocating nothing."""
    lo, hi = _split_tables(_times(c, m))
    h = len(lo).bit_length() - 1

    def times(x, out, tmp):
        np.bitwise_and(x, len(lo) - 1, out=tmp)
        lo.take(tmp, out=out, mode="clip")  # "raise" would copy via a buffer
        np.right_shift(x, h, out=tmp)
        hi.take(tmp, out=tmp, mode="clip")
        return np.bitwise_xor(out, tmp, out=out)

    return times


# Powers per chunk of a walk, and of them the most that its first chunk
# takes one scalar multiply at a time.
_WALK_CHUNK = 1 << 13
_SCALAR_STEPS = 1 << 7


def _walk(first: np.ndarray, s: int, c: int, m: int):
    """Endless intp chunks modulo m, first * s and then each the one before
    times c, in two buffers by turns: a chunk lasts until the next is drawn."""
    x, y, tmp = (np.empty(len(first), dtype=np.intp) for _ in range(3))
    times = _times_chunk(c, m)
    if s == 1:
        x[:] = first
    else:
        (times if s == c else _times_chunk(s, m))(first, x, tmp)
    while True:
        yield x
        x, y = times(x, y, tmp), x


def _first_powers(g: int, m: int, size: int) -> np.ndarray:
    """g^k for 0 <= k < size as intp: up to _SCALAR_STEPS by scalar multiplies,
    else walked from the first powers of an eighth of size."""
    if size <= _SCALAR_STEPS:
        lo, hi = (t.tolist() for t in _split_tables(_times(g, m)))
        h, x, steps = len(lo).bit_length() - 1, 1, [1]
        for _ in range(size - 1):
            steps.append(x := lo[x & len(lo) - 1] ^ hi[x >> h])
        return np.array(steps, dtype=np.intp)
    first = _first_powers(g, m, max(_SCALAR_STEPS, size // 8))
    s, out = len(first), np.empty(size, dtype=np.intp)
    for k, x in zip(range(0, size, s), _walk(first, 1, poly_mulmod(int(first[-1]), g, m), m)):
        out[k : k + s] = x[: size - k]
    return out


def walk(ctx: GF2n, start: int, stop: int, inverses: bool = False):
    """(k, x) per chunk of C powers or fewer, x[i] = g^(k + i) as intp, for
    start <= k + i < stop <= start + v, C the length of the field's first chunk;
    with `inverses` and start >= 1, (k, x, y), y[i] = 1/x[i].  A chunk is the one
    before times g^C; y walks beside it by g^-C from the first chunk reversed, or
    is that chunk reversed when it holds all v powers.  It lasts until the next."""
    first, mod, v = ctx._first, ctx.modulus, ctx.order - 1
    size = len(first)
    if size == v and stop <= v:
        yield start, first[start:stop], *[first[v - start : v - stop : -1]] * inverses
        return
    runs = [_walk(first, ctx.power(start), ctx.power(size), mod)]
    if inverses:  # g^-(k + i) = g^-(k + size - 1) * g^(size - 1 - i)
        runs.append(_walk(first[::-1], ctx.power(1 - start - size), ctx.power(-size), mod))
    for k, xs in zip(range(start, stop, size), zip(*runs)):
        yield (k, *(x[: stop - k] for x in xs))


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
        self.n, self.modulus, self.order = n, modulus, 1 << n
        m = self.order - 1
        # g generates F* iff g^(m/p) != 1 for every prime p dividing m
        cofactors = [m // p for p in _prime_factors(m)]
        self.generator = g = next(
            x for x in range(2, 1 << n) if all(poly_powmod(x, c, modulus) != 1 for c in cofactors)
        )
        # x -> x^2 is GF(2)-linear: the split tables of the images z^(2i)
        self.squares = _split_tables(_times(1, modulus, 2 * n)[::2], np.int32)
        self._sq = tuple(map(memoryview, self.squares))
        # bit k of trace_mask is Tr(z^k), the power sum p_k of the modulus'
        # roots: p_0 = n mod 2 = 1 and, by Newton's identities over GF(2) on
        # its coefficients c_i, p_k = k c_(n-k) + sum(c_(n-j) p_(k-j), 0 < j < k)
        c, p = [modulus >> i & 1 for i in range(n)], [1]
        for k in range(1, n):
            p.append((k * c[n - k] + sum(c[n - j] & p[k - j] for j in range(1, k))) & 1)
        self.trace_mask = sum(bit << k for k, bit in enumerate(p))

        self._first = _first_powers(g, modulus, min(_WALK_CHUNK, m))
        self._first.flags.writeable = False  # walks yield views of it
        self.logs = np.full(self.order, -1, dtype=np.int32)
        ks = np.arange(len(self._first), dtype=np.int32)
        for _, x in walk(self, 0, m):
            self.logs[x] = ks[: len(x)]
            ks += len(x)  # the next chunk's logs
        if self.logs[1:].min() < 0:
            raise AssertionError("the powers of g miss a unit: not a permutation; tables corrupt")
        self._log = memoryview(self.logs)

    @cached_property
    def exp(self) -> np.ndarray:
        """exp[k] = g^k, 0 <= k < 2^n - 1, as int32, walked on first read."""
        exp = np.empty(self.order - 1, dtype=np.int32)
        for k, x in walk(self, 0, self.order - 1):
            exp[k : k + len(x)] = x
        return exp

    def power(self, k: int) -> int:
        """g^k for any int k: off the first chunk, or the square of g^(k // 2),
        times g for odd k, k taken mod 2^n - 1."""
        k %= self.order - 1
        if k < len(self._first):
            return int(self._first[k])
        x = self.sqr(self.power(k >> 1))
        return poly_mulmod(x, self.generator, self.modulus) if k & 1 else x

    # -- scalar arithmetic ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp.item(wrap_log(self._log[a] + self._log[b], self.order - 1))

    def sqr(self, a: int) -> int:
        lo, hi = self._sq
        return lo[a & len(lo) - 1] ^ hi[a >> (self.n + 1) // 2]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverseError("zero has no multiplicative inverse")
        return self.exp.item(wrap_log(self.order - 1 - self._log[a], self.order - 1))

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroInverseError("division by zero")
        if a == 0:
            return 0
        return self.exp.item(wrap_log(self._log[a] - self._log[b] + self.order - 1, self.order - 1))

    def trace(self, a: int) -> int:
        """Absolute trace sum(a^(2^i), i < n), valued in {0, 1}."""
        return (int(a) & self.trace_mask).bit_count() & 1

    # -- subfields and seeds --------------------------------------------------

    def subfield(self, d: int) -> list[int]:
        """The 2^d elements fixed by x -> x^(2^d), sorted; requires d | n."""
        if d <= 0 or self.n % d != 0:
            raise NotADivisorError(f"{d} does not divide {self.n}")
        m = self.order - 1  # GF(2^d)* is the subgroup of order 2^d - 1
        return [0, *sorted(self.exp[: m : m // ((1 << d) - 1)].tolist())]

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

