"""The paper's scalar definitions, one element at a time.

The proof is scalar: the block B_x = <1, x, x^2> \\ {0}, the hexagon of x
under x -> x+1 and x -> 1/x, the 42 quotients b_i/b_j, and the test
Tr(ac/b^2) = 0 for the 18 quadratic quotient equations.  The package
computes all of this as arrays, and no command runs the definitions
below; the tests compare the arrays against them, and the demos use them
to follow the paper.

This module imports the array modules, and none of them imports it.  A
definition here never calls the array routine it is compared against:
block_of is not block_slots, hexagon_of is not hexagon_rows, delta is
not multiplicity_profile, stabilizer_of is not develop, and
equation_certificate solves each equation with solve_quadratic rather
than reading certificate_table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import xor

from .blocks import SLOT_MASKS, _check_seed
from .errors import AllZeroCoefficientsError, DegenerateTError
from .family import EQUATION_FORMS, MATCHED_PAIRS
from .gf2n import GF2n, _split_tables, poly_degree, poly_mod

# -- square roots, half-traces and quadratics ---------------------------------


def _frobenius(ctx: GF2n, a: int, j: int) -> int:
    """a^(2^j) of a unit a = g^k: g^(k 2^j)."""
    return ctx.power(ctx._log[a] << j)


@lru_cache(maxsize=16)
def _sqrt_tables(ctx: GF2n) -> tuple:
    images = [_frobenius(ctx, 1 << i, ctx.n - 1) for i in range(ctx.n)]
    return tuple(t.tolist() for t in _split_tables(images))


@lru_cache(maxsize=16)
def _half_trace_tables(ctx: GF2n) -> tuple:
    halves = range(0, ctx.n, 2)
    images = [reduce(xor, (_frobenius(ctx, 1 << i, j) for j in halves)) for i in range(ctx.n)]
    return tuple(t.tolist() for t in _split_tables(images))


def sqrt(ctx: GF2n, a: int) -> int:
    """The unique square root, a -> a^(2^(n-1)); squaring is a bijection."""
    lo, hi = _sqrt_tables(ctx)
    return lo[a & len(lo) - 1] ^ hi[a >> (ctx.n + 1) // 2]


def half_trace(ctx: GF2n, u: int) -> int:
    """H(u) = sum(u^(4^i), i <= (n-1)/2), defined for odd n.

    Whenever trace(u) = 0, H(u) solves y^2 + y = u.
    """
    lo, hi = _half_trace_tables(ctx)
    return lo[u & len(lo) - 1] ^ hi[u >> (ctx.n + 1) // 2]


@dataclass(frozen=True)
class QuadraticOutcome:
    """Distinct solutions of a quadratic (or degenerate) equation."""

    count: int
    roots: tuple[int, ...]


def solve_quadratic(ctx: GF2n, a: int, b: int, c: int) -> QuadraticOutcome:
    """Distinct roots of a*x^2 + b*x + c = 0 in the field.

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
        return QuadraticOutcome(1, (ctx.div(c, b),))
    if b == 0:
        return QuadraticOutcome(1, (sqrt(ctx, ctx.div(c, a)),))
    u = ctx.div(ctx.mul(a, c), ctx.sqr(b))
    if ctx.trace(u):
        return QuadraticOutcome(0, ())
    s = ctx.div(b, a)
    r0 = ctx.mul(s, half_trace(ctx, u))
    r1 = r0 ^ s
    return QuadraticOutcome(2, (r0, r1) if r0 < r1 else (r1, r0))


# -- blocks, hexagons and orbits ----------------------------------------------


@dataclass(frozen=True)
class Block:
    """Ordered 7-tuple of nonzero elements spanning, with 0, a 3-dim subspace."""

    elements: tuple[int, ...]
    seed: int

    def as_set(self) -> frozenset[int]:
        return frozenset(self.elements)


def block_of(ctx: GF2n, x: int) -> Block:
    """The block seeded by x, in slot order; 3-dimensional for every odd n
    since 1, x, x^2 can only be dependent when x^2 + x + 1 = 0, impossible
    here."""
    _check_seed(x, ctx)
    x2 = ctx.sqr(x)
    return Block((1, x, x2, x ^ 1, x2 ^ 1, x2 ^ x, x2 ^ x ^ 1), seed=x)


def hexagon_of(ctx: GF2n, x: int) -> tuple[int, ...]:
    """The hexagon through x, walked by alternating the moves +1 and 1/v.

    Vertex order: (x, x+1, 1/(x+1), x/(x+1), (x+1)/x, 1/x); one more
    inversion returns to x.  All six vertices are distinct and avoid
    {0, 1} for odd n; the hexagon's canonical representative is the
    smallest.
    """
    _check_seed(x, ctx)
    v1 = x ^ 1
    v2 = ctx.inv(v1)
    v3 = v2 ^ 1
    v4 = ctx.inv(v3)
    v5 = v4 ^ 1
    return (x, v1, v2, v3, v4, v5)


def is_subspace_block(ctx: GF2n, s) -> bool:
    """True iff s is a 7-set of nonzero elements with s + {0} add-closed."""
    pts = set(s)
    if len(pts) != 7 or 0 in pts:
        return False
    full = pts | {0}
    return all(a ^ b in full for a in pts for b in pts)


def stabilizer_of(ctx: GF2n, elements) -> tuple[int, ...]:
    """All units t with t*B = B as sets, B the given block elements.

    The stabilizer order divides gcd(2^n - 1, 7), so candidates are the
    solutions of t^7 = 1: the nonzero elements of the order-8 subfield
    when 3 | n, just {1} otherwise.
    """
    candidates = [t for t in ctx.subfield(3) if t] if ctx.n % 3 == 0 else [1]
    bs = frozenset(elements)
    return tuple(t for t in candidates if t == 1 or frozenset(ctx.mul(t, e) for e in bs) == bs)


def same_orbit(ctx: GF2n, x: int, y: int) -> bool:
    """Whether B_y = t*B_x for some unit t.

    Decided by direct search: 1 is in every block, so any such t equals
    t*1 and must itself lie in B_y, leaving 7 candidates to try.  The
    hexagon criterion (y a vertex of the hexagon of x) is evaluated as
    well and cross-checked; the two characterizations provably agree.
    """
    bx = block_of(ctx, x).as_set()
    by = block_of(ctx, y).as_set()
    direct = any(all(ctx.mul(t, e) in by for e in bx) for t in by)
    via_hexagon = y in hexagon_of(ctx, x)
    if direct != via_hexagon:  # pragma: no cover - provably impossible
        raise AssertionError(
            f"orbit search and hexagon criterion disagree for x={x}, y={y}"
        )
    return direct


# -- quotients and their equations --------------------------------------------


def delta(ctx: GF2n, elements) -> list[int]:
    """The 42 ordered-pair quotients b_i/b_j, i != j, of a block's 7
    elements, as a multiset."""
    els = tuple(elements)
    return [ctx.div(els[i], els[j]) for i in range(7) for j in range(7) if i != j]


def delta_table(ctx: GF2n, x: int):
    """7x7 quotient table of B_x in block order; diagonal entries are None.

    Entry (i, j) is b_i/b_j, e.g. (2, 1) = x, (2, 4) = x/(x+1) and
    (6, 1) = x^2 + x.  Flattening off-diagonal entries reproduces delta.
    """
    els = block_of(ctx, x).elements
    return [
        [ctx.div(els[i], els[j]) if i != j else None for j in range(7)]
        for i in range(7)
    ]


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


def _reduced_fraction(i: int, j: int) -> tuple[int, int]:
    """Slot quotient b_i/b_j as a reduced fraction of GF(2)[z] masks."""
    num, den = SLOT_MASKS[i - 1], SLOT_MASKS[j - 1]
    g = poly_gcd(num, den)
    return poly_divmod(num, g)[0], poly_divmod(den, g)[0]


def pair_equation(ctx: GF2n, i: int, j: int, t: int) -> tuple[int, int, int]:
    """Coefficients (a, b, c) of the cleared equation b_i(x) = t * b_j(x).

    Derived mechanically from the slot polynomials with common factors
    cancelled, so no hand-copied coefficient can go stale.  Each
    coefficient is num_bit XOR t*den_bit with bits in {0, 1}.
    """
    num, den = _reduced_fraction(i, j)

    def coeff(k: int) -> int:
        v = (num >> k) & 1
        if (den >> k) & 1:
            v ^= t
        return v

    return coeff(2), coeff(1), coeff(0)


def pair_solution_count(ctx: GF2n, i: int, j: int, t: int) -> int:
    """Number of x in the field with b_i(x)/b_j(x) = t (t not in {0, 1})."""
    a, b, c = pair_equation(ctx, i, j, t)
    if a == 0 and b == 0:
        # reduced slots are never equal for i != j, so c = 1 ^ t != 0
        return 0
    return solve_quadratic(ctx, a, b, c).count


# The verbatim coefficient of each tag of EQUATION_FORMS.
_FORMS = {"1": lambda t: 1, "t": lambda t: t, "t1": lambda t: t ^ 1}

QUADRATIC_PAIRS = frozenset(EQUATION_FORMS)

ALL_ORDERED_PAIRS = tuple((i, j) for i in range(1, 8) for j in range(1, 8) if i != j)

SINGLE_SOLUTION_PAIRS = tuple(p for p in ALL_ORDERED_PAIRS if p not in QUADRATIC_PAIRS)


@dataclass(frozen=True)
class EquationEntry:
    i: int
    j: int
    a: int
    b: int
    c: int
    count: int


@dataclass(frozen=True)
class EquationCertificate:
    """Solvability record of the 18 quadratic quotient equations at one t."""

    t: int
    equations: tuple[EquationEntry, ...]
    r: int
    matching_ok: bool


def equation_certificate(ctx: GF2n, t: int) -> EquationCertificate:
    """The 18 quadratic quotient equations at one t, in EQUATION_FORMS
    order, each from pair_equation and solved by solve_quadratic.

    Every equation here has a nonzero linear coefficient, so each count is
    0 or 2; r is the number of solvable ones and matching_ok says whether
    each of the 9 matches contains exactly one solvable equation.
    """
    if not 2 <= t < ctx.order:
        raise DegenerateTError(f"certificate requires 2 <= t < 2^{ctx.n}, got {t}")
    entries = []
    for i, j in EQUATION_FORMS:
        a, b, c = pair_equation(ctx, i, j, t)
        entries.append(EquationEntry(i, j, a, b, c, solve_quadratic(ctx, a, b, c).count))
    solvable = {(e.i, e.j) for e in entries if e.count}
    matching_ok = all((p in solvable) != (q in solvable) for p, q in MATCHED_PAIRS)
    return EquationCertificate(t, tuple(entries), len(solvable), matching_ok)


def predicted_multiplicity(ctx: GF2n, t: int) -> int:
    """m(t) for the all-seeds family via the certificate: 24 + 2*r(t)."""
    return 24 + 2 * equation_certificate(ctx, t).r
