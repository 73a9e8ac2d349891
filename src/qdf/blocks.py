"""Blocks, hexagons, stabilizers and orbit relations.

A block is the 7-element point set of a 3-dimensional GF(2)-subspace of
the field, generated by a seed x outside {0, 1}:

    (1, x, x^2, x+1, x^2+1, x^2+x, x^2+x+1)

The ordering above is fixed because the quotient table in `family` is
indexed by block position.  Scaling a block by a unit walks it around an
orbit; the orbit of B_x is described combinatorially by the hexagon of x
in the 2-regular graph on F* \\ {1} whose moves are v -> v+1 and v -> 1/v.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ForbiddenSeedError
from .gf2n import GF2n

# GF(2)[z] shape of each block slot (bit k = coefficient of z^k); slot i
# of B_x is this polynomial evaluated at x.
SLOT_MASKS = (0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111)

# Slot positions (i, j), i < j, of the 21 unordered pairs of a block.
PAIR_I, PAIR_J = np.array([(i, j) for i in range(7) for j in range(i + 1, 7)]).T


@dataclass(frozen=True)
class Block:
    """Ordered 7-tuple of nonzero elements spanning, with 0, a 3-dim subspace."""

    elements: tuple[int, ...]
    seed: int

    def as_set(self) -> frozenset[int]:
        return frozenset(self.elements)


@dataclass(frozen=True)
class Hexagon:
    """One connected component of the seed graph, in cyclic walk order."""

    vertices: tuple[int, ...]
    canonical_rep: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "canonical_rep", min(self.vertices))


@dataclass(frozen=True)
class StabilizerReport:
    """Multiplicative stabilizer of a block: its order and all its elements."""

    order: int
    generators: tuple[int, ...]


def _check_seed(x: int, ctx: GF2n) -> None:
    if x in (0, 1) or not 0 <= x < ctx.order:
        raise ForbiddenSeedError(f"seed must lie in F* minus {{1}}, got {x}")


def block_of(ctx: GF2n, x: int) -> Block:
    """The block seeded by x; 3-dimensional for every odd n since
    1, x, x^2 can only be dependent when x^2 + x + 1 = 0, impossible here."""
    _check_seed(x, ctx)
    x2 = ctx.sqr(x)
    return Block((1, x, x2, x ^ 1, x2 ^ 1, x2 ^ x, x2 ^ x ^ 1), seed=x)


def hexagon_of(ctx: GF2n, x: int) -> Hexagon:
    """The hexagon through x, walked by alternating the moves +1 and 1/v.

    Vertex order: (x, x+1, 1/(x+1), x/(x+1), (x+1)/x, 1/x); one more
    inversion returns to x.  All six vertices are distinct and avoid
    {0, 1} for odd n.
    """
    _check_seed(x, ctx)
    v1 = x ^ 1
    v2 = ctx.inv(v1)
    v3 = v2 ^ 1
    v4 = ctx.inv(v3)
    v5 = v4 ^ 1
    return Hexagon((x, v1, v2, v3, v4, v5))


# Seed pairs (x, x+1) per chunk of hexagon_reps; bounds its temporaries.
_HEXAGON_CHUNK = 1 << 13


def _inverses(ctx: GF2n, x: np.ndarray) -> np.ndarray:
    """1/x for every unit of the int array x, as int32."""
    return ctx.exp2[ctx.order - 1 - ctx.logs[x]]


def hexagon_reps(ctx: GF2n) -> np.ndarray:
    """The canonical representatives of the hexagons of F* \\ {1}, in
    increasing order, as a (2^n - 2)/6 int32 array.

    The hexagon of x is the pairs (x, x+1), (1/(x+1), 1/(x+1) + 1) and
    (1/x + 1, 1/x).  Each pair is {y, y ^ 1}, so an even x is the
    representative when it is below the even member of the other two.
    The elements are walked _HEXAGON_CHUNK pairs at a time, with one
    inverse lookup each.
    """
    # filled in place: a list of parts and its concatenation left ~5 MiB
    # more resident through `construct --n 23`
    reps = np.empty((ctx.order - 2) // 6, dtype=np.int32)
    k = 0
    for lo in range(2, ctx.order, 2 * _HEXAGON_CHUNK):
        hi = min(lo + 2 * _HEXAGON_CHUNK, ctx.order)
        inv = ctx.exp2[ctx.order - 1 - ctx.logs[lo:hi]]
        x = np.arange(lo, hi, 2, dtype=np.int32)
        x = x[x < (np.minimum(inv[0::2], inv[1::2]) & ~1)]  # the pairs are distinct
        reps[k : k + len(x)] = x
        k += len(x)
    return reps


def hexagon_rows(ctx: GF2n) -> np.ndarray:
    """The hexagons of F* \\ {1} as a ((2^n - 2)/6, 6) int32 array.

    Row k is hexagon_of(r) for the k-th representative r of
    hexagon_reps, in the same vertex order, from the inverses of r and
    r + 1.
    """
    x = hexagon_reps(ctx)
    ix, ix1 = _inverses(ctx, x), _inverses(ctx, x ^ 1)
    return np.stack([x, x | 1, ix1, ix1 ^ 1, ix ^ 1, ix], axis=1)


def max_vertices(ctx: GF2n, reps: np.ndarray) -> np.ndarray:
    """The largest vertex of the hexagon of each representative r of
    hexagon_reps: max(1/r, 1/(r + 1)) | 1, the odd member of the larger
    of the two pairs above r's own."""
    return np.maximum(_inverses(ctx, reps), _inverses(ctx, reps ^ 1)) | 1


def hexagon_partition(ctx: GF2n) -> list[Hexagon]:
    """Partition of F* \\ {1} into (2^n - 2)/6 hexagons.

    Listed by increasing canonical representative, so the list of
    canonical_reps is the default representative system.
    """
    return [Hexagon(tuple(row)) for row in hexagon_rows(ctx).tolist()]


def block_slots(ctx: GF2n, seeds) -> np.ndarray:
    """The blocks of the given seeds as an (N, 7) int32 array, one row
    per seed in the slot order of block_of, filled column by column."""
    x = np.asarray(seeds, dtype=np.int32).reshape(-1)
    if x.size and (x.min() < 2 or x.max() >= ctx.order):
        _check_seed(int(x[(x < 2) | (x >= ctx.order)][0]), ctx)
    out = np.empty((len(x), 7), dtype=np.int32)
    out[:, 0] = 1
    out[:, 1] = x
    out[:, 2] = ctx.exp2[2 * ctx.logs[x]]
    np.bitwise_xor(x, 1, out=out[:, 3])
    np.bitwise_xor(out[:, 2], 1, out=out[:, 4])
    np.bitwise_xor(out[:, 2], x, out=out[:, 5])
    np.bitwise_xor(out[:, 5], 1, out=out[:, 6])
    return out


def is_subspace_block(ctx: GF2n, s) -> bool:
    """True iff s is a 7-set of nonzero elements with s + {0} add-closed."""
    pts = set(s)
    if len(pts) != 7 or 0 in pts:
        return False
    full = pts | {0}
    return all(a ^ b in full for a in pts for b in pts)


def stabilizer_of(ctx: GF2n, b: Block) -> StabilizerReport:
    """All t with t*B = B as sets.

    The stabilizer order divides gcd(2^n - 1, 7), so candidates are the
    solutions of t^7 = 1: the nonzero elements of the order-8 subfield
    when 3 | n, just {1} otherwise.  develop finds the same orders for
    all base blocks at once by an array test; this is the scalar route.
    """
    if ctx.n % 3 == 0:
        candidates = [t for t in ctx.subfield(3) if t]
    else:
        candidates = [1]
    bs = b.as_set()
    members = tuple(
        t for t in candidates if t == 1 or frozenset(ctx.mul(t, e) for e in bs) == bs
    )
    return StabilizerReport(order=len(members), generators=members)


def _scaled_equal(ctx: GF2n, t: int, src: frozenset[int], dst: frozenset[int]) -> bool:
    for e in src:
        if ctx.mul(t, e) not in dst:
            return False
    return True


def same_orbit(ctx: GF2n, x: int, y: int) -> bool:
    """Whether B_y = t*B_x for some unit t.

    Decided by direct search: 1 is in every block, so any such t equals
    t*1 and must itself lie in B_y, leaving 7 candidates to try.  The
    hexagon criterion (y a vertex of the hexagon of x) is evaluated as
    well and cross-checked; the two characterizations provably agree.
    """
    bx = block_of(ctx, x).as_set()
    by = block_of(ctx, y).as_set()
    direct = any(_scaled_equal(ctx, t, bx, by) for t in by)
    via_hexagon = y in hexagon_of(ctx, x).vertices
    if direct != via_hexagon:  # pragma: no cover - provably impossible
        raise AssertionError(
            f"orbit search and hexagon criterion disagree for x={x}, y={y}"
        )
    return direct
