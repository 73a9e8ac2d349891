"""Blocks and hexagons, as arrays.

A block is the 7-element point set of a 3-dimensional GF(2)-subspace of
the field, generated by a seed x outside {0, 1}:

    (1, x, x^2, x+1, x^2+1, x^2+x, x^2+x+1)

The ordering above is fixed because the quotient table in `family` is
indexed by block position.  Scaling a block by a unit walks it around an
orbit; the orbit of B_x is described combinatorially by the hexagon of x
in the 2-regular graph on F* \\ {1} whose moves are v -> v+1 and v -> 1/v.
The scalar definitions (block_of, hexagon_of, stabilizer_of, same_orbit)
are in `qdf.reference`.
"""

from __future__ import annotations

import numpy as np

from .errors import ForbiddenSeedError
from .gf2n import GF2n, walk

# GF(2)[z] shape of each block slot (bit k = coefficient of z^k); slot i
# of B_x is this polynomial evaluated at x.
SLOT_MASKS = (0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111)

# Slot positions (i, j), i < j, of the 21 unordered pairs of a block.
PAIR_I, PAIR_J = np.array([(i, j) for i in range(7) for j in range(i + 1, 7)]).T


def _check_seed(x: int, ctx: GF2n) -> None:
    if x in (0, 1) or not 0 <= x < ctx.order:
        raise ForbiddenSeedError(f"seed must lie in F* minus {{1}}, got {x}")


# Seed pairs (x, x+1) per chunk of hexagon_reps' reading of its flags.
_HEXAGON_CHUNK = 1 << 13


def _inverses(ctx: GF2n, x: np.ndarray) -> np.ndarray:
    """1/x = g^(v - log x) for every unit of the int array x, as int32: exp[-log x]."""
    return ctx.exp[-ctx.logs[x]]


def hexagon_reps(ctx: GF2n) -> np.ndarray:
    """The canonical representatives of the hexagons of F* \\ {1}, in
    increasing order, as a (2^n - 2)/6 int32 array.

    The hexagon of x is the pairs (x, x+1), (1/(x+1), 1/(x+1) + 1) and
    (1/x + 1, 1/x).  Each pair is {y, y ^ 1}, so an even x is the
    representative when it is below the even member of the other two.  One
    walk of y = g^k and 1/y = g^-k, 1 <= k <= v/2, flags each y below 1/y,
    1 B per element; 1/y is never y ^ 1 (y^2 + y + 1 has no root, n odd),
    so that is 1/y in a larger pair, and x is the representative iff x and
    x + 1 are flagged, read _HEXAGON_CHUNK pairs at a time.
    """
    flag = np.zeros(ctx.order, dtype=bool)
    for _, x, y in walk(ctx, 1, ctx.order // 2, inverses=True):
        flag[x] = below = x < y
        flag[y] = ~below
    # filled in place: a list of parts and its concatenation left ~5 MiB
    # more resident through `construct --n 23`
    reps = np.empty((ctx.order - 2) // 6, dtype=np.int32)
    k = 0
    for lo in range(0, ctx.order, 2 * _HEXAGON_CHUNK):
        pairs = flag[lo : lo + 2 * _HEXAGON_CHUNK]
        x = np.flatnonzero(pairs[0::2] & pairs[1::2])
        reps[k : k + len(x)] = 2 * x + lo
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


def int_array(xs) -> np.ndarray:
    """The ints xs as a flat ndarray; a range becomes np.arange, without
    the Python int per item (~48 B each) that np.asarray makes of it, and
    int32 when its ends fit, as field elements do: no int64 copy to cast."""
    if isinstance(xs, range):
        small = max(abs(xs.start), abs(xs.stop)) < 2**31
        return np.arange(xs.start, xs.stop, xs.step, dtype=np.int32 if small else np.int64)
    return np.asarray(xs).reshape(-1)


def block_slots(ctx: GF2n, seeds) -> np.ndarray:
    """The blocks of the given seeds as an (N, 7) int32 array, one row
    per seed in the slot order of block_of, filled column by column."""
    x = int_array(seeds)
    if x.size and (x.min() < 2 or x.max() >= ctx.order):
        _check_seed(int(x[(x < 2) | (x >= ctx.order)][0]), ctx)
    x = x.astype(np.int32, copy=False)
    out = np.empty((len(x), 7), dtype=np.int32)
    out[:, 0] = 1
    out[:, 1] = x
    lo, hi = ctx.squares
    np.bitwise_xor(lo.take(x & len(lo) - 1), hi.take(x >> (ctx.n + 1) // 2), out=out[:, 2])
    np.bitwise_xor(x, 1, out=out[:, 3])
    np.bitwise_xor(out[:, 2], 1, out=out[:, 4])
    np.bitwise_xor(out[:, 2], x, out=out[:, 5])
    np.bitwise_xor(out[:, 5], 1, out=out[:, 6])
    return out
