"""Difference families of blocks and their quotient multiplicity structure.

The quotient list of a block B is the multiset of the 42 values b_i/b_j
over ordered pairs of distinct positions.  A family is a difference
family of index lambda when every unit except 1 occurs exactly lambda
times in the union of the quotient lists of its base blocks.

Two independent routes compute the multiplicity m(t):

  * multiplicity_profile: brute-force accumulation over every base block,
    one histogram of the folded slot log differences (fold_differences,
    which also counts every pair of a design's full-length orbits);
  * certificate_table: solvability of the 18 genuinely quadratic quotient
    equations at every t, read off a table of 1 - Tr(g^k) as one int32
    key per t (bit c: equation c has two roots), plus the 24 degenerate ones,
    which predicts m(t) = 24 + 2*r(t) for the all-seeds family; r(t) and
    the matching are decoded from each distinct key.

Keeping both routes alive catches transcription slips in either one,
and in the fold that the profile and the pair count share.  The scalar
definitions they are checked against (delta, pair_equation and a
certificate built from one quadratic solve per equation) are in
`qdf.reference`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import PAIR_I, PAIR_J, block_slots, hexagon_reps, int_array, max_vertices
from .errors import DegenerateTError
from .gf2n import GF2n, walk, wrap_log


# Rows per slot chunk, what each pass over a family holds of its slots.
_CHUNK_ROWS = 1 << 12


@dataclass(frozen=True, eq=False)
class DifferenceFamily:
    """Base blocks plus the claimed index; forbidden is empty for ordinary
    families and holds the avoided subgroup for relative ones.

    Block k is block_slots of the int32 seeds[k], kept as `rows` too when
    they fit one chunk; a mutant has no seeds and holds the (N, 7) int32
    `rows`, given as any 7-element rows.  Slot rows are read by chunks()
    or take(); `slots` serves tests and demos.
    """

    ctx: GF2n
    rows: np.ndarray | None
    lambda_claim: int
    forbidden: frozenset[int] = frozenset()
    seeds: np.ndarray | None = None

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.int32).reshape(-1, 7) if self.seeds is None else None
        if self.seeds is not None and len(self.seeds) <= _CHUNK_ROWS:  # built once, not per pass
            rows = block_slots(self.ctx, self.seeds)
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.rows if self.seeds is None else self.seeds)

    def take(self, index=slice(None)) -> np.ndarray:
        """The slot rows at `index`, a slice or an int or boolean array."""
        return block_slots(self.ctx, self.seeds[index]) if self.rows is None else self.rows[index]

    slots = property(take)

    def chunks(self) -> Iterator[np.ndarray]:
        for lo in range(0, len(self), _CHUNK_ROWS):
            yield self.take(slice(lo, lo + _CHUNK_ROWS))


@dataclass(frozen=True)
class MultiplicityProfile:
    """Exact quotient multiplicities, held folded: hist[f] counts each of
    g^f and g^(v - f), v = 2^n - 1, for 1 <= f <= v // 2, and hist[0]
    counts 1 twice (g the field's generator)."""

    ctx: GF2n
    hist: np.ndarray

    @cached_property
    def counts(self) -> np.ndarray:
        """m(t) indexed by element encoding, as int32, walked on first use."""
        counts = np.zeros(self.ctx.order, dtype=np.int32)
        counts[1] = 2 * self.hist[0]
        for f, x, y in walk(self.ctx, 1, self.ctx.order // 2, inverses=True):
            counts[x] = counts[y] = self.hist[f : f + len(x)]
        return counts

    def extremes(self) -> tuple[int, int]:
        """(min, max) of m(t) over the valid range t not in {0, 1}: every
        such t is g^f or g^(v - f) for one fold 1 <= f <= v // 2."""
        live = self.hist[1:]
        return int(live.min()), int(live.max())

    def is_constant(self, value: int) -> bool:
        mn, mx = self.extremes()
        return mn == value and mx == value

    def total(self) -> int:
        return 2 * int(self.hist.sum())


def profile_bytes(n: int) -> int:
    """Bytes multiplicity_profile adds over its family at its peak, for
    preflight estimates: the int32 histogram over half the field, 2 B per
    element, and 224 B per row of a slot chunk (its slots, (7, rows) logs
    and two (21, rows) int32 arrays).  The counts by element encoding,
    4 B per element more, are built only when read.  With the tables, the
    seeds and the writer's chunk, `construct` grows VmHWM by 1.5-1.6,
    3.0, 7.2 and 23.3 MiB at n = 15 to 21 in fresh processes, against
    preflight totals of 1.7, 2.7, 6.7 and 22.7 MiB."""
    return 2 * (1 << n) + 224 * _CHUNK_ROWS


def folding(fam: DifferenceFamily, hist: np.ndarray, weight=None) -> Iterator[np.ndarray]:
    """fam's slot chunks, each added as it passes to `hist`, the histogram
    of folded slot log differences, row k weighted by weight[k] (1 if
    weight is None): a difference d = log b_i - log b_j and its negative
    share the fold min(|d|, v - |d|), so hist[f] counts the quotients g^f
    and g^(v - f), 1 <= f <= v // 2, and hist[0] the quotient 1 of a
    repeated element.  A chunk's temporaries are views of one allocation:
    as three, glibc faulted them in afresh for each chunk (+40 % time)."""
    v, one = fam.ctx.order - 1, hist.dtype.type(1)  # a scalar of hist's type: no cast
    for i, rows in enumerate(fam.chunks()):
        k, lo = len(rows), i * _CHUNK_ROWS
        work = np.empty((49, k), dtype=np.int32)
        logs, d, t = work[:7], work[7:28], work[28:]
        fam.ctx.logs.take(rows.T, out=logs, mode="clip")  # "raise" would copy via a buffer
        logs.take(PAIR_I, axis=0, out=d, mode="clip")
        d -= logs.take(PAIR_J, axis=0, out=t, mode="clip")
        np.abs(d, out=d)
        np.minimum(d, np.subtract(v, d, out=t), out=d)
        w = one if weight is None else np.tile(weight[lo : lo + k].astype(hist.dtype), 21)
        np.add.at(hist, d.ravel(), w)
        del work, logs, d, t
        yield rows


def fold_differences(fam: DifferenceFamily, weight=None) -> np.ndarray:
    """The exact histogram of `folding` fam, in int32 bins when all weights
    sum below 2^31 / 21, else int64."""
    total = 21 * (len(fam) if weight is None else int(weight.sum()))
    hist = np.zeros(fam.ctx.order // 2, dtype=np.int32 if total < 2**31 else np.int64)
    for _ in folding(fam, hist, weight):
        pass
    return hist


def multiplicity_profile(fam) -> MultiplicityProfile:
    """Exact m(t) for every t, by direct accumulation over base blocks:
    b_i/b_j = g^(log b_i - log b_j), so the folded slot log differences
    of every block, each counted once, are its delta list."""
    return MultiplicityProfile(fam.ctx, fold_differences(fam))


# -- quotient equations -------------------------------------------------------

# The 18 ordered pairs (i, j) of slots, counted from 1, whose quotient
# equation b_i(x) = t * b_j(x) is genuinely quadratic (nonzero x and x^2
# coefficients), grouped so that within each match exactly one equation
# is solvable for every t.  Each coefficient is 1, t or t+1 ('t1').
EQUATION_FORMS: dict[tuple[int, int], tuple[str, str, str]] = {
    (6, 1): ("1", "1", "t"),
    (7, 1): ("1", "1", "t1"),
    (1, 6): ("t", "t", "1"),
    (1, 7): ("t", "t", "t1"),
    (5, 2): ("1", "t", "1"),
    (3, 7): ("t1", "t", "t"),
    (7, 2): ("1", "t1", "1"),
    (2, 7): ("t", "t1", "t"),
    (4, 3): ("t", "1", "1"),
    (7, 3): ("t1", "1", "1"),
    (7, 4): ("1", "t1", "t1"),
    (4, 7): ("t", "t1", "t1"),
    (7, 5): ("t1", "1", "t1"),
    (2, 5): ("t", "1", "t"),
    (7, 6): ("t1", "t1", "1"),
    (6, 7): ("t1", "t1", "t"),
    (3, 4): ("1", "t", "t"),
    (5, 7): ("t1", "t", "t1"),
}

MATCHED_PAIRS: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = (
    ((6, 1), (7, 1)),
    ((1, 6), (1, 7)),
    ((5, 2), (3, 7)),
    ((7, 2), (2, 7)),
    ((4, 3), (7, 3)),
    ((7, 4), (4, 7)),
    ((7, 5), (2, 5)),
    ((7, 6), (6, 7)),
    ((3, 4), (5, 7)),
)


def decode_key(key: int) -> tuple[tuple[tuple[int, int], ...], int, bool]:
    """(solvable pairs, r, matching_ok) of a certificate key: the pairs of
    its set bits in EQUATION_FORMS order, their number, and whether each
    of the 9 matches holds exactly one of them."""
    solvable = tuple(p for c, p in enumerate(EQUATION_FORMS) if key >> c & 1)
    s = set(solvable)
    return solvable, len(solvable), all((p in s) != (q in s) for p, q in MATCHED_PAIRS)


@dataclass(frozen=True)
class CertificateTable:
    """Solvability of the 18 quadratic quotient equations at many t.

    Bit c of the int32 keys[k] is set when equation c (in EQUATION_FORMS
    order) has two roots at t = ts[k] (int32 from certificate_table).
    """

    ts: np.ndarray
    keys: np.ndarray

    @cached_property
    def decoded(self) -> tuple[list[tuple], np.ndarray]:
        """decode_key of each distinct key, in increasing order (at most
        2^9 when every match holds one solvable equation), and the int32
        index of each t's key among them."""
        keys, which = rank(self.keys)
        return [decode_key(k) for k in keys.tolist()], which


# ts per chunk of certificate_table and values per search of rank.
_KEY_CHUNK = 1 << 16


def rank(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of a 1-d array and the int32 index of each
    among them, searched _KEY_CHUNK values at a time: no intp index outlives its chunk."""
    distinct = np.sort(values)
    distinct = np.concatenate((distinct[:1], distinct[1:][distinct[1:] != distinct[:-1]]))
    which = np.empty(len(values), dtype=np.int32)
    for lo in range(0, len(values), _KEY_CHUNK):
        which[lo : lo + _KEY_CHUNK] = np.searchsorted(distinct, values[lo : lo + _KEY_CHUNK])
    return distinct, which


def quotient_log(la, lb, lc, v: int):
    """log(a*c/b^2) in [0, v) from the logs la, lb and lc of a, b and c,
    ints or int32 arrays in [0, v): log a + log c and 2 log b, each
    wrapped below v, then v plus their difference, in (0, 2v), wrapped
    once more.  Every term stays below 2v, so an int32 holds it for
    n <= 29."""
    return wrap_log(wrap_log(la + lc, v) + (v - wrap_log(2 * lb, v)), v)


def certificate_table(ctx: GF2n, ts) -> CertificateTable:
    """Solve the 18 verbatim quadratic forms at every t in ts at once.

    Every coefficient is 1, t or t+1, all nonzero for t outside {0, 1},
    so each equation has 0 or 2 roots, two exactly when Tr(a*c/b^2) = 0
    (the criterion of reference.solve_quadratic).  quotient_log gives
    log(a*c/b^2) below v = 2^n - 1, an index of a table of 1 - Tr(g^k):
    one gather per equation.
    """
    ts = int_array(ts)
    if not ts.size:
        raise DegenerateTError("certificate requires at least one t")
    bad = (ts < 2) | (ts >= ctx.order)
    if bad.any():
        raise DegenerateTError(
            f"certificate requires 2 <= t < 2^{ctx.n}, got {int(ts[np.argmax(bad)])}"
        )
    ts = ts.astype(np.int32, copy=False)
    v = ctx.order - 1
    # solvable[k] = 1 - Tr(g^k) for 0 <= k < v, walked: Tr(x) is the parity
    # of x & trace_mask, folded to bit 0 by XOR shifts over every bit of an int32
    solvable = np.empty(v, dtype=np.uint8)
    x = np.empty(len(ctx._first), dtype=np.int32)
    for lo, powers in walk(ctx, 0, v):
        t = np.bitwise_and(powers, ctx.trace_mask, out=x[: len(powers)])
        for s in (16, 8, 4, 2, 1):
            t ^= t >> s
        solvable[lo : lo + len(t)] = np.invert(t, out=t) & 1
    keys = np.zeros(ts.size, dtype=np.int32)
    for lo in range(0, ts.size, _KEY_CHUNK):
        part = ts[lo : lo + _KEY_CHUNK]
        logs = {"1": 0, "t": ctx.logs[part], "t1": ctx.logs[part ^ 1]}
        for c, (fa, fb, fc) in enumerate(EQUATION_FORMS.values()):
            k = quotient_log(logs[fa], logs[fb], logs[fc], v)
            keys[lo : lo + _KEY_CHUNK] |= np.left_shift(solvable.take(k), c, dtype=np.int32)
    return CertificateTable(ts, keys)


def certificate_bytes(n: int) -> int:
    """Bytes `certify` adds over the field tables at its peak, for
    preflight estimates: 13 per t (the table's int32 ts and keys, the
    int32 index of each t's key among the decoded ones, and the heap that
    rank's sort of the keys leaves), one chunk's temporaries, ~35 B per t
    of a chunk of _KEY_CHUNK ts under tracemalloc, which glibc keeps in
    its heap once freed, and the writer's 256 KiB chunk, which does not
    fit in that heap at n = 15.  With the tables, `certify` grows VmHWM by
    2.0, 5.5, 12.4 and 43.5 MiB at n = 15, 17, 19 and 21 in fresh
    processes, against preflight totals of 2.2, 5.3, 13.2 and 44.7 MiB."""
    return 13 * (1 << n) + 35 * min(1 << n, _KEY_CHUNK) + 2**18


# -- family constructors ------------------------------------------------------

def build_family(ctx: GF2n, system: str = "min") -> DifferenceFamily:
    """One block per hexagon: a difference family of index 7.

    `system` picks the representative seed of each hexagon: "min" takes
    the canonical (smallest-encoding) vertex, "max" the largest.  The
    developed design does not depend on this choice.
    """
    if system not in ("min", "max"):
        raise ValueError(f"unknown representative system {system!r}")
    seeds = hexagon_reps(ctx)
    if system == "max":
        seeds = max_vertices(ctx, seeds)
    return DifferenceFamily(ctx, None, 7, seeds=seeds)


def full_family(ctx: GF2n) -> DifferenceFamily:
    """Every seed's block: a difference family of index 42."""
    return DifferenceFamily(ctx, None, 42, seeds=int_array(ctx.seeds()))
