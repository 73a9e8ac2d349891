"""Development of difference families into cyclic 2-designs and their
exhaustive verification.

Developments are stored orbit-compressed: one representative block per
base block together with the orbit length (2^n - 1)/|stab| and the
replication factor |stab|.  Materializing every developed block would be
feasible but wasteful (about 11.2M blocks at n = 13).

verify_2design counts, for every unordered pair of distinct points, the
number of developed blocks containing both.  Pairs are indexed by log
coordinates: {g^a, g^(a+d)} sits at row d-1, column a of a
((v-1)/2, v) array of 8-bit counters (32 MiB at n = 13).  Developing an
orbit shifts every log by the same amount, so each (orbit, slot pair)
adds to one cyclic run of a single row.  The count is exhaustive, never
sampled; a pass is declared only when the counts modulo 256 and the
exact incidence total together prove it, and anything else is recounted
with 32-bit counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .blocks import Block, canonical_orbit_label, is_subspace_block, stabilizer_of
from .family import DifferenceFamily
from .gf2n import GF2n

_PAIR_INDICES = tuple((i, j) for i in range(7) for j in range(i + 1, 7))


@dataclass(frozen=True)
class Orbit:
    """One developed base block: dev B = orbit of length `length`, each
    block repeated `replication` times."""

    rep: Block
    length: int
    replication: int


@dataclass(frozen=True)
class Design:
    ctx: GF2n
    orbits: tuple[Orbit, ...]
    v: int
    k: int
    lambda_claim: int

    def block_count(self) -> int:
        """Total number of developed blocks, with multiplicity."""
        return sum(o.length * o.replication for o in self.orbits)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an exhaustive coverage check.

    passed holds iff pair_coverage_min == pair_coverage_max == the claimed
    index; offending_pairs carries a bounded sample of violations as
    ((payload, count)) tuples.  checks collects named sub-checks where a
    verification consists of several (the GDD case).
    """

    passed: bool
    pair_coverage_min: int
    pair_coverage_max: int
    offending_pairs: tuple
    timing: float
    checks: dict | None = None
    notes: str = ""


def develop(fam: DifferenceFamily) -> Design:
    """Orbit-compressed development of a (relative) difference family."""
    ctx = fam.ctx
    units = ctx.order - 1
    orbits = []
    for b in fam.base_blocks:
        stab = stabilizer_of(ctx, b)
        orbits.append(Orbit(rep=b, length=units // stab.order, replication=stab.order))
    return Design(
        ctx=ctx,
        orbits=tuple(orbits),
        v=units,
        k=7,
        lambda_claim=fam.lambda_claim,
    )


# -- pair counting kernel -----------------------------------------------------

# One byte per point pair; check_pair_coverage proves when it is exact.
COUNTER_DTYPE = np.uint8

# Counters per band of rows in the final checks; bounds their temporaries.
_BAND_CELLS = 1 << 20


def counter_shape(v: int) -> tuple[int, int]:
    """Shape of the pair counter over the v = 2^n - 1 points: the pair
    {g^a, g^(a+d)}, 1 <= d <= (v-1)/2, sits at row d-1, column a."""
    return (v - 1) // 2, v


def pair_coverage_counts(
    ctx: GF2n, orbits: tuple[Orbit, ...], dtype=COUNTER_DTYPE
) -> np.ndarray:
    """Pair coverage counts in log coordinates, shape counter_shape(v).

    Developing slot pair (i, j) of an orbit shifts both logs together, so
    it covers one cyclic run of `length` columns in a single row: a slice
    add, no keys and no sort.  A counter holds its count modulo the range
    of `dtype`; check_pair_coverage says when uint8 counts are exact.
    """
    v = ctx.order - 1
    half = (v - 1) // 2
    counts = np.zeros(counter_shape(v), dtype=dtype)
    for o in orbits:
        w = np.int64(o.replication).astype(dtype)
        logs = [int(ctx.logs[e]) for e in o.rep.elements]
        for i, j in _PAIR_INDICES:
            d = (logs[j] - logs[i]) % v
            row, start = (d - 1, logs[i]) if d <= half else (v - d - 1, logs[j])
            stop = start + o.length
            counts[row, start : min(stop, v)] += w
            if stop > v:
                counts[row, : stop - v] += w
    return counts


def _bands(counts: np.ndarray, rows: np.ndarray):
    """(first row, view) over the rows selected by the boolean mask
    `rows`, at most _BAND_CELLS counters per view."""
    step = max(1, _BAND_CELLS // counts.shape[1])
    edges = np.flatnonzero(np.diff(rows, prepend=False, append=False))
    for lo, hi in zip(edges[::2].tolist(), edges[1::2].tolist()):
        for r in range(lo, hi, step):
            yield r, counts[r : min(r + step, hi)]


def _row_range(counts: np.ndarray, rows: np.ndarray) -> tuple[int, int] | None:
    lo = hi = None
    for _, band in _bands(counts, rows):
        b_lo, b_hi = int(band.min()), int(band.max())
        lo = b_lo if lo is None else min(lo, b_lo)
        hi = b_hi if hi is None else max(hi, b_hi)
    return None if lo is None else (lo, hi)


def _first_offenders(ctx: GF2n, counts: np.ndarray, groups, limit: int = 10) -> tuple:
    """The first `limit` pairs whose count differs from their group's, as
    ((u, w), count) with encodings u < w, ordered by u, then group, then w."""
    v, q, ng = counts.shape[1], ctx.order, len(groups)
    keys = np.empty(0, dtype=np.int64)
    found = np.empty(0, dtype=counts.dtype)
    for g, (rows, lam) in enumerate(groups):
        for r0, band in _bands(counts, rows):
            r, c = np.nonzero(band != lam)
            if not r.size:
                continue
            x = ctx.exp2[c].astype(np.int64)
            y = ctx.exp2[c + r + r0 + 1].astype(np.int64)
            k = (np.minimum(x, y) * ng + g) * q + np.maximum(x, y)
            keys = np.concatenate([keys, k])
            found = np.concatenate([found, band[r, c]])
            top = np.argsort(keys)[:limit]
            keys, found = keys[top], found[top]
    return tuple(
        ((k // q // ng, k % q), c) for k, c in zip(keys.tolist(), found.tolist())
    )


def check_pair_coverage(ctx: GF2n, orbits: tuple[Orbit, ...], groups) -> tuple:
    """Exact pair coverage against the expected count of each row group.

    groups is a sequence of (row mask, expected count) whose masks
    partition the rows of counter_shape(v).  Returns the exact (min, max)
    count of each group (None for a group without rows) and the first ten
    offenders.

    The uint8 counts are exact whenever they prove a pass: every true
    count is >= 0, so if each equals its group's count c (0 <= c < 256)
    modulo 256, each is at least c; and if the true total, 21 incidences
    per developed block, equals the sum of the expected counts, none is
    more.  Anything else is recounted with uint32 counters.
    """
    counts = pair_coverage_counts(ctx, orbits)
    ranges = [_row_range(counts, rows) for rows, _ in groups]
    del counts  # frees the memory of the modular counter for a recount
    incidences = len(_PAIR_INDICES) * sum(o.length * o.replication for o in orbits)
    expected = sum(lam * int(rows.sum()) for rows, lam in groups) * (ctx.order - 1)
    if incidences == expected and all(
        r is None or r == (lam, lam) for r, (_, lam) in zip(ranges, groups)
    ):
        return ranges, ()
    counts = pair_coverage_counts(ctx, orbits, np.uint32)
    ranges = [_row_range(counts, rows) for rows, _ in groups]
    return ranges, _first_offenders(ctx, counts, groups)


def verify_2design(d: Design) -> VerificationReport:
    """Exhaustively check that every point pair lies in exactly
    lambda_claim developed blocks."""
    t0 = time.perf_counter()
    lam = d.lambda_claim
    every_row = np.ones(counter_shape(d.v)[0], dtype=bool)
    [(mn, mx)], offenders = check_pair_coverage(d.ctx, d.orbits, [(every_row, lam)])
    return VerificationReport(
        passed=(mn == lam and mx == lam),
        pair_coverage_min=mn,
        pair_coverage_max=mx,
        offending_pairs=offenders,
        timing=time.perf_counter() - t0,
    )


# -- structural checks --------------------------------------------------------

def check_qanalog(d: Design) -> bool:
    """Whether every developed block, with 0 added, is add-closed.

    One representative per orbit suffices: t*S is a subspace whenever S
    is, because scaling is GF(2)-linear.
    """
    return all(is_subspace_block(d.ctx, o.rep.elements) for o in d.orbits)


def check_simple(d: Design) -> bool:
    """Whether the developed design has no repeated blocks: every orbit
    has trivial stabilizer and orbit representatives are pairwise
    inequivalent under scaling."""
    if any(o.replication != 1 for o in d.orbits):
        return False
    labels = {canonical_orbit_label(d.ctx, o.rep) for o in d.orbits}
    return len(labels) == len(d.orbits)


def materialize(d: Design) -> list[frozenset[int]]:
    """Every developed block as a frozenset, with multiplicity.

    Intended for desk-scale cross-checks (n <= 9); the orbit-compressed
    representation is authoritative above that.
    """
    ctx = d.ctx
    exp2, logs = ctx.exp2, ctx.logs
    out = []
    for o in d.orbits:
        base_logs = [int(logs[e]) for e in o.rep.elements]
        for s in range(o.length):
            blk = frozenset(int(exp2[l + s]) for l in base_logs)
            out.extend([blk] * o.replication)
    return out
