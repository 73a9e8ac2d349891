"""Development of difference families into cyclic 2-designs and their
exhaustive verification.

Developments are stored orbit-compressed, as arrays: an (N, 7) slot
array of orbit representatives, and each orbit's length (2^n - 1)/|stab|
and replication factor |stab|.  Materializing every developed block
would be feasible but wasteful (about 11.2M blocks at n = 13).

verify_2design counts, for every unordered pair of distinct points, the
number of developed blocks containing both.  Pairs are indexed by log
coordinates: {g^a, g^(a+d)} sits at row d-1, column a of a
((v-1)/2, v) counter.  Developing an orbit shifts every log by the same
amount, so each (orbit, slot pair) adds its orbit's replication w to one
cyclic run of columns of a single row, which at most three +-w
difference events describe.  A row of the counter is therefore a step
function of the column: the count of the pair at column a is the sum of
the weights of the row's events at columns <= a, and it changes only at
an event.  The kernel, pair_coverage_counts, sorts all events by
(row, column) once and sums them cumulatively in int64; between two
consecutive event columns of a row no event adds or removes anything, so
the running sum of the row there is the exact count of every pair in
those columns; before a row's first event the count is 0.  Its result is
these steps, one (row, start, stop, count) table, and check_pair_coverage
reads every verdict from it: a row group's range is the least and
greatest count of the group's steps, and only the steps whose count is
wrong are expanded into offending pairs.  No full-size counter is held
(it would be 8 GiB of one-byte counters at n = 17), yet every pair's
count is determined and compared: the check is exhaustive, never
sampled.  The sums are exact 64-bit integers, not counts modulo a small
range, so no extra argument is needed to show that a pass is not a
wrap-around.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import PAIR_I, PAIR_J, Block
from .family import DifferenceFamily
from .gf2n import GF2n


@dataclass(frozen=True)
class Orbit:
    """One developed base block: `length` blocks, each repeated `replication` times."""

    rep: Block
    length: int
    replication: int


@dataclass(frozen=True, eq=False)
class Design:
    """Row i of the (N, 7) int32 `slots` represents orbit i, of length
    length[i], each block repeated replication[i] times (int64 arrays).
    Iterating a design yields its `orbits`, built only when asked."""

    ctx: GF2n
    slots: np.ndarray
    length: np.ndarray
    replication: np.ndarray
    lambda_claim: int
    k = 7

    @property
    def v(self) -> int:
        return self.ctx.order - 1

    def orbit_rows(self):
        """(representative, length, replication) of each orbit, as Python values."""
        return zip(self.slots.tolist(), self.length.tolist(), self.replication.tolist())

    @cached_property
    def orbits(self) -> tuple[Orbit, ...]:
        return tuple(Orbit(Block(tuple(r), seed=r[1]), m, w) for r, m, w in self.orbit_rows())

    def __iter__(self):
        # perfbench's tracer counts the kernel's incidences over its orbits
        return iter(self.orbits)

    def block_count(self) -> int:
        """Total number of developed blocks, with multiplicity."""
        return int((self.length * self.replication).sum())


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
    """Orbit-compressed development of a (relative) difference family.  A
    block's stabilizer is trivial or, only when 3 | n, K* = <g^(v/7)>,
    which fixes it iff +v/7 fixes its log set."""
    ctx = fam.ctx
    v = ctx.order - 1
    replication = np.ones(len(fam.slots), dtype=np.int64)
    if ctx.n % 3 == 0:
        logs = np.sort(ctx.logs[fam.slots], axis=1)
        replication[(logs == np.sort((logs + v // 7) % v, axis=1)).all(axis=1)] = 7
    return Design(ctx, fam.slots, v // replication, replication, fam.lambda_claim)


# -- pair counting kernel -----------------------------------------------------

# Pairs expanded per chunk while looking for offenders; bounds its memory.
_OFFENDER_CHUNK = 1 << 16


def counter_shape(v: int) -> tuple[int, int]:
    """Shape of the pair counter over the v = 2^n - 1 points: the pair
    {g^a, g^(a+d)}, 1 <= d <= (v-1)/2, sits at row d-1, column a."""
    return (v - 1) // 2, v


def develop_bytes(orbits: int) -> int:
    """Resident bytes that building and developing a family of `orbits`
    base blocks adds, for preflight estimates: 80 per orbit (its 28-byte
    slot row, 16 bytes of length and replication, and what the
    construction leaves resident per block) over 2 MiB of heap the
    construction leaves resident at any n.  Fitted to the VmHWM growth
    of `verify` in fresh processes: 7.3, 22.6, 85.7 and 344.4 MiB at
    n = 15, 17, 19 and 21 against preflight totals of 7.3, 23.2, 86.7
    and 340.7 MiB."""
    return 2 * 2**20 + 80 * orbits


def pair_count_bytes(orbits: int) -> int:
    """Bytes the pair count allocates at its peak for `orbits` full-length
    orbits: 40 per run, 21 runs per orbit.  The peak is the cumulative sum
    in pair_coverage_counts, with one event per run: the event keys and
    weights, their sort order, the sorted weights and their sums, 8 bytes
    each."""
    return 40 * len(PAIR_I) * orbits


def _events(ctx: GF2n, d: Design) -> tuple[np.ndarray, np.ndarray]:
    """Difference events of every (orbit, slot pair) run, unsorted: their
    flat keys row * v + column and their int64 weights.

    Developing slot pair (i, j) of an orbit shifts both logs together, so
    it covers one cyclic run of `length` columns in a single row: +w at its
    first column and -w past its last, w being the orbit's replication.  A
    run past column v - 1 wraps: it also adds +w at column 0 and -w past
    its end there.  A run over all v columns starts at column 0; a run
    that ends at column v - 1 needs no -w.
    """
    v = ctx.order - 1
    rows = counter_shape(v)[0]
    logs = ctx.logs[d.slots]
    li, lj = logs[:, PAIR_I], logs[:, PAIR_J]  # (N, 21): one run per orbit and slot pair
    gap = (lj - li) % v
    low = gap <= rows
    row0 = np.where(low, gap - 1, v - gap - 1).astype(np.int64) * v  # key of the row's column 0
    length = d.length.reshape(-1, 1)
    first = np.where(length < v, np.where(low, li, lj), 0)
    del li, lj, gap, low
    stop = first + length  # the column past the run, unwrapped
    inside, wraps = stop < v, stop > v
    keys = np.concatenate([
        (row0 + first).ravel(),
        row0[inside] + stop[inside],
        row0[wraps],
        row0[wraps] + (stop[wraps] - v),
    ])
    del row0, first, stop
    w = np.broadcast_to(d.replication.reshape(-1, 1), inside.shape)
    weights = np.concatenate([w.ravel(), -w[inside], w[wraps], -w[wraps]])
    return keys, weights


def pair_coverage_counts(ctx: GF2n, d: Design) -> np.ndarray:
    """Every step of the pair counter, as a (4, S) int64 array whose rows
    are (row, start, stop, count): the steps are ordered by row and then
    start, and the pairs at columns start..stop-1 of that row of
    counter_shape(v) are each counted exactly `count` times.  The steps of a row partition its
    v columns, and every row has at least one.

    The events are sorted by key and summed cumulatively in int64; the
    sum after the last event at a column, less the sum before the row's
    first event, is the count from that column up to the row's next
    event column (or its end).  The columns before a row's first event,
    or a row without events, are counted 0.
    """
    v = ctx.order - 1
    rows = counter_shape(v)[0]
    keys, weights = _events(ctx, d)
    order = np.argsort(keys)
    count = np.cumsum(weights[order])
    del weights
    keys = keys[order]
    del order
    last = np.flatnonzero(np.diff(keys, append=keys[-1:] + 1))  # the last event at each key
    row, start = np.divmod(keys[last], v)
    count = count[last]
    del keys, last
    head = np.flatnonzero(np.diff(row, prepend=row[:1] - 1))  # each row's first step
    # rebase each row on the sum before its first event
    count -= np.repeat(np.where(head > 0, count[head - 1], 0), np.diff(head, append=len(row)))
    stop = np.empty_like(start)
    stop[:-1] = start[1:]
    stop[head - 1] = v  # each row's last step; head[0] - 1 is the very last
    # the zero step before each row's first event, and of each row without events
    opening = np.full(rows, v, dtype=np.int64)
    opening[row[head]] = start[head]
    zero = np.flatnonzero(opening)
    at = np.searchsorted(row, zero)
    steps = np.stack([row, start, stop, count])
    del row, start, stop, count
    none = np.zeros_like(zero)
    return np.insert(steps, at, [zero, none, opening[zero], none], axis=1)


def _first_offenders(ctx: GF2n, steps: np.ndarray, group: np.ndarray, ng: int, limit=10) -> tuple:
    """The first `limit` pairs of the given wrong steps, as ((u, w), count)
    with encodings u < w, ordered by u, then group, then w; `group` maps
    each row to its group, of `ng`.  The steps are expanded pair by pair,
    at most _OFFENDER_CHUNK pairs at a time."""
    q = ctx.order
    row, start, stop, count = steps
    size = stop - start
    ends = np.cumsum(size)  # pairs in the steps up to each one's end
    origin = ends - size - start  # pair index minus column, per step
    total = int(ends[-1]) if ends.size else 0
    keys = np.empty(0, dtype=np.int64)
    found = np.empty(0, dtype=np.int64)
    for p0 in range(0, total, _OFFENDER_CHUNK):
        p = np.arange(p0, min(p0 + _OFFENDER_CHUNK, total))
        s = np.searchsorted(ends, p, side="right")
        c, r = p - origin[s], row[s]
        x = ctx.exp2[c].astype(np.int64)
        y = ctx.exp2[c + r + 1].astype(np.int64)
        keys = np.concatenate([keys, (np.minimum(x, y) * ng + group[r]) * q + np.maximum(x, y)])
        found = np.concatenate([found, count[s]])
        if len(keys) > limit:
            top = np.argpartition(keys, limit - 1)[:limit]
            keys, found = keys[top], found[top]
    top = np.argsort(keys)
    return tuple(
        ((k // q // ng, k % q), c) for k, c in zip(keys[top].tolist(), found[top].tolist())
    )


def check_pair_coverage(ctx: GF2n, d: Design, groups) -> tuple:
    """Exact pair coverage against the expected count of each row group.

    groups is a sequence of (row mask, expected count) whose masks
    partition the rows of counter_shape(v).  Returns the exact (min, max)
    count of each group (None for a group without rows) and the first ten
    offenders, all read from one step table of pair_coverage_counts.
    """
    steps = pair_coverage_counts(ctx, d)
    row, count = steps[0], steps[3]
    rows = counter_shape(d.v)[0]
    group = np.zeros(rows, dtype=np.int64)
    expect = np.zeros(rows, dtype=np.int64)
    for g, (mask, lam) in enumerate(groups):
        group[mask], expect[mask] = g, lam
    in_group = [count[mask[row]] for mask, _ in groups]
    ranges = [(int(c.min()), int(c.max())) if c.size else None for c in in_group]
    return ranges, _first_offenders(ctx, steps[:, count != expect[row]], group, len(groups))


def verify_2design(d: Design) -> VerificationReport:
    """Exhaustively check that every point pair lies in exactly
    lambda_claim developed blocks."""
    t0 = time.perf_counter()
    lam = d.lambda_claim
    every_row = np.ones(counter_shape(d.v)[0], dtype=bool)
    [(mn, mx)], offenders = check_pair_coverage(d.ctx, d, [(every_row, lam)])
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
    is, because scaling is GF(2)-linear.  Seven distinct nonzero elements
    span a subspace with 0 iff the sum of each of their 21 pairs is one
    of them; all representatives are checked at once.
    """
    s = np.sort(d.slots, axis=1)
    distinct = (s[:, 0] > 0) & (np.diff(s, axis=1) > 0).all(axis=1)
    sums = d.slots[:, PAIR_I] ^ d.slots[:, PAIR_J]
    closed = (sums[:, :, None] == d.slots[:, None, :]).any(axis=2).all(axis=1)
    return bool((distinct & closed).all())


def check_simple(d: Design) -> bool:
    """Whether the developed design has no repeated blocks: every orbit
    has trivial stabilizer and orbit representatives are pairwise
    inequivalent under scaling.

    Scaling by g^c translates a block's logs by c, so the lexicographically
    smallest of its 7 sorted translates that contain 0 labels the orbit;
    the labels of all representatives are found at once and counted.
    """
    if (d.replication != 1).any():
        return False
    logs = d.ctx.logs[d.slots]
    # translates[b, k] is block b's log set translated by -logs[b, k], sorted
    translates = np.sort((logs[:, None, :] - logs[:, :, None]) % d.v, axis=2)
    smallest = np.ones(translates.shape[:2], dtype=bool)
    for p in range(1, 7):
        col = np.where(smallest, translates[:, :, p], d.v)
        smallest &= col == col.min(axis=1, keepdims=True)
    labels = translates[np.arange(len(logs)), smallest.argmax(axis=1)]
    return len(set(map(tuple, labels.tolist()))) == len(labels)


def materialize(d: Design) -> list[frozenset[int]]:
    """Every developed block as a frozenset, with multiplicity.

    Intended for desk-scale cross-checks (n <= 9); the orbit-compressed
    representation is authoritative above that.
    """
    exp2, logs = d.ctx.exp2, d.ctx.logs
    out = []
    for rep, length, replication in d.orbit_rows():
        base_logs = [int(logs[e]) for e in rep]
        for s in range(length):
            blk = frozenset(int(exp2[l + s]) for l in base_logs)
            out.extend([blk] * replication)
    return out
