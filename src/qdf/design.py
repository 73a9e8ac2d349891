"""Development of difference families into cyclic 2-designs and their
exhaustive verification.

Developments are stored orbit-compressed, as arrays: an (N, 7) slot
array of orbit representatives, and each orbit's length (2^n - 1)/|stab|
and replication factor |stab|.  Materializing every developed block
would be feasible but wasteful (about 11.2M blocks at n = 13).

verify_2design counts, for every unordered pair of distinct points, the
number of developed blocks containing both.  Pairs are indexed by log
coordinates: {g^a, g^(a+d)} sits at row d-1, column a of a ((v-1)/2, v)
counter.  Developing an orbit shifts every log by the same amount, so
each (orbit, slot pair) adds its orbit's replication w to one cyclic run
of columns of a single row.  A run of an orbit of length v covers its
whole row, so _events only adds w to the row's base (its count at column
0).  A run of a shorter orbit is +w at its first column and -w at the
column past its last, mod v, and w to the base if it reaches column
v - 1.  So every row's events sum to 0.  A row of the counter is a step
function of the column a, its base plus the weights of its events at
columns <= a.  The kernel, pair_coverage_counts, opens each row with a
zero-weight key at column 0, sorts these keys and all events by
(row, column) once and sums them cumulatively in int64: after the last
key at a column, the sum plus the row's base counts every pair exactly
up to the row's next key.  Its result is these steps, one (row, start,
stop, count) table, and check_pair_coverage reads every verdict from it:
a row group's range is the least and greatest count of the group's
steps, and only the steps whose count is wrong are expanded into
offending pairs.  No full-size counter is held (it would be 8 GiB of
one-byte counters at n = 17), yet every pair's count is determined and
compared: the check is exhaustive, never sampled.  The sums are exact
64-bit integers, not counts modulo a small range, so no extra argument
is needed to show that a pass is not a wrap-around.
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
    construction leaves resident per block) over 1 MiB of heap.  Fitted,
    with the preflight's largest stage, to the VmHWM growth of `verify`
    in fresh processes: 3.1, 9.3, 33.5 and 136-144 MiB at n = 15, 17, 19
    and 21 against preflight totals of 3.1, 9.2, 33.7 and 131.7 MiB."""
    return 2**20 + 80 * orbits


def pair_count_bytes(n: int) -> int:
    """Bytes the pair count of the family over GF(2^n) allocates at its
    peak, for preflight estimates: 72 per row (64 measured: the step
    table's four columns and its stacked copy), and 128 (two events and
    their steps) for each of the 21 runs of K*'s orbit, the only one
    shorter than v, when 3 | n.  It bounds every stage after the
    development: under tracemalloc at n = 17 and 19, check_qanalog and
    check_simple peak at ~84 and ~95 B per orbit, against its own ~216 B
    per orbit (three rows each), of which _events takes under 20 B."""
    return 72 * counter_shape((1 << n) - 1)[0] + 128 * 21 * (n % 3 == 0)


# Orbits per chunk of _events; bounds its (orbits, 21) temporaries.
_EVENT_ORBITS = 1 << 10


def _events(ctx: GF2n, d: Design) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Difference events of every (orbit, slot pair) run, unsorted: their
    flat keys row * v + column and their int64 weights, and the int64
    base of each row, its count at column 0 before any event.

    Developing slot pair (i, j) of an orbit shifts both logs together, so
    it covers one cyclic run of `length` columns in a single row, w times
    each, w being the orbit's replication.  A run of an orbit of length v
    covers its whole row, min(|d|, v - |d|) - 1 for the log difference
    d = lj - li, and only adds w to its base.  A run of a shorter orbit is
    +w at its first column and -w at the column past its last, mod v, and
    a run that reaches column v - 1 adds w to its row's base, so the
    events of every row sum to 0.
    """
    v = ctx.order - 1
    rows = counter_shape(v)[0]
    base = np.zeros(rows, dtype=np.int64)
    whole = d.replication * (d.length >= v)  # 0 for the orbits shorter than v
    for lo in range(0, len(d.slots), _EVENT_ORBITS):
        logs = ctx.logs[d.slots[lo : lo + _EVENT_ORBITS]]
        row = np.abs(logs[:, PAIR_J] - logs[:, PAIR_I])  # (C, 21): one run per orbit and slot pair
        row = np.minimum(row, v - row) - 1
        # a contiguous intp index and contiguous weights keep np.add.at fast
        np.add.at(base, row.astype(np.intp).ravel(), np.repeat(whole[lo : lo + _EVENT_ORBITS], 21))
    keys, weights = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    short = np.flatnonzero(d.length < v)
    for lo in range(0, len(short), _EVENT_ORBITS):
        part = short[lo : lo + _EVENT_ORBITS]
        logs = ctx.logs[d.slots[part]]
        li, lj = logs[:, PAIR_I], logs[:, PAIR_J]  # (C, 21): one run per orbit and slot pair
        gap = (lj - li) % v
        low = gap <= rows
        row = np.where(low, gap - 1, v - gap - 1).astype(np.int64)
        first = np.where(low, li, lj)
        stop = first + d.length[part, None]  # the column past the run, unwrapped
        w = np.broadcast_to(d.replication[part, None], row.shape)
        np.add.at(base, row[stop >= v], w[stop >= v])
        row *= v  # key of the row's column 0
        keys += [(row + first).ravel(), (row + stop % v).ravel()]
        weights += [w.ravel(), -w.ravel()]
    return np.concatenate(keys), np.concatenate(weights), base


def pair_coverage_counts(ctx: GF2n, d: Design) -> np.ndarray:
    """Every step of the pair counter, as a (4, S) int64 array whose rows
    are (row, start, stop, count): the steps are ordered by row and then
    start, and the pairs at columns start..stop-1 of that row of
    counter_shape(v) are each counted exactly `count` times.  The steps
    of a row partition its v columns, and every row has at least one.

    Every row opens with a zero-weight key at its column 0, sorted with
    the events and summed cumulatively in int64.  Each row's events sum to
    0, so the sum after the last key at a column, plus the row's base, is
    the count up to the row's next key, or to v if the next key opens a row.
    """
    v = ctx.order - 1
    keys, weights, base = _events(ctx, d)
    # the row keys are in order, so the stable sort merges them in cheaply
    keys = np.concatenate([np.arange(len(base), dtype=np.int64) * v, keys])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    count = np.concatenate([np.zeros_like(base), weights])[order]
    del weights, order
    last = np.flatnonzero(np.append(keys[1:] != keys[:-1], True))  # the last key at each column
    row, start = np.divmod(keys[last], v)
    del keys
    count = np.cumsum(count, out=count)[last] + base[row]
    del last, base
    # a step stops where the next starts, or at v where the next opens a row
    stop = np.append(np.where(start[1:] > 0, start[1:], v), v)
    return np.stack([row, start, stop, count])


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
    is, because scaling is GF(2)-linear.  In a subspace the two smallest
    nonzero elements s0 < s1 sum to the third (s1 has the higher top bit,
    and s0 + s1 is the one other element with it), so a sorted row s is
    one iff s0 > 0 and s is the sorted span of s0, s1 and s3.
    """
    s = np.sort(d.slots, axis=1)
    a, b, c = s[:, 0], s[:, 1], s[:, 3]
    span = np.sort(np.stack([a, b, a ^ b, c, c ^ a, c ^ b, c ^ a ^ b], axis=1), axis=1)
    return bool((a > 0).all() and (span == s).all())


def _gap_hash(gaps: np.ndarray) -> np.ndarray:
    """A rotation-invariant hash of each row of (N, 7) cyclic gaps, built a
    column at a time: the wrapping int64 sum over k of a multiply-shift
    mix of the ordered pair (gap k, gap k + 1), which a mirror reverses.
    Only int64 operands and no xor: either would run numpy code that no
    other stage runs, ~0.1 MiB more peak RSS over many small commands."""
    h = np.zeros(len(gaps), dtype=np.int64)
    for k in range(7):
        x = gaps[:, k].astype(np.int64) * -7046029254386353131
        x += gaps[:, k - 6].astype(np.int64) * -4658895280553007687
        x += x >> 31
        x *= x >> 29
        h += x
    return h


def check_simple(d: Design) -> bool:
    """Whether the developed design has no repeated blocks: every orbit
    has trivial stabilizer and orbit representatives are pairwise
    inequivalent under scaling.

    Scaling by g^c translates a block's logs by c, which rotates the
    cyclic sequence of the 7 gaps between its sorted logs (they sum to
    v): two blocks share an orbit iff their gap sequences are rotations
    of each other, and then their _gap_hash is equal.  Only the rows in a
    group of equal hashes are labelled by their least rotation and
    compared in full, after one np.lexsort, so the check is exact.
    """
    if (d.replication != 1).any():
        return False
    logs = np.sort(d.ctx.logs[d.slots], axis=1)
    gaps = np.diff(logs, axis=1, append=logs[:, :1] + d.v)
    h = _gap_hash(gaps)
    order = np.argsort(h, kind="stable")
    same = np.diff(h[order]) == 0
    if not same.any():
        return True
    grouped = np.append(same, False) | np.append(False, same)
    g = np.tile(gaps[order[grouped]], 2)  # every rotation is a window of 7
    labels = g[:, :7].copy()
    for k in range(1, 7):
        r = g[:, k : k + 7]
        first = (r != labels).argmax(axis=1)[:, None]  # 0 where they are equal
        smaller = np.take_along_axis(r, first, 1) < np.take_along_axis(labels, first, 1)
        np.copyto(labels, r, where=smaller)
    return bool(np.diff(labels[np.lexsort(labels.T)], axis=0).any(axis=1).all())

