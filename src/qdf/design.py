"""Development of difference families into cyclic 2-designs and their
exhaustive verification.

Developments are stored orbit-compressed: one representative block per
base block together with the orbit length (2^n - 1)/|stab| and the
replication factor |stab|.  Materializing every developed block would be
feasible but wasteful (about 11.2M blocks at n = 13).

verify_2design counts, for every unordered pair of distinct points, the
number of developed blocks containing both.  Pairs are indexed by log
coordinates: {g^a, g^(a+d)} sits at row d-1, column a of a
((v-1)/2, v) counter.  Developing an orbit shifts every log by the same
amount, so each (orbit, slot pair) adds to one cyclic run of a single
row, which at most three +-w difference events describe.  The kernel
sorts the events by column and sweeps the columns in bands of about
4 MiB of counters, prefix-summing each band down its columns and
carrying the last column into the next band; no full-size counter is
ever held (it would be 32 MiB of 8-bit counters at n = 13, 8 GiB at
n = 17).  The count is exhaustive, never sampled: every counter is
computed and compared.  A pass is declared only when the counts modulo
256 and the exact incidence total together prove it; anything else is
recounted by the same stream with 32-bit counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .blocks import PAIR_I, PAIR_J, Block, stabilizer_of
from .family import DifferenceFamily
from .gf2n import GF2n


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

# Bytes of counters per band of columns (a band holds at least one column).
_BAND_BYTES = 1 << 22


def counter_shape(v: int) -> tuple[int, int]:
    """Shape of the pair counter over the v = 2^n - 1 points: the pair
    {g^a, g^(a+d)}, 1 <= d <= (v-1)/2, sits at row d-1, column a."""
    return (v - 1) // 2, v


def band_columns(v: int, dtype=COUNTER_DTYPE) -> int:
    """Columns per band: _BAND_BYTES of counters, at least 1 and at most v."""
    rows = counter_shape(v)[0]
    return min(v, max(1, _BAND_BYTES // (max(rows, 1) * np.dtype(dtype).itemsize)))


def pair_count_bytes(v: int, orbits: int) -> int:
    """Bytes count_bands allocates for `orbits` orbits over v points: the
    band buffer and its carry, and 72 bytes per run (21 runs per orbit)
    for the run and event arrays at their peak in _events."""
    rows = counter_shape(v)[0]
    band = (band_columns(v) + 1) * rows * np.dtype(COUNTER_DTYPE).itemsize
    return band + 72 * len(PAIR_I) * orbits


def _rep_elements(orbits) -> np.ndarray:
    """The orbit representatives as an (N, 7) int64 array."""
    return np.array([o.rep.elements for o in orbits], dtype=np.int64).reshape(-1, 7)


def _events(ctx: GF2n, orbits: tuple[Orbit, ...], dtype) -> list[tuple[np.generic, np.ndarray]]:
    """Difference events of every (orbit, slot pair) run, as (weight, keys)
    pairs: the sorted flat keys column * rows + row of the events that add
    `weight`, a `dtype` scalar (the weight modulo the range of `dtype`).

    Developing slot pair (i, j) of an orbit shifts both logs together, so
    it covers one cyclic run of `length` columns in a single row: +w at its
    first column and -w past its last, w being the orbit's replication.  A
    run past column v - 1 wraps: it also adds +w at column 0 and -w past
    its end there.  A run over all v columns starts at column 0 and needs
    no -w.
    """
    v = ctx.order - 1
    rows = counter_shape(v)[0]
    logs = ctx.logs[_rep_elements(orbits)]
    li, lj = logs[:, PAIR_I], logs[:, PAIR_J]
    d = (lj - li) % v
    low = d <= rows
    row = np.where(low, d - 1, v - d - 1).ravel()
    length = np.repeat(np.array([o.length for o in orbits], dtype=np.int64), len(PAIR_I))
    w = np.repeat(np.array([o.replication for o in orbits], dtype=np.int64), len(PAIR_I))
    # key of the run's first column (column 0 for a run over all v columns)
    first = np.where(low, li, lj).ravel() * np.where(length < v, rows, 0) + row
    stop = first + length * rows  # key of the column past the run, unwrapped
    inside, wraps = stop < v * rows, stop >= (v + 1) * rows
    scalar, modulus = np.dtype(dtype).type, 1 << 8 * np.dtype(dtype).itemsize
    events = []
    for r in sorted({o.replication for o in orbits}):
        run = w == r
        up = np.concatenate([first[run], row[run & wraps]])
        down = np.concatenate([stop[run & inside], stop[run & wraps] - v * rows])
        events += [(scalar(r % modulus), np.sort(up)), (scalar(-r % modulus), np.sort(down))]
    return events


def count_bands(ctx: GF2n, orbits: tuple[Orbit, ...], dtype=COUNTER_DTYPE):
    """Yield the pair coverage counts band by band as (first column a0,
    band), where band[c, r] counts the pair at row r, column a0 + c of
    counter_shape(v), modulo the range of `dtype`.

    Each band's events are added into a zeroed (columns, rows) buffer and
    prefix-summed down the columns, one contiguous row vector at a time;
    the last column carries into the next band.  Modular prefix sums of
    modular events are the counts modulo the range of `dtype`.  The
    buffer is reused: a band is valid until the next one is requested.
    """
    v = ctx.order - 1
    rows = counter_shape(v)[0]
    step = band_columns(v, dtype)
    starts = np.arange(0, v + step, step) * rows
    events = [
        (w, keys, np.searchsorted(keys, starts).tolist())
        for w, keys in _events(ctx, orbits, dtype)
    ]
    buf = np.empty((step, rows), dtype=dtype)
    columns = list(buf)  # one view per column of the buffer, made once
    carry = np.zeros(rows, dtype=dtype)
    for k, a0 in enumerate(range(0, v, step)):
        band = buf[: min(step, v - a0)]
        band.fill(0)
        for w, keys, edges in events:
            np.add.at(band.reshape(-1), keys[edges[k] : edges[k + 1]] - a0 * rows, w)
        prev = carry
        for col in columns[: len(band)]:
            np.add(col, prev, out=col)
            prev = col
        carry[:] = prev
        yield a0, band


def pair_coverage_counts(
    ctx: GF2n, orbits: tuple[Orbit, ...], dtype=COUNTER_DTYPE
) -> np.ndarray:
    """Per-row extremes of the pair coverage counts: a (2, rows) array of
    `dtype` holding the minimum and the maximum over the columns of each
    row of counter_shape(v), counted by count_bands.  A counter holds its
    count modulo the range of `dtype`; check_pair_coverage says when
    uint8 counts are exact.
    """
    rows = counter_shape(ctx.order - 1)[0]
    lo = np.full(rows, np.iinfo(dtype).max, dtype=dtype)
    hi = np.zeros(rows, dtype=dtype)
    for _, band in count_bands(ctx, orbits, dtype):
        np.minimum(lo, band.min(axis=0), out=lo)
        np.maximum(hi, band.max(axis=0), out=hi)
    return np.stack([lo, hi])


def _group_ranges(extremes: np.ndarray, groups) -> list:
    return [
        (int(extremes[0, rows].min()), int(extremes[1, rows].max())) if rows.any() else None
        for rows, _ in groups
    ]


def _first_offenders(
    ctx: GF2n, orbits: tuple[Orbit, ...], groups, extremes: np.ndarray, limit: int = 10
) -> tuple:
    """The first `limit` pairs whose exact count differs from their group's,
    as ((u, w), count) with encodings u < w, ordered by u, then group,
    then w; found band by band in a uint32 count, on the rows whose exact
    `extremes` show an offender."""
    q, ng = ctx.order, len(groups)
    rows = counter_shape(q - 1)[0]
    group = np.zeros(rows, dtype=np.int64)
    expect = np.zeros(rows, dtype=np.uint32)
    for g, (mask, lam) in enumerate(groups):
        group[mask], expect[mask] = g, lam
    bad = np.flatnonzero((extremes != expect).any(axis=0))
    if not bad.size:
        return ()
    keys = np.empty(0, dtype=np.int64)
    found = np.empty(0, dtype=np.uint32)
    for a0, band in count_bands(ctx, orbits, np.uint32):
        sub = band[:, bad]
        c, i = np.nonzero(sub != expect[bad])
        r = bad[i]
        x = ctx.exp2[a0 + c].astype(np.int64)
        y = ctx.exp2[a0 + c + r + 1].astype(np.int64)
        k = (np.minimum(x, y) * ng + group[r]) * q + np.maximum(x, y)
        keys = np.concatenate([keys, k])
        found = np.concatenate([found, sub[c, i]])
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
    more.  Anything else is recounted with uint32 counters, band by band
    like the first count.
    """
    ranges = _group_ranges(pair_coverage_counts(ctx, orbits, COUNTER_DTYPE), groups)
    incidences = len(PAIR_I) * sum(o.length * o.replication for o in orbits)
    expected = sum(lam * int(rows.sum()) for rows, lam in groups) * (ctx.order - 1)
    if incidences == expected and all(
        r is None or r == (lam, lam) for r, (_, lam) in zip(ranges, groups)
    ):
        return ranges, ()
    extremes = pair_coverage_counts(ctx, orbits, np.uint32)
    return _group_ranges(extremes, groups), _first_offenders(ctx, orbits, groups, extremes)


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
    is, because scaling is GF(2)-linear.  Seven distinct nonzero elements
    span a subspace with 0 iff the sum of each of their 21 pairs is one
    of them; all representatives are checked at once.
    """
    els = _rep_elements(d.orbits)
    s = np.sort(els, axis=1)
    distinct = (s[:, 0] > 0) & (np.diff(s, axis=1) > 0).all(axis=1)
    sums = els[:, PAIR_I] ^ els[:, PAIR_J]
    closed = (sums[:, :, None] == els[:, None, :]).any(axis=2).all(axis=1)
    return bool((distinct & closed).all())


def check_simple(d: Design) -> bool:
    """Whether the developed design has no repeated blocks: every orbit
    has trivial stabilizer and orbit representatives are pairwise
    inequivalent under scaling.

    Scaling by g^c translates a block's logs by c, so the lexicographically
    smallest of its 7 sorted translates that contain 0 labels the orbit;
    the labels of all representatives are found at once and counted.
    """
    if any(o.replication != 1 for o in d.orbits):
        return False
    logs = d.ctx.logs[_rep_elements(d.orbits)]
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
    ctx = d.ctx
    exp2, logs = ctx.exp2, ctx.logs
    out = []
    for o in d.orbits:
        base_logs = [int(logs[e]) for e in o.rep.elements]
        for s in range(o.length):
            blk = frozenset(int(exp2[l + s]) for l in base_logs)
            out.extend([blk] * o.replication)
    return out
