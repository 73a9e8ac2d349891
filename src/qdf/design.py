"""Development of difference families into cyclic 2-designs and their
exhaustive verification.

Developments are stored orbit-compressed: the family of orbit
representatives, and each orbit's length (2^n - 1)/|stab| and
replication factor |stab| as arrays.  Materializing every developed
block would be feasible but wasteful (about 11.2M blocks at n = 13).

verify_2design counts, for every pair of points, the developed blocks
containing both.  The pair {g^a, g^(a+f)} sits at fold f, column a, for
1 <= f <= (v-1)/2; fold 0 pairs a point with itself, in a block that
repeats it.  Developing an orbit shifts all its logs together, so each
(orbit, slot pair) adds the orbit's replication w to a cyclic run of
columns of one fold, and an orbit of length v covers whole folds: the
difference method's lemma.  The design's fold is its family's profile
histogram, every row's slot log differences counted once, folded in
the orbit scan's one pass over the rows; it counts every pair exactly
where only orbits of length v and replication 1 reach.  Every other
orbit makes events, its runs less 1 over each whole fold it reaches,
which the kernel, pair_coverage_counts, sorts and sums into steps over
those folds.  Every verdict is read off the fold and the steps, and only
wrong folds and steps are expanded into offending pairs.  No full-size
counter is held (8 GiB of one-byte counters at n = 17), yet every
pair's count is determined exactly, as an integer with no wrap-around:
the check is exhaustive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .blocks import PAIR_I, PAIR_J
from .family import _CHUNK_ROWS, DifferenceFamily, folding
from .gf2n import GF2n, wrap_log


@dataclass(frozen=True)
class Orbit:
    """One developed base block, the 7-tuple `rep`: `length` blocks, each
    repeated `replication` times."""

    rep: tuple[int, ...]
    length: int
    replication: int


@dataclass(frozen=True, eq=False)
class Design:
    """Row i of the family `blocks` represents orbit i, of length
    length[i], each block repeated replication[i] times (int64 arrays).
    Iterating a design yields its `orbits`, built only when asked."""

    ctx: GF2n
    blocks: DifferenceFamily
    length: np.ndarray
    replication: np.ndarray
    lambda_claim: int
    k = 7

    def __post_init__(self):
        # the fold and the kernel's runs take an orbit of 1..v blocks, each at least once
        v, m, w = self.v, self.length, self.replication
        if m.min(initial=1) < 1 or m.max(initial=v) > v or w.min(initial=1) < 1:
            row = int(np.flatnonzero((m < 1) | (m > v) | (w < 1))[0])
            raise ValueError(f"orbit row {row} has length {m[row]} and replication {w[row]}; "
                             f"lengths lie in 1..{v} and replications are at least 1")

    @property
    def v(self) -> int:
        return self.ctx.order - 1

    def orbit_rows(self):
        """(representative, length, replication) of each orbit, as Python values."""
        return zip(self.blocks.slots.tolist(), self.length.tolist(), self.replication.tolist())

    @cached_property
    def orbits(self) -> tuple[Orbit, ...]:
        return tuple(Orbit(tuple(r), m, w) for r, m, w in self.orbit_rows())

    def __iter__(self):
        # perfbench/spans.py iterates the design for the traced kernel
        # counts; this goes once that tracer takes them from block_count()
        return iter(self.orbits)

    @cached_property
    def scan(self) -> OrbitScan:
        """What the checks read of the rows, from one orbit_scan."""
        return orbit_scan(self.blocks)

    @property
    def fold(self) -> np.ndarray:
        """The scan's histogram of the rows, the family's profile: fold[f]
        counts every pair {g^a, g^(a+f)} of a fold no event reaches."""
        return self.scan.fold

    def block_count(self) -> int:
        """Total number of developed blocks, with multiplicity."""
        return int((self.length * self.replication).sum())


PairOffender = NamedTuple("PairOffender", [("pair", tuple[int, int]), ("count", int)])
QuotientOffender = NamedTuple("QuotientOffender", [("t", int), ("count", int)])


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an exhaustive coverage check: passed holds iff every count
    is as claimed; offending_pairs carries a bounded sample of violations,
    each a PairOffender or a QuotientOffender.  checks collects named
    sub-checks where a verification consists of several (the GDD case).
    """

    passed: bool
    pair_coverage_min: int
    pair_coverage_max: int
    offending_pairs: tuple
    timing: float
    checks: dict | None = None
    notes: str = ""


def develop(fam: DifferenceFamily) -> Design:
    """Orbit-compressed development of a (relative) difference family in
    one pass over its rows: each orbit's stabilizer is read off the
    family's orbit_scan, which the design keeps for its fold, the
    family's profile histogram, and its orbit checks (groop meets only
    for a relative family)."""
    ctx = fam.ctx
    scan = orbit_scan(fam, meets=bool(fam.forbidden), developed=True)
    replication = np.ones(len(fam), dtype=np.int64)
    replication[scan.kstar] = 7
    d = Design(ctx, fam, (ctx.order - 1) // replication, replication, fam.lambda_claim)
    object.__setattr__(d, "scan", scan)
    return d


# -- pair counting kernel -----------------------------------------------------

# Offenders a report names, the first ones, and pairs expanded per chunk
# while looking for them, which bounds that search's memory.
MAX_OFFENDERS = 10
_OFFENDER_CHUNK = 1 << 16


def develop_bytes(orbits: int) -> int:
    """Resident bytes that building and developing a family of `orbits`
    base blocks adds, for preflight estimates: 44 per orbit (its seed, 16
    bytes of length and replication, 9 of its orbit_scan, 12 of the scan's
    histogram and what else stays) and one scan chunk, ~228 B per row.
    Fitted, with the largest stage, to the VmHWM growth of `verify` in
    fresh processes: 1.9-2.3, 2.9-3.5, 7.3-7.7 and 25.5-26.6 MiB at n = 15
    to 21 (the import compiling the sources or reading .pyc files) against
    preflight totals of 2.2, 3.3, 8.6 and 30.9 MiB."""
    return 228 * _CHUNK_ROWS + 44 * orbits


def pair_count_bytes(n: int) -> int:
    """Bytes the pair count over GF(2^n) allocates at its peak, its fold
    the scan's, for preflight estimates: a boolean mask of the folds
    that must be lam and their int32 copy, 2.5 B per element (2.64, 2.51
    and 2.50 under tracemalloc at n = 15, 17 and 19), and 16 KiB for K*'s
    steps and the report."""
    return 5 * (1 << n) // 2 + 2**14


# Orbits per chunk of _events; bounds its (orbits, 21) temporaries.
_EVENT_ORBITS = 1 << 10


def _events(d: Design) -> tuple[np.ndarray, np.ndarray]:
    """Events of every orbit not of length v and replication 1, unsorted:
    int64 keys fold * (v + 1) + column and int64 weights.  Slot pair (i, j)
    of an orbit of length m and replication w covers m cyclic columns of
    the fold of lj - li, w times: a run from column s is +w at s and -w at
    min(s + m, v), and one that passes column v - 1 is also +w at column 0
    and -w at s + m - v; -1 at column 0 and +1 at column v take back the
    once that d.fold counts.  Every fold's events sum to 0, one at column 0."""
    ctx, v = d.ctx, d.v
    keys, weights = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    odd = np.flatnonzero((d.length < v) | (d.replication != 1))
    for lo in range(0, len(odd), _EVENT_ORBITS):
        part = odd[lo : lo + _EVENT_ORBITS]
        logs = ctx.logs[d.blocks.take(part)].astype(np.int64)
        li, lj = logs[:, PAIR_I], logs[:, PAIR_J]  # (C, 21): one run per orbit and slot pair
        gap = (lj - li) % v
        low = gap <= v // 2
        base = np.where(low, gap, v - gap) * (v + 1)  # key of the fold's column 0
        first = np.where(low, li, lj)
        stop = first + d.length[part, None]  # the column past the run, unwrapped
        w = np.broadcast_to(d.replication[part, None], base.shape)
        wraps = stop > v
        keys += [(base + first).ravel(), (base + np.minimum(stop, v)).ravel()]
        keys += [base[wraps], (base + stop - v)[wraps], base.ravel(), (base + v).ravel()]
        ones = np.ones(base.size, dtype=np.int64)
        weights += [w.ravel(), -w.ravel(), w[wraps], -w[wraps], -ones, ones]
    return np.concatenate(keys), np.concatenate(weights)


def pair_coverage_counts(ctx: GF2n, d: Design) -> np.ndarray:
    """The steps of the pair count in the folds that _events reach: a
    (4, S) int64 array of rows (fold, start, stop, count), by fold, then
    start, each pair {g^a, g^(a+fold)}, start <= a < stop, covered `count`
    times; a fold's steps partition its v columns.  Every pair of every
    other fold f is covered d.fold[f] times.  The events are sorted once
    and summed in int64 over all folds: each fold's sum to 0, so each
    fold's sums start from 0 at its column 0, where it has an event."""
    v = ctx.order - 1
    keys, weights = _events(d)
    if not keys.size:
        return np.empty((4, 0), dtype=np.int64)
    order = np.argsort(keys, kind="stable")  # the sort check_simple runs too
    keys = keys[order]
    count = np.cumsum(weights[order])
    last = np.flatnonzero(np.append(keys[1:] != keys[:-1], True))  # the last key at each column
    opens = last[keys[last] % (v + 1) < v]  # a key at column v, past every pair, opens no step
    fold, start = np.divmod(keys[opens], v + 1)
    stop = np.append(np.where(start[1:] > 0, start[1:], v), v)
    return np.stack([fold, start, stop, count[opens] + d.fold[fold]])


def _first_offenders(ctx: GF2n, steps: np.ndarray, m: int) -> tuple:
    """The first MAX_OFFENDERS pairs of the given wrong steps, as PairOffenders
    ((u, w), count) with encodings u <= w, ordered by u, then by whether m
    does not divide the fold, then w.  The steps are expanded pair by
    pair, at most _OFFENDER_CHUNK pairs at a time."""
    q = ctx.order
    fold, start, stop, count = steps
    size = stop - start
    ends = np.cumsum(size)  # pairs in the steps up to each one's end
    origin = ends - size - start  # pair index minus column, per step
    total = int(ends[-1]) if ends.size else 0
    keys = np.empty(0, dtype=np.int64)
    found = np.empty(0, dtype=np.int64)
    for p0 in range(0, total, _OFFENDER_CHUNK):
        p = np.arange(p0, min(p0 + _OFFENDER_CHUNK, total))
        s = np.searchsorted(ends, p, side="right")
        c, f = p - origin[s], fold[s]
        x = ctx.exp[c].astype(np.int64)
        y = ctx.exp[wrap_log(c + f, ctx.order - 1)].astype(np.int64)
        keys = np.concatenate([keys, (np.minimum(x, y) * 2 + (f % m != 0)) * q + np.maximum(x, y)])
        found = np.concatenate([found, count[s]])
        if len(keys) > MAX_OFFENDERS:
            top = np.argpartition(keys, MAX_OFFENDERS - 1)[:MAX_OFFENDERS]
            keys, found = keys[top], found[top]
    top = np.argsort(keys)
    pairs = [(k // q // 2, k % q) for k in keys[top].tolist()]
    return tuple(map(PairOffender, pairs, found[top].tolist()))


def _widen(r: tuple[int, int] | None, values: np.ndarray) -> tuple[int, int] | None:
    """The range r, (min, max) or None, widened to hold all values."""
    ends = [*(r or ()), *((int(values.min()), int(values.max())) if values.size else ())]
    return (min(ends), max(ends)) if ends else None


def fold_verdicts(hist: np.ndarray, m: int, lam: int, skip) -> tuple:
    """Verdicts on a histogram by fold whose multiples of m must be 0 and
    whose other folds must be lam, the folds in `skip` left out: the
    exact (min, max) of the lam folds (None without any), whether every
    fold that m divides is 0, and the wrong folds, in increasing order."""
    keep = np.ones(len(hist), dtype=bool)
    keep[skip] = False
    zero = np.arange(0, len(hist), m)
    zero = zero[keep[zero]]
    keep[::m] = False
    lam_range = _widen(None, hist[keep])
    wrong = hist != lam
    wrong &= keep
    wrong[zero] = hist[zero] != 0
    return lam_range, not wrong[zero].any(), np.flatnonzero(wrong)


def check_pair_coverage(d: Design, m: int) -> tuple:
    """Exact pair coverage: every pair {g^a, g^(a+f)} is covered
    d.lambda_claim times, except in the folds f that m divides, which must
    be covered 0 times: fold 0, a point with itself, and, for a GDD with
    m = v/7, the pairs within a groop.  Returns fold_verdicts' exact
    (min, max) of the lambda folds and whether every fold that m divides is
    0, read off d.fold and the steps of pair_coverage_counts, and the first
    offenders of the wrong folds, each a single step, and of the wrong steps."""
    steps = pair_coverage_counts(d.ctx, d)
    fold, count = steps[0], steps[3]
    at_zero = fold % m == 0
    lam_range, zero_ok, bad = fold_verdicts(d.fold, m, d.lambda_claim, fold)
    lam_range = _widen(lam_range, count[~at_zero])
    wrong = steps[:, count != np.where(at_zero, 0, d.lambda_claim)]
    if bad.size:
        wrong = np.concatenate([[bad, 0 * bad, d.v + 0 * bad, d.fold[bad]], wrong], axis=1)
    zero_ok = zero_ok and not count[at_zero].any()
    return lam_range, zero_ok, _first_offenders(d.ctx, wrong, m) if wrong.size else ()


def verify_2design(d: Design) -> VerificationReport:
    """Exhaustively check that every pair of distinct points lies in
    exactly lambda_claim developed blocks, and no block repeats a point."""
    t0 = time.perf_counter()
    lam = d.lambda_claim
    (mn, mx), zero_ok, offenders = check_pair_coverage(d, d.v)
    return VerificationReport(
        passed=(mn == lam and mx == lam and zero_ok),
        pair_coverage_min=mn,
        pair_coverage_max=mx,
        offending_pairs=offenders,
        timing=time.perf_counter() - t0,
    )


# -- structural checks --------------------------------------------------------

class OrbitScan(NamedTuple):
    kstar: np.ndarray  # bool per row: K* fixes it
    hashes: np.ndarray | None  # int64 per row: its _gap_hash (None: not computed)
    subspaces: bool  # every row is a subspace minus 0
    meets: bool | None  # every row meets each coset of K* at most once (None: not checked)
    fold: np.ndarray  # the rows' histogram of folded slot log differences (folding)


def orbit_scan(fam: DifferenceFamily, meets: bool = True, developed: bool = False) -> OrbitScan:
    """The per-orbit claims of fam's rows and their fold, in one pass of
    slot chunks through folding; a row stands for its orbit, as scaling is
    GF(2)-linear and permutes the cosets of K*.  Meets is None unless asked
    for; hashes is None if the family is `developed` and K* fixes a row,
    whose blocks then repeat: check_simple reads none.  A sorted row s is
    a subspace iff s0 > 0 and s is the sorted span of s0, s1 and s3: a
    subspace's two smallest nonzero elements sum to the third (s1 has the
    higher top bit, and s0 + s1 is the one other element with it).  A
    block's stabilizer is trivial or, only when 3 | n, K* = <g^(v/7)>,
    which fixes it iff its 7 cyclic gaps all equal v/7.  g^a and g^b share
    a coset of K* iff a = b (mod v/7): when 3 | n, a row meets each coset
    at most once iff its logs mod v/7 are distinct; 0, in no coset, reads -1."""
    ctx = fam.ctx
    m = (ctx.order - 1) // 7
    kstar = np.zeros(len(fam), dtype=bool)
    hashes = np.empty(len(fam), dtype=np.int64)
    subspaces, meets = True, True if meets else None
    rows = slice(0, 0)
    fold, chunks = folding(fam)
    for slots in chunks:
        rows = slice(rows.stop, rows.stop + len(slots))
        s = np.sort(slots, axis=1)
        a, b, c = s[:, 0], s[:, 1], s[:, 3]
        span = np.sort(np.stack([a, b, a ^ b, c, c ^ a, c ^ b, c ^ a ^ b], axis=1), axis=1)
        subspaces = subspaces and bool((a > 0).all() and (span == s).all())
        logs = ctx.logs.take(s)
        gaps = _cyclic_gaps(ctx, logs)
        if ctx.n % 3 == 0:
            kstar[rows] = (gaps == m).all(axis=1)
            hashes = None if developed and kstar[rows].any() else hashes
            if meets:
                np.putmask(logs, logs >= 0, logs % m)  # each log by its coset; 0's -1 stays
                logs.sort(axis=1)
                meets = bool((logs[:, 1:] > logs[:, :-1]).all())
        if hashes is not None:
            hashes[rows] = _gap_hash(gaps)
        del s, a, b, c, span, logs, gaps  # not held through the next chunk's fold
    return OrbitScan(kstar, hashes, subspaces, meets, fold)


def check_qanalog(d: Design) -> bool:
    """Whether every developed block, with 0 added, is add-closed (orbit_scan)."""
    return d.scan.subspaces


def _cyclic_gaps(ctx: GF2n, logs: np.ndarray) -> np.ndarray:
    """The 7 cyclic gaps between each row's sorted logs, summing to v."""
    logs = np.sort(logs, axis=1)
    return np.diff(logs, axis=1, append=logs[:, :1] + (ctx.order - 1))


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
    of each other, and then their _gap_hash (from orbit_scan) is equal.
    Only if two are equal are the rows of a group of equal hashes labelled
    by least rotation and compared in full, after one np.lexsort: exact.
    """
    if (d.replication != 1).any() or (d.length[d.scan.kstar] > d.v // 7).any():
        return False  # K* fixes a row: its orbit has v/7 distinct blocks
    same = np.sort(d.scan.hashes)
    same = same[1:] == same[:-1]
    if not same.any():
        return True
    order = np.argsort(d.scan.hashes, kind="stable")
    grouped = np.append(same, False) | np.append(False, same)
    logs = d.ctx.logs[d.blocks.take(order[grouped])]
    g = np.tile(_cyclic_gaps(d.ctx, logs), 2)  # every rotation is a window of 7
    labels = g[:, :7].copy()
    for k in range(1, 7):
        r = g[:, k : k + 7]
        first = (r != labels).argmax(axis=1)[:, None]  # 0 where they are equal
        smaller = np.take_along_axis(r, first, 1) < np.take_along_axis(labels, first, 1)
        np.copyto(labels, r, where=smaller)
    return bool(np.diff(labels[np.lexsort(labels.T)], axis=0).any(axis=1).all())
