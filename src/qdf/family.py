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
    equations at every t, read off the trace table as one int32 key per
    t (bit c: equation c has two roots), plus the 24 degenerate ones,
    which predicts m(t) = 24 + 2*r(t) for the all-seeds family; r(t) and
    the matching are decoded from each distinct key.

Keeping both routes alive catches transcription slips in either one,
and in the fold that the profile and the pair count share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import (
    PAIR_I,
    PAIR_J,
    SLOT_MASKS,
    Block,
    block_of,
    block_slots,
    hexagon_reps,
    max_vertices,
)
from .errors import DegenerateTError
from .gf2n import GF2n, poly_divmod, poly_gcd


@dataclass(frozen=True, eq=False)
class DifferenceFamily:
    """Base blocks plus the claimed index; forbidden is empty for ordinary
    families and holds the avoided subgroup for relative ones.

    The base blocks are the rows of the (N, 7) int32 array `slots`, each
    in the slot order of block_of; they may also be given as a sequence
    of Blocks or of 7-element rows.
    """

    ctx: GF2n
    slots: np.ndarray
    lambda_claim: int
    forbidden: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        rows = self.slots
        if not isinstance(rows, np.ndarray):
            rows = [getattr(b, "elements", b) for b in rows]
        object.__setattr__(self, "slots", np.asarray(rows, dtype=np.int32).reshape(-1, 7))

    @cached_property
    def base_blocks(self) -> tuple[Block, ...]:
        """The rows of slots as Blocks; slot 1 is the seed."""
        return tuple(Block(tuple(row), seed=row[1]) for row in self.slots.tolist())


@dataclass(frozen=True)
class MultiplicityProfile:
    """Exact quotient multiplicities, held folded: hist[f] counts each of
    g^f and g^(v - f), v = 2^n - 1, for 1 <= f <= v // 2, and hist[0]
    counts 1 twice (g the field's generator)."""

    ctx: GF2n
    hist: np.ndarray

    @property
    def order(self) -> int:
        return self.ctx.order

    @cached_property
    def counts(self) -> np.ndarray:
        """m(t) indexed by element encoding, as int32, built on first use."""
        exp2, v = self.ctx.exp2, self.ctx.order - 1
        counts = np.zeros(self.ctx.order, dtype=np.int32)
        counts[1] = 2 * self.hist[0]
        counts[exp2[1 : v // 2 + 1]] = self.hist[1:]  # g^f
        counts[exp2[v - 1 : v // 2 : -1]] = self.hist[1:]  # g^(v - f)
        return counts

    def count_of(self, t: int) -> int:
        return int(self.counts[t])

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


def delta(ctx: GF2n, b: Block) -> list[int]:
    """The 42 ordered-pair quotients b_i/b_j, i != j, as a multiset."""
    els = b.elements
    div = ctx.div
    out = []
    for i in range(7):
        ei = els[i]
        for j in range(7):
            if i != j:
                out.append(div(ei, els[j]))
    return out


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


# Blocks per chunk of fold_differences; bounds its temporaries.
_PROFILE_BLOCKS = 1 << 12


def profile_bytes(n: int) -> int:
    """Bytes multiplicity_profile adds over its family at its peak, for
    preflight estimates: the int32 histogram over half the field, 2 B per
    element, and 196 B per block of a chunk (its (7, blocks) logs and
    two (21, blocks) int32 arrays), ~0.8 MiB.  The counts by element
    encoding, 4 B per element more, are built only when read.  With the
    tables and the slots, `construct` grows VmHWM by 1.8, 3.7, 10.7, 38.4
    and 155.1 MiB at n = 15, 17, 19, 21 and 23 in fresh processes,
    against preflight totals of 1.5, 3.3, 10.3, 38.3 and 150.3 MiB."""
    return 2 * (1 << n) + 196 * _PROFILE_BLOCKS


def fold_differences(ctx: GF2n, slots: np.ndarray, weight=None) -> np.ndarray:
    """Exact histogram of the folded slot log differences of the rows of
    `slots`, each row weighted by weight[row] (1 if weight is None): a
    difference d = log b_i - log b_j and its negative share the fold
    min(|d|, v - |d|), so hist[f] counts the quotients g^f and g^(v - f),
    1 <= f <= v // 2, and hist[0] the quotient 1 of a repeated element.
    A chunk reads its logs as (7, rows), each pair's differences one row;
    the bins are int32 when all weights sum below 2^31 / 21, else int64."""
    v = ctx.order - 1
    total = 21 * (len(slots) if weight is None else int(weight.sum()))
    hist = np.zeros(v // 2 + 1, dtype=np.int32 if total < 2**31 else np.int64)
    one = hist.dtype.type(1)  # a scalar of the histogram's type takes no casting path
    for lo in range(0, len(slots), _PROFILE_BLOCKS):
        rows = slice(lo, lo + _PROFILE_BLOCKS)
        # take() lays the (7, rows) logs out C-ordered; [] keeps the
        # transpose's order, which would leave each pair's row strided
        logs = ctx.logs.take(slots[rows].T)
        d = logs[PAIR_I]
        d -= logs[PAIR_J]
        np.abs(d, out=d)
        np.minimum(d, v - d, out=d)
        w = one if weight is None else np.tile(weight[rows].astype(hist.dtype), 21)
        np.add.at(hist, d.ravel(), w)
    return hist


def multiplicity_profile(fam) -> MultiplicityProfile:
    """Exact m(t) for every t, by direct accumulation over base blocks:
    b_i/b_j = g^(log b_i - log b_j), so the folded slot log differences
    of every block, each counted once, are its delta list."""
    return MultiplicityProfile(fam.ctx, fold_differences(fam.ctx, fam.slots))


# -- quotient equations -------------------------------------------------------

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
    return ctx.solve_quadratic(a, b, c).count


# The 18 ordered pairs whose quotient equation is genuinely quadratic
# (nonzero x and x^2 coefficients), grouped so that within each match
# exactly one equation is solvable for every t.  Coefficient tags give
# the verbatim closed forms; 't1' stands for t+1.
_FORMS = {"1": lambda t: 1, "t": lambda t: t, "t1": lambda t: t ^ 1}

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

QUADRATIC_PAIRS = frozenset(EQUATION_FORMS)

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
        2^9 when every match holds one solvable equation), and the index
        of each t's key among them."""
        keys, which = np.unique(self.keys, return_inverse=True)
        return [decode_key(k) for k in keys.tolist()], which


def certificate_table(ctx: GF2n, ts) -> CertificateTable:
    """Solve the 18 verbatim quadratic forms at every t in ts at once.

    Every coefficient is 1, t or t+1, all nonzero for t outside {0, 1},
    so each equation has 0 or 2 roots, two exactly when Tr(a*c/b^2) = 0
    (the criterion of GF2n.solve_quadratic).  log(a*c/b^2) is
    log a + log c - 2 log b, in (-2v, 2v) for v = 2^n - 1; shifted by 2v
    and folded below 2v, it indexes the doubled exp table.
    """
    ts = np.asarray(ts).reshape(-1)
    bad = (ts < 2) | (ts >= ctx.order)
    if bad.any():
        raise DegenerateTError(
            f"certificate requires 2 <= t < 2^{ctx.n}, got {int(ts[np.argmax(bad)])}"
        )
    ts = ts.astype(np.int32)
    v2 = np.int32(2 * (ctx.order - 1))
    logs = {"1": 0, "t": ctx.logs[ts], "t1": ctx.logs[ts ^ 1]}
    keys = np.zeros(ts.size, dtype=np.int32)
    for c, (fa, fb, fc) in enumerate(EQUATION_FORMS.values()):
        k = logs[fa] + logs[fc] - 2 * logs[fb] + v2
        k -= (k >= v2) * v2
        keys |= np.left_shift(ctx.traces[ctx.exp2[k]] == 0, c, dtype=np.int32)
    return CertificateTable(ts, keys)


def certificate_bytes(n: int) -> int:
    """Bytes `certify` adds over the field tables at its peak, for
    preflight estimates: 4 per element for the trace table, which
    certificate_table builds on first use; 44 per t (48 under
    tracemalloc at n = 19: the table's int32 ts and keys, and
    np.unique's copy, argsort, sorted copy and inverse index of the keys
    while the table decodes them); and 2 MiB for the writer's chunks of
    256 KiB and the heap they leave.
    With the tables, `certify` grows VmHWM by 4.2, 9.7, 31.2 and 120.3
    MiB at n = 15, 17, 19 and 21 in fresh processes, against preflight
    totals of 4.1, 9.7, 32.2 and 122.2 MiB."""
    return (4 + 44) * (1 << n) + 2 * 2**20


def equation_certificate(ctx: GF2n, t: int) -> EquationCertificate:
    """The certificate_table row of a single t, with its coefficients.

    Every equation here has a nonzero linear coefficient, so each count is
    0 or 2; r is the number of solvable ones and matching_ok says whether
    each of the 9 matches contains exactly one solvable equation.
    """
    ((solvable, r, matching_ok),), _ = certificate_table(ctx, [t]).decoded
    entries = tuple(
        EquationEntry(i, j, _FORMS[fa](t), _FORMS[fb](t), _FORMS[fc](t), 2 * ((i, j) in solvable))
        for (i, j), (fa, fb, fc) in EQUATION_FORMS.items()
    )
    return EquationCertificate(t, entries, r, matching_ok)


def predicted_multiplicity(ctx: GF2n, t: int) -> int:
    """m(t) for the all-seeds family via the certificate: 24 + 2*r(t)."""
    return 24 + 2 * equation_certificate(ctx, t).r


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
    return DifferenceFamily(ctx, block_slots(ctx, seeds), lambda_claim=7)


def full_family(ctx: GF2n) -> DifferenceFamily:
    """Every seed's block: a difference family of index 42."""
    return DifferenceFamily(ctx, block_slots(ctx, ctx.seeds()), lambda_claim=42)
