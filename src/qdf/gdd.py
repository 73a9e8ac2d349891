"""Group divisible designs from relative difference families, for n = 3 (mod 6).

When 3 | n the field contains the order-8 subfield K, and exactly one
base block of the index-7 family equals K*.  Removing it leaves a family
whose quotient list avoids K* entirely and covers everything else exactly
7 times; its development, together with the spread of multiplicative
cosets of K*, is a cyclic simple group divisible design with block size
7, groop size 7 and index 7.  check_residue states the n = 3 (mod 6) rule.
g^a and g^b share a coset of K* iff a = b (mod v/7), so verify_gdd takes
only the design; desarguesian_spread's groop rows are for the writer.
"""

from __future__ import annotations

import time

import numpy as np

from .design import MAX_OFFENDERS, Design, QuotientOffender, VerificationReport
from .design import check_pair_coverage, check_simple, fold_verdicts, orbit_scan
from .errors import WrongResidueError
from .family import DifferenceFamily, multiplicity_profile
from .gf2n import GF2n, walk


def check_residue(n: int) -> None:
    """The GDD needs the order-8 subfield K, in GF(2^n) iff 3 | n, and n
    odd: n = 3 (mod 6)."""
    if n % 6 != 3:
        raise WrongResidueError(f"the GDD needs n = 3 (mod 6), got n={n}")


def spread_bytes(groops: int) -> int:
    """Resident bytes of the spread's `groops` groop rows, for preflight
    estimates: int32, 28 bytes per groop."""
    return 28 * groops


def desarguesian_spread(ctx: GF2n) -> np.ndarray:
    """The groops of the Desarguesian spread, the (2^n - 1)/7 cosets of K*,
    as (G, 7) int32 rows of sorted members, ordered by smallest member;
    with 0 added each is a 3-dimensional subspace.

    K* is the subgroup of order 7 of the cyclic group F* = <g>, so it is
    <g^(v/7)> and the coset of g^a, {g^(a + k v/7)}, depends only on
    a mod v/7: the walk of g^k, as 7 rows of v/7, has the cosets as columns.
    """
    check_residue(ctx.n)
    powers = np.empty(ctx.order - 1, dtype=np.int32)
    for k, x in walk(ctx, 0, len(powers)):
        powers[k : k + len(x)] = x
    cosets = np.sort(powers.reshape(7, -1).T, axis=1)
    return cosets[np.argsort(cosets[:, 0])]


def build_relative_family(fam: DifferenceFamily) -> DifferenceFamily:
    """Drop the unique base block equal to K* from an index-7 family; the
    result has K* as its forbidden subgroup.

    Degenerate n = 3: the only base block is K* itself, leaving an empty
    relative family over a single groop; that is reported, not rejected.
    """
    ctx = fam.ctx
    check_residue(ctx.n)
    m = (ctx.order - 1) // 7
    kstar = np.sort(np.array([ctx.power(j * m) for j in range(7)], dtype=np.int32))
    # a row equal to K* = <g^m> has its slot-1 element, its seed, in K*:
    # only those rows are built, sorted and compared with it
    seeds = fam.rows[:, 1] if fam.seeds is None else fam.seeds
    rows = np.flatnonzero(ctx.logs[seeds] % m == 0)
    rows = rows[(np.sort(fam.take(rows), axis=1) == kstar).all(axis=1)]
    if len(rows) != 1:
        raise ValueError("family does not contain exactly one subfield block")
    lam, forbidden = fam.lambda_claim, frozenset(kstar.tolist())
    if fam.seeds is None:
        return DifferenceFamily(ctx, np.delete(fam.rows, rows, axis=0), lam, forbidden)
    return DifferenceFamily(ctx, None, lam, forbidden, seeds=np.delete(fam.seeds, rows))


def verify_relative(fam: DifferenceFamily, profile=None) -> VerificationReport:
    """Quotient profile check: multiplicity 0 on G minus {1} and lambda
    everywhere outside G, read off the family's MultiplicityProfile (built
    when not given).  Every t outside {0, 1} is g^f or g^(v - f) for one
    fold f of its histogram, and G = <g^m>, m = v/|G|, holds both iff m | f."""
    t0 = time.perf_counter()
    ctx, lam = fam.ctx, fam.lambda_claim
    v = ctx.order - 1
    m = v // max(len(fam.forbidden), 1)  # an ordinary family avoids {1}
    if fam.forbidden | {1} != {ctx.power(k) for k in range(0, v, m)}:
        raise ValueError("the forbidden set is not a subgroup of the units")
    hist = (profile or multiplicity_profile(fam)).hist
    outside, zero_ok, bad = fold_verdicts(hist, m, lam, [0])  # t = 1 is not checked
    ts = np.concatenate([ctx.exp[bad], ctx.exp[v - bad]]) if bad.size else bad  # g^f, g^-f
    first = np.argsort(ts)[:MAX_OFFENDERS]
    counts = np.concatenate([hist[bad], hist[bad]])[first]
    offenders = tuple(map(QuotientOffender, ts[first].tolist(), counts.tolist()))
    mn, mx = outside or (lam, lam)
    notes = "" if outside else "degenerate: no points outside the forbidden subgroup"
    return VerificationReport(
        passed=zero_ok and mn == lam and mx == lam,
        pair_coverage_min=mn,
        pair_coverage_max=mx,
        offending_pairs=offenders,
        timing=time.perf_counter() - t0,
        notes=notes,
    )


def verify_gdd(design: Design) -> VerificationReport:
    """Exhaustively check the four GDD properties of a developed relative
    family over the spread, whose groops are the classes of logs mod v/7:

      a. every developed block meets every groop in at most one point --
         read off the orbit_scan (again, if it has no verdict) of each
         orbit representative, since scaling permutes the groops;
      b. every cross-groop point pair lies in exactly lambda blocks;
      c. every within-groop point pair lies in no block at all;
      d. simplicity: trivial stabilizers and pairwise distinct orbits.
    """
    check_residue(design.ctx.n)
    t0 = time.perf_counter()
    lam = design.lambda_claim

    # g^a and g^(a+f) share a coset of K* = <g^(v/7)> iff v/7 divides f
    cross_range, within_ok, offenders = check_pair_coverage(design, design.v // 7)

    cross_min, cross_max = cross_range or (lam, lam)
    notes = "" if cross_range else "degenerate: single groop, no cross-groop pairs"
    meets = orbit_scan(design.blocks).meets if design.scan.meets is None else design.scan.meets
    checks = {
        "block_groop_meet": meets,
        "cross_pair_coverage": cross_min == lam and cross_max == lam,
        "within_pair_coverage": within_ok,
        "simple": check_simple(design),
    }
    return VerificationReport(
        passed=all(checks.values()),
        pair_coverage_min=cross_min,
        pair_coverage_max=cross_max,
        offending_pairs=offenders,
        timing=time.perf_counter() - t0,
        checks=checks,
        notes=notes,
    )
