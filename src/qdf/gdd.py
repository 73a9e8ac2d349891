"""Group divisible designs from relative difference families, for n = 3 (mod 6).

When 3 | n the field contains the order-8 subfield K, and exactly one
base block of the index-7 family equals K*.  Removing it leaves a family
whose quotient list avoids K* entirely and covers everything else exactly
7 times; its development, together with the spread of multiplicative
cosets of K*, is a cyclic simple group divisible design with block size
7, groop size 7 and index 7.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .design import Design, QuotientOffender, VerificationReport
from .design import check_pair_coverage, check_simple, fold_verdicts
from .errors import WrongResidueError
from .family import DifferenceFamily, multiplicity_profile
from .gf2n import GF2n


@dataclass(frozen=True, eq=False)
class Spread:
    """Partition of F* into cosets of K*; with 0 added each coset is a
    3-dimensional subspace (the Desarguesian spread).  Row i of the
    (G, 7) int32 `groops` is groop i, sorted."""

    ctx: GF2n
    groops: np.ndarray
    point_groop: np.ndarray  # element encoding -> groop index (-1 for 0)


def spread_bytes(groops: int) -> int:
    """Resident bytes of the Spread of `groops` groops, for preflight
    estimates: 28 bytes of int32 groop row and 28 bytes of point_groop
    (7 points) per groop."""
    return 56 * groops


def _require_subfield(ctx: GF2n) -> list[int]:
    if ctx.n % 3 != 0:
        raise WrongResidueError(
            f"no order-8 subfield in GF(2^{ctx.n}); need n = 3 (mod 6)"
        )
    return [t for t in ctx.subfield(3) if t]


def desarguesian_spread(ctx: GF2n) -> Spread:
    """The (2^n - 1)/7 multiplicative cosets of K*, each sorted, ordered by
    smallest member; membership lookups go through a point -> groop index
    table rather than any discrete-log computation.

    K* is the subgroup of order 7 of the cyclic group F* = <g>, so it is
    <g^(v/7)> and the coset of g^a, {g^(a + k v/7)}, depends only on
    a mod v/7: the exp table lists every coset at once.
    """
    _require_subfield(ctx)
    m = (ctx.order - 1) // 7
    cosets = np.sort(ctx.exp2[np.arange(m)[:, None] + m * np.arange(7)], axis=1)
    cosets = cosets[np.argsort(cosets[:, 0])]
    point_groop = np.full(ctx.order, -1, dtype=np.int32)
    point_groop[cosets] = np.arange(m, dtype=np.int32)[:, None]
    return Spread(ctx=ctx, groops=cosets, point_groop=point_groop)


def build_relative_family(fam: DifferenceFamily) -> DifferenceFamily:
    """Drop the unique base block equal to K* from an index-7 family; the
    result has K* as its forbidden subgroup.

    Degenerate n = 3: the only base block is K* itself, leaving an empty
    relative family over a single groop; that is reported, not rejected.
    """
    ctx = fam.ctx
    if ctx.n % 6 != 3:
        raise WrongResidueError(
            f"relative family needs n = 3 (mod 6), got n={ctx.n}"
        )
    kstar = _require_subfield(ctx)
    is_kstar = (np.sort(fam.slots, axis=1) == kstar).all(axis=1)
    if is_kstar.sum() != 1:
        raise ValueError("family does not contain exactly one subfield block")
    return DifferenceFamily(
        ctx, fam.slots[~is_kstar], fam.lambda_claim, forbidden=frozenset(kstar)
    )


def verify_relative(fam: DifferenceFamily, profile=None) -> VerificationReport:
    """Quotient profile check: multiplicity 0 on G minus {1} and lambda
    everywhere outside G, read off the family's MultiplicityProfile (built
    when not given).  Every t outside {0, 1} is g^f or g^(v - f) for one
    fold f of its histogram, and G = <g^m>, m = v/|G|, holds both iff m | f."""
    t0 = time.perf_counter()
    ctx, lam = fam.ctx, fam.lambda_claim
    v = ctx.order - 1
    m = v // max(len(fam.forbidden), 1)  # an ordinary family avoids {1}
    if fam.forbidden | {1} != frozenset(ctx.exp2[:v:m].tolist()):
        raise ValueError("the forbidden set is not a subgroup of the units")
    hist = (profile or multiplicity_profile(fam)).hist
    outside, zero_ok, bad = fold_verdicts(hist, m, lam, [0])  # t = 1 is not checked
    ts = np.concatenate([ctx.exp2[bad], ctx.exp2[v - bad]])  # g^f and g^(v - f), hist[f] each
    first = np.argsort(ts)[:10]
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


def verify_gdd(spread: Spread, design: Design) -> VerificationReport:
    """Exhaustively check the four GDD properties of a developed relative
    family over the spread:

      a. every developed block meets every groop in at most one point --
         checked once per orbit representative, since scaling permutes
         the groops;
      b. every cross-groop point pair lies in exactly lambda blocks;
      c. every within-groop point pair lies in no block at all;
      d. simplicity: trivial stabilizers and pairwise distinct orbits.
    """
    t0 = time.perf_counter()
    ctx, lam = design.ctx, design.lambda_claim

    meet_ok = bool((np.diff(np.sort(spread.point_groop[design.slots], axis=1), axis=1) > 0).all())

    # g^a and g^(a+f) share a coset of K* = <g^(v/7)> iff v/7 divides f
    cross_range, within_ok, offenders = check_pair_coverage(ctx, design, design.v // 7, lam)

    cross_min, cross_max = cross_range or (lam, lam)
    notes = "" if cross_range else "degenerate: single groop, no cross-groop pairs"
    checks = {
        "block_groop_meet": meet_ok,
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
