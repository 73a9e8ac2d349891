"""Spread, relative family and group divisible design tests."""

from collections import Counter

import numpy as np
import pytest

from qdf import (
    Design,
    DifferenceFamily,
    WrongResidueError,
    build_family,
    build_relative_family,
    desarguesian_spread,
    develop,
    verify_gdd,
    verify_relative,
)
from qdf.gdd import spread_bytes
from qdf.reference import delta, is_subspace_block
from oracles import cached_field, materialize, materialized_pair_counts


def _groop_of(sp):
    """Element encoding -> index of its groop in the rows sp; 0 is in none."""
    return {p: i for i, g in enumerate(sp.tolist()) for p in g}


@pytest.mark.parametrize("n,groops", [(3, 1), (9, 73)])
def test_spread_partitions_units(n, groops):
    f = cached_field(n)
    sp = desarguesian_spread(f)
    assert len(sp) == groops == (f.order - 1) // 7
    covered = [p for g in sp for p in g]
    assert sorted(covered) == list(range(1, f.order))
    # g^a and g^b share a groop iff a = b (mod v/7): the meet check's reading
    m = (f.order - 1) // 7
    for g in sp:
        assert len(g) == 7
        assert is_subspace_block(f, g)
        assert len({int(f.logs[p]) % m for p in g}) == 1
    assert len({int(f.logs[g[0]]) % m for g in sp}) == groops


def test_spread_groops_are_kstar_cosets():
    for n in (9, 15):
        f = cached_field(n)
        kstar = [t for t in f.subfield(3) if t]
        sp = desarguesian_spread(f)
        # the cosets e K* by scalar multiplication, ordered by smallest member
        groops, point_groop = [], [-1] * f.order
        for e in range(1, f.order):
            if point_groop[e] < 0:
                coset = tuple(sorted(f.mul(e, k) for k in kstar))
                for p in coset:
                    point_groop[p] = len(groops)
                groops.append(coset)
        assert sp.dtype == np.int32 and sp.shape == (len(groops), 7)
        assert sp.tolist() == [list(g) for g in groops]
        # the preflight's spread term is this one array
        assert sp.nbytes == spread_bytes(len(groops))
        # every groop is one class of the logs mod v/7
        m = (f.order - 1) // 7
        assert len({(point_groop[e], int(f.logs[e]) % m) for e in range(1, f.order)}) == m


def test_spread_requires_divisibility():
    with pytest.raises(WrongResidueError):
        desarguesian_spread(cached_field(5))
    with pytest.raises(WrongResidueError):
        desarguesian_spread(cached_field(7))


def test_build_relative_family_n9():
    f = cached_field(9)
    rf = build_relative_family(build_family(f))
    assert len(rf.slots) == 84
    assert len(rf.forbidden) == 7
    assert rf.lambda_claim == 7
    kstar = frozenset(t for t in f.subfield(3) if t)
    assert rf.forbidden == kstar
    assert all(set(row) != kstar for row in rf.slots.tolist())


def test_build_relative_family_finds_kstar_in_any_slot_order():
    # a row whose slot 1 lies in K* is only a candidate; K* itself is
    # found whatever the order of its slots
    f = cached_field(9)
    m = (f.order - 1) // 7
    kstar = f.exp[: 7 * m : m]
    rows = build_family(f).slots[:3].copy()
    rows[0, 1] = kstar[2]
    assert set(rows[0].tolist()) != set(kstar.tolist())
    permuted = kstar[[4, 0, 6, 2, 5, 1, 3]]
    fam = DifferenceFamily(f, np.stack([rows[0], rows[1], permuted, rows[2]]), 7)
    rf = build_relative_family(fam)
    assert rf.slots.tolist() == rows.tolist()
    assert rf.forbidden == frozenset(kstar.tolist())


def test_build_relative_family_wrong_residue():
    with pytest.raises(WrongResidueError):
        build_relative_family(build_family(cached_field(5)))


@pytest.mark.parametrize("n", [5, 7])
def test_verify_gdd_wrong_residue(n):
    # no groops of v/7 logs exist here, so there is no report to give
    with pytest.raises(WrongResidueError):
        verify_gdd(develop(build_family(cached_field(n))))


def test_build_relative_family_n3_degenerate():
    rf = build_relative_family(build_family(cached_field(3)))
    assert rf.slots.shape == (0, 7)
    assert len(rf.forbidden) == 7


def test_verify_relative_passes_n9():
    f = cached_field(9)
    rf = build_relative_family(build_family(f))
    rep = verify_relative(rf)
    assert rep.passed
    assert rep.pair_coverage_min == rep.pair_coverage_max == 7
    # direct recount: nothing inside K* minus {1}, exactly 7 outside
    counts = Counter()
    for row in rf.slots.tolist():
        counts.update(delta(f, row))
    for t in f.seeds():
        assert counts[t] == (0 if t in rf.forbidden else 7)


def test_verify_relative_fails_with_subfield_block_present():
    f = cached_field(9)
    fam = build_family(f)
    kstar = frozenset(t for t in f.subfield(3) if t)
    bogus = DifferenceFamily(f, fam.slots, 7, forbidden=kstar)
    rep = verify_relative(bogus)
    assert not rep.passed
    bad = dict(rep.offending_pairs)
    assert any(t in kstar and c == 7 for t, c in bad.items())


def test_verify_relative_reads_the_forbidden_subgroup():
    # an ordinary family avoids only 1 and passes; a forbidden set that is
    # no subgroup cannot be read off the folds, and is refused
    f = cached_field(9)
    fam = build_family(f)
    rep = verify_relative(fam)
    assert rep.passed and rep.pair_coverage_min == rep.pair_coverage_max == 7
    with pytest.raises(ValueError):
        verify_relative(DifferenceFamily(f, fam.slots, 7, forbidden=frozenset({2, 3})))


def test_verify_relative_vacuous_n3():
    rf = build_relative_family(build_family(cached_field(3)))
    rep = verify_relative(rf)
    assert rep.passed
    assert "degenerate" in rep.notes


def test_gdd_n9_all_checks_pass():
    f = cached_field(9)
    rf = build_relative_family(build_family(f))
    rep = verify_gdd(develop(rf))
    assert rep.passed
    assert rep.checks == {
        "block_groop_meet": True,
        "cross_pair_coverage": True,
        "within_pair_coverage": True,
        "simple": True,
    }
    assert rep.pair_coverage_min == rep.pair_coverage_max == 7
    assert develop(rf).block_count() == 84 * 511 == 42_924


def test_gdd_n9_against_materialized_counts():
    f = cached_field(9)
    sp = desarguesian_spread(f)
    rf = build_relative_family(build_family(f))
    blocks = materialize(develop(rf))
    assert len(blocks) == 42_924
    counts = materialized_pair_counts(blocks)
    groop_of = _groop_of(sp)
    checked_within = 0
    for u in range(1, f.order - 1):
        for v in range(u + 1, f.order):
            c = counts[(u, v)]
            if groop_of[u] == groop_of[v]:
                assert c == 0
                checked_within += 1
            else:
                assert c == 7
    assert checked_within == 73 * 21
    # every block meets every groop at most once
    for blk in blocks[:511]:
        assert len({groop_of[p] for p in blk}) == 7


def test_block_groop_meet_puts_0_in_no_groop():
    # 0 has no log (logs[0] = -1), and -1 mod 73 = 72 is the class of
    # g^72: a row holding 0 beside g^72 meets every groop at most once.
    # Each verdict is read off the groops, 0 as -1, as the point -> groop
    # table read it, so a row that repeats 0 fails as it did.
    f = cached_field(9)
    sp = desarguesian_spread(f)
    groop_of = _groop_of(sp)
    g = [int(x) for x in f.exp[:511]]
    rows = {
        "0 beside g^72": [0, g[72], g[1], g[2], g[3], g[4], g[5]],
        "0 twice": [0, 0, g[1], g[2], g[3], g[4], g[5]],
        "g^1 and g^74": [g[1], g[74], g[2], g[3], g[4], g[5], g[6]],
        "seven groops": [g[72], g[1], g[2], g[3], g[4], g[5], g[6]],
    }
    for name, row in rows.items():
        meets = [groop_of.get(p, -1) for p in row]
        expected = len(set(meets)) == 7
        d = Design(f, DifferenceFamily(f, [row], 7), np.array([511]), np.ones(1, dtype=np.int64), 7)
        assert verify_gdd(d).checks["block_groop_meet"] is expected, name
        assert expected is (name in ("0 beside g^72", "seven groops")), name


def test_gdd_orbit_representatives_are_subspaces():
    # one representative per orbit suffices: scaling preserves subspaces
    f = cached_field(9)
    rf = build_relative_family(build_family(f))
    for orbit in develop(rf).orbits:
        assert is_subspace_block(f, orbit.rep)


def test_gdd_counting_identity_n9():
    f = cached_field(9)
    rf = build_relative_family(build_family(f))
    total_blocks = develop(rf).block_count()
    assert total_blocks * 42 == 7 * (f.order - 1) * (f.order - 8)


def test_gdd_n3_degenerate_pass():
    f = cached_field(3)
    rf = build_relative_family(build_family(f))
    rep = verify_gdd(develop(rf))
    assert rep.passed
    assert "degenerate" in rep.notes
    assert rep.checks is not None and all(rep.checks.values())


def test_gdd_detects_within_groop_coverage():
    # keeping the subfield block in the family breaks the within-groop rule
    f = cached_field(9)
    fam = build_family(f)
    kstar = frozenset(t for t in f.subfield(3) if t)
    bogus = DifferenceFamily(f, fam.slots, 7, forbidden=kstar)
    rep = verify_gdd(develop(bogus))
    assert not rep.passed
    assert rep.checks is not None
    assert not rep.checks["within_pair_coverage"]
    assert not rep.checks["block_groop_meet"]  # the K* orbit meets one groop 7 times
    assert not rep.checks["simple"]  # the subfield orbit has replication 7
    assert rep.checks["cross_pair_coverage"]
    assert rep.offending_pairs == (
        ((1, 252), 7), ((1, 253), 7), ((1, 302), 7), ((1, 303), 7), ((1, 466), 7),
        ((1, 467), 7), ((2, 93), 7), ((2, 95), 7), ((2, 421), 7), ((2, 423), 7),
    )


def test_gdd_detects_missing_cross_coverage():
    f = cached_field(9)
    rf = build_relative_family(build_family(f))
    bad = DifferenceFamily(f, rf.slots[1:], 7, forbidden=rf.forbidden)
    rep = verify_gdd(develop(bad))
    assert not rep.passed
    assert not rep.checks["cross_pair_coverage"]
    assert rep.checks["within_pair_coverage"] and rep.checks["simple"]
    assert (rep.pair_coverage_min, rep.pair_coverage_max) == (4, 7)
    assert rep.offending_pairs == (
        ((1, 2), 4), ((1, 3), 4), ((1, 4), 6), ((1, 5), 6), ((1, 6), 6),
        ((1, 7), 6), ((1, 128), 6), ((1, 129), 6), ((1, 170), 6), ((1, 171), 6),
    )


def test_gdd_offenders_list_within_groop_pairs_first():
    # both violations at point 1: within-groop pairs come before cross ones
    f = cached_field(9)
    fam = build_family(f)
    rf = build_relative_family(fam)
    kblock = [row for row in fam.slots.tolist() if set(row) == rf.forbidden]
    both = DifferenceFamily(f, rf.slots[1:].tolist() + kblock, 7, forbidden=rf.forbidden)
    rep = verify_gdd(develop(both))
    assert not rep.checks["within_pair_coverage"]
    assert not rep.checks["cross_pair_coverage"]
    assert rep.offending_pairs == (
        ((1, 252), 7), ((1, 253), 7), ((1, 302), 7), ((1, 303), 7), ((1, 466), 7),
        ((1, 467), 7), ((1, 2), 4), ((1, 3), 4), ((1, 4), 6), ((1, 5), 6),
    )


def _relative_by_delta(rf):
    """(min, max outside the forbidden subgroup, first ten offenders) of a
    relative family, from a Counter over delta: the reference route."""
    counts = Counter()
    for row in rf.slots.tolist():
        counts.update(delta(rf.ctx, row))
    outside = [counts[t] for t in rf.ctx.seeds() if t not in rf.forbidden]
    offenders = [
        (t, counts[t])
        for t in rf.ctx.seeds()
        if counts[t] != (0 if t in rf.forbidden else rf.lambda_claim)
    ]
    return min(outside), max(outside), tuple(offenders[:10])


@pytest.mark.parametrize(
    "variant", ["relative", "doubled", "dropped", "duplicated", "with_subfield"]
)
def test_verify_relative_matches_delta_counter(variant):
    f = cached_field(9)
    fam = build_family(f)
    rf = build_relative_family(fam)
    rows = rf.slots.tolist()
    blocks, lam = {
        "relative": (rows, 7),
        "doubled": (rows * 2, 14),
        "dropped": (rows[:40] + rows[41:], 7),
        "duplicated": (rows + rows[40:41], 7),
        "with_subfield": (fam.slots, 7),
    }[variant]
    mutant = DifferenceFamily(f, blocks, lam, forbidden=rf.forbidden)
    rep = verify_relative(mutant)
    mn, mx, offenders = _relative_by_delta(mutant)
    assert (rep.pair_coverage_min, rep.pair_coverage_max) == (mn, mx)
    assert rep.offending_pairs == offenders
    assert rep.passed == (variant in ("relative", "doubled")) == (not offenders)

