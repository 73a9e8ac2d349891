"""Spread, relative family and group divisible design tests."""

from collections import Counter

import numpy as np
import pytest

from qdf import (
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


@pytest.mark.parametrize("n,groops", [(3, 1), (9, 73)])
def test_spread_partitions_units(n, groops):
    f = cached_field(n)
    sp = desarguesian_spread(f)
    assert len(sp.groops) == groops == (f.order - 1) // 7
    covered = [p for g in sp.groops for p in g]
    assert sorted(covered) == list(range(1, f.order))
    for idx, g in enumerate(sp.groops):
        assert len(g) == 7
        assert is_subspace_block(f, g)
        assert all(sp.point_groop[p] == idx for p in g)
    assert sp.point_groop[0] == -1


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
        assert sp.groops.dtype == np.int32 and sp.groops.shape == (len(groops), 7)
        assert sp.groops.tolist() == [list(g) for g in groops]
        # the preflight's spread term is these two arrays (point_groop
        # also holds the -1 of 0)
        assert sp.groops.nbytes + sp.point_groop.nbytes == spread_bytes(len(groops)) + 4
        assert sp.point_groop.tolist() == point_groop


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


def test_build_relative_family_wrong_residue():
    with pytest.raises(WrongResidueError):
        build_relative_family(build_family(cached_field(5)))


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
    rep = verify_gdd(desarguesian_spread(f), develop(rf))
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
    checked_within = 0
    for u in range(1, f.order - 1):
        for v in range(u + 1, f.order):
            c = counts[(u, v)]
            if sp.point_groop[u] == sp.point_groop[v]:
                assert c == 0
                checked_within += 1
            else:
                assert c == 7
    assert checked_within == 73 * 21
    # every block meets every groop at most once
    for blk in blocks[:511]:
        assert len({sp.point_groop[p] for p in blk}) == 7


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
    rep = verify_gdd(desarguesian_spread(f), develop(rf))
    assert rep.passed
    assert "degenerate" in rep.notes
    assert rep.checks is not None and all(rep.checks.values())


def test_gdd_detects_within_groop_coverage():
    # keeping the subfield block in the family breaks the within-groop rule
    f = cached_field(9)
    fam = build_family(f)
    kstar = frozenset(t for t in f.subfield(3) if t)
    bogus = DifferenceFamily(f, fam.slots, 7, forbidden=kstar)
    rep = verify_gdd(desarguesian_spread(f), develop(bogus))
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
    rep = verify_gdd(desarguesian_spread(f), develop(bad))
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
    rep = verify_gdd(desarguesian_spread(f), develop(both))
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

