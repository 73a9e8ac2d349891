"""Development and exhaustive 2-design verification tests.

The log-coordinate pair counter is cross-checked against a fully
materialized Counter-based count at desk scale (n <= 9).
"""

import random

import numpy as np
import pytest

from qdf import (
    Block,
    DifferenceFamily,
    Orbit,
    build_family,
    check_qanalog,
    check_simple,
    develop,
    materialize,
    pair_coverage_counts,
    verify_2design,
)
from qdf.design import counter_shape
from oracles import cached_field, materialized_pair_counts


def test_develop_counts_n5():
    f = cached_field(5)
    d = develop(build_family(f))
    assert len(d.orbits) == 5
    assert all(o.length == 31 and o.replication == 1 for o in d.orbits)
    assert d.block_count() == 155 == 7 * 31 * 30 // 42
    assert d.v == 31 and d.k == 7 and d.lambda_claim == 7


def test_develop_counts_n9_subfield_orbit():
    f = cached_field(9)
    kstar = frozenset(t for t in f.subfield(3) if t)
    d = develop(build_family(f))
    special = [o for o in d.orbits if o.replication > 1]
    assert len(special) == 1
    orb = special[0]
    assert orb.rep.as_set() == kstar
    assert orb.length == 73 and orb.replication == 7
    assert d.block_count() == 85 * 511


def test_develop_counts_n3_degenerate():
    d = develop(build_family(cached_field(3)))
    assert len(d.orbits) == 1
    assert d.orbits[0].length == 1 and d.orbits[0].replication == 7
    assert d.block_count() == 7


@pytest.mark.parametrize("n", [5, 7, 9])
def test_verify_2design_passes(n):
    d = develop(build_family(cached_field(n)))
    rep = verify_2design(d)
    assert rep.passed
    assert rep.pair_coverage_min == rep.pair_coverage_max == 7
    assert rep.offending_pairs == ()
    assert d.block_count() * 42 == 7 * d.v * (d.v - 1)


def _pair_at(f, row, col):
    """The encoding pair (u, w), u < w, counted at (row, col)."""
    x, y = int(f.exp2[col]), int(f.exp2[col + row + 1])
    return min(x, y), max(x, y)


@pytest.mark.parametrize(
    "n,modulus",
    [(3, None), (5, None), (7, None), (9, None), (7, 0b10001001)],
    ids=["3", "5", "7", "9", "7-0x89"],
)
def test_pair_counts_match_materialized_counter(n, modulus):
    f = cached_field(n, modulus)
    d = develop(build_family(f))
    counts = pair_coverage_counts(f, d.orbits)
    assert counts.shape == counter_shape(d.v)
    oracle = materialized_pair_counts(materialize(d))
    got = {_pair_at(f, r, c): int(counts[r, c]) for r, c in np.ndindex(counts.shape)}
    assert got == {p: oracle[p] for p in got}
    assert set(oracle) <= set(got)


def test_materialize_counts_and_multiplicity():
    f = cached_field(9)
    d = develop(build_family(f))
    blocks = materialize(d)
    assert len(blocks) == d.block_count()
    kstar = frozenset(t for t in f.subfield(3) if t)
    assert blocks.count(kstar) == 7


def test_deleted_base_block_fails_verification():
    f = cached_field(5)
    fam = build_family(f)
    crippled = DifferenceFamily(f, fam.base_blocks[1:], lambda_claim=7)
    rep = verify_2design(develop(crippled))
    assert not rep.passed
    assert rep.pair_coverage_min < 7
    assert rep.offending_pairs
    for (u, v), c in rep.offending_pairs:
        assert 1 <= u < v <= f.order - 1
        assert c != 7
    # the first offenders in (u, v) order
    assert (rep.pair_coverage_min, rep.pair_coverage_max) == (4, 6)
    assert rep.offending_pairs == (
        ((1, 2), 4), ((1, 3), 4), ((1, 4), 6), ((1, 5), 6), ((1, 6), 6),
        ((1, 7), 6), ((1, 8), 6), ((1, 9), 6), ((1, 10), 6), ((1, 11), 6),
    )


def test_counts_past_uint8_are_exact():
    # 256 extra copies of an orbit leave every uint8 counter at 7 mod 256;
    # only the incidence total shows the pass is false
    f = cached_field(5)
    d = develop(build_family(f))
    o = d.orbits[0]
    d2 = type(d)(
        ctx=f, orbits=d.orbits + (Orbit(o.rep, o.length, 256),), v=d.v, k=7, lambda_claim=7
    )
    rep = verify_2design(d2)
    assert not rep.passed
    assert (rep.pair_coverage_min, rep.pair_coverage_max) == (263, 775)
    oracle = materialized_pair_counts(materialize(d2))
    assert rep.offending_pairs == tuple(
        sorted((p, c) for p, c in oracle.items() if c != 7)[:10]
    )
    assert rep.offending_pairs[:3] == (((1, 2), 775), ((1, 3), 775), ((1, 4), 263))


def test_verification_invariant_under_orbit_representatives():
    f = cached_field(5)
    d = develop(build_family(f))
    rng = random.Random(7)
    scaled_orbits = []
    for o in d.orbits:
        t = rng.randrange(2, f.order)
        els = tuple(f.mul(t, e) for e in o.rep.elements)
        scaled_orbits.append(Orbit(Block(els, seed=els[1]), o.length, o.replication))
    d2 = type(d)(ctx=f, orbits=tuple(scaled_orbits), v=d.v, k=d.k, lambda_claim=7)
    r1, r2 = verify_2design(d), verify_2design(d2)
    assert (r1.passed, r1.pair_coverage_min, r1.pair_coverage_max) == (
        r2.passed,
        r2.pair_coverage_min,
        r2.pair_coverage_max,
    )


@pytest.mark.parametrize("n", [5, 7])
def test_scaling_permutes_block_multiset(n):
    from collections import Counter

    f = cached_field(n)
    blocks = Counter(materialize(develop(build_family(f))))
    rng = random.Random(99)
    for _ in range(10):
        t = rng.randrange(1, f.order)
        scaled = Counter(frozenset(f.mul(t, e) for e in blk) for blk in blocks.elements())
        assert scaled == blocks


def test_replication_from_materialized_blocks():
    f = cached_field(7)
    d = develop(build_family(f))
    r = 7 * (f.order - 2) // 6
    appearances = {p: 0 for p in range(1, f.order)}
    for blk in materialize(d):
        for p in blk:
            appearances[p] += 1
    assert set(appearances.values()) == {r}


def test_check_qanalog():
    f = cached_field(7)
    d = develop(build_family(f))
    assert check_qanalog(d)
    bad_els = tuple(d.orbits[0].rep.elements[:-1]) + (d.orbits[0].rep.elements[-1] ^ 2,)
    bad = type(d)(
        ctx=f,
        orbits=(Orbit(Block(bad_els, seed=bad_els[1]), f.order - 1, 1),) + d.orbits[1:],
        v=d.v,
        k=7,
        lambda_claim=7,
    )
    assert not check_qanalog(bad)


@pytest.mark.parametrize("n,expected", [(5, True), (7, True), (3, False), (9, False)])
def test_check_simple(n, expected):
    assert check_simple(develop(build_family(cached_field(n)))) is expected


def test_log_coordinate_pair_map_is_bijective():
    for n in (3, 5, 7):
        f = cached_field(n)
        v = f.order - 1
        rows, cols = counter_shape(v)
        cells = {_pair_at(f, r, c): (r, c) for r in range(rows) for c in range(cols)}
        assert len(cells) == rows * cols == v * (v - 1) // 2
        for u in range(1, v + 1):
            for w in range(u + 1, v + 1):
                d = (int(f.logs[w]) - int(f.logs[u])) % v
                cell = (d - 1, int(f.logs[u])) if d <= rows else (v - d - 1, int(f.logs[w]))
                assert cells[(u, w)] == cell
