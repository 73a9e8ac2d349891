"""Block, hexagon, stabilizer and orbit tests."""

from collections import Counter

import numpy as np
import pytest

from qdf import ForbiddenSeedError, build_family, hexagon_reps, hexagon_rows
from qdf.reference import (
    block_of,
    delta,
    hexagon_of,
    is_subspace_block,
    same_orbit,
    stabilizer_of,
)
from oracles import cached_field, canonical_orbit_label, hexagon_reps_by_gather, hexagons_by_scan


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_blocks_are_seven_point_subspaces(n):
    f = cached_field(n)
    for x in f.seeds():
        b = block_of(f, x)
        assert len(set(b.elements)) == 7
        assert 0 not in b.elements
        assert is_subspace_block(f, b.elements)


def test_block_ordering_and_seed():
    f = cached_field(5)
    x = 9
    b = block_of(f, x)
    x2 = f.sqr(x)
    assert b.elements == (1, x, x2, x ^ 1, x2 ^ 1, x2 ^ x, x2 ^ x ^ 1)
    assert b.seed == x == b.elements[1]


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_block_of_x_plus_one_is_same_set(n):
    f = cached_field(n)
    for x in f.seeds():
        if x ^ 1 in (0, 1):
            continue
        assert block_of(f, x).as_set() == block_of(f, x ^ 1).as_set()


def test_forbidden_seeds():
    f = cached_field(5)
    for bad in (0, 1, -1, f.order):
        with pytest.raises(ForbiddenSeedError):
            block_of(f, bad)
        with pytest.raises(ForbiddenSeedError):
            hexagon_of(f, bad)


def test_block_n3_is_whole_multiplicative_group():
    f = cached_field(3)
    assert block_of(f, 2).as_set() == frozenset(range(1, 8))


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_hexagon_walk_structure(n):
    f = cached_field(n)
    for x in f.seeds():
        vs = hexagon_of(f, x)
        assert len(set(vs)) == 6
        assert all(v not in (0, 1) for v in vs)
        # cyclic walk alternates the moves v -> v+1 and v -> 1/v
        for k in range(6):
            nxt = vs[(k + 1) % 6]
            assert nxt == (vs[k] ^ 1 if k % 2 == 0 else f.inv(vs[k]))


@pytest.mark.parametrize("n", [5, 7, 9])
def test_hexagon_of_inverse_is_same_component(n):
    f = cached_field(n)
    for x in f.seeds():
        vs = set(hexagon_of(f, x))
        assert set(hexagon_of(f, f.inv(x))) == vs
        for y in vs:
            assert set(hexagon_of(f, y)) == vs


def test_hexagon_n3_is_all_seeds():
    f = cached_field(3)
    assert set(hexagon_of(f, 2)) == set(range(2, 8))


@pytest.mark.parametrize("n,count", [(3, 1), (5, 5), (7, 21), (9, 85), (11, 341)])
def test_hexagon_partition_counts_and_cover(n, count):
    f = cached_field(n)
    hexes = hexagon_rows(f).tolist()
    assert len(hexes) == count == (f.order - 2) // 6
    seen = [v for h in hexes for v in h]
    assert len(seen) == len(set(seen)) == f.order - 2
    reps = [min(h) for h in hexes]
    assert reps == sorted(reps) == hexagon_reps(f).tolist()


def test_is_subspace_block_rejects_non_subspaces():
    f = cached_field(5)
    # seven consecutive powers of a generator are never add-closed here
    v = 1
    pows = []
    for _ in range(7):
        pows.append(v)
        v = f.mul(v, 2)
    assert not is_subspace_block(f, pows)
    b = block_of(f, 5)
    assert is_subspace_block(f, b.elements)
    perturbed = set(b.elements) - {b.elements[6]} | {b.elements[6] ^ 2}
    assert not is_subspace_block(f, perturbed)
    assert not is_subspace_block(f, {0, 1, 2, 3, 4, 5, 6})  # contains zero
    assert not is_subspace_block(f, {1, 2, 3})  # wrong size


def test_subfield_star_is_subspace_inside_n9():
    f = cached_field(9)
    kstar = [t for t in f.subfield(3) if t]
    assert is_subspace_block(f, kstar)


@pytest.mark.parametrize("n", [5, 7])
def test_stabilizers_trivial_when_no_order8_subfield(n):
    f = cached_field(n)
    for x in f.seeds():
        assert stabilizer_of(f, block_of(f, x).elements) == (1,)


def test_stabilizers_n9_subfield_block():
    f = cached_field(9)
    kstar = frozenset(t for t in f.subfield(3) if t)
    seen_orders = set()
    for x in f.seeds():
        b = block_of(f, x)
        stab = stabilizer_of(f, b.elements)
        assert 7 % len(stab) == 0
        seen_orders.add(len(stab))
        if b.as_set() == kstar:
            assert len(stab) == 7
            assert frozenset(stab) == kstar
        else:
            assert stab == (1,)
    assert seen_orders == {1, 7}


def test_same_orbit_shift_and_inverse():
    f = cached_field(7)
    for x in list(f.seeds())[:40]:
        assert same_orbit(f, x, x ^ 1)
        ix = f.inv(x)
        assert same_orbit(f, x, ix)
        # the explicit scaling factor: B_{1/x} = (1/x^2) * B_x
        s = f.inv(f.sqr(x))
        scaled = frozenset(f.mul(s, e) for e in block_of(f, x).elements)
        assert scaled == block_of(f, ix).as_set()


@pytest.mark.parametrize("n", [5, 7])
def test_orbit_iff_hexagon_exhaustive(n):
    f = cached_field(n)
    seeds = list(f.seeds())
    hex_sets = {x: frozenset(hexagon_of(f, x)) for x in seeds}
    for i, x in enumerate(seeds):
        for y in seeds[i + 1 :]:
            assert same_orbit(f, x, y) == (y in hex_sets[x])


@pytest.mark.parametrize("n", [5, 7])
def test_canonical_orbit_label_characterizes_orbits(n):
    f = cached_field(n)
    seeds = list(f.seeds())
    labels = {x: canonical_orbit_label(f, block_of(f, x).elements) for x in seeds}
    for i, x in enumerate(seeds):
        for y in seeds[i + 1 :]:
            assert (labels[x] == labels[y]) == same_orbit(f, x, y)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_hexagon_mates_have_equal_difference_lists(n):
    f = cached_field(n)
    for h in hexagons_by_scan(f):
        base = Counter(delta(f, block_of(f, min(h)).elements))
        for y in h:
            assert Counter(delta(f, block_of(f, y).elements)) == base


@pytest.mark.parametrize("n,modulus", [(3, None), (5, None), (7, None), (7, 0x89), (9, None), (11, None)])
def test_hexagon_rows_match_hexagon_of_scan(n, modulus):
    f = cached_field(n, modulus)
    expected = hexagons_by_scan(f)
    rows = hexagon_rows(f)
    assert rows.dtype == np.int32 and rows.shape == (len(expected), 6)
    assert [tuple(r) for r in rows.tolist()] == expected


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, 64])  # seed pairs per chunk
@pytest.mark.parametrize("n", [3, 7, 9])
def test_chunked_hexagon_rows_match_hexagon_of_scan(monkeypatch, n, chunk):
    # the one walk gives the representatives; the rows and the largest
    # vertices, which --seed-system max seeds, are derived from them
    from qdf import blocks

    monkeypatch.setattr(blocks, "_HEXAGON_CHUNK", chunk)
    f = cached_field(n)
    expected = hexagons_by_scan(f)
    reps = hexagon_reps(f)
    assert reps.dtype == np.int32 and reps.tolist() == [min(h) for h in expected]
    rows = hexagon_rows(f)
    assert rows.dtype == np.int32
    assert [tuple(r) for r in rows.tolist()] == expected
    assert build_family(f, system="max").slots[:, 1].tolist() == [max(h) for h in expected]


@pytest.mark.parametrize("chunk", [1, 7, 64, None])  # powers per walk chunk
@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
def test_paired_walk_reps_match_the_gather_oracle(monkeypatch, n, chunk):
    # the flags of the paired walk of g^k and g^-k give the representatives
    # of the inverse gathers, and so the seeds of both systems: the largest
    # vertex is the odd member of the larger pair of 1/r and 1/(r + 1)
    from qdf import gf2n

    if chunk is not None:
        monkeypatch.setattr(gf2n, "_WALK_CHUNK", chunk)
    f = gf2n.GF2n(n)
    reps = hexagon_reps_by_gather(f)
    assert hexagon_reps(f).tolist() == reps.tolist()
    inv = f.exp[(f.order - 1 - f.logs[1:]) % (f.order - 1)]
    assert build_family(f).seeds.tolist() == reps.tolist()
    largest = np.maximum(inv[reps - 1], inv[reps]) | 1
    assert build_family(f, system="max").seeds.tolist() == largest.tolist()
