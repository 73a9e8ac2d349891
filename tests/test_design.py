"""Development and exhaustive 2-design verification tests.

The log-coordinate pair counter, rebuilt from the steps of the kernel, is
cross-checked exactly against a fully materialized Counter-based count
at desk scale (n <= 9), for the family and for orbits cut short so that
their runs wrap.
"""

import os
import random

import numpy as np
import pytest

from qdf import (
    Block,
    Design,
    DifferenceFamily,
    Orbit,
    build_family,
    build_relative_family,
    check_qanalog,
    check_simple,
    desarguesian_spread,
    develop,
    full_family,
    materialize,
    pair_coverage_counts,
    stabilizer_of,
    verify_2design,
    verify_gdd,
)
from qdf import cli, design
from qdf.blocks import canonical_orbit_label, is_subspace_block
from qdf.serialize import gdd_json_chunks
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


def _scaled_and_permuted(f, fam, seed):
    """fam with every row scaled by one unit and put out of slot order."""
    rng = random.Random(seed)
    t = rng.randrange(2, f.order)
    rows = [rng.sample([f.mul(t, e) for e in b.elements], 7) for b in fam.base_blocks]
    return DifferenceFamily(f, rows, fam.lambda_claim)


def _kstar_cosets(f, whole):
    """Rows of the K*-cosets {g^(a + k v/7)}, a < v/7, each with its last
    member g^(a + 6v/7) moved to g^(a + 6v/7 + 1) unless `whole`: five of
    the row's sorted logs then equal those of its translate by v/7."""
    m = (f.order - 1) // 7
    logs = np.arange(m)[:, None] + m * np.arange(7)
    if not whole:
        logs[:, 6] += 1
    return DifferenceFamily(f, f.exp2[logs], 7)


@pytest.mark.parametrize(
    "name,n,fixed",
    [
        ("build", 3, 1), ("build", 5, 0), ("build", 7, 0), ("build", 9, 1), ("build", 15, 1),
        ("full", 5, 0), ("full", 9, 6),
        ("relative", 9, 0), ("relative", 15, 0),
        ("scaled", 9, 1), ("scaled", 15, 1),
        ("cosets", 9, 73), ("near-cosets", 9, 0), ("near-cosets", 15, 0),
    ],
)
def test_array_development_matches_scalar_stabilizers(name, n, fixed):
    f = cached_field(n)
    fam = {
        "build": build_family,
        "full": full_family,
        "relative": lambda f: build_relative_family(build_family(f)),
        "scaled": lambda f: _scaled_and_permuted(f, build_family(f), n),
        "cosets": lambda f: _kstar_cosets(f, whole=True),
        "near-cosets": lambda f: _kstar_cosets(f, whole=False),
    }[name](f)
    d = develop(fam)
    orders = [stabilizer_of(f, b).order for b in fam.base_blocks]
    assert d.replication.tolist() == orders
    assert d.length.tolist() == [(f.order - 1) // o for o in orders]
    assert orders.count(7) == fixed
    assert (d.slots == fam.slots).all() and d.lambda_claim == fam.lambda_claim


def test_verify_and_gdd_paths_build_no_orbit_objects(monkeypatch):
    f = cached_field(9)
    fam = build_family(f)
    d = develop(fam)
    for check in (verify_2design, check_qanalog, check_simple, Design.block_count):
        check(d)
    assert "orbits" not in d.__dict__ and "base_blocks" not in fam.__dict__
    rel = develop(build_relative_family(fam))
    spread = desarguesian_spread(f)
    verify_gdd(spread, rel)
    b"".join(gdd_json_chunks(spread, rel, {}))
    assert "orbits" not in rel.__dict__
    # the same through the CLI, with the object routes disabled

    def refuse(self):
        raise AssertionError("per-orbit objects built")

    monkeypatch.setattr(Design, "orbits", property(refuse))
    monkeypatch.setattr(DifferenceFamily, "base_blocks", property(refuse))
    for command in ("verify", "gdd"):
        assert cli.main([command, "--n", "9", "--out", os.devnull]) == 0


# n = 17: flat counter keys row * v + column pass 2^31
@pytest.mark.parametrize("n", [5, 7, 9, 17])
def test_verify_2design_passes(n):
    d = develop(build_family(cached_field(n)))
    rep = verify_2design(d)
    assert rep.passed
    assert rep.pair_coverage_min == rep.pair_coverage_max == 7
    assert rep.offending_pairs == ()
    assert d.block_count() * 42 == 7 * d.v * (d.v - 1)


def _design(f, orbits):
    """The array design over f of a sequence of Orbits, with index 7."""
    orbits = tuple(orbits)
    return Design(
        f,
        np.array([o.rep.elements for o in orbits], dtype=np.int32).reshape(-1, 7),
        np.array([o.length for o in orbits], dtype=np.int64),
        np.array([o.replication for o in orbits], dtype=np.int64),
        lambda_claim=7,
    )


def _full_counter(f, d):
    """The whole pair counter, rebuilt from the steps of the kernel, which
    must tile every row: each starts where the one before it stops."""
    v = f.order - 1
    counts = np.zeros(counter_shape(v), dtype=np.int64)
    expected_start = np.zeros(counter_shape(v)[0], dtype=np.int64)
    for r, a, b, c in zip(*(x.tolist() for x in pair_coverage_counts(f, d))):
        assert a == expected_start[r] < b <= v
        counts[r, a:b] = c
        expected_start[r] = b
    assert (expected_start == v).all()
    return counts


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
    _assert_counter_matches_oracle(f, d)


def _assert_counter_matches_oracle(f, d):
    counts = _full_counter(f, d)
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
    # 256 extra copies of an orbit leave every count at 7 mod 256: a
    # counter that wraps at 256 would see a pass
    f = cached_field(5)
    d = develop(build_family(f))
    o = d.orbits[0]
    d2 = _design(f, d.orbits + (Orbit(o.rep, o.length, 256),))
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
    d2 = _design(f, tuple(scaled_orbits))
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
    bad = _design(f, (Orbit(Block(bad_els, seed=bad_els[1]), f.order - 1, 1),) + d.orbits[1:])
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


# -- step-function kernel -----------------------------------------------------

def _partial_orbits(f, seed):
    """Orbits of the index-7 family cut to random lengths below v, with
    random replications: most of their runs wrap past column v - 1."""
    rng = random.Random(seed)
    v = f.order - 1
    return tuple(
        Orbit(o.rep, rng.randrange(1, v), rng.randrange(1, 4))
        for o in develop(build_family(f)).orbits
    )


def _wrapped_runs(f, orbits):
    """Number of (orbit, slot pair) runs that wrap past column v - 1."""
    v = f.order - 1
    rows = counter_shape(v)[0]
    wrapped = 0
    for o in orbits:
        logs = [int(f.logs[e]) for e in o.rep.elements]
        for i in range(7):
            for j in range(i + 1, 7):
                d = (logs[j] - logs[i]) % v
                start = logs[i] if d <= rows else logs[j]
                wrapped += o.length < v and start + o.length > v
    return wrapped


@pytest.mark.parametrize(
    "n,modulus",
    [(3, None), (5, None), (7, None), (9, None), (7, 0b10001001)],
    ids=["3", "5", "7", "9", "7-0x89"],
)
def test_wrapping_runs_match_materialized_counter(n, modulus):
    f = cached_field(n, modulus)
    d = develop(build_family(f))
    d = _design(f, _partial_orbits(f, n))
    assert _wrapped_runs(f, d.orbits) > 0
    _assert_counter_matches_oracle(f, d)


def _small_bands(f, orbits, width=3):
    """Each orbit cut into consecutive bands of `width` blocks: orbits whose
    representatives are the orbit's rep scaled by g^s, s = 0, width, ....
    One band's -w and the next one's +w fall on the same key."""
    exp2 = f.exp2
    return tuple(
        Orbit(
            Block(tuple(f.mul(int(exp2[s]), e) for e in o.rep.elements), o.rep.seed),
            min(width, o.length - s),
            o.replication,
        )
        for o in orbits
        for s in range(0, o.length, width)
    )


@pytest.mark.parametrize(
    "n,modulus",
    [(3, None), (5, None), (7, None), (9, None), (7, 0b10001001)],
    ids=["family-3", "family-5", "family-7", "family-9", "family-7-0x89"],
)
def test_small_bands_match_materialized_counter(n, modulus):
    # the family developed in 3-block bands: many runs, most of them
    # meeting the next at a shared key, several wrapping past column v - 1
    f = cached_field(n, modulus)
    d = develop(build_family(f))
    bands = _small_bands(f, d.orbits)
    assert len(bands) > len(d.orbits) or n == 3
    banded = _design(f, bands)
    assert sorted(map(sorted, materialize(banded))) == sorted(map(sorted, materialize(d)))
    counts = _full_counter(f, banded)
    oracle = materialized_pair_counts(materialize(d))
    got = {_pair_at(f, r, c): int(counts[r, c]) for r, c in np.ndindex(counts.shape)}
    assert got == {p: oracle[p] for p in got}
    assert set(oracle) <= set(got)
    assert verify_2design(banded).passed


def _designs_n9():
    f = cached_field(9)
    d = develop(build_family(f))
    o = d.orbits[0]
    return f, {
        "family": d,
        "dropped": _design(f, d.orbits[1:]),
        "partial": _design(f, _partial_orbits(f, 1)),
        "past-uint8": _design(f, d.orbits + (Orbit(o.rep, o.length, 256),)),
    }


@pytest.mark.parametrize("name", ["family", "dropped", "partial", "past-uint8"])
def test_exact_extremes_match_full_counter(name):
    f, designs = _designs_n9()
    d = designs[name]
    steps = pair_coverage_counts(f, d)
    assert steps.dtype == np.int64 and steps.shape[0] == 4
    row, count = steps[0], steps[3]
    rows = counter_shape(d.v)[0]
    lo, hi = np.full(rows, np.iinfo(np.int64).max), np.full(rows, np.iinfo(np.int64).min)
    np.minimum.at(lo, row, count)
    np.maximum.at(hi, row, count)
    counts = _full_counter(f, d)
    assert (lo == counts.min(axis=1)).all() and (hi == counts.max(axis=1)).all()
    rep = verify_2design(d)
    assert (rep.pair_coverage_min, rep.pair_coverage_max) == (counts.min(), counts.max())
    assert rep.passed is (name == "family")
    r, c = np.nonzero(counts != 7)
    pairs = sorted((_pair_at(f, int(i), int(j)), int(counts[i, j])) for i, j in zip(r, c))
    assert rep.offending_pairs == tuple(pairs[:10])


@pytest.mark.parametrize("name", ["dropped", "partial"])
def test_failing_check_builds_its_events_once(monkeypatch, name):
    # the ranges and the offenders are read from one step table
    f, designs = _designs_n9()
    calls = []
    events = design._events

    def counted(*args):
        calls.append(1)
        return events(*args)

    monkeypatch.setattr(design, "_events", counted)
    assert not verify_2design(designs[name]).passed
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["dropped", "partial", "past-uint8"])
def test_offenders_independent_of_chunk_size(monkeypatch, name):
    # chunks of 7 pairs: many steps split between chunks
    f, designs = _designs_n9()
    d = designs[name]
    whole = verify_2design(d).offending_pairs
    monkeypatch.setattr(design, "_OFFENDER_CHUNK", 7)
    assert verify_2design(d).offending_pairs == whole
    assert len(whole) == 10


def _scalar_simple(d):
    if any(o.replication != 1 for o in d.orbits):
        return False
    return len({canonical_orbit_label(d.ctx, o.rep) for o in d.orbits}) == len(d.orbits)


def _scalar_qanalog(d):
    return all(is_subspace_block(d.ctx, o.rep.elements) for o in d.orbits)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_array_orbit_checks_match_scalar_checks(n):
    f = cached_field(n)
    d = develop(build_family(f))
    assert check_simple(d) is _scalar_simple(d) is (n % 3 != 0)
    assert check_qanalog(d) is _scalar_qanalog(d) is True
    rng = random.Random(n)
    for o in rng.sample(d.orbits, min(3, len(d.orbits))):
        # an orbit again, as a scaled copy in another slot order: the
        # design repeats blocks
        t = rng.randrange(2, f.order)
        els = tuple(rng.sample([f.mul(t, e) for e in o.rep.elements], 7))
        twice = _design(f, d.orbits + (Orbit(Block(els, els[1]), o.length, 1),))
        assert check_simple(twice) is _scalar_simple(twice) is False
        # one element perturbed, staying nonzero: the representative is no subspace
        k = rng.randrange(7)
        flip = rng.choice([1 << b for b in range(n) if 1 << b != o.rep.elements[k]])
        bad_els = tuple(e ^ flip if i == k else e for i, e in enumerate(o.rep.elements))
        bad = _design(
            f,
            tuple(Orbit(Block(bad_els, bad_els[1]), o.length, o.replication)
                  if p is o else p for p in d.orbits),
        )
        assert check_qanalog(bad) is _scalar_qanalog(bad) is False
        assert check_simple(bad) is _scalar_simple(bad)
    # every orbit next to a scaled copy of itself in another slot order
    for o in d.orbits:
        t = rng.randrange(2, f.order)
        els = tuple(rng.sample([f.mul(t, e) for e in o.rep.elements], 7))
        pair = _design(f, (Orbit(o.rep, o.length, 1), Orbit(Block(els, els[1]), o.length, 1)))
        assert check_simple(pair) is _scalar_simple(pair) is False


def test_dropped_block_offenders_match_full_uint32_recount():
    f = cached_field(11)
    d = develop(build_family(f))
    crippled = _design(f, d.orbits[1:])
    rep = verify_2design(crippled)
    counts = _full_counter(f, crippled)
    r, c = np.nonzero(counts != 7)
    pairs = sorted((_pair_at(f, int(i), int(j)), int(counts[i, j])) for i, j in zip(r, c))
    assert not rep.passed
    assert (rep.pair_coverage_min, rep.pair_coverage_max) == (int(counts.min()), int(counts.max()))
    assert rep.offending_pairs == tuple(pairs[:10])
    assert len(pairs) > 10


def test_dropped_block_report_pinned_n15():
    # min, max and first ten offenders as recorded from the banded counter
    # this kernel replaced: pins the offender order above n = 11
    f = cached_field(15)
    d = develop(build_family(f))
    rep = verify_2design(_design(f, d.orbits[1:]))
    assert not rep.passed
    assert (rep.pair_coverage_min, rep.pair_coverage_max) == (4, 7)
    assert rep.offending_pairs == (
        ((1, 2), 4), ((1, 3), 4), ((1, 4), 6), ((1, 5), 6), ((1, 6), 6),
        ((1, 7), 6), ((1, 8192), 6), ((1, 8193), 6), ((1, 10922), 6), ((1, 10923), 6),
    )
