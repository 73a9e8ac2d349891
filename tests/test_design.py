"""Development and exhaustive 2-design verification tests.

The log-coordinate pair counter, rebuilt from both of its sources (the
design's fold for whole folds, the kernel's steps for the folds that
short orbits reach), is cross-checked exactly against a fully
materialized Counter-based count at desk scale (n <= 9), for the family
and for orbits cut short so that their runs wrap.
"""

import os
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qdf import (
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
    multiplicity_profile,
    pair_coverage_counts,
    verify_2design,
    verify_gdd,
)
from qdf import cli, design, family
from qdf.reference import is_subspace_block, stabilizer_of
from qdf.serialize import gdd_json_chunks
from oracles import cached_field, canonical_orbit_label, materialize, materialized_pair_counts


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
    assert frozenset(orb.rep) == kstar
    assert orb.length == 73 and orb.replication == 7
    assert d.block_count() == 85 * 511


def test_develop_counts_n3_degenerate():
    d = develop(build_family(cached_field(3)))
    assert len(d.orbits) == 1
    assert d.orbits[0].length == 1 and d.orbits[0].replication == 7
    assert d.block_count() == 7


def test_design_rejects_orbit_lengths_outside_1_to_v():
    # an orbit of 93 = 3 * 31 blocks at n = 5 would count 217 blocks and
    # pass verify_2design: the fold and the kernel take 1..v blocks an
    # orbit, each at least once, and the first row outside is named
    f = cached_field(5)
    d = develop(build_family(f))
    for row, length, replication in [(2, 93, 1), (0, 0, 1), (4, 31, 0), (1, 32, 7)]:
        m, w = d.length.copy(), d.replication.copy()
        m[row], w[row] = length, replication
        with pytest.raises(ValueError, match=f"^orbit row {row} has length {length} and "):
            Design(f, d.blocks, m, w, 7)
    # the ends of the ranges are designs
    m, w = d.length.copy(), d.replication.copy()
    m[0], w[1] = 1, 1000
    assert Design(f, d.blocks, m, w, 7).block_count() == 1 + 1000 * 31 + 3 * 31


def _scaled_and_permuted(f, fam, seed):
    """fam with every row scaled by one unit and put out of slot order."""
    rng = random.Random(seed)
    t = rng.randrange(2, f.order)
    rows = [rng.sample([f.mul(t, e) for e in row], 7) for row in fam.slots.tolist()]
    return DifferenceFamily(f, rows, fam.lambda_claim)


def _kstar_cosets(f, whole):
    """Rows of the K*-cosets {g^(a + k v/7)}, a < v/7, each with its last
    member g^(a + 6v/7) moved to g^(a + 6v/7 + 1) unless `whole`: five of
    the row's sorted logs then equal those of its translate by v/7."""
    m = (f.order - 1) // 7
    logs = np.arange(m)[:, None] + m * np.arange(7)
    if not whole:
        logs[:, 6] += 1
    return DifferenceFamily(f, f.exp[logs % (f.order - 1)], 7)


def _one_changed(f, rows, seed):
    """The rows with one element each, at a random slot, changed to a
    random other unit."""
    rng = random.Random(seed)
    rows = rows.copy()
    for row in rows:
        k = rng.randrange(7)
        t = rng.randrange(1, f.order - 1)
        row[k] = t + (t >= row[k])
    return DifferenceFamily(f, rows, 7)


def _repeated_point(fam):
    """fam with slot 6 of every row set to its slot 5."""
    rows = fam.slots.copy()
    rows[:, 6] = rows[:, 5]
    return DifferenceFamily(fam.ctx, rows, fam.lambda_claim)


@pytest.mark.parametrize(
    "name,n,fixed",
    [
        ("build", 3, 1), ("build", 5, 0), ("build", 7, 0), ("build", 9, 1), ("build", 15, 1),
        ("full", 5, 0), ("full", 9, 6),
        ("relative", 9, 0), ("relative", 15, 0),
        ("scaled", 9, 1), ("scaled", 15, 1),
        ("cosets", 9, 73), ("near-cosets", 9, 0), ("near-cosets", 15, 0),
        ("changed", 3, 0), ("changed", 9, 0), ("changed", 15, 0),
        ("repeated", 3, 0), ("repeated", 9, 0), ("repeated", 15, 0),
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
        # the family's rows and every K*-coset, each with one element changed
        "changed": lambda f: _one_changed(
            f, np.concatenate([build_family(f).slots, _kstar_cosets(f, whole=True).slots]), n
        ),
        # K*-cosets that repeat a point: six distinct elements, gaps 0 and 2v/7
        "repeated": lambda f: _repeated_point(_kstar_cosets(f, whole=True)),
    }[name](f)
    d = develop(fam)
    orders = [len(stabilizer_of(f, row)) for row in fam.slots.tolist()]
    assert d.replication.tolist() == orders
    assert d.length.tolist() == [(f.order - 1) // o for o in orders]
    assert orders.count(7) == fixed
    assert d.blocks is fam and d.lambda_claim == fam.lambda_claim


def test_verify_and_gdd_paths_build_no_orbit_objects(monkeypatch):
    f = cached_field(9)
    fam = build_family(f)
    d = develop(fam)
    for check in (verify_2design, check_qanalog, check_simple, Design.block_count):
        check(d)
    assert "orbits" not in d.__dict__
    rel = develop(build_relative_family(fam))
    verify_gdd(rel)
    b"".join(gdd_json_chunks(desarguesian_spread(f), rel, {}))
    assert "orbits" not in rel.__dict__
    # the same through the CLI, with the object routes disabled

    def refuse(self):
        raise AssertionError("per-orbit objects built")

    monkeypatch.setattr(Design, "orbits", property(refuse))
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
        DifferenceFamily(f, [o.rep for o in orbits], 7),
        np.array([o.length for o in orbits], dtype=np.int64),
        np.array([o.replication for o in orbits], dtype=np.int64),
        lambda_claim=7,
    )


def _full_counter(f, d):
    """The whole pair counter by fold, rebuilt from both sources: row f,
    column a counts {g^a, g^(a + f)} (row 0 a point with itself).  Every
    fold is d.fold[f] at each column, except where the kernel's steps
    tile it: each starts where the one before it stops."""
    v = f.order - 1
    counts = np.repeat(d.fold.astype(np.int64)[:, None], v, axis=1)
    expected_start = {}
    for g, a, b, c in zip(*(x.tolist() for x in pair_coverage_counts(f, d))):
        assert a == expected_start.get(g, 0) < b <= v
        counts[g, a:b] = c
        expected_start[g] = b
    assert set(expected_start.values()) <= {v}
    return counts


def _pair_at(f, fold, col):
    """The encoding pair (u, w), u < w, counted at (fold, col)."""
    x, y = int(f.exp[col]), int(f.exp[(col + fold) % (f.order - 1)])
    return min(x, y), max(x, y)


def _counted(f, counts):
    """{pair: count} of every pair of distinct points in a counter by fold."""
    return {_pair_at(f, g, c): int(counts[g, c]) for g in range(1, len(counts)) for c in range(f.order - 1)}


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
    assert counts.shape == (d.v // 2 + 1, d.v) and not counts[0].any()
    oracle = materialized_pair_counts(materialize(d))
    got = _counted(f, counts)
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
    crippled = DifferenceFamily(f, fam.slots[1:], lambda_claim=7)
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
        els = tuple(f.mul(t, e) for e in o.rep)
        scaled_orbits.append(Orbit(els, o.length, o.replication))
    d2 = _design(f, tuple(scaled_orbits))
    r1, r2 = verify_2design(d), verify_2design(d2)
    assert (r1.passed, r1.pair_coverage_min, r1.pair_coverage_max) == (
        r2.passed,
        r2.pair_coverage_min,
        r2.pair_coverage_max,
    )


@pytest.mark.parametrize("n", [5, 7])
def test_scaling_permutes_block_multiset(n):
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
    bad_els = d.orbits[0].rep[:-1] + (d.orbits[0].rep[-1] ^ 2,)
    bad = _design(f, (Orbit(bad_els, f.order - 1, 1),) + d.orbits[1:])
    assert not check_qanalog(bad)


@pytest.mark.parametrize("n,expected", [(5, True), (7, True), (3, False), (9, False)])
def test_check_simple(n, expected):
    assert check_simple(develop(build_family(cached_field(n)))) is expected


def test_log_coordinate_pair_map_is_bijective():
    for n in (3, 5, 7):
        f = cached_field(n)
        v = f.order - 1
        cells = {_pair_at(f, g, c): (g, c) for g in range(1, v // 2 + 1) for c in range(v)}
        assert len(cells) == v * (v - 1) // 2
        for u in range(1, v + 1):
            for w in range(u + 1, v + 1):
                d = (int(f.logs[w]) - int(f.logs[u])) % v
                cell = (d, int(f.logs[u])) if d <= v // 2 else (v - d, int(f.logs[w]))
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
    wrapped = 0
    for o in orbits:
        logs = [int(f.logs[e]) for e in o.rep]
        for i in range(7):
            for j in range(i + 1, 7):
                d = (logs[j] - logs[i]) % v
                start = logs[i] if d <= v // 2 else logs[j]
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
    return tuple(
        Orbit(
            tuple(f.mul(int(f.exp[s]), e) for e in o.rep),
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
    got = _counted(f, counts)
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
    # the family's steps are K*'s three folds; a partial design's reach many
    assert (set(steps[0].tolist()) == {73, 146, 219}) is (name != "partial")
    counts = _full_counter(f, d)[1:]
    rep = verify_2design(d)
    assert (rep.pair_coverage_min, rep.pair_coverage_max) == (counts.min(), counts.max())
    assert rep.passed is (name == "family")
    r, c = np.nonzero(counts != 7)
    pairs = sorted((_pair_at(f, int(i) + 1, int(j)), int(counts[i, j])) for i, j in zip(r, c))
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


@pytest.mark.parametrize(
    "command,n,rows",
    [("verify", 9, [85, 1]), ("verify", 13, [1365]), ("gdd", 9, [84])],
    ids=["verify-9", "verify-13", "gdd-9"],
)
def test_commands_fold_their_design_once(monkeypatch, command, n, rows):
    # the profile's one pass over the slots serves every verdict; the
    # design takes its fold from it, less the differences of K*'s orbit
    # when 3 | n (one short row)
    calls = []
    fold = family.folding

    def counted(fam, hist, weight=None):
        calls.append(len(fam))
        return fold(fam, hist, weight)

    monkeypatch.setattr(family, "folding", counted)
    monkeypatch.setattr(design, "folding", counted)
    assert cli.main([command, "--n", str(n), "--out", os.devnull]) == 0
    assert calls == rows


@pytest.mark.parametrize(
    "command,n,rows",
    [("verify", 9, [85]), ("verify", 13, [1365]), ("gdd", 9, [84])],
    ids=["verify-9", "verify-13", "gdd-9"],
)
def test_commands_scan_their_design_once(monkeypatch, command, n, rows):
    # develop's one orbit_scan serves the stabilizers and every orbit check
    calls = []
    scan = design.orbit_scan

    def counted(fam, **kwargs):
        calls.append(len(fam))
        return scan(fam, **kwargs)

    monkeypatch.setattr(design, "orbit_scan", counted)
    assert cli.main([command, "--n", str(n), "--out", os.devnull]) == 0
    assert calls == rows


def _last_row_in_a_met_groop(fam):
    """The slots of fam with slot 0 of the last row moved into the coset
    of K* of its slot 1: that row alone is no subspace, and meets a
    groop twice."""
    f, slots = fam.ctx, fam.slots.copy()
    slots[-1, 0] = f.exp[(f.logs[slots[-1, 1]] + (f.order - 1) // 7) % (f.order - 1)]
    return slots


@pytest.mark.parametrize(
    "name",
    ["family", "dropped", "partial", "past-uint8", "relative", "cosets", "last-row", "family-15"],
)
def test_scan_independent_of_chunk_size(monkeypatch, name):
    # the flags, hashes and verdicts of rows split into chunks of 1, 3 and
    # 7 rows; the n = 15 family is two chunks of the default size.  Every
    # family holds K*, which meets one groop 7 times.
    if name == "family-15":
        f = cached_field(15)
        slots = build_family(f).slots
        assert family._CHUNK_ROWS < len(slots) <= 2 * family._CHUNK_ROWS
    else:
        f, designs = _designs_n9()
        relative = build_relative_family(build_family(f))
        slots = {
            "relative": relative.slots,
            "cosets": _kstar_cosets(f, whole=True).slots,
            "last-row": _last_row_in_a_met_groop(relative),
        }.get(name, designs.get(name, designs["family"]).blocks.slots)
    whole = design.orbit_scan(DifferenceFamily(f, slots, 7))
    assert (whole.subspaces, whole.meets) == {
        "relative": (True, True), "last-row": (False, False)
    }.get(name, (True, False))
    for chunk in (1, 3, 7):
        monkeypatch.setattr(family, "_CHUNK_ROWS", chunk)
        part = design.orbit_scan(DifferenceFamily(f, slots, 7))
        assert np.array_equal(part.kstar, whole.kstar) and np.array_equal(part.hashes, whole.hashes)
        assert (part.subspaces, part.meets) == (whole.subspaces, whole.meets)


def _scan_fields(scan):
    return scan.kstar.tolist(), None if scan.hashes is None else scan.hashes.tolist(), scan[2:]


@pytest.mark.parametrize("chunk", [1, 5, 64])
@pytest.mark.parametrize("system", ["min", "max"])
@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_seed_chunks_give_the_verdicts_of_the_materialized_rows(monkeypatch, n, system, chunk):
    # a family held as seeds, read in chunks of 1, 5 and 64 rows, against
    # the same rows stored whole and read as one chunk: the profile, the K*
    # flags, the hashes, the subspace and meet verdicts of the whole scan
    # and of develop's, and the design's fold and verdicts
    f = cached_field(n)

    def families():
        fam = build_family(f, system=system)
        return [fam, build_relative_family(fam)] if n % 6 == 3 else [fam]

    def verdicts(fam):
        profile = multiplicity_profile(fam)
        hist = profile.hist.tolist()  # develop takes the histogram over
        d = develop(fam, profile)
        report = replace(verify_2design(d), timing=0.0)
        scans = [_scan_fields(design.orbit_scan(fam)), _scan_fields(d.scan)]
        return [hist, *scans, d.fold.tolist(), check_simple(d), report]

    want = [
        verdicts(DifferenceFamily(f, fam.slots, fam.lambda_claim, fam.forbidden))
        for fam in families()
    ]
    monkeypatch.setattr(family, "_CHUNK_ROWS", chunk)
    fams = families()
    assert all(fam.rows is None for fam in fams if len(fam) > chunk)
    assert [verdicts(fam) for fam in fams] == want


@pytest.mark.parametrize("name", ["dropped", "partial", "past-uint8"])
def test_offenders_independent_of_chunk_size(monkeypatch, name):
    # chunks of 7 pairs: many steps split between chunks
    f, designs = _designs_n9()
    d = designs[name]
    whole = verify_2design(d).offending_pairs
    monkeypatch.setattr(design, "_OFFENDER_CHUNK", 7)
    assert verify_2design(d).offending_pairs == whole
    assert len(whole) == 10


@pytest.mark.parametrize("n,events", [(3, 42), (5, 0), (7, 0), (9, 42), (11, 0), (13, 0), (15, 42)])
def test_only_short_runs_make_events(n, events):
    # a run over all v columns is in the design's fold alone; the only
    # orbit shorter than v is K*'s, when 3 | n, with two events for each
    # of its 21 runs (none of which wraps)
    f = cached_field(n)
    fam = build_family(f)
    d = develop(fam)
    keys, weights = design._events(d)
    # the fold read off the profile is the fold of the design
    assert np.array_equal(develop(fam, multiplicity_profile(fam)).fold, d.fold)
    v = f.order - 1
    assert len(keys) == len(weights) == events
    # the fold is 7 but at K*'s folds, the multiples of v/7 when 3 | n
    kstar = np.arange(v // 2 + 1) % (v // 7) == 0 if n % 3 == 0 else np.arange(v // 2 + 1) == 0
    assert (d.fold == np.where(kstar, 0, 7)).all()
    # the events of every fold sum to 0
    fold_sums = np.zeros(v // 2 + 1, dtype=np.int64)
    np.add.at(fold_sums, keys // (v + 1), weights)
    assert not fold_sums.any()


def test_develop_keeps_no_second_histogram():
    # at n = 15, 3 | n: K*'s differences leave the profile's histogram in
    # place, and the design's fold is that histogram.  What develop keeps
    # is its int64 length and replication and the K* flags, 17 B an orbit
    # (no hashes: K* fixes a row), with no copy of the 2^14 int32 folds
    f = cached_field(15)
    fam = build_family(f)
    profile = multiplicity_profile(fam)
    want = profile.hist.copy()
    want[(f.order - 1) // 7 :: (f.order - 1) // 7] -= 7  # K*'s 21 pairs, at the folds m, 2m, 3m
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        d = develop(fam, profile)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert d.fold is profile.hist and d.fold.tolist() == want.tolist()
    assert 17 * len(fam) <= kept < 17 * len(fam) + profile.hist.nbytes // 4


def test_kernel_peak_within_its_preflight_term():
    # with the fold taken from the profile, the pair count holds a
    # boolean mask over the folds and the int32 counts of those that must
    # be lam, ~2.5 B per element at n = 15 and 17 (K*'s steps at n = 15),
    # against the 2.5 B per element and 16 KiB that pair_count_bytes charges
    for n in (15, 17):
        f = cached_field(n)
        fam = build_family(f)
        d = develop(fam, multiplicity_profile(fam))
        tracemalloc.start()
        try:
            assert verify_2design(d).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= design.pair_count_bytes(n) == 5 * 2 ** (n - 1) + 2**14


def test_orbit_checks_peak_within_the_pair_count_term():
    # the orbit checks read the development's orbit_scan: check_qanalog
    # holds nothing, and check_simple a sorted copy of the hashes and a
    # boolean compare (9 B per orbit), within the term the preflight
    # charges for the largest stage after the development, the pair count's
    f = cached_field(17)
    d = develop(build_family(f))
    for check in (check_qanalog, check_simple):
        tracemalloc.start()
        try:
            assert check(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= design.pair_count_bytes(17), check.__name__


@pytest.mark.parametrize("name", ["family", "dropped", "partial", "past-uint8", "banded"])
def test_steps_independent_of_event_chunk(monkeypatch, name):
    f, designs = _designs_n9()
    d = designs[name] if name in designs else _design(f, _small_bands(f, designs["partial"].orbits))
    whole = pair_coverage_counts(f, d)
    for chunk in (1, 3):
        monkeypatch.setattr(design, "_EVENT_ORBITS", chunk)
        assert np.array_equal(pair_coverage_counts(f, d), whole)


@st.composite
def _cut_orbits(draw, n):
    """Orbits of the family at n mixed at random, each starting at a random
    block of its orbit and replicated 1..300 times: whole orbits of all v
    blocks, orbits cut to 1..v - 1 blocks (many wrapping past column
    v - 1, some stopping exactly there or running for v - 1 columns) and,
    when 3 | n, K*'s own orbit of v/7 blocks."""
    f = cached_field(n)
    v = f.order - 1
    d = develop(build_family(f))
    orbits = []
    for o in draw(st.lists(st.sampled_from(d.orbits), min_size=1, max_size=5)):
        s = draw(st.integers(0, v - 1))
        rep = tuple(f.mul(int(f.exp[s]), e) for e in o.rep)
        # the first column of one of its runs: the smaller log, or the
        # larger one when the pair's gap exceeds (v - 1) / 2
        li, lj = sorted(int(f.logs[e]) for e in draw(st.permutations(rep))[:2])
        first = li if lj - li <= v // 2 else lj
        lengths = [v, o.length, v - first, v - 1]
        length = draw(st.one_of(st.integers(1, v), st.sampled_from(lengths)))
        orbits.append(Orbit(rep, length, draw(st.integers(1, 300))))
    return f, orbits


def _oracle_counter(f, orbits):
    """The counter by fold of the materialized blocks of the orbits, each
    block's pairs counted by materialized_pair_counts, times the orbit's
    replication."""
    v = f.order - 1
    counts = np.zeros((v // 2 + 1, v), dtype=np.int64)
    for o in orbits:
        for (u, w), c in materialized_pair_counts(materialize(_design(f, [Orbit(o.rep, o.length, 1)]))).items():
            d = (int(f.logs[w]) - int(f.logs[u])) % v
            counts[(d, int(f.logs[u])) if d <= v // 2 else (v - d, int(f.logs[w]))] += c * o.replication
    return counts


@pytest.mark.parametrize("n", [3, 5, 7, 9])
@given(data=st.data())
def test_cut_orbits_match_materialized_counter(n, data):
    # every pair's count, from the design's fold where no short orbit
    # reaches and from the kernel's steps where one does
    f, orbits = data.draw(_cut_orbits(n))
    assert np.array_equal(_full_counter(f, _design(f, orbits)), _oracle_counter(f, orbits))


def _slot_pair_counter(f, d):
    """The counter by fold of every developed block's 21 slot pairs, a
    repeated point's pairs twice and the point with itself at fold 0."""
    v = f.order - 1
    counts = np.zeros((v // 2 + 1, v), dtype=np.int64)
    for rep, length, replication in d.orbit_rows():
        logs = [int(f.logs[e]) for e in rep]
        for s in range(length):
            for i in range(7):
                for j in range(i + 1, 7):
                    a, b = (logs[i] + s) % v, (logs[j] + s) % v
                    g = (b - a) % v
                    counts[(g, a) if g <= v // 2 else (v - g, b)] += replication
    return counts


@pytest.mark.parametrize("n", [5, 9], ids=["whole-orbit", "kstar-orbit"])
def test_repeated_point_fails_and_is_named(n):
    # slot 6 of one block set to its slot 5: the slot pair's log
    # difference 0 folds to the pairs of a point with itself, expected 0
    # (it once wrapped to the last row), and the point's pairs with the
    # other five slots count twice.  At n = 9 the row is K*'s, whose
    # orbit is shorter than v, so its runs go through the steps.
    f = cached_field(n)
    d = develop(build_family(f))
    row = int(np.flatnonzero(d.length < d.v)[0]) if n == 9 else 0
    slots = d.blocks.slots.copy()
    slots[row, 6] = slots[row, 5]
    bad = Design(f, DifferenceFamily(f, slots, 7), d.length, d.replication, 7)
    counts = _full_counter(f, bad)
    assert np.array_equal(counts, _slot_pair_counter(f, bad))
    assert counts[0].sum() == bad.length[row] * bad.replication[row]
    rep = verify_2design(bad)
    assert not rep.passed
    if n == 5:
        # the repeated point 1, with itself, leads the offenders
        assert (rep.pair_coverage_min, rep.pair_coverage_max) == (6, 9)
        assert rep.offending_pairs == (
            ((1, 1), 1), ((1, 2), 8), ((1, 3), 8), ((1, 6), 8), ((1, 7), 6),
            ((1, 10), 6), ((1, 12), 6), ((1, 13), 6), ((1, 14), 8), ((1, 15), 6),
        )
    else:
        # fold 0 is one of the steps, and a GDD's within-groop pairs hold it
        assert 0 in pair_coverage_counts(f, bad)[0]
        assert not verify_gdd(bad).checks["within_pair_coverage"]


def _scalar_simple(d):
    # no developed block repeats, whatever the rows' replication says:
    # counted in the blocks themselves at desk scale, and past it by each
    # orbit's label and its period, v over its stabilizer's order
    if d.ctx.n <= 9:
        blocks = materialize(d)
        return len(set(blocks)) == len(blocks)
    if any(w != 1 or m > d.v // len(stabilizer_of(d.ctx, r)) for r, m, w in d.orbit_rows()):
        return False
    return len({canonical_orbit_label(d.ctx, o.rep) for o in d.orbits}) == len(d.orbits)


def _scalar_qanalog(d):
    return all(is_subspace_block(d.ctx, o.rep) for o in d.orbits)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
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
        els = tuple(rng.sample([f.mul(t, e) for e in o.rep], 7))
        twice = _design(f, d.orbits + (Orbit(els, o.length, 1),))
        assert check_simple(twice) is _scalar_simple(twice) is False
        # one element perturbed, staying nonzero: the representative is no subspace
        k = rng.randrange(7)
        flip = rng.choice([1 << b for b in range(n) if 1 << b != o.rep[k]])
        bad_els = tuple(e ^ flip if i == k else e for i, e in enumerate(o.rep))
        bad = _design(
            f,
            tuple(Orbit(bad_els, o.length, o.replication) if p is o else p for p in d.orbits),
        )
        assert check_qanalog(bad) is _scalar_qanalog(bad) is False
        assert check_simple(bad) is _scalar_simple(bad)
    # every orbit next to a scaled copy of itself in another slot order
    for o in d.orbits:
        t = rng.randrange(2, f.order)
        els = tuple(rng.sample([f.mul(t, e) for e in o.rep], 7))
        pair = _design(f, (Orbit(o.rep, o.length, 1), Orbit(els, o.length, 1)))
        assert check_simple(pair) is _scalar_simple(pair) is False


def test_check_simple_reads_kstar_rows_not_their_replication():
    # K*'s orbit at n = 9 labelled as 511 blocks once each develops the same
    # blocks, 73 of them distinct: the same 2-design, and not simple
    f = cached_field(9)
    d = develop(build_family(f))
    kstar = d.scan.kstar
    ones = np.ones_like(d.replication)
    relabelled = Design(f, d.blocks, np.where(kstar, d.v, d.length), ones, 7)
    assert relabelled.block_count() == d.block_count()
    assert verify_2design(relabelled).passed
    assert check_simple(relabelled) is _scalar_simple(relabelled) is False
    # as its 73 distinct blocks once each, K*'s orbit alone is simple
    alone = Design(f, DifferenceFamily(f, d.blocks.take(kstar), 7), d.length[kstar], ones[:1], 7)
    assert check_simple(alone) is _scalar_simple(alone) is True


@st.composite
def _orbit_rows(draw):
    """A design of up to 14 rows at a degree 3..13: distinct orbits of the
    family, each as its representative, next to its mirror image (every
    element inverted, which reverses its gap sequence) or replaced by a
    scaled mirror image, and then 0, 1 or 2 scaled copies of these rows
    (repeats).  Every row is in a random slot order and keeps its
    orbit's replication, or every row is labelled as v blocks once each:
    either way K*'s orbit repeats its blocks when 3 | n."""
    n = draw(st.sampled_from([3, 5, 7, 9, 11, 13]))
    f = cached_field(n)
    orbits = develop(build_family(f)).orbits
    scale = lambda t, els: [f.mul(t, e) for e in els]
    units = st.integers(1, f.order - 1)
    rows = []
    for i in draw(st.lists(st.integers(0, len(orbits) - 1), min_size=1, max_size=6, unique=True)):
        els, w = orbits[i].rep, orbits[i].replication
        mirror = [f.inv(e) for e in els]
        kind = draw(st.sampled_from(["alone", "mirror", "scaled mirror"]))
        rows += {
            "alone": [(els, w)],
            "mirror": [(els, w), (mirror, w)],
            "scaled mirror": [(scale(draw(units), mirror), w)],
        }[kind]
    for k in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
        rows.append((scale(draw(units), rows[k][0]), rows[k][1]))
    v = f.order - 1
    relabelled = draw(st.booleans())
    shuffled = []
    for els, w in rows:
        els = tuple(draw(st.permutations(els)))
        shuffled.append(Orbit(els, v, 1) if relabelled else Orbit(els, v // w, w))
    return _design(f, shuffled)


@settings(max_examples=60)
@given(_orbit_rows())
def test_check_simple_matches_scalar_labels(d):
    # with the real hash, and with a constant one that sends every row
    # through the least rotations and the lexsort
    expected = _scalar_simple(d)
    assert check_simple(d) is expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(design, "_gap_hash", lambda gaps: np.zeros(len(gaps), dtype=np.int64))
        assert check_simple(d) is expected


@settings(max_examples=30)
@given(_orbit_rows())
def test_check_simple_labels_every_row_when_all_hashes_are_equal(d):
    # the constant hash in place before the design's orbit_scan runs: every
    # row is in one group of equal hashes and is labelled exactly
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(design, "_gap_hash", lambda gaps: np.zeros(len(gaps), dtype=np.int64))
        fresh = Design(d.ctx, d.blocks, d.length, d.replication, d.lambda_claim)
        assert not fresh.scan.hashes.any()
        assert check_simple(fresh) is _scalar_simple(d)


@st.composite
def _seven_elements(draw):
    """A field of degree 3..9 and 7 of its elements: a random 7-set of
    nonzero elements, the nonzero span of three independent elements in
    random order, or that span with one element changed (to any element,
    0 and the span's others included)."""
    f = cached_field(draw(st.sampled_from([3, 5, 7, 9])))
    q = f.order
    kind = draw(st.sampled_from(["random", "span", "changed"]))
    if kind == "random":
        return f, draw(st.lists(st.integers(1, q - 1), min_size=7, max_size=7, unique=True))
    a, b, c = draw(
        st.lists(st.integers(1, q - 1), min_size=3, max_size=3, unique=True)
        .filter(lambda x: x[2] != x[0] ^ x[1])
    )
    els = list(draw(st.permutations([a, b, a ^ b, c, c ^ a, c ^ b, c ^ a ^ b])))
    if kind == "changed":
        k = draw(st.integers(0, 6))
        els[k] = draw(st.integers(0, q - 1).filter(lambda e: e != els[k]))
    return f, els


@settings(derandomize=True, max_examples=300)
@given(_seven_elements())
@example((cached_field(3), [0, 1, 1, 2, 2, 3, 3]))  # the sorted span of s0 = 0, s1 and s3
def test_qanalog_of_one_row_matches_scalar_subspace_test(case):
    # subspaces pass, and the random sets and changed spans that fail
    # include rows with 0, with a repeated element, and with s2 != s0 + s1
    f, els = case
    d = Design(f, DifferenceFamily(f, [els], 7), np.array([f.order - 1]), np.ones(1, dtype=np.int64), 7)
    assert check_qanalog(d) is is_subspace_block(f, els)


def test_dropped_block_offenders_match_full_uint32_recount():
    f = cached_field(11)
    d = develop(build_family(f))
    crippled = _design(f, d.orbits[1:])
    rep = verify_2design(crippled)
    counts = _full_counter(f, crippled)[1:]
    r, c = np.nonzero(counts != 7)
    pairs = sorted((_pair_at(f, int(i) + 1, int(j)), int(counts[i, j])) for i, j in zip(r, c))
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
