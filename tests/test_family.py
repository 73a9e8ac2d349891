"""Difference-family tests: quotient lists, profiles, certificates.

The hand-coded verbatim quadratic forms and the mechanically derived
equations check each other; the brute-force profile is the oracle for
the certificate's 24 + 2*r(t) prediction.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdf import (
    DegenerateTError,
    DifferenceFamily,
    MATCHED_PAIRS,
    build_family,
    certificate_table,
    develop,
    full_family,
    hexagon_rows,
    is_irreducible,
    multiplicity_profile,
)
from qdf.blocks import block_slots
from qdf.family import EQUATION_FORMS
from qdf.reference import (
    _FORMS,
    QUADRATIC_PAIRS,
    SINGLE_SOLUTION_PAIRS,
    block_of,
    delta,
    delta_table,
    equation_certificate,
    pair_equation,
    pair_solution_count,
    predicted_multiplicity,
    solve_quadratic,
)
from oracles import cached_field, hexagons_by_scan

# (n, modulus): n = 3..11 with the default modulus, and a second one at n = 7
FIELDS = [(3, None), (5, None), (7, None), (7, 0x89), (9, None), (11, None)]

# The 18 ordered index pairs whose quotient equation is quadratic with a
# nonzero linear term.
EXPECTED_I_SET = frozenset(
    [
        (1, 6), (1, 7), (2, 5), (2, 7), (3, 4), (3, 7), (4, 3), (4, 7), (5, 2),
        (5, 7), (6, 1), (6, 7), (7, 1), (7, 2), (7, 3), (7, 4), (7, 5), (7, 6),
    ]
)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_delta_shape_and_symmetry(n):
    f = cached_field(n)
    for x in list(f.seeds())[:64]:
        d = delta(f, block_of(f, x).elements)
        assert len(d) == 42
        assert 1 not in d and 0 not in d
        c = Counter(d)
        for t, k in c.items():
            assert c[f.inv(t)] == k


def test_delta_of_subfield_block_n3():
    f = cached_field(3)
    c = Counter(delta(f, block_of(f, 2).elements))
    assert c == {t: 7 for t in range(2, 8)}


@pytest.mark.parametrize("n", [5, 7])
def test_delta_table_closed_forms(n):
    f = cached_field(n)
    for x in f.seeds():
        tab = delta_table(f, x)
        x2 = f.sqr(x)
        assert tab[1][0] == x and tab[2][1] == x
        assert tab[5][0] == x2 ^ x  # row x^2+x, column 1
        assert tab[1][3] == f.div(x, x ^ 1)
        assert all(tab[i][i] is None for i in range(7))
        flat = [tab[i][j] for i in range(7) for j in range(7) if i != j]
        assert Counter(flat) == Counter(delta(f, block_of(f, x).elements))


@pytest.mark.parametrize("n", [5, 7])
def test_delta_table_matches_reduced_fractions(n):
    # every entry equals the evaluated reduced fraction of slot polynomials
    from qdf.reference import _reduced_fraction

    f = cached_field(n)

    def evaluate(mask, x):
        acc = 0
        if mask & 1:
            acc ^= 1
        if mask & 2:
            acc ^= x
        if mask & 4:
            acc ^= f.sqr(x)
        return acc

    for x in list(f.seeds())[:20]:
        tab = delta_table(f, x)
        for i in range(1, 8):
            for j in range(1, 8):
                if i == j:
                    continue
                num, den = _reduced_fraction(i, j)
                assert tab[i - 1][j - 1] == f.div(evaluate(num, x), evaluate(den, x))


def test_quadratic_pair_bookkeeping():
    assert QUADRATIC_PAIRS == EXPECTED_I_SET
    assert len(SINGLE_SOLUTION_PAIRS) == 24
    flattened = [p for pair in MATCHED_PAIRS for p in pair]
    assert len(flattened) == 18 and frozenset(flattened) == EXPECTED_I_SET


@pytest.mark.parametrize("n", [5, 7, 9])
def test_verbatim_forms_agree_with_mechanical_derivation(n):
    f = cached_field(n)
    for t in f.seeds():
        for (i, j), (fa, fb, fc) in EQUATION_FORMS.items():
            verbatim = (_FORMS[fa](t), _FORMS[fb](t), _FORMS[fc](t))
            assert pair_equation(f, i, j, t) == verbatim


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_certificate_r_is_nine_with_good_matching(n):
    f = cached_field(n)
    for t in f.seeds():
        cert = equation_certificate(f, t)
        assert cert.r == 9
        assert cert.matching_ok
        assert all(e.count in (0, 2) for e in cert.equations)
        assert all(e.b != 0 for e in cert.equations)


def test_certificate_rejects_degenerate_t():
    f = cached_field(5)
    for t in (0, 1):
        with pytest.raises(DegenerateTError):
            equation_certificate(f, t)


def test_certificate_rejects_t_outside_the_field():
    # the first t outside 2 <= t < 2^n is named, and the ts are checked
    # before they are narrowed to int32 (2^32 + 3 would wrap to 3)
    f = cached_field(5)
    for ts, bad in (
        ([2, 40], 40), ([3, 32, 1], 32), ([-1], -1), ([2**32 + 3], 2**32 + 3),
        (range(2, 33), 32), (range(4, -1, -1), 1),
    ):
        with pytest.raises(DegenerateTError, match=f"got {bad}$"):
            certificate_table(f, ts)
    with pytest.raises(DegenerateTError, match="got 32$"):
        equation_certificate(f, 32)


def test_certificate_rejects_no_t():
    # an empty table has no keys to decode and no report to write
    f = cached_field(5)
    for ts in ([], range(2, 2), np.zeros(0, dtype=np.int32)):
        with pytest.raises(DegenerateTError, match="at least one t$"):
            certificate_table(f, ts)


def _orbit_keys():
    d = develop(build_family(cached_field(9)))
    return d.length * (int(d.replication.max()) + 1) + d.replication


_RANK_INPUTS = {
    "empty": lambda: np.zeros(0, dtype=np.int64),
    "one": lambda: np.array([7], dtype=np.int32),
    "equal": lambda: np.full(10, 42, dtype=np.int32),
    "keys": lambda: np.concatenate(
        ([2**18 - 1, 0], np.random.default_rng(24).integers(0, 2**18, 500))
    ).astype(np.int32),
    "orbits": _orbit_keys,
}


@pytest.mark.parametrize("chunk", [1, 3, None])
@pytest.mark.parametrize("name", list(_RANK_INPUTS))
def test_rank_matches_np_unique(monkeypatch, name, chunk):
    from qdf import family

    if chunk is not None:
        monkeypatch.setattr(family, "_KEY_CHUNK", chunk)
    values = _RANK_INPUTS[name]()
    distinct, which = family.rank(values)
    want, inverse = np.unique(values, return_inverse=True)
    assert distinct.dtype == values.dtype and np.array_equal(distinct, want)
    assert which.dtype == np.int32 and np.array_equal(which, inverse.reshape(-1))


def test_block_slots_of_a_range_peaks_no_higher_than_of_an_array():
    # a range becomes np.arange, not a Python int per seed first, so it
    # peaks where an int32 array made by the caller does; the 1 KiB allows
    # for Python objects
    import tracemalloc

    f = cached_field(15)

    def peak(seeds):
        tracemalloc.start()
        try:
            block_slots(f, seeds())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(f.seeds) <= peak(lambda: np.arange(2, f.order, dtype=np.int32)) + 2**10


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_worked_matching_pair_trace_identity(n):
    # Tr(1/t^2) + Tr((t+1)/t) is the trace of 1, hence 1, for every t
    f = cached_field(n)
    for t in f.seeds():
        lhs = f.trace(f.inv(f.sqr(t))) ^ f.trace(f.div(t ^ 1, t))
        assert lhs == 1


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_single_solution_pairs_count_one(n):
    f = cached_field(n)
    # tabulate delta values per (i, j) over all seeds: each t occurs once
    tables = {p: Counter() for p in SINGLE_SOLUTION_PAIRS}
    for x in f.seeds():
        tab = delta_table(f, x)
        for i, j in SINGLE_SOLUTION_PAIRS:
            tables[(i, j)][tab[i - 1][j - 1]] += 1
    for p, table in tables.items():
        for t in f.seeds():
            assert table[t] == 1
            assert pair_solution_count(f, *p, t) == 1


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_multiplicity_three_routes_agree(n):
    f = cached_field(n)
    profile = multiplicity_profile(full_family(f))
    for t in f.seeds():
        brute = profile.counts[t]
        by_equations = sum(
            pair_solution_count(f, i, j, t)
            for i in range(1, 8)
            for j in range(1, 8)
            if i != j
        )
        assert brute == by_equations == predicted_multiplicity(f, t) == 42


@pytest.mark.parametrize("n", [3, 5, 7])
def test_full_family_profile_constant_42(n):
    f = cached_field(n)
    fam = full_family(f)
    prof = multiplicity_profile(fam)
    assert prof.is_constant(42)
    assert prof.total() == len(fam.slots) * 42


@pytest.mark.parametrize("n,blocks", [(3, 1), (5, 5), (7, 21), (9, 85)])
def test_reduced_family_profile_constant_7(n, blocks):
    f = cached_field(n)
    fam = build_family(f)
    assert len(fam.slots) == blocks
    assert fam.lambda_claim == 7
    prof = multiplicity_profile(fam)
    assert prof.is_constant(7)
    assert prof.extremes() == (7, 7)
    assert prof.total() == blocks * 42


def test_build_family_n13_block_count():
    assert len(build_family(cached_field(13)).slots) == 1365


def test_family_n9_contains_exactly_one_subfield_block():
    f = cached_field(9)
    kstar = frozenset(t for t in f.subfield(3) if t)
    fam = build_family(f)
    assert sum(1 for row in fam.slots.tolist() if set(row) == kstar) == 1


def test_representative_systems_differ_but_cover_same_hexagons():
    f = cached_field(7)
    fam_min = build_family(f, system="min")
    fam_max = build_family(f, system="max")
    seeds_min, seeds_max = fam_min.slots[:, 1].tolist(), fam_max.slots[:, 1].tolist()
    assert seeds_min != seeds_max
    for smin, smax, h in zip(seeds_min, seeds_max, hexagons_by_scan(f)):
        assert smin == min(h)
        assert smax == max(h)
    with pytest.raises(ValueError):
        build_family(f, system="median")


def _delta_counts(fam) -> Counter:
    counts = Counter()
    for row in fam.slots.tolist():
        counts.update(delta(fam.ctx, row))
    return counts


def _mutants(fam):
    """The family with its middle block dropped, and with it duplicated."""
    blocks = fam.slots
    k = len(blocks) // 2
    return [
        DifferenceFamily(fam.ctx, np.delete(blocks, k, axis=0), fam.lambda_claim),
        DifferenceFamily(fam.ctx, np.concatenate([blocks, blocks[k : k + 1]]), fam.lambda_claim),
    ]


@pytest.mark.parametrize("n,modulus", FIELDS)
def test_profile_matches_delta_counter(n, modulus):
    # the histogram of slot log differences against a Counter over delta
    f = cached_field(n, modulus)
    good = [build_family(f), build_family(f, system="max"), full_family(f)]
    for fam in good + _mutants(good[0]):
        counts = _delta_counts(fam)
        profile = multiplicity_profile(fam)
        assert profile.counts.tolist() == [counts[t] for t in range(f.order)]
    for fam in _mutants(good[0]):
        profile = multiplicity_profile(fam)
        counts = _delta_counts(fam)
        offending = [t for t in f.seeds() if profile.counts[t] != 7]
        assert offending and offending == [t for t in f.seeds() if counts[t] != 7]
        assert not profile.is_constant(7)


@pytest.mark.parametrize("chunk", [1, 5, 20])
def test_profile_independent_of_histogram_chunking(monkeypatch, chunk):
    from qdf import family

    fam = full_family(cached_field(7))
    whole = multiplicity_profile(fam).counts
    monkeypatch.setattr(family, "_CHUNK_ROWS", chunk)
    assert multiplicity_profile(fam).counts.tolist() == whole.tolist()


@pytest.mark.parametrize("chunk", [1, 3, 7])
@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_chunked_profile_matches_delta_counter(monkeypatch, n, chunk):
    # odd chunk sizes leave a short last chunk; the fold of t onto v - t
    # is checked at every t, including the mutants' uneven counts
    from qdf import family

    monkeypatch.setattr(family, "_CHUNK_ROWS", chunk)
    f = cached_field(n)
    fams = [build_family(f), *_mutants(build_family(f))]
    if n <= 7:
        fams.append(full_family(f))
    for fam in fams:
        counts = _delta_counts(fam)
        assert multiplicity_profile(fam).counts.tolist() == [counts[t] for t in range(f.order)]


# Every irreducible modulus of each odd degree 3..11.
_MODULI = {
    n: [p for p in range((1 << n) | 1, 1 << (n + 1), 2) if is_irreducible(p)]
    for n in range(3, 12, 2)
}


@given(st.data(), st.sampled_from(sorted(_MODULI)), st.integers(1, 1 << 10), st.integers(1, 1 << 10))
def test_hexagons_and_profile_match_oracles_at_random_moduli(data, n, hexagon_chunk, profile_chunk):
    # chunks of seed pairs and of blocks, down to one of each
    from qdf import blocks, family

    f = cached_field(n, data.draw(st.sampled_from(_MODULI[n]), label="modulus"))
    with mock.patch.object(blocks, "_HEXAGON_CHUNK", hexagon_chunk), mock.patch.object(
        family, "_CHUNK_ROWS", profile_chunk
    ):
        assert [tuple(r) for r in hexagon_rows(f).tolist()] == hexagons_by_scan(f)
        fam = build_family(f)
        # rows of random units, repeats allowed, put quotients at t = 1
        row = st.lists(st.integers(1, f.order - 1), min_size=7, max_size=7)
        rows = DifferenceFamily(f, data.draw(st.lists(row, max_size=5), label="rows"), 7)
        for fam in (fam, *_mutants(fam), rows):
            counts = _delta_counts(fam)
            assert multiplicity_profile(fam).counts.tolist() == [counts[t] for t in range(f.order)]


@given(st.data(), st.sampled_from([5, 7, 9, 11]))
def test_folded_profile_matches_counts_and_delta_on_mutated_families(data, n):
    # one slot changed to any unit, a block dropped or a block duplicated,
    # in the family or, at n = 9, the relative family: extremes() and
    # is_constant read off the folded histogram agree with the counts by
    # encoding and with a Counter over delta, and the CSV and the relative
    # report render what the Counter says
    from qdf import build_relative_family, verify_relative
    from qdf.serialize import profile_csv_chunks, report_to_dict

    f = cached_field(n, data.draw(st.sampled_from(_MODULI[n]), label="modulus"))
    fam = build_family(f)
    if n % 6 == 3:
        fam = build_relative_family(fam)
    slots = fam.slots.copy()
    k = data.draw(st.integers(0, len(slots) - 1), label="block")
    mutation = data.draw(st.sampled_from(["slot", "drop", "duplicate"]), label="mutation")
    if mutation == "slot":
        slots[k, data.draw(st.integers(0, 6), label="slot")] = data.draw(
            st.integers(1, f.order - 1), label="unit"
        )
    elif mutation == "drop":
        slots = np.delete(slots, k, axis=0)
    else:
        slots = np.insert(slots, k, slots[k], axis=0)
    mutant = DifferenceFamily(f, slots, fam.lambda_claim, fam.forbidden)
    counts = _delta_counts(mutant)
    live = [counts[t] for t in f.seeds()]
    profile = multiplicity_profile(mutant)
    assert profile.counts[2:].tolist() == live
    assert profile.extremes() == (min(live), max(live))
    for value in {0, 7, min(live), max(live)}:
        assert profile.is_constant(value) == (min(live) == max(live) == value)
    csv = "".join(f"{t:0{(n + 3) // 4}x},{c}\n" for t, c in zip(f.seeds(), live))
    assert b"".join(profile_csv_chunks(profile, n)) == ("t_hex,count\n" + csv).encode("ascii")
    if mutant.forbidden:
        want = {t: 0 if t in mutant.forbidden else 7 for t in f.seeds()}
        offenders = [(t, counts[t]) for t in f.seeds() if counts[t] != want[t]][:10]
        outside = [counts[t] for t in f.seeds() if t not in mutant.forbidden]
        report = report_to_dict(verify_relative(mutant), n)
        assert report == {
            "pass": not offenders and min(outside) == max(outside) == 7,
            "pair_coverage_min": min(outside),
            "pair_coverage_max": max(outside),
            "offending_pairs": [{"t": f"{t:0{(n + 3) // 4}x}", "count": c} for t, c in offenders],
        }


@pytest.mark.parametrize("n,modulus", FIELDS)
def test_certificate_table_matches_solve_quadratic(n, modulus):
    # every t and all 18 forms against the scalar trace criterion, and the
    # decoded table against the certificate built equation by equation,
    # at every t for n <= 9
    f = cached_field(n, modulus)
    tab = certificate_table(f, f.seeds())
    assert tab.ts.tolist() == list(f.seeds())
    expected = [
        [
            solve_quadratic(f, _FORMS[fa](t), _FORMS[fb](t), _FORMS[fc](t)).count == 2
            for fa, fb, fc in EQUATION_FORMS.values()
        ]
        for t in f.seeds()
    ]
    assert tab.keys.dtype == np.int32
    assert tab.keys.tolist() == [sum(ok << c for c, ok in enumerate(row)) for row in expected]
    decoded, which = tab.decoded
    for t in list(f.seeds())[:: 1 if n <= 9 else f.order // 64]:
        cert = equation_certificate(f, t)
        assert [e.count == 2 for e in cert.equations] == expected[t - 2]
        solvable = tuple((e.i, e.j) for e in cert.equations if e.count)
        assert decoded[which[t - 2]] == (solvable, cert.r, cert.matching_ok)


@pytest.mark.parametrize("chunk", [5, 1 << 16])
@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_certificate_keys_match_equation_certificate_at_every_t(monkeypatch, n, chunk):
    # chunks of 5 ts, and of 5 entries of the 1 - Tr table, leave a short
    # last chunk of each
    from qdf import family

    monkeypatch.setattr(family, "_KEY_CHUNK", chunk)
    f = cached_field(n)
    tab = certificate_table(f, f.seeds())
    for t, key in zip(tab.ts.tolist(), tab.keys.tolist()):
        cert = equation_certificate(f, t)
        assert key == sum((e.count == 2) << c for c, e in enumerate(cert.equations))


@pytest.mark.parametrize("n,modulus", FIELDS)
def test_family_slots_match_block_of(n, modulus):
    f = cached_field(n, modulus)
    hexes = hexagons_by_scan(f)
    for system, pick in (("min", min), ("max", max)):
        fam = build_family(f, system)
        expected = [block_of(f, pick(h)) for h in hexes]
        assert fam.slots.dtype == np.int32
        assert fam.slots.tolist() == [list(b.elements) for b in expected]
    if n <= 9:
        fam = full_family(f)
        assert fam.slots.tolist() == [list(block_of(f, x).elements) for x in f.seeds()]
