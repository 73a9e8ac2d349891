"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every check is exact (zero tolerance); the only
stated budgets are wall-clock and memory bounds, asserted where given.
"""

import random
import time
import tracemalloc

import numpy as np
import pytest

from qdf import (
    build_family,
    build_relative_family,
    certificate_table,
    check_simple,
    desarguesian_spread,
    develop,
    full_family,
    multiplicity_profile,
    verify_2design,
    verify_gdd,
)
from qdf.reference import (
    equation_certificate,
    half_trace,
    hexagon_of,
    same_orbit,
    solve_quadratic,
    sqrt,
)
from oracles import cached_field, materialize


def _report(num: int, ok: bool, msg: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {msg}")


def test_criterion_01_full_family_profile_is_42():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 5, 7, 9):
        prof = multiplicity_profile(full_family(cached_field(n)))
        ok &= prof.extremes() == (42, 42)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(1, ok, f"all-seeds family has m(t)=42 for n in 3,5,7,9 ({elapsed:.2f}s)")
    assert ok


def test_criterion_02_reduced_family_profile_is_7():
    ok = True
    for n in (3, 5, 7, 9, 11):
        ok &= multiplicity_profile(build_family(cached_field(n))).extremes() == (7, 7)
    t0 = time.perf_counter()
    prof13 = multiplicity_profile(build_family(cached_field(13)))
    t13 = time.perf_counter() - t0
    ok &= prof13.extremes() == (7, 7)
    ok &= t13 < 60.0
    _report(2, ok, f"index-7 family profile constant for n up to 13 (n=13: {t13:.2f}s)")
    assert ok


def test_criterion_03_developed_designs_verify():
    ok = True
    details = []
    for n in (5, 7, 9, 11):
        rep = verify_2design(develop(build_family(cached_field(n))))
        ok &= rep.passed and rep.pair_coverage_min == rep.pair_coverage_max == 7
        details.append(f"n={n}:{rep.timing:.1f}s")
    d13 = develop(build_family(cached_field(13)))
    assert all(o.replication == 1 for o in d13.orbits)  # orbit-compressed storage
    tracemalloc.start()
    rep13 = verify_2design(d13)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    ok &= rep13.passed and rep13.pair_coverage_min == rep13.pair_coverage_max == 7
    ok &= rep13.timing < 300.0
    ok &= peak < 512 * 2**20
    details.append(f"n=13:{rep13.timing:.1f}s/{peak / 2**20:.0f}MiB")
    _report(3, ok, "2-(2^n-1,7,7) pair coverage exact for n in 5..13 (" + ", ".join(details) + ")")
    assert ok


def test_criterion_04_trace_certificates():
    # each t by the scalar route, and the same ts by the table that
    # `certify` reads
    ok = True
    for n in (3, 5, 7, 9):
        f = cached_field(n)
        for t in f.seeds():
            cert = equation_certificate(f, t)
            ok &= cert.r == 9 and cert.matching_ok
        ok &= all(r == 9 and m for _, r, m in certificate_table(f, f.seeds()).decoded[0])
    rng = random.Random(20250811)
    for n in (11, 13):
        f = cached_field(n)
        ts = []
        for _ in range(1000):
            t = rng.randrange(2, f.order)
            cert = equation_certificate(f, t)
            ok &= cert.r == 9 and cert.matching_ok
            ts.append(t)
        ok &= all(r == 9 and m for _, r, m in certificate_table(f, ts).decoded[0])
    _report(4, ok, "r(t)=9 with one solvable equation per match (exhaustive n<=9, 1000 random t at n=11,13)")
    assert ok


def test_criterion_05_simplicity_dichotomy():
    ok = True
    for n in (5, 7, 11, 13):
        ok &= check_simple(develop(build_family(cached_field(n)))) is True
    for n in (3, 9, 15):
        ok &= check_simple(develop(build_family(cached_field(n)))) is False
    _report(5, ok, "simple iff n = +-1 (mod 6): true at 5,7,11,13; false at 3,9,15")
    assert ok


def test_criterion_06_repeated_blocks_at_n9():
    f = cached_field(9)
    d = develop(build_family(f))
    kstar = frozenset(t for t in f.subfield(3) if t)
    special = [o for o in d.orbits if o.replication != 1]
    ok = len(special) == 1
    if ok:
        orb = special[0]
        ok &= frozenset(orb.rep) == kstar
        ok &= orb.length == 73 and orb.replication == 7
    from collections import Counter

    counter = Counter(materialize(d))
    repeated = {blk: c for blk, c in counter.items() if c > 1}
    ok &= len(repeated) == 73 and set(repeated.values()) == {7}
    _report(6, ok, "n=9: subfield orbit length 73 x replication 7; 73 blocks repeated 7 times")
    assert ok


def test_criterion_07_gdd_at_n9():
    f = cached_field(9)
    t0 = time.perf_counter()
    spread = desarguesian_spread(f)
    relative = build_relative_family(build_family(f))
    rep = verify_gdd(develop(relative))
    elapsed = time.perf_counter() - t0
    ok = len(spread) == 73
    ok &= rep.passed and rep.checks is not None and all(rep.checks.values())
    ok &= elapsed < 60.0
    _report(7, ok, f"n=9 GDD: 73 groops, all four checks pass ({elapsed:.2f}s)")
    assert ok


@pytest.mark.parametrize("n", [5, 7, 9])
def test_criterion_08_orbit_iff_hexagon(n):
    f = cached_field(n)
    seeds = list(f.seeds())
    hex_sets = {x: frozenset(hexagon_of(f, x)) for x in seeds}
    ok = True
    for i, x in enumerate(seeds):
        for y in seeds[i + 1 :]:
            ok &= same_orbit(f, x, y) == (y in hex_sets[x])
    _report(8, ok, f"n={n}: direct orbit search == hexagon criterion over all seed pairs")
    assert ok


def test_criterion_09_representative_independence():
    from collections import Counter

    ok = True
    for n in (5, 7):
        f = cached_field(n)
        dev_min = Counter(materialize(develop(build_family(f, system="min"))))
        dev_max = Counter(materialize(develop(build_family(f, system="max"))))
        ok &= dev_min == dev_max
    _report(9, ok, "n=5,7: min- and max-representative systems develop to the same multiset")
    assert ok


def _axioms_exhaustive(n: int) -> bool:
    f = cached_field(n)
    q = f.order
    table = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            table[a, b] = f.mul(a, b)
    idx = np.arange(q)
    ok = bool(np.array_equal(table, table.T))
    ab = table[idx[:, None, None], idx[None, :, None]]
    bc = table[idx[None, :, None], idx[None, None, :]]
    ok &= bool(np.array_equal(table[ab, idx[None, None, :]], table[idx[:, None, None], bc]))
    bxc = idx[None, :, None] ^ idx[None, None, :]
    ok &= bool(
        np.array_equal(
            table[idx[:, None, None], bxc],
            table[idx[:, None, None], idx[None, :, None]]
            ^ table[idx[:, None, None], idx[None, None, :]],
        )
    )
    ok &= all(table[a, f.inv(a)] == 1 for a in range(1, q))
    ok &= all(a ^ a == 0 for a in range(q))
    return ok


def _trace_identities_exhaustive(n: int) -> bool:
    f = cached_field(n)
    q = f.order
    tr = np.asarray([f.trace(x) for x in range(q)], dtype=np.uint8)
    xs = np.arange(q)
    ok = int(tr[1]) == 1 and int(tr[0]) == 0
    for lo in range(0, q, 1024):
        rows = xs[lo : lo + 1024, None]
        ok &= bool(np.array_equal(tr[rows ^ xs[None, :]], tr[rows] ^ tr[xs[None, :]]))
    sq = np.asarray([f.sqr(x) for x in range(q)])
    ok &= bool(np.array_equal(tr[sq], tr))
    return ok


def _half_trace_and_sqrt_exhaustive(n: int) -> bool:
    f = cached_field(n)
    ok = True
    for u in range(f.order):
        if f.trace(u) == 0:
            h = half_trace(f, u)
            ok &= (f.sqr(h) ^ h) == u
        ok &= f.sqr(sqrt(f, u)) == u
    return ok


def _solver_exhaustive(n: int) -> bool:
    f = cached_field(n)
    q = f.order
    ok = True
    for a in range(q):
        for b in range(q):
            for c in range(q):
                if a == 0 and b == 0:
                    continue
                out = solve_quadratic(f, a, b, c)
                if a == 0:
                    ok &= out.count == 1 and f.mul(b, out.roots[0]) == c
                    continue
                if b == 0:
                    ok &= out.count == 1
                else:
                    want = 0 if f.trace(f.div(f.mul(a, c), f.sqr(b))) else 2
                    ok &= out.count == want
                for x in out.roots:
                    ok &= (f.mul(a, f.sqr(x)) ^ f.mul(b, x) ^ c) == 0
                ok &= len(set(out.roots)) == out.count
    return ok


def _solver_randomized(n: int, samples: int) -> bool:
    f = cached_field(n)
    rng = random.Random(777 + n)
    q = f.order
    ok = True
    for _ in range(samples):
        a, b, c = rng.randrange(1, q), rng.randrange(1, q), rng.randrange(q)
        out = solve_quadratic(f, a, b, c)
        ok &= out.count == (0 if f.trace(f.div(f.mul(a, c), f.sqr(b))) else 2)
        for x in out.roots:
            ok &= (f.mul(a, f.sqr(x)) ^ f.mul(b, x) ^ c) == 0
    return ok


def test_criterion_10_property_suites():
    ok = all(_axioms_exhaustive(n) for n in (3, 5, 7))
    ok &= all(_trace_identities_exhaustive(n) for n in (3, 5, 7, 9, 11, 13))
    ok &= all(_half_trace_and_sqrt_exhaustive(n) for n in (3, 5, 7, 9, 11, 13))
    ok &= all(_solver_exhaustive(n) for n in (3, 5, 7))
    ok &= all(_solver_randomized(n, 100_000) for n in (11, 13))
    _report(
        10,
        ok,
        "field axioms (exhaustive n<=7), trace/half-trace/sqrt identities (n<=13), "
        "solver exact (exhaustive n<=7, 1e5 random triples at n=11,13)",
    )
    assert ok
