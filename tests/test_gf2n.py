"""Field arithmetic tests against independent schoolbook oracles."""

import json
import random
from types import SimpleNamespace

import numpy as np
import pytest

from qdf import (
    AllZeroCoefficientsError,
    EvenDegreeError,
    GF2n,
    NotADivisorError,
    QdfError,
    ReduciblePolynomialError,
    ZeroInverseError,
    is_irreducible,
    smallest_irreducible,
)
from qdf import gf2n
from qdf.cli import HARD_N_CEILING
from qdf.family import quotient_log
from qdf.gf2n import poly_powmod, walk, wrap_log
from qdf.reference import block_of, half_trace, hexagon_of, solve_quadratic, sqrt
from oracles import (
    brute_inverse,
    cached_field,
    exp_by_doubling,
    frobenius_tables,
    is_irreducible_by_trial,
    mul_interleaved,
    power_walk,
    schoolbook_mul,
    smallest_irreducible_by_products,
    trace_by_power_sum,
)

# Frozen via the product-enumeration oracle below (cross-checked for
# n <= 13) and an external factorization table.
FROZEN_MODULI = {
    3: 0b1011,
    5: 0b100101,
    7: 0b10000011,
    9: 0b1000000011,
    11: 0b100000000101,
    13: 0b10000000011011,
    15: 0b1000000000000011,
}


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
def test_default_modulus_is_frozen_value(n):
    assert cached_field(n).modulus == FROZEN_MODULI[n]


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_default_modulus_matches_product_oracle(n):
    assert smallest_irreducible(n) == smallest_irreducible_by_products(n)


def test_even_degree_rejected():
    with pytest.raises(EvenDegreeError):
        GF2n(2)
    with pytest.raises(EvenDegreeError):
        GF2n(4)
    with pytest.raises(QdfError):
        GF2n(1)


def test_supplied_modulus_validated():
    # z^3 + z^2 + z + 1 has the root 1
    with pytest.raises(ReduciblePolynomialError):
        GF2n(3, 0b1111)
    with pytest.raises(QdfError):
        GF2n(3, 0b10011)  # degree 4
    # a negative mask has the bit length of its magnitude; the search for
    # a factor of one never ended
    for n, modulus in ((3, -9), (3, -11), (7, -0x89)):
        with pytest.raises(QdfError, match=f"modulus -0x{-modulus:x} is negative"):
            GF2n(n, modulus)
        assert not is_irreducible(modulus)
    assert GF2n(3, 0b1011).modulus == 0b1011
    # z^5 + z^3 + 1, a non-default irreducible choice
    f = GF2n(5, 0b101001)
    assert f.modulus == 0b101001
    assert all(f.mul(a, f.inv(a)) == 1 for a in range(1, 32))


def test_is_irreducible_matches_trial_division_by_every_polynomial():
    # odd divisors only, even ones skipped: every polynomial below z^14,
    # the even and the negative among them, against dividing by each q
    for p in range(-3, 1 << 14):
        assert is_irreducible(p) is is_irreducible_by_trial(p), p


def test_is_irreducible_small_cases():
    assert is_irreducible(0b10)  # z
    assert is_irreducible(0b11)  # z + 1
    assert is_irreducible(0b111)  # z^2 + z + 1
    assert not is_irreducible(0b110)
    assert not is_irreducible(0b1111)
    assert not is_irreducible(1)
    assert not is_irreducible(0)


def test_mul_examples():
    f = cached_field(3)
    assert f.mul(0b010, 0b100) == 0b011  # alpha * alpha^2 = alpha + 1
    for a in range(8):
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0


@pytest.mark.parametrize("n", [3, 5, 7])
def test_mul_matches_schoolbook_exhaustive(n):
    f = cached_field(n)
    for a in range(f.order):
        for b in range(f.order):
            assert f.mul(a, b) == schoolbook_mul(a, b, n, f.modulus)


def test_inv_examples():
    f = cached_field(3)
    assert f.inv(1) == 1
    assert f.inv(0b010) == 0b101 == brute_inverse(0b010, 3, f.modulus)
    with pytest.raises(ZeroInverseError):
        f.inv(0)
    with pytest.raises(ZeroInverseError):
        f.div(3, 0)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_inv_exhaustive(n):
    f = cached_field(n)
    for a in range(1, f.order):
        assert f.mul(a, f.inv(a)) == 1
        assert f.div(f.mul(a, 5), a) == 5


@pytest.mark.parametrize("n", [3, 5, 7])
def test_field_axioms_exhaustive(n):
    f = cached_field(n)
    q = f.order
    table = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            table[a, b] = f.mul(a, b)
    assert np.array_equal(table, table.T)  # commutativity
    idx = np.arange(q)
    # associativity over all triples
    ab = table[idx[:, None, None], idx[None, :, None]]
    bc = table[idx[None, :, None], idx[None, None, :]]
    assert np.array_equal(table[ab, idx[None, None, :]], table[idx[:, None, None], bc])
    # distributivity over all triples: a*(b+c) == a*b + a*c
    bxc = idx[None, :, None] ^ idx[None, None, :]
    assert np.array_equal(
        table[idx[:, None, None], bxc],
        table[idx[:, None, None], idx[None, :, None]]
        ^ table[idx[:, None, None], idx[None, None, :]],
    )
    # inverses exist and are unique
    for a in range(1, q):
        assert sorted(table[a, 1:]) == list(range(1, q))  # a* permutes units
        assert table[a, f.inv(a)] == 1


def test_trace_examples():
    for n in (3, 5, 7, 9, 11, 13):
        assert cached_field(n).trace(1) == 1
        assert cached_field(n).trace(0) == 0
    assert cached_field(3).trace(0b010) == 0  # alpha + alpha^2 + alpha^4 = 0


@pytest.mark.parametrize("n", [3, 5, 9])
def test_trace_matches_power_sum_oracle(n):
    f = cached_field(n)
    for x in range(f.order):
        assert f.trace(x) == trace_by_power_sum(x, n, f.modulus)


@pytest.mark.parametrize("n,modulus", [(7, 0x91), (9, 0x217)])
def test_trace_is_the_parity_of_a_mask_of_three_bits(n, modulus):
    # the default moduli give trace masks of at most two bits, which do not
    # tell the parity of a & trace_mask from other functions of its bits
    f = GF2n(n, modulus)
    assert bin(f.trace_mask).count("1") >= 3
    for x in range(f.order):
        assert f.trace(x) == trace_by_power_sum(x, n, modulus)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_trace_identities_exhaustive(n):
    f = cached_field(n)
    q = f.order
    tr = np.asarray([f.trace(x) for x in range(q)], dtype=np.uint8)
    xs = np.arange(q)
    # additivity over all pairs, in row chunks
    for lo in range(0, q, 1024):
        rows = xs[lo : lo + 1024, None]
        assert np.array_equal(tr[rows ^ xs[None, :]], tr[rows] ^ tr[xs[None, :]])
    # Frobenius invariance
    sq = np.asarray([f.sqr(x) for x in range(q)])
    assert np.array_equal(tr[sq], tr)
    assert int(tr[1]) == 1


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_half_trace_identity_exhaustive(n):
    f = cached_field(n)
    for u in range(f.order):
        if f.trace(u) == 0:
            h = half_trace(f, u)
            assert f.sqr(h) ^ h == u


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_sqrt_roundtrip_exhaustive(n):
    f = cached_field(n)
    for x in range(f.order):
        assert f.sqr(sqrt(f, x)) == x
        assert sqrt(f, f.sqr(x)) == x


@pytest.mark.parametrize("n", [15, 17, 19])
def test_linear_tables_match_frobenius_oracle(n):
    f = GF2n(n)
    q = f.order
    want = frobenius_tables(f.exp, f.logs, n)
    assert f.trace_mask == sum(int(want["trace"][1 << i]) << i for i in range(n))
    assert np.array_equal(np.fromiter(map(f.trace, range(q)), np.int64, q), want["trace"])
    assert np.array_equal(np.fromiter((sqrt(f, x) for x in range(q)), np.int64, q), want["sqrt"])
    h = np.fromiter((half_trace(f, u) for u in range(q)), np.int64, q)
    assert np.array_equal(h, want["half_trace"])
    # H(u)^2 + H(u) = u for every trace-0 u
    sq, x = want["sq"], np.arange(q)
    zero = want["trace"] == 0
    assert np.array_equal((sq[h] ^ h)[zero], x[zero])
    # subfield(d) is the fixed points of d squarings
    for d in (d for d in range(1, n + 1) if n % d == 0):
        cur = x
        for _ in range(d):
            cur = sq[cur]
        assert f.subfield(d) == np.flatnonzero(cur == x).tolist()


@pytest.mark.parametrize("n", [3, 9, 13])
def test_trace_and_sqrt_tables_built_on_first_use(n):
    # the field keeps its trace as one int, bit i the trace of z^i, and no
    # sqrt or half-trace table, which qdf.reference builds on first use
    f = GF2n(n)
    want = frobenius_tables(f.exp, f.logs, n)
    q = f.order
    assert type(f.trace_mask) is int
    assert f.trace_mask == sum(int(want["trace"][1 << i]) << i for i in range(n))
    assert np.array_equal(np.fromiter(map(f.trace, range(q)), np.int64, q), want["trace"])
    assert np.array_equal(np.fromiter((sqrt(f, x) for x in range(q)), np.int64, q), want["sqrt"])
    assert not {"sqrt", "half_trace", "solve_quadratic"} & set(dir(f))


@pytest.mark.parametrize("n", [17, 19])
def test_scalar_api_returns_python_ints(n):
    f = cached_field(n)
    a, b = 6, 11
    u = next(x for x in range(2, f.order) if f.trace(x) == 0)
    values = [
        f.mul(a, b), f.sqr(a), f.inv(a), f.div(a, b),
        sqrt(f, a), f.trace(a), half_trace(f, u), half_trace(f, a),
    ]
    for coeffs in ((1, 1, u), (0, b, a), (a, 0, b)):
        values += solve_quadratic(f, *coeffs).roots
    values += block_of(f, a).elements + hexagon_of(f, a)
    assert all(type(v) is int for v in values), [type(v) for v in values]
    assert solve_quadratic(f, 1, 1, u).count == 2
    json.dumps(block_of(f, a).elements)


def test_solve_quadratic_examples():
    f = cached_field(5)
    out = solve_quadratic(f, 1, 1, 0)
    assert out.count == 2 and out.roots == (0, 1)
    for n in (3, 5, 7, 9, 11, 13):
        assert solve_quadratic(cached_field(n), 1, 1, 1).count == 0
    # b = 0: unique square root
    for c in range(f.order):
        out = solve_quadratic(f, 1, 0, c)
        assert out.count == 1 and f.sqr(out.roots[0]) == c
    # degenerate linear case
    out = solve_quadratic(f, 0, 7, 12)
    assert out.count == 1 and out.roots == (f.div(12, 7),)
    with pytest.raises(AllZeroCoefficientsError):
        solve_quadratic(f, 0, 0, 0)
    assert solve_quadratic(f, 0, 0, 9).count == 0


def _check_solution(f, a, b, c, out):
    for x in out.roots:
        assert f.mul(a, f.sqr(x)) ^ f.mul(b, x) ^ c == 0
    assert len(set(out.roots)) == out.count


@pytest.mark.parametrize("n", [3, 5])
def test_solve_quadratic_exhaustive(n):
    f = cached_field(n)
    q = f.order
    for a in range(1, q):
        for b in range(1, q):
            for c in range(q):
                out = solve_quadratic(f, a, b, c)
                want = 0 if f.trace(f.div(f.mul(a, c), f.sqr(b))) else 2
                assert out.count == want
                _check_solution(f, a, b, c, out)


@pytest.mark.parametrize("n", [11, 13])
def test_solve_quadratic_randomized(n):
    f = cached_field(n)
    rng = random.Random(20_250_811 + n)
    q = f.order
    for _ in range(20_000):
        a, b, c = rng.randrange(1, q), rng.randrange(1, q), rng.randrange(q)
        out = solve_quadratic(f, a, b, c)
        assert out.count == (0 if f.trace(f.div(f.mul(a, c), f.sqr(b))) else 2)
        _check_solution(f, a, b, c, out)


def test_subfield_prime_field():
    assert cached_field(9).subfield(1) == [0, 1]


def test_subfield_order_8_inside_n9():
    f = cached_field(9)
    sub = f.subfield(3)
    assert len(sub) == 8
    # independent check: fixed points of three schoolbook squarings
    for x in range(f.order):
        cur = x
        for _ in range(3):
            cur = schoolbook_mul(cur, cur, 9, f.modulus)
        assert (cur == x) == (x in sub)
    subset = set(sub)
    assert all(a ^ b in subset for a in sub for b in sub)
    assert all(f.mul(a, b) in subset for a in sub for b in sub)


def test_subfield_rejects_non_divisor():
    with pytest.raises(NotADivisorError):
        cached_field(5).subfield(3)
    with pytest.raises(NotADivisorError):
        cached_field(9).subfield(0)


def test_subfield_sizes_n15():
    f = cached_field(15)
    assert [len(f.subfield(d)) for d in (1, 3, 5, 15)] == [2, 8, 32, 1 << 15]


def test_element_ranges():
    assert list(cached_field(3).seeds()) == list(range(2, 8))


def test_field_equality_and_repr():
    assert cached_field(5) == GF2n(5) and hash(cached_field(5)) == hash(GF2n(5))
    assert cached_field(5) != GF2n(5, 0b101001)
    assert "GF2n" in repr(cached_field(5))


def _moduli(n: int, count: int) -> list[int]:
    return [p for p in range((1 << n) | 1, 1 << (n + 1), 2) if is_irreducible(p)][:count]


# z has order 23 = 2047/89 modulo 0xae3 and order 1057 = 32767/31 modulo
# 0x81d5: the generator search must test every prime factor of 2^n - 1,
# not only the smallest.
@pytest.mark.parametrize(
    "n,modulus",
    [(n, p) for n in (3, 5, 7, 9, 11, 13, 15) for p in _moduli(n, 3)]
    + [(11, 0xAE3), (15, 0x81D5), (17, None), (19, None)],
)
def test_tables_match_scalar_power_walk(n, modulus):
    f = GF2n(n, modulus)
    g, exp, log = power_walk(n, f.modulus)
    assert f.generator == g
    assert f.exp.tolist() == exp
    assert f.logs.tolist() == log


def test_corrupted_exp_table_is_rejected(monkeypatch):
    # multiply-by-constant tables that are two-to-one repeat powers, so
    # some unit gets no log: every table at n = 7, and at n = 13, with g =
    # 2's scalar steps intact, only the tables of the powers of g that the
    # walk steps by, and at n = 9 in chunks of 64 only the tables of g^64,
    # which map the first chunk to every later one
    assert cached_field(13).generator == 2
    times = gf2n._times
    for n, chunk, corrupt in (
        (7, None, lambda c: True),
        (13, None, lambda c: c != 2),
        (9, 64, lambda c: c == cached_field(9).power(64)),
    ):
        if chunk:
            monkeypatch.setattr(gf2n, "_WALK_CHUNK", chunk)
        monkeypatch.setattr(
            gf2n,
            "_times",
            lambda c, m, count=0: [x & ~1 for x in times(c, m, count)] if corrupt(c) and not count else times(c, m, count),
        )
        with pytest.raises(AssertionError, match="permutation"):
            GF2n(n)
        monkeypatch.setattr(gf2n, "_times", times)
        assert GF2n(n).logs.tolist() == cached_field(n).logs.tolist()


@pytest.mark.parametrize("chunk", [1, 3, 7, 64])
def test_chunked_log_scatter_matches_one_shot(monkeypatch, chunk):
    # logs scattered a walk chunk of `chunk` powers at a time equal one
    # scatter of the whole exp table, and a walk corrupted only in the
    # tables that take one chunk to the next, past the first, is rejected
    f = cached_field(7)
    one_shot = np.full(f.order, -1, dtype=np.int32)
    one_shot[f.exp] = np.arange(f.order - 1, dtype=np.int32)
    monkeypatch.setattr(gf2n, "_WALK_CHUNK", chunk)
    assert GF2n(7).logs.tolist() == one_shot.tolist() == f.logs.tolist()
    times_chunk, step = gf2n._times_chunk, f.power(chunk)

    def corrupted(c, m):
        times = times_chunk(c, m)
        return (lambda x, out, tmp: np.bitwise_and(times(x, out, tmp), ~1, out=out)) if c == step else times

    monkeypatch.setattr(gf2n, "_times_chunk", corrupted)
    with pytest.raises(AssertionError, match="permutation"):
        GF2n(7)


@pytest.mark.parametrize("walk", [None, 1])
@pytest.mark.parametrize("chunk", [1, 3, 7, 64])
@pytest.mark.parametrize("n,modulus", [(7, None), (9, None), (11, 0xAE3), (13, None)])
def test_chunked_exp_doubling_matches_power_walk(monkeypatch, n, modulus, chunk, walk):
    # the powers walked `chunk` at a time, the exp table that the field
    # builds on first read from them and the logs it scatters, equal the
    # scalar power walk; with walk = 1 only the first power is scalar, so
    # the first chunk too is walked, one power per step and then by
    # eighths.  The generator is 7 at n = 9 and 0xae3's is not 2 either.
    monkeypatch.setattr(gf2n, "_WALK_CHUNK", chunk)
    if walk is not None:
        monkeypatch.setattr(gf2n, "_SCALAR_STEPS", walk)
    f = GF2n(n, modulus)
    g, exp, log = power_walk(n, f.modulus)
    assert f.generator == g
    assert f.exp.tolist() == exp
    assert f.logs.tolist() == log


@pytest.mark.parametrize("chunk", [1, 7, 64, None])
@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
def test_walk_matches_the_doubling_oracle(monkeypatch, n, chunk):
    # the walk in chunks of 1, 7, 64 and the default 2^13 powers, plain and
    # paired with the inverses, against the exp table by doubling: the
    # default chunk holds the whole table up to n = 13, the others cut it
    if chunk is not None:
        monkeypatch.setattr(gf2n, "_WALK_CHUNK", chunk)
    f = GF2n(n)
    v = f.order - 1
    exp = exp_by_doubling(f.generator, f.modulus)
    size = min(chunk or 1 << 13, v)
    got = [(k, x.copy()) for k, x in walk(f, 0, v)]
    assert [k for k, _ in got] == list(range(0, v, size))
    assert np.concatenate([x for _, x in got]).tolist() == exp.tolist()
    # from any start, with a last chunk cut short
    assert np.concatenate([x.copy() for _, x in walk(f, v // 3, v // 3 + v // 2)]).tolist() == exp[v // 3 : v // 3 + v // 2].tolist()
    pairs = [(k, x.copy(), y.copy()) for k, x, y in walk(f, 1, v // 2 + 1, inverses=True)]
    ks = np.arange(1, v // 2 + 1)
    assert np.concatenate([x for _, x, _ in pairs]).tolist() == exp[ks].tolist()
    assert np.concatenate([y for _, _, y in pairs]).tolist() == exp[v - ks].tolist()
    want = np.full(f.order, -1)
    want[exp] = np.arange(v)
    assert f.logs.tolist() == want.tolist() and f.exp.tolist() == exp.tolist()
    # the trace and the squaring tables, against whole-field Frobenius passes
    tables = frobenius_tables(exp, f.logs, n)
    assert f.trace_mask == sum(int(tables["trace"][1 << i]) << i for i in range(n))
    x = np.arange(f.order)
    lo, hi = f.squares
    assert (lo[x & len(lo) - 1] ^ hi[x >> (n + 1) // 2]).tolist() == tables["sq"].tolist()
    assert [f.sqr(a) for a in range(f.order)] == tables["sq"].tolist()


def _bare_field(n: int):
    """What the walk reads of a field, with no table: its first powers, and
    g^k by poly_powmod, for n past any field a test builds."""
    m = smallest_irreducible(n)
    v = (1 << n) - 1
    g = next(x for x in range(2, 1 << n) if all(poly_powmod(x, v // p, m) != 1 for p in gf2n._prime_factors(v)))
    first = gf2n._first_powers(g, m, gf2n._WALK_CHUNK)
    return SimpleNamespace(order=1 << n, modulus=m, _first=first, power=lambda k: poly_powmod(g, k % v, m)), g


def _scalar_powers(g: int, m: int, n: int, k: int, count: int) -> list[int]:
    x, out = poly_powmod(g, k, m), []
    for _ in range(count):
        out.append(x)
        x = mul_interleaved(x, g, n, m)
    return out


@pytest.mark.parametrize("n", [25, 29])
def test_walk_reaches_the_last_powers_past_the_built_fields(n):
    # the whole walk at n = 25 and 29, 4,096 and 65,536 chunks, ends at
    # g^(v - 1): the powers of its last chunk, and those of the paired walk
    # up to v/2, equal scalar multiplies from poly_powmod, with no table
    ctx, g = _bare_field(n)
    m, v = ctx.modulus, ctx.order - 1
    for k, x in walk(ctx, 0, v):
        pass
    assert k == v - v % (1 << 13) and x.tolist() == _scalar_powers(g, m, n, k, v - k)
    start = v // 2 - 3 * (1 << 13) - 5 if n == 29 else 1
    for k, x, y in walk(ctx, start, v // 2 + 1, inverses=True):
        pass
    assert x.tolist() == _scalar_powers(g, m, n, k, v // 2 + 1 - k)
    assert y.tolist() == _scalar_powers(g, m, n, v - v // 2, v // 2 + 1 - k)[::-1]


@pytest.mark.parametrize("n", [HARD_N_CEILING, 29])
def test_wrapped_log_indexes_stay_in_int32_below_v(n):
    # every exp index past v that the library forms, on int32 arrays of
    # the extreme logs 0, 1, v - 2 and v - 1 and as Python ints, with no
    # field built: each term stays below 2v, which int32 holds up to
    # n = 29; the first odd n at which int32 wraps is 31, where 2 * logs
    # reaches 2^32 - 4
    v = (1 << n) - 1
    ends = [0, 1, v - 2, v - 1]
    a, b, c = (x.ravel() for x in np.meshgrid(*3 * [np.array(ends, dtype=np.int32)]))
    folds = np.array([0, 1, v // 2 - 1, v // 2], dtype=np.int32).repeat(16)
    cases = {
        "mul": (a + b, lambda x, y, z, f: x + y),
        "2 log b": (2 * a, lambda x, y, z, f: 2 * x),
        "inv, _inverses": (v - a, lambda x, y, z, f: v - x),
        "div": (a - b + v, lambda x, y, z, f: x - y + v),
        "_first_offenders": (a + folds, lambda x, y, z, f: x + f),
    }
    rows = list(zip(*(x.tolist() for x in (a, b, c, folds))))
    for name, (k, value) in cases.items():
        assert k.dtype == np.int32 and 0 <= k.min() and k.max() < 2 * v, name
        want = [value(*r) % v for r in rows]
        got = wrap_log(k, v)
        assert got.dtype == np.int32 and got.tolist() == want, name
        assert [wrap_log(value(*r), v) for r in rows] == want, name
    # the certificate key log(a*c/b^2), for every triple of extreme logs,
    # and with the log 0 of the coefficient 1 as a Python int
    want = [(x + z - 2 * y) % v for x, y, z, _ in rows]
    got = quotient_log(a, b, c, v)
    assert got.dtype == np.int32 and got.tolist() == want
    assert [quotient_log(x, y, z, v) for x, y, z, _ in rows] == want
    assert quotient_log(0, b, c, v).tolist() == [(z - 2 * y) % v for _, y, z, _ in rows]
    assert quotient_log(a, 0, c, v).tolist() == [(x + z) % v for x, _, z, _ in rows]
