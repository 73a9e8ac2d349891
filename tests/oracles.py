"""Independent brute-force oracles used to freeze expected test values.

Nothing here touches the package's exp/log tables, except the oracles
named last: multiplication is schoolbook shift-and-xor, inverses are
found by exhaustive search, irreducibility comes from enumerating
products of lower-degree polynomials, the exp/log tables come from a
scalar power walk or, as the field built them before it walked its
powers, by doubling split tables of its own (exp_by_doubling), and pair
coverage is counted from materialized block sets.  The hexagon oracle
walks hexagon_of seed by seed.  The orbit label divides scalar by scalar
with the field's `div`, materialize develops blocks with the field's
tables, and hexagon_reps_by_gather gathers inverses from them.  The
Frobenius oracle takes exp/log tables as given (checked against the power
walk) and derives trace, sqrt and half-trace element by element from the
squaring permutation, not from basis images.  The CLI's argv oracle is
the argparse parser the CLI read its arguments with before its command
table (build_parser).
"""

import argparse
from collections import Counter
from functools import lru_cache

import numpy as np

from qdf import GF2n, __version__
from qdf import cli
from qdf.reference import hexagon_of


@lru_cache(maxsize=None)
def cached_field(n: int, modulus: int | None = None) -> GF2n:
    return GF2n(n, modulus)


def schoolbook_mul(a: int, b: int, n: int, modulus: int) -> int:
    """Carry-less multiply then long-division reduction, no tables."""
    prod = 0
    shift = 0
    while b:
        if b & 1:
            prod ^= a << shift
        b >>= 1
        shift += 1
    while prod.bit_length() - 1 >= n:
        prod ^= modulus << (prod.bit_length() - 1 - n)
    return prod


def brute_inverse(a: int, n: int, modulus: int) -> int:
    for x in range(1, 1 << n):
        if schoolbook_mul(a, x, n, modulus) == 1:
            return x
    raise AssertionError(f"no inverse for {a}")


def trace_by_power_sum(x: int, n: int, modulus: int) -> int:
    acc, cur = 0, x
    for _ in range(n):
        acc ^= cur
        cur = schoolbook_mul(cur, cur, n, modulus)
    return acc


def reducible_degree_n(n: int) -> set[int]:
    """All reducible degree-n polynomials, as products of smaller ones."""
    def clmul(a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            b >>= 1
        return r

    out = set()
    for da in range(1, n // 2 + 1):
        db = n - da
        for pa in range(1 << da, 1 << (da + 1)):
            for pb in range(1 << db, 1 << (db + 1)):
                out.add(clmul(pa, pb))
    return {p for p in out if p.bit_length() - 1 == n}


def is_irreducible_by_trial(p: int) -> bool:
    """Trial division of p by every polynomial q of degree 1 to deg(p)/2,
    2 <= q < 2^(deg(p)/2 + 1), the even ones included, by long division
    one degree at a time."""
    def degree(a: int) -> int:
        return a.bit_length() - 1

    def mod(a: int, m: int) -> int:
        while degree(a) >= degree(m):
            a ^= m << (degree(a) - degree(m))
        return a

    return p >= 2 and all(mod(p, q) for q in range(2, 1 << (degree(p) // 2 + 1)))


def smallest_irreducible_by_products(n: int) -> int:
    reducible = reducible_degree_n(n)
    for p in range(1 << n, 1 << (n + 1)):
        if p not in reducible:
            return p
    raise AssertionError


def mul_interleaved(a: int, b: int, n: int, modulus: int) -> int:
    """Carry-less multiply with the reduction interleaved, no tables."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> n:
            a ^= modulus
    return r


def power_walk(n: int, modulus: int) -> tuple[int, list[int], list[int]]:
    """(generator, exp, log) by walking the powers of g = 2, 3, ... one
    scalar multiply at a time; the first g whose powers do not repeat
    before 2^n - 1 steps generates F*.  log[0] is -1."""
    q = 1 << n
    m = q - 1
    for g in range(2, q):
        exp = [0] * m
        log = [-1] * q
        v = 1
        for i in range(m):
            if log[v] >= 0:  # period of g is shorter than q-1
                break
            exp[i] = v
            log[v] = i
            v = mul_interleaved(v, g, n, modulus)
        else:
            if v == 1:
                return g, exp, log
    raise AssertionError("no generator found")


def _times_by_split_tables(c: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The split tables of x -> c * x modulo m, h = ceil(n/2): c * x is
    lo[x & (2^h - 1)] ^ hi[x >> h], each table doubled once per basis image."""
    n = m.bit_length() - 1
    lo, hi = [0], [0]
    for i in range(n):
        t = lo if i < (n + 1) // 2 else hi
        t += [x ^ c for x in t]
        c <<= 1
        if c >> n:
            c ^= m
    return np.array(lo, dtype=np.int32), np.array(hi, dtype=np.int32)


def exp_by_doubling(g: int, m: int) -> np.ndarray:
    """The exp table of g modulo m as int32, built as the field built it
    before it walked its powers: 2^ceil(n/2) powers, or 128 if more, by
    scalar multiplies, then exp[d:2d] = g^d * exp[:d], the split tables of
    g^(2d) those of g^d applied to themselves."""
    n = m.bit_length() - 1
    units, h = (1 << n) - 1, (n + 1) // 2
    lo, hi = _times_by_split_tables(g, m)
    powers = [1]
    for _ in range(min(max(1 << h, 128), units)):
        powers.append(int(lo[powers[-1] & ((1 << h) - 1)] ^ hi[powers[-1] >> h]))
    d = len(powers) - 1
    exp = np.empty(units, dtype=np.int32)
    exp[:d] = powers[:d]
    lo, hi = _times_by_split_tables(powers[d], m)
    while d < units:
        top = min(d, units - d)
        exp[d : d + top] = lo[exp[:top] & ((1 << h) - 1)] ^ hi[exp[:top] >> h]
        d *= 2
        lo, hi = lo[lo & ((1 << h) - 1)] ^ hi[lo >> h], lo[hi & ((1 << h) - 1)] ^ hi[hi >> h]
    return exp


def hexagon_reps_by_gather(ctx) -> np.ndarray:
    """The hexagon representatives as the field found them before its
    paired walk: x even with x < min(1/x, 1/(x + 1)) & ~1, each inverse
    gathered from the exp table."""
    inv = np.empty(ctx.order, dtype=np.int64)
    inv[1:] = ctx.exp[(ctx.order - 1 - ctx.logs[1:]) % (ctx.order - 1)]
    x = np.arange(2, ctx.order, 2)
    return x[x < (np.minimum(inv[x], inv[x + 1]) & ~1)].astype(np.int32)


def frobenius_tables(exp, logs, n: int) -> dict[str, np.ndarray]:
    """Squaring, trace, sqrt and half-trace tables of GF(2^n) by whole-field
    passes of the squaring permutation sq[x] = exp[2 log x mod (2^n - 1)]:
    the trace is x ^ sq(x) ^ ... over n - 1 passes, the half-trace the
    same over (n - 1)/2 double passes, and sqrt the inverse permutation
    of sq."""
    q = 1 << n
    x = np.arange(q, dtype=np.int64)
    sq = np.zeros(q, dtype=np.int64)
    sq[1:] = exp[2 * logs[1:].astype(np.int64) % (q - 1)]
    trace, cur = x.copy(), x
    for _ in range(n - 1):
        cur = sq[cur]
        trace ^= cur
    half_trace, cur = x.copy(), x
    for _ in range((n - 1) // 2):
        cur = sq[sq[cur]]
        half_trace ^= cur
    sqrt = np.empty(q, dtype=np.int64)
    sqrt[sq] = x
    return {"sq": sq, "trace": trace, "sqrt": sqrt, "half_trace": half_trace}


def hexagons_by_scan(ctx) -> list[tuple[int, ...]]:
    """Hexagon vertex tuples, walked with hexagon_of from every seed not
    yet covered, scanning seeds upward."""
    seen = set()
    out = []
    for x in ctx.seeds():
        if x not in seen:
            h = hexagon_of(ctx, x)
            seen.update(h)
            out.append(h)
    return out


def canonical_orbit_label(ctx, els) -> tuple[int, ...]:
    """A scaling-invariant label of the block B with elements els: the
    minimum over e in B of sorted(B/e).

    Two blocks lie in the same multiplicative orbit iff their labels are
    equal, which turns pairwise orbit-distinctness checks into a set-size
    check.
    """
    return min(tuple(sorted(ctx.div(e, d) for e in els)) for d in els)


def materialize(d) -> list[frozenset[int]]:
    """Every developed block of a Design as a frozenset, with
    multiplicity, walked with the field's exp/log tables; for desk-scale
    cross-checks (n <= 9)."""
    exp, logs, v = d.ctx.exp, d.ctx.logs, d.ctx.order - 1
    out = []
    for rep, length, replication in d.orbit_rows():
        base_logs = [int(logs[e]) for e in rep]
        for s in range(length):
            blk = frozenset(int(exp[(l + s) % v]) for l in base_logs)
            out.extend([blk] * replication)
    return out


def materialized_pair_counts(blocks) -> Counter:
    """Pair coverage by direct enumeration of materialized block sets."""
    counts: Counter = Counter()
    for blk in blocks:
        pts = sorted(blk)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                counts[(pts[i], pts[j])] += 1
    return counts


# -- plain-dict forms of the bulk artifacts, for json.dumps(indent=2) --------

def _hex(v: int, n: int) -> str:
    return format(int(v), f"0{(n + 3) // 4}x")


def family_dict(fam) -> dict:
    """The construct/export artifact of a family as a plain dict."""
    n = fam.ctx.n
    return {
        "n": n,
        "modulus": fam.ctx.modulus,
        "lambda": fam.lambda_claim,
        "blocks": [[_hex(e, n) for e in row] for row in fam.slots.tolist()],
    }


def _orbit_dicts(d) -> list[dict]:
    return [
        {"rep": [_hex(e, d.ctx.n) for e in rep], "length": length, "replication": replication}
        for rep, length, replication in d.orbit_rows()
    ]


def design_dict(d) -> dict:
    """The design file of a developed design as a plain dict."""
    return {
        "n": d.ctx.n,
        "modulus": d.ctx.modulus,
        "v": d.v,
        "k": d.k,
        "lambda": d.lambda_claim,
        "orbits": _orbit_dicts(d),
    }


def gdd_dict(groops, design) -> dict:
    """The gdd artifact of the spread's groop rows and a developed relative
    family as a plain dict, before its reports."""
    n = design.ctx.n
    return {
        "n": n,
        "modulus": design.ctx.modulus,
        "g": 3,
        "lambda": design.lambda_claim,
        "spread": [[_hex(e, n) for e in g] for g in groops.tolist()],
        "orbits": _orbit_dicts(design),
    }


def certify_dict(n: int, modulus: int, rows, matched_pairs) -> dict:
    """The certify artifact as a plain dict; rows holds (t, list of the
    solvable (i, j) pairs) per certificate and matched_pairs the 9 matches."""
    certs = []
    for t, pairs in rows:
        solvable = set(pairs)
        certs.append(
            {
                "t": _hex(t, n),
                "r": len(pairs),
                "matching_ok": all((p in solvable) != (q in solvable) for p, q in matched_pairs),
                "solvable": [[i, j] for i, j in pairs],
            }
        )
    return {
        "n": n,
        "modulus": modulus,
        "r_min": min(c["r"] for c in certs),
        "r_max": max(c["r"] for c in certs),
        "all_matched": all(c["matching_ok"] for c in certs),
        "certificates": certs,
    }


def _add_field_options(p: argparse.ArgumentParser, seed_system: bool = True) -> None:
    p.add_argument("--n", type=int, required=True, help="extension degree (odd)")
    p.add_argument(
        "--modulus",
        type=cli.modulus,
        default=None,
        help="irreducible modulus bitmask (default: lexicographically smallest)",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help=f"allow n > {cli.DEFAULT_N_CEILING} (hard ceiling {cli.HARD_N_CEILING})",
    )
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    if seed_system:
        p.add_argument(
            "--seed-system",
            choices=["min", "max"],
            default="min",
            help="hexagon representative choice (developments are identical)",
        )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser, as the CLI once built it: the oracle of
    cli.parse_args (each command's namespace, and which argv it rejects)."""
    parser = argparse.ArgumentParser(
        prog="qdf",
        description="Build and exhaustively verify difference families, cyclic "
        "2-designs and group divisible designs over GF(2^n), n odd.",
    )
    parser.add_argument("--version", action="version", version=f"qdf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the index-7 family and write it as JSON")
    _add_field_options(p)
    p.set_defaults(func=cli._cmd_construct)

    p = sub.add_parser("verify", help="develop the family and exhaustively pair-count")
    _add_field_options(p)
    p.set_defaults(func=cli._cmd_verify)

    p = sub.add_parser("certify", help="per-t solvability certificates for all t")
    _add_field_options(p, seed_system=False)
    p.set_defaults(func=cli._cmd_certify)

    p = sub.add_parser("gdd", help="relative family, spread and GDD checks (n = 3 mod 6)")
    _add_field_options(p)
    p.set_defaults(func=cli._cmd_gdd)

    p = sub.add_parser("export", help="convert stored families between formats")
    p.add_argument("input", help="family JSON file, as construct writes it")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cli._cmd_export)

    return parser
