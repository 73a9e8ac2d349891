"""Workload definitions: which `qdf` commands a pass runs, for which seed.

A workload seed picks the field modulus and nothing else, so every seed
does the same amount of work on different exp/log tables.  Seed 0 keeps
the CLI default (the lexicographically smallest irreducible polynomial);
seed k passes the k-th irreducible polynomial of degree n (0-based, in
increasing bitmask order) as `--modulus`, taken modulo the number of
such polynomials, which matters for the small degrees (there are only 2
of degree 3).  Seeds are folded onto SHIPPED_SEEDS because reference
digests are stored for those seeds only.
"""

from __future__ import annotations

SHIPPED_SEEDS = 32

# Why each workload exists; BENCHMARK.json repeats these lines.
WHY = {
    "verify-13": "headline user job; the pair-count kernel is ~95% of it",
    "build-19": "construction, certificates and JSON at scale with no pair counting; "
    "a kernel change must not move it",
    "sweep-small": "many small commands (CI/demo traffic) where per-call fixed costs "
    "dominate; the only workload that runs gdd",
    "tiny": "n <= 5 smoke workload for the benchmark's own tests",
}

# A sweep-small worker runs its set of commands 16 times (~5 s on a 2-core
# Xeon; one set takes ~0.3 s), so a run holds several workers and ends
# close to --seconds.  Each set is timed on its own; the first set of a
# worker is its warm-up.
SWEEP_REPEATS = 16


def _poly_mod(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def _irreducible(p: int) -> bool:
    d = p.bit_length() - 1
    return all(_poly_mod(p, q) for q in range(2, 1 << (d // 2 + 1)))


def irreducibles(n: int, count: int) -> list[int]:
    """The first `count` irreducible degree-n polynomials over GF(2) as
    bitmasks, in increasing order (fewer if fewer exist)."""
    out = []
    for c in range(1, 1 << n, 2):
        if _irreducible((1 << n) | c):
            out.append((1 << n) | c)
            if len(out) == count:
                break
    return out


def modulus_args(n: int, seed: int) -> list[str]:
    """The `--modulus` arguments that seed `seed` passes at degree n."""
    k = seed % SHIPPED_SEEDS
    if k == 0:
        return []
    polys = irreducibles(n, k + 1)
    return ["--modulus", hex(polys[k % len(polys)])]


def _producer(cmd: str, n: int, seed: int, extra=()) -> tuple[str, list[str]]:
    name = f"{cmd}-{n}"
    return name, [cmd, "--n", str(n), *modulus_args(n, seed), *extra]


def command_set(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """One set of (command id, argv without --out) for a workload.

    Command ids are unique within a set; an `export` names the construct
    artifact it reads as `{construct-N}`, which a pass resolves to a path.
    """
    if workload == "verify-13":
        return [_producer("verify", 13, seed)]
    if workload == "build-19":
        return [
            _producer("construct", 19, seed, ["--force"]),
            _producer("certify", 15, seed, ["--force"]),
        ]
    if workload in ("sweep-small", "tiny"):
        ns, gdd_ns = ((3, 5, 7, 9), (3, 9)) if workload == "sweep-small" else ((3, 5), (3,))
        out = []
        for n in ns:
            out.append(_producer("construct", n, seed))
            src = f"{{construct-{n}}}"
            out.append((f"export-json-{n}", ["export", src, "--format", "json"]))
            out.append((f"export-csv-{n}", ["export", src, "--format", "csv"]))
            out.append(_producer("verify", n, seed))
            out.append(_producer("certify", n, seed))
        out.extend(_producer("gdd", n, seed) for n in gdd_ns)
        return out
    raise ValueError(f"unknown workload {workload!r}")


def repeats(workload: str) -> int:
    """How many times a pass runs the workload's command set."""
    return SWEEP_REPEATS if workload == "sweep-small" else 1


WORKLOADS = ("verify-13", "build-19", "sweep-small")
ALL_WORKLOADS = WORKLOADS + ("tiny",)
