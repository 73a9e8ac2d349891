"""Command-line front end: construction, verification, certification, GDD
pipeline and format conversion.

Exit codes: 0 all requested checks passed; 1 a verification failed;
2 precondition violation (even degree, reducible modulus, bad residue,
missing --force, ...), reported as a one-line JSON object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from collections.abc import Iterable

from . import __version__
from .design import (
    check_qanalog,
    check_simple,
    develop,
    develop_bytes,
    pair_count_bytes,
    verify_2design,
)
from .errors import MalformedFamilyError, QdfError
from .family import (
    build_family,
    certificate_bytes,
    certificate_table,
    multiplicity_profile,
    profile_bytes,
)
from .gdd import (
    build_relative_family,
    desarguesian_spread,
    spread_bytes,
    verify_gdd,
    verify_relative,
)
from .gf2n import GF2n, table_bytes
from .serialize import (
    certificates_json_chunks,
    family_from_dict,
    family_json_chunks,
    gdd_json_chunks,
    profile_csv_chunks,
    report_to_dict,
    to_json_bytes,
)

# The imported objects live as long as the process; frozen, they cost no
# collection a scan (1-1.5 ms a pass, which `verify --n 13` may pay).
gc.freeze()

DEFAULT_N_CEILING = 13
HARD_N_CEILING = 25


def _add_field_options(p: argparse.ArgumentParser, seed_system: bool = True) -> None:
    p.add_argument("--n", type=int, required=True, help="extension degree (odd)")
    p.add_argument(
        "--modulus",
        type=lambda s: int(s, 0),
        default=None,
        help="irreducible modulus bitmask (default: lexicographically smallest)",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help=f"allow n > {DEFAULT_N_CEILING} (hard ceiling {HARD_N_CEILING})",
    )
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    if seed_system:
        p.add_argument(
            "--seed-system",
            choices=["min", "max"],
            default="min",
            help="hexagon representative choice (developments are identical)",
        )


def _check_hard_ceiling(n: int) -> None:
    if n > HARD_N_CEILING:
        raise QdfError(f"n={n} exceeds the supported ceiling {HARD_N_CEILING}")


def _make_ctx(args) -> GF2n:
    n = args.n
    _check_hard_ceiling(n)
    if n > DEFAULT_N_CEILING and not args.force:
        raise QdfError(
            f"n={n} exceeds the default ceiling {DEFAULT_N_CEILING}; pass --force"
        )
    if n > DEFAULT_N_CEILING:
        orbits = ((1 << n) - 2) // 6  # at most (2^n - 2)/6 base blocks
        parts = [("of field tables", table_bytes(n))]
        if args.command == "construct":
            # the (orbits, 7) int32 slots and the profile's histogram and counts
            parts += [("for the family", 7 * 4 * orbits), ("for the profile", profile_bytes(n))]
        elif args.command == "certify":
            parts.append(("for the certificates", certificate_bytes(n)))
        else:
            # the stages after the development run one at a time, and none
            # peaks above the pair count, writers included (gdd grows VmHWM
            # by 3.8 and 149.5 MiB at n = 15 and 21; printed: 3.4 and 147.7)
            parts.append(("for the development", develop_bytes(orbits)))
            if args.command == "gdd":
                parts.append(("for the spread", spread_bytes(((1 << n) - 1) // 7)))
            parts.append(("for the largest stage", pair_count_bytes(n)))
        terms = [f"~{size / 2**20:.1f} MiB {what}" for what, size in parts]
        total = sum(size for _, size in parts)
        print(
            f"warning: n={n} is desk-scale-plus; expect {', '.join(terms[:-1])} "
            f"and {terms[-1]}, ~{total / 2**20:.1f} MiB in all",
            file=sys.stderr,
        )
    return GF2n(n, args.modulus)


def _emit(args, chunks: Iterable[bytes]) -> None:
    """Write an artifact, as an iterable of byte chunks, to --out or stdout."""
    if args.out:
        with open(args.out, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    else:
        for chunk in chunks:
            sys.stdout.write(chunk.decode("ascii"))


def _cmd_construct(args) -> int:
    ctx = _make_ctx(args)
    fam = build_family(ctx, system=args.seed_system)
    ok = multiplicity_profile(fam).is_constant(fam.lambda_claim)
    _emit(args, family_json_chunks(fam))
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    ctx = _make_ctx(args)
    fam = build_family(ctx, system=args.seed_system)
    profile_ok = multiplicity_profile(fam).is_constant(fam.lambda_claim)
    design = develop(fam)
    report = verify_2design(design)
    out = {
        "n": ctx.n,
        "modulus": ctx.modulus,
        "v": design.v,
        "k": design.k,
        "lambda": design.lambda_claim,
        "blocks_counted": design.block_count(),
        "profile_ok": profile_ok,
        "qanalog": check_qanalog(design),
        "simple": check_simple(design),
    }
    out.update(report_to_dict(report, ctx.n))
    _emit(args, (to_json_bytes(out),))
    print(f"verify n={ctx.n}: {report.timing:.2f}s", file=sys.stderr)
    return 0 if (report.passed and profile_ok and out["qanalog"]) else 1


def _cmd_certify(args) -> int:
    ctx = _make_ctx(args)
    tab = certificate_table(ctx, ctx.seeds())
    ok = bool((tab.r == 9).all() and tab.matching_ok.all())
    _emit(args, certificates_json_chunks(ctx, tab))
    return 0 if ok else 1


def _cmd_gdd(args) -> int:
    ctx = _make_ctx(args)
    # the family's slots are freed once the relative family has its copy
    relative = build_relative_family(build_family(ctx, system=args.seed_system))
    rel_report = verify_relative(relative)
    spread = desarguesian_spread(ctx)
    design = develop(relative)
    gdd_report = verify_gdd(spread, design)
    reports = {
        "relative_profile": report_to_dict(rel_report, ctx.n),
        "report": report_to_dict(gdd_report, ctx.n),
    }
    _emit(args, gdd_json_chunks(spread, design, reports))
    print(f"gdd n={ctx.n}: {gdd_report.timing:.2f}s", file=sys.stderr)
    return 0 if (rel_report.passed and gdd_report.passed) else 1


def _cmd_export(args) -> int:
    try:
        with open(args.input, "r", encoding="ascii") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise QdfError(f"cannot read {args.input} as JSON: {exc}") from None
    if not isinstance(data, dict):
        raise QdfError("unrecognized input file: expected a family or design JSON object")
    if "blocks" in data:
        if not all(type(data.get(k)) is int for k in ("n", "modulus", "lambda")):
            raise MalformedFamilyError("a family needs integer n, modulus and lambda")
        if not isinstance(data["blocks"], list):
            raise MalformedFamilyError("a family's blocks must be a list of rows")
        _check_hard_ceiling(data["n"])  # before the field's tables are built
        fam = family_from_dict(data)
        if args.format == "csv":
            _emit(args, profile_csv_chunks(multiplicity_profile(fam), fam.ctx.n))
        else:
            _emit(args, family_json_chunks(fam))
        return 0
    if "orbits" in data:
        keys = ["n", "modulus", "v", "k", "lambda", "orbits"]
        if list(data) != keys or not all(type(data[key]) is int for key in keys[:5]):
            raise QdfError(f"a design has exactly the keys {keys}, the first five integers")
        _check_hard_ceiling(data["n"])  # before 2^n is computed
        if data["v"] != 2 ** data["n"] - 1 or data["k"] != 7 or type(data["orbits"]) is not list:
            raise QdfError("a design needs v = 2^n - 1, k = 7 and a list of orbits")
        if args.format == "csv":
            raise QdfError("designs have no CSV form; use --format json")
        _emit(args, (to_json_bytes(data),))
        return 0
    raise QdfError("unrecognized input file: expected a family or design JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdf",
        description="Build and exhaustively verify difference families, cyclic "
        "2-designs and group divisible designs over GF(2^n), n odd.",
    )
    parser.add_argument("--version", action="version", version=f"qdf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the index-7 family and write it as JSON")
    _add_field_options(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="develop the family and exhaustively pair-count")
    _add_field_options(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("certify", help="per-t solvability certificates for all t")
    _add_field_options(p, seed_system=False)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("gdd", help="relative family, spread and GDD checks (n = 3 mod 6)")
    _add_field_options(p)
    p.set_defaults(func=_cmd_gdd)

    p = sub.add_parser("export", help="convert stored families/designs between formats")
    p.add_argument("input", help="family or design JSON file")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_export)

    return parser


# One parser per process: parse_args keeps no state between calls, and
# building the parser costs more than parsing with it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except QdfError as exc:
        err = {"error": type(exc).__name__.removesuffix("Error"), "message": str(exc)}
        print(json.dumps(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
