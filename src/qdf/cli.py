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
import os
import sys
import time
from collections.abc import Iterable

import numpy as np

from . import __version__
from .design import (
    check_qanalog,
    check_simple,
    develop,
    develop_bytes,
    pair_count_bytes,
    verify_2design,
)
from .errors import QdfError
from .family import (
    MultiplicityProfile,
    build_family,
    certificate_bytes,
    certificate_table,
    folding,
    multiplicity_profile,
    profile_bytes,
)
from .gdd import (
    build_relative_family,
    check_residue,
    desarguesian_spread,
    spread_bytes,
    verify_gdd,
    verify_relative,
)
from .gf2n import GF2n, smallest_irreducible, table_bytes
from .serialize import (
    _CHUNK_BYTES,
    certificates_json_chunks,
    certificates_json_size,
    family_json_chunks,
    gdd_json_chunks,
    profile_csv_chunks,
    read_artifact,
    report_to_dict,
    to_json_bytes,
)

# The imported objects live as long as the process; frozen, they cost no
# collection a scan (1-1.5 ms a pass, which `verify --n 13` may pay).
gc.freeze()

DEFAULT_N_CEILING = 13
HARD_N_CEILING = 25


def modulus(text: str) -> int:
    """--modulus in any base int() reads with base 0 (0x89, 0b1111, 137);
    argparse names a bad value after this function."""
    return int(text, 0)


def _add_field_options(p: argparse.ArgumentParser, seed_system: bool = True) -> None:
    p.add_argument("--n", type=int, required=True, help="extension degree (odd)")
    p.add_argument(
        "--modulus",
        type=modulus,
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
        parts = [("of field tables", table_bytes(n, getattr(args, "seed_system", "min") == "max"))]
        if args.command == "construct":
            # the int32 seeds and the writer's chunk; the profile and a slot chunk
            family = 4 * orbits + _CHUNK_BYTES
            parts += [("for the family", family), ("for the profile", profile_bytes(n))]
        elif args.command == "certify":
            parts.append(("for the certificates", certificate_bytes(n)))
        else:
            # the stages after the development run one at a time: the pair
            # count and, for gdd, the writer's 256 KiB chunks, ~1 MiB with
            # the heap they leave; the orbit checks read the development's scan
            parts.append(("for the development", develop_bytes(orbits)))
            largest = pair_count_bytes(n)
            if args.command == "gdd":
                parts.append(("for the spread", spread_bytes(((1 << n) - 1) // 7)))
                largest = max(largest, 2**20)
            parts.append(("for the largest stage", largest))
        terms = [f"~{size / 2**20:.1f} MiB {what}" for what, size in parts]
        total = sum(size for _, size in parts)
        end = f"~{total / 2**20:.1f} MiB in all"
        if args.command == "certify":
            m = smallest_irreducible(n) if args.modulus is None else args.modulus
            end += f", for a report of {certificates_json_size(n, m):,} bytes"
        print(
            f"warning: n={n} is desk-scale-plus; expect {', '.join(terms[:-1])} "
            f"and {terms[-1]}, {end}",
            file=sys.stderr,
        )
    return GF2n(n, args.modulus)


def _emit(args, chunks: Iterable[bytes]) -> None:
    """Write an artifact, as an iterable of byte chunks, to --out or stdout."""
    if args.out:
        try:
            fh = open(args.out, "wb")
        except OSError as exc:
            raise QdfError(f"cannot write {args.out}: {exc.strerror}") from None
        with fh:
            fh.writelines(chunks)  # lets each chunk go before it asks for the next
    else:
        try:
            for chunk in chunks:
                sys.stdout.write(chunk.decode("ascii"))
            sys.stdout.flush()
        except BrokenPipeError:
            # the interpreter flushes stdout again at exit: let that go nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise QdfError("cannot write stdout: its reader has closed it") from None


def _cmd_construct(args) -> int:
    ctx = _make_ctx(args)
    fam = build_family(ctx, system=args.seed_system)
    # one pass: each slot chunk is folded (21 a block fit int32), then written
    profile = MultiplicityProfile(ctx, np.zeros(ctx.order // 2, dtype=np.int32))
    _emit(args, family_json_chunks(fam, folding(fam, profile.hist)))
    return 0 if profile.is_constant(fam.lambda_claim) else 1


def _cmd_verify(args) -> int:
    ctx = _make_ctx(args)
    fam = build_family(ctx, system=args.seed_system)
    profile = multiplicity_profile(fam)
    profile_ok = profile.is_constant(fam.lambda_claim)
    design = develop(fam, profile)
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
    print(f"verify n={ctx.n}: {time.perf_counter() - args.start:.2f}s", file=sys.stderr)
    return 0 if (report.passed and profile_ok and out["qanalog"]) else 1


def _cmd_certify(args) -> int:
    ctx = _make_ctx(args)
    tab = certificate_table(ctx, ctx.seeds())
    _emit(args, certificates_json_chunks(ctx, tab))
    return 0 if all(r == 9 and ok for _, r, ok in tab.decoded[0]) else 1


def _cmd_gdd(args) -> int:
    check_residue(args.n)  # before the preflight and the tables
    ctx = _make_ctx(args)
    # the family's seeds are freed once the relative family has its copy
    relative = build_relative_family(build_family(ctx, system=args.seed_system))
    # the spread's temporaries peak before the profile and the development
    groops = desarguesian_spread(ctx)
    profile = multiplicity_profile(relative)
    rel_report = verify_relative(relative, profile)
    design = develop(relative, profile)
    gdd_report = verify_gdd(design)
    reports = {
        "relative_profile": report_to_dict(rel_report, ctx.n),
        "report": report_to_dict(gdd_report, ctx.n),
    }
    _emit(args, gdd_json_chunks(groops, design, reports))
    print(f"gdd n={ctx.n}: {time.perf_counter() - args.start:.2f}s", file=sys.stderr)
    return 0 if (rel_report.passed and gdd_report.passed) else 1


def _cmd_export(args) -> int:
    try:
        with open(args.input, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise QdfError(f"cannot read {args.input}: {exc.strerror}") from None
    fam = read_artifact(data, _check_hard_ceiling)
    if args.format == "json":
        # read_artifact accepts only the bytes its writer renders: write them back
        _emit(args, (data[i : i + _CHUNK_BYTES] for i in range(0, len(data), _CHUNK_BYTES)))
    else:
        del data  # not held while the output is built
        _emit(args, profile_csv_chunks(multiplicity_profile(fam), fam.ctx.n))
    return 0


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

    p = sub.add_parser("export", help="convert stored families between formats")
    p.add_argument("input", help="family JSON file, as construct writes it")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_export)

    return parser


# One parser per process: parse_args keeps no state between calls, and
# building the parser costs more than parsing with it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    # verify and gdd print their wall time from here to the written artifact
    args = _parser().parse_args(argv, argparse.Namespace(start=time.perf_counter()))
    try:
        return args.func(args)
    except QdfError as exc:
        err = {"error": type(exc).__name__.removesuffix("Error"), "message": str(exc)}
        print(json.dumps(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
