"""Command-line front end: construction, verification, certification, GDD
pipeline and format conversion.

One table, COMMANDS, names each command's handler and options, and
parse_args reads argv through it: an option by its full name or a unique
prefix, its value as `--opt value` or `--opt=value`.

Exit codes: 0 all requested checks passed (and -h/--help, --version);
1 a verification failed; 2 precondition or usage violation (even degree,
reducible modulus, bad residue, missing --force, an unknown option or a
value that cannot be read, ...), reported as a one-line JSON object on
stderr.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
import time
from collections.abc import Iterable
from types import SimpleNamespace

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
    a value it cannot read is named after this function, as "invalid modulus
    value"."""
    return int(text, 0)


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
        # the field's tables and, where a family is built, hexagon_reps' 1 B flag per element
        tables = table_bytes(n, getattr(args, "seed_system", "min") == "max")
        parts = [("of field tables", tables + (1 << n) * (args.command != "certify"))]
        if args.command == "construct":
            # the int32 seeds and the writer's chunk; the profile and a slot chunk
            family = 4 * orbits + _CHUNK_BYTES
            parts += [("for the family", family), ("for the profile", profile_bytes(n))]
        elif args.command == "certify":
            parts.append(("for the certificates", certificate_bytes(n)))
        else:
            # the stages after the development run one at a time: the pair
            # count, or the heap they leave however few pairs there are: for
            # gdd the writer's 256 KiB chunks, ~1 MiB, for verify ~0.6 MiB
            # (VmHWM grows by 1.8-2.3 MiB at n = 15, most with .pyc files).
            parts.append(("for the development", develop_bytes(orbits)))
            floor = 5 * 2**17
            if args.command == "gdd":
                parts.append(("for the spread", spread_bytes(((1 << n) - 1) // 7)))
                floor = 2**20
            parts.append(("for the largest stage", max(pair_count_bytes(n), floor)))
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
            with open(args.out, "wb") as fh:
                fh.writelines(chunks)  # lets each chunk go before it asks for the next
        except OSError as exc:
            raise QdfError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        try:
            for chunk in chunks:
                sys.stdout.write(chunk.decode("ascii"))
            sys.stdout.flush()
        except OSError as exc:
            # the interpreter flushes stdout again at exit: let that go nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            reason = "its reader has closed it" if isinstance(exc, BrokenPipeError) else exc.strerror
            raise QdfError(f"cannot write stdout: {reason}") from None


def _cmd_construct(args) -> int:
    ctx = _make_ctx(args)
    fam = build_family(ctx, system=args.seed_system)
    hist, chunks = folding(fam)  # one pass: each slot chunk is folded, then written
    _emit(args, family_json_chunks(fam, chunks))
    return 0 if MultiplicityProfile(ctx, hist).is_constant(fam.lambda_claim) else 1


def _cmd_verify(args) -> int:
    ctx = _make_ctx(args)
    design = develop(build_family(ctx, system=args.seed_system))  # one pass folds and scans
    profile_ok = MultiplicityProfile(ctx, design.fold).is_constant(design.lambda_claim)
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
    # the spread peaks before the development's one pass, whose fold the profile check reads
    groops = desarguesian_spread(ctx)
    design = develop(relative)
    rel_report = verify_relative(relative, design.fold)
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


# The command table: each command's handler, help line and options.  An
# option maps its name to (kind, default, help).  Its kind is a converter
# (int, modulus or str; a value the converter cannot read is named after
# it), a tuple of choices or FLAG, an option that takes no value and sets
# True.  A default of REQUIRED makes the option required; a name without
# dashes is a positional, which export's input is.
FLAG = "flag"
REQUIRED = "required"

_FIELD = {
    "--n": (int, REQUIRED, "extension degree (odd)"),
    "--modulus": (
        modulus,
        None,
        "irreducible modulus bitmask (default: lexicographically smallest)",
    ),
    "--force": (FLAG, False, f"allow n > {DEFAULT_N_CEILING} (hard ceiling {HARD_N_CEILING})"),
    "--out": (str, None, "output path (default: stdout)"),
}
_SEEDED = {
    **_FIELD,
    "--seed-system": (
        ("min", "max"),
        "min",
        "hexagon representative choice (developments are identical)",
    ),
}

COMMANDS = {
    "construct": (_cmd_construct, "build the index-7 family and write it as JSON", _SEEDED),
    "verify": (_cmd_verify, "develop the family and exhaustively pair-count", _SEEDED),
    "certify": (_cmd_certify, "per-t solvability certificates for all t", _FIELD),
    "gdd": (_cmd_gdd, "relative family, spread and GDD checks (n = 3 mod 6)", _SEEDED),
    "export": (
        _cmd_export,
        "convert stored families between formats",
        {
            "input": (str, REQUIRED, "family JSON file, as construct writes it"),
            "--out": _FIELD["--out"],
            "--format": (("json", "csv"), "json", "output format"),
        },
    ),
}

_DESCRIPTION = (
    "Build and exhaustively verify difference families, cyclic 2-designs and\n"
    "group divisible designs over GF(2^n), n odd."
)
_HELP = ("-h", "--help")
_TOP = (*_HELP, "--version")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _option(arg: str, names: Iterable[str]) -> tuple[str | None, str | None]:
    """The option among `names` that the token `arg` gives, by its full name
    or a unique prefix, and the value it carries after "=".  The name is
    None for a positional (one that does not start with "-", "-" itself, a
    negative number or text with a space), "--" for the end of the options
    and "?" for an unknown option."""
    if arg == "--":
        return arg, None
    if arg[:1] != "-" or arg == "-":
        return None, None
    if arg in names:
        return arg, None
    head, eq, value = arg.partition("=")
    if eq and head in names:
        return head, value
    if arg.startswith("--"):
        matches = [name for name in names if name.startswith(head)]
        if len(matches) > 1:
            raise QdfError(f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], (value if eq else None)
    if _NEGATIVE.match(arg) or " " in arg:
        return None, None
    return "?", None


def _value(name: str, kind, text: str):
    if isinstance(kind, tuple):
        if text not in kind:
            choices = ", ".join(map(repr, kind))
            raise QdfError(f"argument {name}: invalid choice: {text!r} (choose from {choices})")
        return text
    try:
        return kind(text)
    except (TypeError, ValueError):
        raise QdfError(f"argument {name}: invalid {kind.__name__} value: {text!r}") from None


def _usage(command: str | None = None) -> str:
    """The text of -h/--help, from the command table."""
    if command is None:
        head = [f"usage: qdf [-h] [--version] {{{','.join(COMMANDS)}}} ...", "", _DESCRIPTION]
        sections = {
            "commands": [(name, help) for name, (_, help, _) in COMMANDS.items()],
            "options": [("-h, --help", "show this help"), ("--version", "show the version")],
        }
    else:
        _, help, options = COMMANDS[command]
        tokens, rows = ["[-h]"], [("-h, --help", "show this help")]
        for name, (kind, default, line) in options.items():
            if kind is FLAG or name[0] != "-":
                token = name
            elif isinstance(kind, tuple):
                token = f"{name} {{{','.join(kind)}}}"
            else:
                token = f"{name} {name.lstrip('-').upper()}"
            tokens.append(token if default is REQUIRED else f"[{token}]")
            rows.append((token, line))
        head = [f"usage: qdf {command} {' '.join(tokens)}", "", help]
        sections = {"options": rows}
    for title, rows in sections.items():
        width = max(len(left) for left, _ in rows) + 2
        head += ["", f"{title}:", *(f"  {left:<{width}}{right}" for left, right in rows)]
    return "\n".join(head)


def _prints(text: str) -> SimpleNamespace:
    """The parse of -h/--help or --version: its handler writes `text` to
    stdout and exits 0."""

    def show(args) -> int:
        _emit(args, (f"{text}\n".encode("ascii"),))
        return 0

    return SimpleNamespace(command=None, out=None, func=show)


def _flag(name: str, value: str | None) -> None:
    if value is not None:
        label = "/".join(_HELP) if name in _HELP else name
        raise QdfError(f"argument {label}: ignored explicit argument {value!r}")


def parse_args(argv: Iterable[str] | None = None) -> SimpleNamespace:
    """Read argv through the command table: options by full name or unique
    prefix, "--opt=value" or "--opt value" (a negative number is a value),
    the last of a repeated option winning, export's input among the
    options, only positionals after "--".  Each option left out takes its
    default.  A usage violation raises QdfError, its message worded as
    Python's standard parser words it; -h/--help and --version return a
    namespace whose handler prints the help or the version."""
    argv = sys.argv[1:] if argv is None else list(argv)
    extras, command = [], None
    for i, arg in enumerate(argv):
        name, value = _option(arg, _TOP)
        if name is None or name == "--":
            command, argv = arg, argv[i + 1 :]
            break
        if name == "?":
            extras.append(arg)
        else:
            _flag(name, value)
            return _prints(_usage() if name in _HELP else f"qdf {__version__}")
    if command is None:
        raise QdfError("the following arguments are required: command")
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        raise QdfError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    func, _, options = COMMANDS[command]
    names = [*_HELP, *(name for name in options if name[0] == "-")]
    free = [name for name in options if name[0] != "-"]  # positionals not yet given
    given, ended = {}, False
    tokens = iter(argv)
    for arg in tokens:
        name, value = (None, None) if ended else _option(arg, names)
        if name == "--":
            ended = True
        elif name is None and free:
            name = free.pop(0)
            given[name] = _value(name, options[name][0], arg)
        elif name is None or name == "?":
            extras.append(arg)
        elif name in _HELP:
            _flag(name, value)
            return _prints(_usage(command))
        elif options[name][0] is FLAG:
            _flag(name, value)
            given[name] = True
        else:
            if value is None:
                # the next token, which must not read as an option ("--" past the end)
                value = next(tokens, "--")
                if _option(value, names)[0] is not None:
                    raise QdfError(f"argument {name}: expected one argument")
            given[name] = _value(name, options[name][0], value)
    missing = [name for name, (_, default, _) in options.items() if default is REQUIRED]
    missing = [name for name in missing if name not in given]
    if missing:
        raise QdfError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise QdfError(f"unrecognized arguments: {' '.join(extras)}")
    args = SimpleNamespace(command=command, func=func)
    for name, (_, default, _) in options.items():
        setattr(args, name.lstrip("-").replace("-", "_"), given.get(name, default))
    return args


def main(argv=None) -> int:
    # verify and gdd print their wall time from here to the written artifact
    start = time.perf_counter()
    try:
        args = parse_args(argv)
        args.start = start
        return args.func(args)
    except QdfError as exc:
        err = {"error": type(exc).__name__.removesuffix("Error"), "message": str(exc)}
        print(json.dumps(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
