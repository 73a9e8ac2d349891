"""JSON/CSV formats for families, designs, spreads, reports and profiles.

All formats are byte-deterministic: fixed key order, lowercase hex
zero-padded to ceil(n/4) digits, two-space indentation, trailing newline.
Wall-clock timings are deliberately left out of serialized reports so
identical inputs always produce identical artifacts.
"""

from __future__ import annotations

import json
from collections.abc import Iterator

import numpy as np

from .blocks import Block, block_of, block_slots
from .design import Design, VerificationReport
from .errors import MalformedFamilyError
from .family import EQUATION_FORMS, CertificateTable, DifferenceFamily, MultiplicityProfile
from .gdd import Spread
from .gf2n import GF2n


_JSON_BOOL = {False: "false", True: "true"}

_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def hex_width(n: int) -> int:
    return (n + 3) // 4


def element_hex(v: int, n: int) -> str:
    return format(int(v), f"0{hex_width(n)}x")


def _block_hex(elements, n: int) -> list[str]:
    return [element_hex(e, n) for e in elements]


def to_json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode("ascii")


# -- blocks and hexagons --------------------------------------------------------

def block_to_dict(b: Block, n: int) -> dict:
    return {"elements": _block_hex(b.elements, n), "seed": element_hex(b.seed, n)}


def hexagon_to_list(h, n: int) -> list[str]:
    return _block_hex(h.vertices, n)


# -- difference families ------------------------------------------------------

def _json_list(items: list[str], indent: str) -> str:
    """Rendered JSON items, each already indented one level deeper than
    `indent`, as the list json.dumps(indent=2) writes on a line at `indent`."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


# Rows per chunk of the streamed writers (block and groop rows, gdd
# orbits, certificates, CSV lines); bounds their memory.
_ROW_CHUNK = 1 << 12


def _hex_rows_json_chunks(rows, n: int) -> Iterator[bytes]:
    """The list json.dumps(indent=2) writes, as the value of a top-level
    key, for the 7-element rows of `rows` (an (N, 7) int array or a
    sequence of 7-tuples): each row a list of 7 hex strings.

    Every row has the same length, so a chunk of _ROW_CHUNK rows is one
    byte template tiled with numpy and its digit fields filled in.
    """
    if not len(rows):
        yield b"[]"
        return
    w = hex_width(n)
    row = "    " + _json_list([f'      "{"#" * w}"'] * 7, "    ") + ",\n"
    template = np.frombuffer(row.encode("ascii"), dtype=np.uint8)
    digits = np.flatnonzero(template == ord("#")).reshape(7, w)
    yield b"[\n"
    for lo in range(0, len(rows), _ROW_CHUNK):
        part = np.asarray(rows[lo : lo + _ROW_CHUNK])
        out = np.tile(template, (len(part), 1))
        for j in range(w):
            out[:, digits[:, j]] = _HEX_DIGITS[part >> 4 * (w - 1 - j) & 15]
        # the last row takes no comma
        yield out.ravel()[: -2 if lo + _ROW_CHUNK >= len(rows) else None].tobytes()
    yield b"\n  ]"


def family_json_chunks(fam: DifferenceFamily) -> Iterator[bytes]:
    """{"n", "modulus", "lambda", "blocks": [[7 hex strings], ...]} as JSON,
    in chunks of at most _ROW_CHUNK block rows: byte for byte what
    to_json_bytes gives for the same dict."""
    yield (
        f'{{\n  "n": {fam.ctx.n},\n  "modulus": {fam.ctx.modulus},\n'
        f'  "lambda": {fam.lambda_claim},\n  "blocks": '
    ).encode("ascii")
    yield from _hex_rows_json_chunks(fam.slots, fam.ctx.n)
    yield b"\n}\n"


def family_to_json(fam: DifferenceFamily) -> bytes:
    """The whole family JSON of family_json_chunks as one bytes."""
    return b"".join(family_json_chunks(fam))


def family_from_dict(d: dict) -> DifferenceFamily:
    """The family of a construct artifact.  Rows must be in canonical slot
    order, (1, x, x^2, x+1, x^2+1, x^2+x, x^2+x+1) for the seed x in slot
    1; all rows are checked at once and the first bad one is named in a
    MalformedFamilyError (ForbiddenSeedError for a seed outside F* \\ {1})."""
    ctx = GF2n(int(d["n"]), int(d["modulus"]))
    rows = d["blocks"]
    parsed = []
    for row in rows:
        if not isinstance(row, list) or len(row) != 7 or not all(isinstance(s, str) for s in row):
            raise MalformedFamilyError(f"block row {row} is not a list of exactly 7 hex strings")
        try:
            parsed.append([int(s, 16) for s in row])
        except ValueError:
            raise MalformedFamilyError(f"block row {row} has an element that is not hex") from None
    # an element outside the field becomes -1, which no canonical row holds
    slots = np.array([[e if 0 <= e < ctx.order else -1 for e in r] for r in parsed], dtype=np.int64)
    slots = slots.reshape(-1, 7)
    seeds = slots[:, 1]
    valid = (seeds >= 2) & (seeds < ctx.order)
    bad = ~valid | (block_slots(ctx, np.where(valid, seeds, 2)) != slots).any(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        block_of(ctx, parsed[k][1])  # a seed outside F* minus {1} raises here
        if (slots[k] < 0).any():
            raise MalformedFamilyError(f"block row {rows[k]} has an element outside GF(2^{ctx.n})")
        raise MalformedFamilyError(f"block row {rows[k]} is not in canonical slot order")
    return DifferenceFamily(ctx, slots, lambda_claim=int(d["lambda"]))


# -- designs and spreads --------------------------------------------------------

def _orbit_dicts(d: Design) -> list[dict]:
    return [
        {"rep": _block_hex(rep, d.ctx.n), "length": length, "replication": replication}
        for rep, length, replication in d.orbit_rows()
    ]


def design_to_dict(d: Design) -> dict:
    return {
        "n": d.ctx.n,
        "modulus": d.ctx.modulus,
        "v": d.v,
        "k": d.k,
        "lambda": d.lambda_claim,
        "orbits": _orbit_dicts(d),
    }


def gdd_to_dict(spread: Spread, design: Design) -> dict:
    n = spread.ctx.n
    return {
        "n": n,
        "modulus": spread.ctx.modulus,
        "g": 3,
        "lambda": design.lambda_claim,
        "spread": [_block_hex(g, n) for g in spread.groops],
        "orbits": _orbit_dicts(design),
    }


def _orbit_rows_json_chunks(d: Design) -> Iterator[bytes]:
    """The "orbits" list of design_to_dict as json.dumps(indent=2) writes
    it as the value of a top-level key, in chunks of _ROW_CHUNK orbits."""
    if not len(d.slots):
        yield b"[]"
        return
    orbit = (
        '    {\n      "rep": '
        + _json_list([f'        "%0{hex_width(d.ctx.n)}x"'] * 7, "      ")
        + ',\n      "length": %d,\n      "replication": %d\n    }'
    )
    yield b"[\n"
    for lo in range(0, len(d.slots), _ROW_CHUNK):
        part = slice(lo, lo + _ROW_CHUNK)
        rows = ",\n".join(
            orbit % (*rep, length, replication)
            for rep, length, replication in zip(
                d.slots[part].tolist(), d.length[part].tolist(), d.replication[part].tolist()
            )
        )
        yield (rows if lo == 0 else ",\n" + rows).encode("ascii")
    yield b"\n  ]"


def gdd_json_chunks(spread: Spread, design: Design, reports: dict) -> Iterator[bytes]:
    """gdd_to_dict(spread, design), followed by the keys of `reports`, as
    JSON in chunks of at most _ROW_CHUNK groops or orbits: byte for byte
    what to_json_bytes gives for that dict.  The groops are rows of one
    byte template like the family's blocks; each value of `reports` is
    small and goes through json.dumps."""
    n = spread.ctx.n
    yield (
        f'{{\n  "n": {n},\n  "modulus": {spread.ctx.modulus},\n  "g": 3,\n'
        f'  "lambda": {design.lambda_claim},\n  "spread": '
    ).encode("ascii")
    yield from _hex_rows_json_chunks(spread.groops, n)
    yield b',\n  "orbits": '
    yield from _orbit_rows_json_chunks(design)
    for key, value in reports.items():
        # one level deeper than json.dumps puts it: two more spaces a line
        text = json.dumps(value, indent=2).replace("\n", "\n  ")
        yield f",\n  {json.dumps(key)}: {text}".encode("ascii")
    yield b"\n}\n"


# -- reports, certificates, profiles --------------------------------------------

def report_to_dict(r: VerificationReport, n: int) -> dict:
    out = {
        "pass": r.passed,
        "pair_coverage_min": r.pair_coverage_min,
        "pair_coverage_max": r.pair_coverage_max,
        "offending_pairs": [
            {"pair": [element_hex(u, n), element_hex(v, n)], "count": c}
            for (u, v), c in r.offending_pairs
        ]
        if r.offending_pairs and isinstance(r.offending_pairs[0][0], tuple)
        else [
            {"t": element_hex(t, n), "count": c} for t, c in r.offending_pairs
        ],
    }
    if r.checks is not None:
        out["checks"] = r.checks
    if r.notes:
        out["notes"] = r.notes
    return out


def certificates_json_chunks(ctx: GF2n, tab: CertificateTable) -> Iterator[bytes]:
    """The certify report {"n", "modulus", "r_min", "r_max", "all_matched",
    "certificates": [{"t", "r", "matching_ok", "solvable"}, ...]} as JSON,
    in chunks of at most _ROW_CHUNK certificates.

    Written like to_json_bytes would write that dict; each distinct
    solvable list (at most 2^9 of them) is rendered once.
    """
    pairs = list(EQUATION_FORMS)
    keys = np.zeros(len(tab.ts), dtype=np.int64)  # bit c: equation c solvable
    for c in range(len(pairs)):
        keys[tab.solvable[:, c]] |= 1 << c
    solvable = {}
    for key in np.unique(keys).tolist():
        items = [
            f"        [\n          {i},\n          {j}\n        ]"
            for c, (i, j) in enumerate(pairs)
            if key >> c & 1
        ]
        solvable[key] = _json_list(items, "      ")
    cert = (
        f'    {{\n      "t": "%0{hex_width(ctx.n)}x",\n      "r": %d,\n'
        f'      "matching_ok": %s,\n      "solvable": %s\n    }}'
    )
    yield (
        f'{{\n  "n": {ctx.n},\n  "modulus": {ctx.modulus},\n'
        f'  "r_min": {int(tab.r.min())},\n  "r_max": {int(tab.r.max())},\n'
        f'  "all_matched": {_JSON_BOOL[bool(tab.matching_ok.all())]},\n'
        f'  "certificates": ['
    ).encode("ascii")
    for lo in range(0, len(keys), _ROW_CHUNK):
        part = slice(lo, lo + _ROW_CHUNK)
        rows = ",\n".join(
            cert % (t, r, _JSON_BOOL[ok], solvable[key])
            for t, r, ok, key in zip(
                tab.ts[part].tolist(),
                tab.r[part].tolist(),
                tab.matching_ok[part].tolist(),
                keys[part].tolist(),
            )
        )
        yield b"\n" if lo == 0 else b",\n"
        yield rows.encode("ascii")
    yield b"\n  ]\n}\n"


def certificates_to_json(ctx: GF2n, tab: CertificateTable) -> bytes:
    """The whole certify report of certificates_json_chunks as one bytes."""
    return b"".join(certificates_json_chunks(ctx, tab))


def profile_csv_chunks(p: MultiplicityProfile, n: int) -> Iterator[bytes]:
    """The profile as CSV: a `t_hex,count` header and one line per t in
    F* minus {1}, in chunks of at most _ROW_CHUNK lines."""
    line = f"%0{hex_width(n)}x,%d\n"
    yield b"t_hex,count\n"
    for lo in range(2, p.order, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, p.order)
        lines = [line % tc for tc in zip(range(lo, hi), p.counts[lo:hi].tolist())]
        yield "".join(lines).encode("ascii")


def profile_to_csv(p: MultiplicityProfile, n: int) -> str:
    """The whole CSV of profile_csv_chunks as one str."""
    return b"".join(profile_csv_chunks(p, n)).decode("ascii")
