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

from .blocks import block_of, block_slots
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


def to_json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode("ascii")


# -- difference families ------------------------------------------------------

def _json_list(items: list[str], indent: str) -> str:
    """Rendered JSON items, each already indented one level deeper than
    `indent`, as the list json.dumps(indent=2) writes on a line at `indent`."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


# Rows per chunk of the streamed writers (block and groop rows, orbits,
# certificates, CSV lines); bounds their memory.
_ROW_CHUNK = 1 << 12


def _rows_chunks(
    head: str, tails: list[str], which: np.ndarray, values: np.ndarray, sep: str
) -> Iterator[bytes]:
    """Byte rows joined by `sep`, in chunks of _ROW_CHUNK rows; every chunk
    but the last ends with `sep`.  Row k is `head`, its runs of "#" (one
    per column of the (N, c) int array `values`, or one for an (N,) array)
    filled with the zero-padded lowercase hex digits of values[k], then
    tails[which[k]].  Each distinct tail is rendered once, after the head,
    as a byte row zero-padded to the longest; a chunk gathers its rows,
    fills in the digits and drops any padding by one mask."""
    rows = [(head + tail + sep).encode("ascii") for tail in tails]
    lengths = np.array([len(row) for row in rows])
    rows = np.array(rows).view(np.uint8).reshape(len(rows), -1)
    keep = np.arange(rows.shape[1]) < lengths[:, None] if lengths.min() < rows.shape[1] else None
    values = values.reshape(len(values), -1)
    digits = np.flatnonzero(rows[0, : len(head)] == ord("#")).reshape(values.shape[1], -1)
    w = digits.shape[1]
    for lo in range(0, len(values), _ROW_CHUNK):
        part = which[lo : lo + _ROW_CHUNK]
        # take() gathers rows several times faster than fancy indexing
        out, vals = rows.take(part, axis=0), values[lo : lo + _ROW_CHUNK]
        for j in range(w):
            out[:, digits[:, j]] = _HEX_DIGITS[vals >> 4 * (w - 1 - j) & 15]
        out = out.ravel() if keep is None else out[keep.take(part, axis=0)]
        yield out[: len(out) - len(sep) if lo + _ROW_CHUNK >= len(values) else None].tobytes()


def _json_rows_chunks(
    head: str, tails: list[str], which: np.ndarray, values: np.ndarray
) -> Iterator[bytes]:
    """The rows of _rows_chunks as the items of the list json.dumps(indent=2)
    writes as the value of a top-level key."""
    if not len(values):
        yield b"[]"
        return
    yield b"[\n"
    yield from _rows_chunks(head, tails, which, values, ",\n")
    yield b"\n  ]"


def _hex_rows_json_chunks(rows: np.ndarray, n: int) -> Iterator[bytes]:
    """The list json.dumps(indent=2) writes, as the value of a top-level
    key, for the rows of the (N, 7) int array `rows`: each row a list of
    7 hex strings."""
    head = "    " + _json_list([f'      "{"#" * hex_width(n)}"'] * 7, "    ")
    return _json_rows_chunks(head, [""], np.zeros(len(rows), dtype=np.uint8), rows)


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

def _orbit_rows_json_chunks(d: Design) -> Iterator[bytes]:
    """The "orbits" list [{"rep": [7 hex strings], "length", "replication"},
    ...] as json.dumps(indent=2) writes it as the value of a top-level
    key, with one tail per distinct (length, replication)."""
    # one key per (length, replication): a replication is below the radix
    key = d.length * (int(d.replication.max(initial=0)) + 1) + d.replication
    first, which = np.unique(key, return_index=True, return_inverse=True)[1:]
    head = (
        '    {\n      "rep": '
        + _json_list([f'        "{"#" * hex_width(d.ctx.n)}"'] * 7, "      ")
        + ',\n      "length": '
    )
    tails = [
        f'{m},\n      "replication": {r}\n    }}'
        for m, r in zip(d.length[first].tolist(), d.replication[first].tolist())
    ]
    return _json_rows_chunks(head, tails, which, d.slots)


def design_json_chunks(d: Design) -> Iterator[bytes]:
    """{"n", "modulus", "v", "k", "lambda", "orbits"} of a developed design
    as JSON, in chunks of at most _ROW_CHUNK orbits: byte for byte what
    to_json_bytes gives for that dict.  `export` accepts the file."""
    yield (
        f'{{\n  "n": {d.ctx.n},\n  "modulus": {d.ctx.modulus},\n  "v": {d.v},\n'
        f'  "k": {d.k},\n  "lambda": {d.lambda_claim},\n  "orbits": '
    ).encode("ascii")
    yield from _orbit_rows_json_chunks(d)
    yield b"\n}\n"


def gdd_json_chunks(spread: Spread, design: Design, reports: dict) -> Iterator[bytes]:
    """{"n", "modulus", "g", "lambda", "spread": [[7 hex strings], ...],
    "orbits"} followed by the keys of `reports`, as JSON in chunks of at
    most _ROW_CHUNK groops or orbits: byte for byte what to_json_bytes
    gives for that dict.  The groops are rows of one byte template like
    the family's blocks, the orbits those of design_json_chunks; each
    value of `reports` is small and goes through json.dumps."""
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
    in chunks of at most _ROW_CHUNK certificates: byte for byte what
    to_json_bytes gives for that dict.  r, matching_ok and solvable depend
    only on the set of solvable equations (at most 2^9 distinct ones), so
    each set's tail is rendered once, from the first row holding it."""
    pairs = list(EQUATION_FORMS)
    keys = np.zeros(len(tab.ts), dtype=np.int32)  # bit c: equation c solvable
    for c in range(len(pairs)):
        keys |= np.left_shift(tab.solvable[:, c], c, dtype=np.int32)
    first, which = np.unique(keys, return_index=True, return_inverse=True)[1:]
    del keys
    tails = []
    for solvable, r, ok in zip(
        tab.solvable[first].tolist(), tab.r[first].tolist(), tab.matching_ok[first].tolist()
    ):
        items = [
            f"        [\n          {i},\n          {j}\n        ]"
            for (i, j), s in zip(pairs, solvable)
            if s
        ]
        tails.append(
            f'"r": {r},\n      "matching_ok": {_JSON_BOOL[ok]},\n'
            f'      "solvable": {_json_list(items, "      ")}\n    }}'
        )
    yield (
        f'{{\n  "n": {ctx.n},\n  "modulus": {ctx.modulus},\n'
        f'  "r_min": {int(tab.r.min())},\n  "r_max": {int(tab.r.max())},\n'
        f'  "all_matched": {_JSON_BOOL[bool(tab.matching_ok.all())]},\n'
        f'  "certificates": [\n'
    ).encode("ascii")
    head = f'    {{\n      "t": "{"#" * hex_width(ctx.n)}",\n      '
    yield from _rows_chunks(head, tails, which, tab.ts, ",\n")
    yield b"\n  ]\n}\n"


def profile_csv_chunks(p: MultiplicityProfile, n: int) -> Iterator[bytes]:
    """The profile as CSV: a `t_hex,count` header and one line per t in
    F* minus {1}, in chunks of at most _ROW_CHUNK lines, with one tail
    per distinct count."""
    yield b"t_hex,count\n"
    counts, which = np.unique(p.counts[2:], return_inverse=True)
    tails = [f"{c}\n" for c in counts.tolist()]
    ts = np.arange(2, p.order, dtype=np.int32)
    yield from _rows_chunks("#" * hex_width(n) + ",", tails, which, ts, "")
