"""JSON/CSV formats for families, GDDs, reports and profiles.

All formats are byte-deterministic: fixed key order, lowercase hex
zero-padded to ceil(n/4) digits, two-space indentation, trailing newline.
Wall-clock timings are deliberately left out of serialized reports so
identical inputs always produce identical artifacts.  Of these files
only the family file is read back, by read_artifact.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Iterable, Iterator

import numpy as np

from .design import Design, PairOffender, VerificationReport
from .errors import ForbiddenSeedError, MalformedFamilyError, QdfError
from .family import MATCHED_PAIRS, CertificateTable, DifferenceFamily, MultiplicityProfile, rank
from .gf2n import GF2n


_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
# _HEX_PAIRS[b], read as its two bytes in memory, is the two hex digits of
# the byte value b, high digit first, whatever the host's byte order; built
# without numpy, whose loops it would run nowhere else (~0.3 MiB of RSS)
_HEX_PAIRS = np.frombuffer("".join(f"{b:02x}" for b in range(256)).encode("ascii"), np.uint16)


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


# Bytes per chunk of the streamed writers (block and groop rows, orbits,
# certificates, CSV lines), to within one row; bounds their memory.
_CHUNK_BYTES = 1 << 18


def _fill_hex(out: np.ndarray, vals: np.ndarray, at: int, stride: int, w: int) -> None:
    """Write the w zero-padded lowercase hex digits of each vals[r, c] at
    out[r, at + c * stride :], two at a time from the lowest byte of the
    values, through one strided (rows, columns) view per byte."""
    idx = np.empty(vals.shape, dtype=np.intp)  # take() copies any other index type to intp
    for j in range(w - 2, -2, -2):  # j = -1: an odd width's leading digit, alone
        np.right_shift(vals, 4 * (w - 2 - j), out=idx)
        idx &= 255
        table = _HEX_PAIRS if j >= 0 else _HEX_DIGITS
        view = np.ndarray(vals.shape, table.dtype, out, at + max(j, 0), (out.shape[1], stride))
        view[...] = table.take(idx)


def _rows_chunks(
    head: str, tails: list[str], which: np.ndarray, chunks: Iterable[np.ndarray], sep: str
) -> Iterator[bytes]:
    """Byte rows joined by `sep`, in chunks of as many rows as fit in
    _CHUNK_BYTES, one at least, none across two of `chunks`; every chunk
    but the last ends with `sep`.  Row k is `head`, its c equally spaced
    runs of "#" filled with the zero-padded lowercase hex digits of its
    values, the row's of the (rows, c) int arrays `chunks` ((rows,) for
    c = 1), then tails[which[k]].  Each distinct tail is rendered once,
    after the head, as a byte row zero-padded to the longest; a chunk
    gathers its rows, fills in the digits and drops any padding by one mask."""
    rows = [(head + tail + sep).encode("ascii") for tail in tails]
    lengths = np.array([len(row) for row in rows])
    rows = np.array(rows).view(np.uint8).reshape(len(rows), -1)
    keep = np.arange(rows.shape[1]) < lengths[:, None] if lengths.min() < rows.shape[1] else None
    runs = [m.span() for m in re.finditer("#+", head)]
    at, w = runs[0][0], runs[0][1] - runs[0][0]
    stride = (runs[-1][0] - at) // max(1, len(runs) - 1)
    step = max(1, _CHUNK_BYTES // rows.shape[1])
    done = 0
    for values in chunks:
        values = values.reshape(len(values), len(runs))
        for lo in range(0, len(values), step):
            part = which[done : done + min(step, len(values) - lo)]
            done += len(part)
            # take() gathers rows several times faster than fancy indexing
            out = rows.take(part, axis=0)
            _fill_hex(out, values[lo : lo + step], at, stride, w)
            out = out.ravel() if keep is None else out[keep.take(part, axis=0)]
            yield out[: len(out) - len(sep) if done == len(which) else None].tobytes()
            del out  # not held while the next chunk of values is made


def _json_rows_chunks(
    head: str, tails: list[str], which: np.ndarray, chunks: Iterable[np.ndarray]
) -> Iterator[bytes]:
    """The rows of _rows_chunks as the items of the list json.dumps(indent=2)
    writes as the value of a top-level key."""
    if not len(which):
        yield b"[]"
        return
    yield b"[\n"
    yield from _rows_chunks(head, tails, which, chunks, ",\n")
    yield b"\n  ]"


def _json_head(fields: dict, key: str) -> bytes:
    """The start of a top-level JSON object as json.dumps(indent=2) writes
    it: the scalar items of `fields`, then `key`, its value to follow."""
    items = "".join(f'  "{name}": {json.dumps(value)},\n' for name, value in fields.items())
    return f'{{\n{items}  "{key}": '.encode("ascii")


def _block_head(n: int) -> str:
    """The head of a block or groop row: a list of 7 hex strings."""
    return "    " + _json_list([f'      "{"#" * hex_width(n)}"'] * 7, "    ")


def _block_rows(rows: np.ndarray, n: int, chunks=None) -> tuple:
    """The head, tails, which and chunks of _rows_chunks for `rows`, each a
    list of 7 hex strings: an (N, 7) int array, or a family in `chunks`."""
    which = np.zeros(len(rows), dtype=np.uint8)
    return _block_head(n), [""], which, (rows,) if chunks is None else chunks


def family_json_chunks(fam: DifferenceFamily, chunks=None) -> Iterator[bytes]:
    """{"n", "modulus", "lambda", "blocks": [[7 hex strings], ...]} as JSON,
    in chunks of at most _CHUNK_BYTES, or of one block row: byte for byte
    what to_json_bytes gives for the same dict, from fam's slot chunks or
    from `chunks`, the same rows.  read_artifact reads it back."""
    fields = {"n": fam.ctx.n, "modulus": fam.ctx.modulus, "lambda": fam.lambda_claim}
    yield _json_head(fields, "blocks")
    yield from _json_rows_chunks(*_block_rows(fam, fam.ctx.n, chunks or fam.chunks()))
    yield b"\n}\n"


# -- GDDs: spreads and orbits ---------------------------------------------------

def _orbit_head(n: int) -> str:
    """The head of an orbit row, up to its length."""
    rep = _json_list([f'        "{"#" * hex_width(n)}"'] * 7, "      ")
    return f'    {{\n      "rep": {rep},\n      "length": '


def _orbit_rows(d: Design) -> tuple:
    """The head, tails, which and values of _rows_chunks for the orbits
    {"rep": [7 hex strings], "length", "replication"} of d, with one tail
    per distinct (length, replication)."""
    # one key per (length, replication): a replication is below the radix
    radix = int(d.replication.max(initial=0)) + 1
    keys, which = rank(d.length * radix + d.replication)
    tails = [
        f'{m},\n      "replication": {r}\n    }}'
        for m, r in (divmod(key, radix) for key in keys.tolist())
    ]
    return _orbit_head(d.ctx.n), tails, which, d.blocks.chunks()


def gdd_json_chunks(groops: np.ndarray, design: Design, reports: dict) -> Iterator[bytes]:
    """{"n", "modulus", "g", "lambda", "spread": [[7 hex strings], ...],
    "orbits"} of the (G, 7) groop rows and the design, followed by the
    keys of `reports`, as JSON in chunks of at most _CHUNK_BYTES, or of one
    groop or orbit: byte for byte what to_json_bytes gives for that dict.
    The groops are rows of one byte template like the family's blocks, the
    orbits those of _orbit_rows; each value of `reports` is small and goes
    through json.dumps."""
    ctx = design.ctx
    fields = {"n": ctx.n, "modulus": ctx.modulus, "g": 3, "lambda": design.lambda_claim}
    yield _json_head(fields, "spread")
    yield from _json_rows_chunks(*_block_rows(groops, ctx.n))
    yield b',\n  "orbits": '
    yield from _json_rows_chunks(*_orbit_rows(design))
    for key, value in reports.items():
        # one level deeper than json.dumps puts it: two more spaces a line
        text = json.dumps(value, indent=2).replace("\n", "\n  ")
        yield f",\n  {json.dumps(key)}: {text}".encode("ascii")
    yield b"\n}\n"


# -- reading families back ----------------------------------------------------

# bytes.translate's table from each lowercase hex digit to its value; any
# other byte stays as it is, and a seed read with one renders otherwise
_HEX_VALUES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def _first_difference(data: bytes, chunks: Iterator[bytes]) -> int | None:
    """The offset of the first byte at which `data` and the joined chunks
    differ, or None where they are equal."""
    at = 0
    for chunk in chunks:
        if memoryview(data)[at : at + len(chunk)] != chunk:
            return at + len(os.path.commonprefix([chunk, data[at : at + len(chunk)]]))
        at += len(chunk)
    return None if at == len(data) else at


def read_artifact(data: bytes, check_n) -> DifferenceFamily:
    """The family of a file family_json_chunks wrote; `check_n` may refuse
    its n, by raising a QdfError, before the field is built.  The file
    must be the writer's rendering of the blocks of its rows' slot-1
    seeds.  Otherwise the first bad row is named, by index and text, in a
    MalformedFamilyError, or a ForbiddenSeedError if its seed lies outside
    F* minus {1}.  A file with no "blocks" key, such as a gdd file, is
    refused with a QdfError."""
    if b'"blocks"' not in data:
        raise QdfError("unrecognized input file: expected a family JSON")
    h = data.find(b'"blocks": ') + len(b'"blocks": ')
    ints = re.findall(rb"-?\d{1,30}", data[:h])
    fields = dict(zip(("n", "modulus", "lambda"), map(int, ints)))
    if len(ints) != 3 or data[:h] != _json_head(fields, "blocks"):
        raise MalformedFamilyError("the header is not that of a family file")
    n = fields["n"]
    check_n(n)

    # every row the writer renders has one width: row k opens at
    # h + 2 + k * width, its "[" 4 bytes in and its seed's w digits at seed_at
    head, w = _block_head(n), hex_width(n)
    width, seed_at = len(head) + 2, head.index("#", head.index(","))
    # the rows are the slots that hold their seed in the file, up to the
    # first whose "[" is missing: one byte gathered per slot
    slots = (len(data) - h - 2 - seed_at - w) // width + 1
    opens = data[h + 6 : h + 2 + slots * width : width]
    m = len(opens) - len(opens.lstrip(b"["))
    seeds = np.zeros(m, dtype=np.int32)
    for at in range(h + 2 + seed_at, h + 2 + seed_at + w):  # a digit of every row at a time
        seeds <<= 4
        seeds |= np.frombuffer(data[at : at + m * width : width].translate(_HEX_VALUES), np.uint8)
    ctx = GF2n(n, fields["modulus"])
    seeds[(seeds < 2) | (seeds >= ctx.order)] = 2  # a valid seed; the render then differs
    fam = DifferenceFamily(ctx, None, fields["lambda"], seeds=seeds)
    x = _first_difference(data, family_json_chunks(fam))
    if x is None:
        return fam

    # the rows before x are the writer's, byte for byte.  Past the m rows,
    # row m is named where a separator follows them and a "[" after it
    end = h + m * width  # where the writer closes the list after m rows
    k = min(max(0, (x - h - 2) // width), m - 1)
    if x >= end and (data.startswith(b",\n", end) or not m) and data.find(b"[", end + 1) >= 0:
        k = m
    if k < 0:
        raise MalformedFamilyError("the blocks list is not in the writer's layout")
    row_at = h + 2 + k * width
    after = data.find(b"[", row_at + 5)  # the next row's, 6 bytes past its separator
    text = data[row_at : after - 6 if after >= 0 else None].removesuffix(b"\n  ]\n}\n")
    text = text[: 1 << 10].decode("ascii", "backslashreplace")
    # the row is the writer's up to its seed, which is hex but no seed (else 2, a seed)
    seed = data[row_at + seed_at : row_at + seed_at + w]
    seed = int(seed, 16) if re.fullmatch(rb"[0-9a-f]+", seed) and x >= row_at + seed_at else 2
    if seed not in range(2, ctx.order):
        raise ForbiddenSeedError(
            f"block row {k} has seed {seed:#x}, outside F* minus {{1}}:\n{text}"
        )
    raise MalformedFamilyError(f"block row {k} is not the writer's row for its seed:\n{text}")


# -- reports, certificates, profiles --------------------------------------------

def report_to_dict(r: VerificationReport, n: int) -> dict:
    out = {
        "pass": r.passed,
        "pair_coverage_min": r.pair_coverage_min,
        "pair_coverage_max": r.pair_coverage_max,
        "offending_pairs": [
            {"pair": [element_hex(u, n) for u in o.pair], "count": o.count}
            if isinstance(o, PairOffender)
            else {"t": element_hex(o.t, n), "count": o.count}
            for o in r.offending_pairs
        ],
    }
    if r.checks is not None:
        out["checks"] = r.checks
    if r.notes:
        out["notes"] = r.notes
    return out


def _certificate_parts(n: int, modulus: int, decoded: list) -> tuple[bytes, str, list[str]]:
    """The header, and the head and tails of _rows_chunks, of a certify
    report over GF(2^n) whose distinct keys decode to `decoded`, one tail
    per (solvable pairs, r, matching_ok)."""
    rs = [r for _, r, _ in decoded]
    fields = {
        "n": n,
        "modulus": modulus,
        "r_min": min(rs),
        "r_max": max(rs),
        "all_matched": all(ok for _, _, ok in decoded),
    }
    tails = []
    for pairs, r, ok in decoded:
        items = [f"        [\n          {i},\n          {j}\n        ]" for i, j in pairs]
        tails.append(
            f'"r": {r},\n      "matching_ok": {json.dumps(ok)},\n'
            f'      "solvable": {_json_list(items, "      ")}\n    }}'
        )
    head = f'    {{\n      "t": "{"#" * hex_width(n)}",\n      '
    return _json_head(fields, "certificates"), head, tails


def certificates_json_chunks(ctx: GF2n, tab: CertificateTable) -> Iterator[bytes]:
    """The certify report {"n", "modulus", "r_min", "r_max", "all_matched",
    "certificates": [{"t", "r", "matching_ok", "solvable"}, ...]} as JSON,
    in chunks of at most _CHUNK_BYTES, or of one certificate: byte for byte
    what to_json_bytes gives for that dict.  The header and each row's tail
    come from the table's decoded keys, each rendered once."""
    decoded, which = tab.decoded
    header, head, tails = _certificate_parts(ctx.n, ctx.modulus, decoded)
    yield header
    yield from _json_rows_chunks(head, tails, which, (tab.ts,))
    yield b"\n}\n"


def certificates_json_size(n: int, modulus: int) -> int:
    """The bytes certificates_json_chunks writes over GF(2^n) when every
    certificate holds (r = 9, one solvable equation per match), so that
    every row has one width: the header, 2^n - 2 rows, the 2-byte
    separator after all but the last, and the 9 bytes that open and
    close the list and the object."""
    matched = [([p for p, _ in MATCHED_PAIRS], 9, True)]
    header, head, (tail,) = _certificate_parts(n, modulus, matched)
    return len(header) + ((1 << n) - 2) * (len(head + tail) + 2) + 7


def profile_csv_chunks(p: MultiplicityProfile, n: int) -> Iterator[bytes]:
    """The profile as CSV: a `t_hex,count` header and one line per t in
    F* minus {1}, in chunks of at most _CHUNK_BYTES, with one tail per
    distinct count."""
    yield b"t_hex,count\n"
    counts, which = rank(p.counts[2:])
    tails = [f"{c}\n" for c in counts.tolist()]
    ts = np.arange(2, p.ctx.order, dtype=np.int32)
    yield from _rows_chunks("#" * hex_width(n) + ",", tails, which, (ts,), "")
