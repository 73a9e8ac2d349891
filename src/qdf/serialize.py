"""JSON/CSV formats for families, designs, spreads, reports and profiles.

All formats are byte-deterministic: fixed key order, lowercase hex
zero-padded to ceil(n/4) digits, two-space indentation, trailing newline.
Wall-clock timings are deliberately left out of serialized reports so
identical inputs always produce identical artifacts.
"""

from __future__ import annotations

import json

import numpy as np

from .blocks import Block, block_of
from .design import Design, Orbit, VerificationReport
from .family import EQUATION_FORMS, CertificateTable, DifferenceFamily, MultiplicityProfile
from .gdd import Spread
from .gf2n import GF2n


_JSON_BOOL = {False: "false", True: "true"}


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


def family_to_json(fam: DifferenceFamily) -> bytes:
    """{"n", "modulus", "lambda", "blocks": [[7 hex strings], ...]} as JSON.

    Written row by row from one %-template, byte for byte what
    to_json_bytes gives for the same dict.
    """
    n = fam.ctx.n
    row = _json_list([f'      "%0{hex_width(n)}x"'] * 7, "    ")
    blocks = _json_list([f"    {row}" % b.elements for b in fam.base_blocks], "  ")
    return (
        f'{{\n  "n": {n},\n  "modulus": {fam.ctx.modulus},\n'
        f'  "lambda": {fam.lambda_claim},\n  "blocks": {blocks}\n}}\n'
    ).encode("ascii")


def family_from_dict(d: dict) -> DifferenceFamily:
    ctx = GF2n(int(d["n"]), int(d["modulus"]))
    blocks = []
    for row in d["blocks"]:
        elements = tuple(int(s, 16) for s in row)
        if len(elements) != 7:
            raise ValueError("block rows must have exactly 7 elements")
        b = block_of(ctx, elements[1])  # slot 1 is the seed by construction
        if b.elements != elements:
            raise ValueError(f"block row {row} is not in canonical slot order")
        blocks.append(b)
    return DifferenceFamily(ctx, tuple(blocks), lambda_claim=int(d["lambda"]))


# -- designs and spreads --------------------------------------------------------

def _orbit_dict(o: Orbit, n: int) -> dict:
    return {
        "rep": _block_hex(o.rep.elements, n),
        "length": o.length,
        "replication": o.replication,
    }


def design_to_dict(d: Design) -> dict:
    n = d.ctx.n
    return {
        "n": n,
        "modulus": d.ctx.modulus,
        "v": d.v,
        "k": d.k,
        "lambda": d.lambda_claim,
        "orbits": [_orbit_dict(o, n) for o in d.orbits],
    }


def gdd_to_dict(spread: Spread, design: Design) -> dict:
    n = spread.ctx.n
    return {
        "n": n,
        "modulus": spread.ctx.modulus,
        "g": 3,
        "lambda": design.lambda_claim,
        "spread": [_block_hex(g, n) for g in spread.groops],
        "orbits": [_orbit_dict(o, n) for o in design.orbits],
    }


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


def certificates_to_json(ctx: GF2n, tab: CertificateTable) -> bytes:
    """The certify report {"n", "modulus", "r_min", "r_max", "all_matched",
    "certificates": [{"t", "r", "matching_ok", "solvable"}, ...]} as JSON.

    Written like to_json_bytes would write that dict; each distinct
    solvable list (at most 2^9 of them) is rendered once.
    """
    pairs = list(EQUATION_FORMS)
    keys = tab.solvable @ (1 << np.arange(len(pairs)))
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
    certs = _json_list(
        [
            cert % (t, r, _JSON_BOOL[ok], solvable[key])
            for t, r, ok, key in zip(
                tab.ts.tolist(), tab.r.tolist(), tab.matching_ok.tolist(), keys.tolist()
            )
        ],
        "  ",
    )
    return (
        f'{{\n  "n": {ctx.n},\n  "modulus": {ctx.modulus},\n'
        f'  "r_min": {int(tab.r.min())},\n  "r_max": {int(tab.r.max())},\n'
        f'  "all_matched": {_JSON_BOOL[bool(tab.matching_ok.all())]},\n'
        f'  "certificates": {certs}\n}}\n'
    ).encode("ascii")


def profile_to_csv(p: MultiplicityProfile, n: int) -> str:
    lines = ["t_hex,count"]
    for t in range(2, p.order):
        lines.append(f"{element_hex(t, n)},{p.count_of(t)}")
    return "\n".join(lines) + "\n"
