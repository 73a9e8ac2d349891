"""Format tests: hex conventions, round-trips, deterministic bytes."""

import hashlib
import json
import textwrap

import numpy as np
import pytest

from qdf import (
    MATCHED_PAIRS,
    CertificateTable,
    Design,
    DifferenceFamily,
    ForbiddenSeedError,
    MalformedFamilyError,
    QdfError,
    build_family,
    build_relative_family,
    certificate_table,
    desarguesian_spread,
    develop,
    full_family,
    multiplicity_profile,
    verify_2design,
    verify_gdd,
    verify_relative,
)
from qdf.design import PairOffender, QuotientOffender
from qdf.family import EQUATION_FORMS
from qdf.serialize import (
    certificates_json_chunks,
    element_hex,
    family_json_chunks,
    gdd_json_chunks,
    hex_width,
    profile_csv_chunks,
    read_artifact,
    report_to_dict,
    to_json_bytes,
)
from oracles import cached_field, certify_dict, family_dict, gdd_dict

# (n, modulus): n = 3..11 with the default modulus, and a second one at n = 7
FIELDS = [(3, None), (5, None), (7, None), (7, 0x89), (9, None), (11, None)]


def test_hex_width_and_padding():
    assert [hex_width(n) for n in (3, 5, 9, 13, 15)] == [1, 2, 3, 4, 4]
    assert element_hex(7, 3) == "7"
    assert element_hex(7, 5) == "07"
    assert element_hex(511, 9) == "1ff"
    assert element_hex(0x1abc, 13) == "1abc"


def _no_ceiling(n):
    pass


def _read(data):
    return read_artifact(data, _no_ceiling)


def test_family_round_trip():
    f = cached_field(5)
    fam = build_family(f)
    data = b"".join(family_json_chunks(fam))
    d = json.loads(data)
    assert list(d.keys()) == ["n", "modulus", "lambda", "blocks"]
    assert d["n"] == 5 and d["modulus"] == f.modulus and d["lambda"] == 7
    assert len(d["blocks"]) == 5 and all(len(row) == 7 for row in d["blocks"])
    back = _read(data)
    assert back.ctx == f
    assert back.lambda_claim == 7
    assert back.slots.tolist() == fam.slots.tolist()


def _row_text(row) -> str:
    """A block row's text in a file as json.dumps(indent=2) lays it out."""
    return textwrap.indent(json.dumps(row, indent=2), "    ")


NOT_THE_WRITERS = "is not the writer's row for its seed"


def test_read_artifact_rejects_malformed_blocks():
    f = cached_field(5)
    d = json.loads(b"".join(family_json_chunks(build_family(f))))
    short = {**d, "blocks": [d["blocks"][0][:6]]}
    with pytest.raises(MalformedFamilyError, match=f"block row 0 {NOT_THE_WRITERS}"):
        _read(to_json_bytes(short))
    shuffled = {**d, "blocks": [list(reversed(d["blocks"][0]))]}
    with pytest.raises(MalformedFamilyError, match=f"block row 0 {NOT_THE_WRITERS}"):
        _read(to_json_bytes(shuffled))


def test_read_artifact_checks_every_row_and_names_the_first_bad_one():
    f = cached_field(7)
    d = json.loads(b"".join(family_json_chunks(build_family(f))))
    back = _read(to_json_bytes(d))
    assert back.slots.dtype == np.int32
    assert back.slots.tolist() == build_family(f).slots.tolist()
    rows = [list(r) for r in d["blocks"]]
    rows[3][4], rows[3][5] = rows[3][5], rows[3][4]
    rows[9] = list(reversed(rows[9]))
    with pytest.raises(MalformedFamilyError) as exc:
        _read(to_json_bytes({**d, "blocks": rows}))
    assert str(exc.value) == f"block row 3 {NOT_THE_WRITERS}:\n{_row_text(rows[3])}"
    # a seed outside F* minus {1} is a ForbiddenSeedError
    rows[2][1] = "01"
    with pytest.raises(ForbiddenSeedError, match="block row 2 has seed 0x1"):
        _read(to_json_bytes({**d, "blocks": rows}))
    rows[2][1] = "ff"
    with pytest.raises(ForbiddenSeedError, match="block row 2 has seed 0xff"):
        _read(to_json_bytes({**d, "blocks": rows}))


def test_read_artifact_needs_the_writers_layout():
    # json.dumps without indent holds the same family; the reader takes
    # only the writer's bytes
    d = json.loads(b"".join(family_json_chunks(build_family(cached_field(5)))))
    with pytest.raises(MalformedFamilyError, match="header"):
        _read(json.dumps(d).encode("ascii"))
    with pytest.raises(QdfError, match="unrecognized"):
        _read(b'{"n": 5}')


@pytest.mark.parametrize("n", [3, 5])
def test_every_changed_byte_of_the_blocks_is_rejected(n):
    # the blocks of a family file admit no other bytes: any one byte of the
    # list replaced by a digit, a space or a row opener fails a rule
    data = b"".join(family_json_chunks(build_family(cached_field(n))))
    lo = data.index(b"[")
    for at in range(lo, len(data) - 3):
        for byte in b"0f [":
            if byte != data[at]:
                with pytest.raises(QdfError):
                    _read(data[:at] + bytes([byte]) + data[at + 1 :])


def test_every_cut_after_the_key_is_malformed():
    # a cut within a seed's digits is a truncated file, not a forbidden seed
    data = b"".join(family_json_chunks(build_family(cached_field(5))))
    for cut in range(data.index(b"[") - 2, len(data)):
        with pytest.raises(MalformedFamilyError):
            _read(data[:cut])


def test_design_and_gdd_dict_shapes():
    # the design's orbits are written only inside a gdd file
    f = cached_field(9)
    rf = build_relative_family(build_family(f))
    gd = json.loads(b"".join(gdd_json_chunks(desarguesian_spread(f), develop(rf), {})))
    assert list(gd.keys()) == ["n", "modulus", "g", "lambda", "spread", "orbits"]
    assert gd["g"] == 3 and len(gd["spread"]) == 73 and len(gd["orbits"]) == 84
    assert all(list(o.keys()) == ["rep", "length", "replication"] for o in gd["orbits"])
    reps = {(o["length"], o["replication"]) for o in gd["orbits"]}
    assert reps == {(511, 1)}


def test_report_dict_contains_no_timing():
    f = cached_field(5)
    rep = verify_2design(develop(build_family(f)))
    d = report_to_dict(rep, 5)
    assert d["pass"] is True
    assert "timing" not in d
    assert d["pair_coverage_min"] == d["pair_coverage_max"] == 7


def _verifier_reports():
    """(report, n) by name: the failing designs of the verifier tests (a
    dropped block, a repeated point, the subfield block kept), by report
    kind, and passing ones, whose offender lists are empty."""
    f3, f5, f9 = cached_field(3), cached_field(5), cached_field(9)
    d5 = develop(build_family(f5))
    repeated = DifferenceFamily(f5, d5.blocks.slots.copy(), 7)
    repeated.rows[0, 6] = repeated.rows[0, 5]
    fam9 = build_family(f9)
    rel = build_relative_family(fam9)
    kept = DifferenceFamily(f9, fam9.slots, 7, forbidden=rel.forbidden)
    dropped = DifferenceFamily(f9, rel.slots[1:], 7, forbidden=rel.forbidden)
    pair = {
        "dropped": (verify_2design(develop(DifferenceFamily(f5, d5.blocks.slots[1:], 7))), 5),
        "repeated": (verify_2design(Design(f5, repeated, d5.length, d5.replication, 7)), 5),
        "gdd-dropped": (verify_gdd(develop(dropped)), 9),
        "gdd-kept": (verify_gdd(develop(kept)), 9),
    }
    quotient = {
        "relative-dropped": (verify_relative(dropped), 9),
        "relative-kept": (verify_relative(kept), 9),
    }
    passing = {
        "design-pass": (verify_2design(d5), 5),
        "gdd-pass": (verify_gdd(develop(rel)), 9),
        "relative-pass": (verify_relative(rel), 9),
        "relative-n3": (verify_relative(build_relative_family(build_family(f3))), 3),
    }
    return pair, quotient, passing


def test_offenders_are_typed_where_found():
    pair, quotient, _ = _verifier_reports()
    for reports, kind in ((pair, PairOffender), (quotient, QuotientOffender)):
        for rep, _ in reports.values():
            assert not rep.passed and rep.offending_pairs
            assert all(type(o) is kind for o in rep.offending_pairs)


def test_report_dict_bytes_of_each_offender_kind():
    # sha256 of json.dumps(report_to_dict(...)), recorded before offenders
    # were typed, when report_to_dict told the kinds apart by their shape
    digests = {
        "dropped": "e724b2376552a87e639b55cda2ca1f052418273312e84cebcf2388aae9ad7697",
        "repeated": "3a19cde2423edf2ddfe58ca4cb3fe8ffea52fe2ab9f51c2763e178ec1b844b23",
        "gdd-dropped": "2a3d29ae66a4aa9d2015fc64cceadef04800cc68065f64984751006242c1b99d",
        "gdd-kept": "9aae81259621a7dab3830fafd6a7fde7a2a2a2bc0bef41838670f8e441203530",
        "relative-dropped": "7b61dcd7f80fbb49c8586bafd3d53d8c43fb0cb1026c5538f696b85d39595e90",
        "relative-kept": "75de49e6e5e2b940a569d8821b9975446c55e8c52ed0c5de3d3171e7fb476685",
        "design-pass": "1e7057d49eb2f6a26f9ab45dbdb843cb62bdd38710235ded956e1e77bfe9fbce",
        "gdd-pass": "ef0462ba0f3cc63ad399ef2e254ad557b09bec3d9d676eb88684fc89c3fa88de",
        "relative-pass": "1e7057d49eb2f6a26f9ab45dbdb843cb62bdd38710235ded956e1e77bfe9fbce",
        "relative-n3": "e3cb85e50ac2aa8bfc29410119591fa4d802d1b81019fadf95a6fc5d8e1307a9",
    }
    pair, quotient, passing = _verifier_reports()
    reports = {**pair, **quotient, **passing}
    assert reports.keys() == digests.keys()
    for name, (rep, n) in reports.items():
        d = report_to_dict(rep, n)
        assert hashlib.sha256(json.dumps(d).encode()).hexdigest() == digests[name], name
    assert report_to_dict(pair["dropped"][0], 5)["offending_pairs"][0] == {
        "pair": ["01", "02"],
        "count": 4,
    }
    assert report_to_dict(quotient["relative-dropped"][0], 9)["offending_pairs"][0] == {
        "t": "002",
        "count": 4,
    }


def test_profile_csv_shape():
    f = cached_field(3)
    csv = b"".join(profile_csv_chunks(multiplicity_profile(build_family(f)), 3)).decode("ascii")
    lines = csv.strip().split("\n")
    assert lines[0] == "t_hex,count"
    assert lines[1:] == [f"{t:x},7" for t in range(2, 8)]


def test_json_bytes_deterministic():
    f = cached_field(5)
    fam = build_family(f)
    whole = b"".join(family_json_chunks(fam))
    assert whole == b"".join(family_json_chunks(build_family(cached_field(5))))
    assert whole.endswith(b"\n")


def _json_dumps(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode("ascii")


@pytest.mark.parametrize("n,modulus", FIELDS)
def test_family_writer_matches_json_dumps(n, modulus):
    f = cached_field(n, modulus)
    fams = [build_family(f), build_family(f, system="max")]
    if n <= 9:
        fams.append(full_family(f))
    fams.append(DifferenceFamily(f, (), lambda_claim=7))  # no blocks: "blocks": []
    for fam in fams:
        assert b"".join(family_json_chunks(fam)) == _json_dumps(family_dict(fam))


def _rows_per_chunk(monkeypatch, rows, *row_lists):
    """Set the writers' _CHUNK_BYTES to `rows` times the widest row of the
    given lists (each the head and tails that _rows_chunks renders), its
    two-byte JSON separator included, so that a chunk of the widest list
    holds `rows` rows; for `rows` None, one chunk holds them all."""
    from qdf import serialize

    width = max(len(head) + max(map(len, tails), default=0) + 2 for head, tails, *_ in row_lists)
    monkeypatch.setattr(serialize, "_CHUNK_BYTES", rows * width if rows else 1 << 40)


@pytest.mark.parametrize("chunk", [1, 3, None])
@pytest.mark.parametrize("n,modulus", [(3, None), (7, 0x89), (9, None)])
def test_family_json_chunks_independent_of_chunking(monkeypatch, n, modulus, chunk):
    from qdf.serialize import _block_rows

    f = cached_field(n, modulus)
    for fam in (build_family(f), full_family(f), DifferenceFamily(f, (), lambda_claim=7)):
        _rows_per_chunk(monkeypatch, chunk, _block_rows(fam.slots, n))
        chunks = list(family_json_chunks(fam))
        assert all(type(c) is bytes for c in chunks)
        assert b"".join(chunks) == _json_dumps(family_dict(fam))


@pytest.mark.parametrize("chunk", [1, 3, "default"])
@pytest.mark.parametrize("columns", [1, 7])
@pytest.mark.parametrize("n", range(17, 26))
def test_rows_chunks_writes_hex_widths_5_to_7(monkeypatch, n, columns, chunk):
    # the writers render hex widths 5-7 only past the tier-1 fields: here
    # synthetic values below 2^n, 0, 1 and 2^n - 1 among them, go through
    # the block head (7 columns) or the CSV head (1), with two tails of
    # different widths, against format()
    from qdf.serialize import _block_head, _rows_chunks

    w = hex_width(n)
    head = _block_head(n) if columns == 7 else "#" * w + ","
    tails, sep = ["", "tail"], ",\n"
    values = np.random.default_rng(n).integers(0, 2**n, (40, columns), dtype=np.int32)
    values[0], values[1], values[2] = 0, 1, 2**n - 1
    which = np.arange(len(values)) % 2
    if chunk != "default":
        _rows_per_chunk(monkeypatch, chunk, (head, tails))
    chunks = list(_rows_chunks(head, tails, which, (values.squeeze(),), sep))
    parts = head.split("#" * w)
    want = [
        "".join(p + format(v, f"0{w}x") for p, v in zip(parts, row)) + parts[-1] + tails[k]
        for row, k in zip(values.tolist(), which.tolist())
    ]
    assert b"".join(chunks).decode("ascii") == sep.join(want)
    assert len(chunks) == (1 if chunk == "default" else -(-len(values) // chunk))


def _gdd_oracle(spread, design, reports):
    out = gdd_dict(spread, design)
    out.update(reports)
    return to_json_bytes(out)


@pytest.mark.parametrize("chunk", [1, 3, 4096])
@pytest.mark.parametrize("n", [3, 9, 15])
def test_gdd_writer_matches_to_json_bytes(monkeypatch, n, chunk):
    from qdf.serialize import _block_rows, _orbit_rows

    f = cached_field(n)
    rel = build_relative_family(build_family(f))
    spread, design = desarguesian_spread(f), develop(rel)
    _rows_per_chunk(monkeypatch, chunk, _block_rows(spread, n), _orbit_rows(design))
    reports = {
        "relative_profile": report_to_dict(verify_relative(rel), n),
        "report": report_to_dict(verify_gdd(design), n),
    }
    assert b"".join(gdd_json_chunks(spread, design, reports)) == _gdd_oracle(spread, design, reports)


def test_gdd_writer_on_failing_reports_and_odd_orbits():
    # offenders, notes, no orbits at all, and lengths and replications of
    # several widths render as json.dumps would
    f = cached_field(9)
    spread = desarguesian_spread(f)
    design = develop(build_relative_family(build_family(f)))
    odd, empty = _odd_and_empty_designs(f, design)
    bad = verify_2design(develop(DifferenceFamily(f, build_family(f).slots[1:], 7)))
    reports = {
        "report": report_to_dict(bad, 9),
        "extra": {"notes": "degenerate: \"quoted\"", "list": [], "nested": {"a": [1, {"b": None}]}},
    }
    assert not bad.passed and bad.offending_pairs
    for d in (odd, empty):
        for r in (reports, {}):
            assert b"".join(gdd_json_chunks(spread, d, r)) == _gdd_oracle(spread, d, r)


def _odd_and_empty_designs(f, design):
    # crossing (length, replication) pairs: a key on either alone, on their
    # sum ((10, 7), (16, 1)) or on length * 256 + replication ((1, 257),
    # (2, 1)) maps two of them to one tail; lengths lie in 1..v
    length = [1, 10, 511, 73, 3, 10, 73, 73, 16, 1, 2]
    replication = [7, 1, 22, 3, 12345, 7, 1, 7, 1, 257, 1]
    rows = [DifferenceFamily(f, design.blocks.slots[:k], 7) for k in (len(length), 0)]
    odd = type(design)(f, rows[0], np.array(length), np.array(replication), 9)
    empty = type(design)(f, rows[1], design.length[:0], design.replication[:0], 7)
    return odd, empty


@pytest.mark.parametrize("chunk", [1, 3, None])
def test_read_artifact_inverts_the_writers(monkeypatch, chunk):
    from qdf.serialize import _block_rows

    fams = [build_family(cached_field(n)) for n in (3, 9, 15)] + [full_family(cached_field(5))]
    fams.append(DifferenceFamily(cached_field(9), (), lambda_claim=-3))
    for fam in fams:
        _rows_per_chunk(monkeypatch, chunk, _block_rows(fam.slots, fam.ctx.n))
        back = _read(b"".join(family_json_chunks(fam)))
        assert type(back) is DifferenceFamily and back.ctx == fam.ctx
        assert back.lambda_claim == fam.lambda_claim and back.slots.tolist() == fam.slots.tolist()


def test_every_writer_yields_only_bytes():
    f = cached_field(9)
    fam = build_family(f)
    rel = build_relative_family(fam)
    spread, design = desarguesian_spread(f), develop(rel)
    writers = [
        family_json_chunks(fam),
        gdd_json_chunks(spread, design, {"report": report_to_dict(verify_gdd(design), 9)}),
        certificates_json_chunks(f, certificate_table(f, f.seeds())),
        profile_csv_chunks(multiplicity_profile(fam), 9),
    ]
    for chunks in writers:
        assert all(type(c) is bytes for c in chunks)


def _csv_oracle(p, n):
    lines = ["t_hex,count"]
    for t in range(2, p.ctx.order):
        lines.append(f"{element_hex(t, n)},{p.counts[t]}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
def test_profile_csv_matches_line_by_line_writer(monkeypatch, n):
    from qdf import serialize

    f = cached_field(n)
    fam = build_family(f)
    profiles = [multiplicity_profile(fam)]
    if n <= 9:
        # uneven counts of several widths
        profiles.append(multiplicity_profile(DifferenceFamily(f, fam.slots[::2], 7)))
        profiles.append(multiplicity_profile(full_family(f)))
    for chunk in (30, 1 << 18):
        monkeypatch.setattr(serialize, "_CHUNK_BYTES", chunk)
        for p in profiles:
            want = _csv_oracle(p, n)
            assert b"".join(profile_csv_chunks(p, n)) == want.encode("ascii")


def _certify_oracle(f, tab):
    # bit c of a key is equation c, in EQUATION_FORMS order
    rows = [
        (t, [p for c, p in enumerate(EQUATION_FORMS) if key >> c & 1])
        for t, key in zip(tab.ts.tolist(), tab.keys.tolist())
    ]
    return _json_dumps(certify_dict(f.n, f.modulus, rows, MATCHED_PAIRS))


@pytest.mark.parametrize("n,modulus", FIELDS)
def test_certify_writer_matches_json_dumps(n, modulus):
    f = cached_field(n, modulus)
    tab = certificate_table(f, f.seeds())
    assert b"".join(certificates_json_chunks(f, tab)) == _certify_oracle(f, tab)


def test_certify_writer_on_failing_patterns():
    # rows with no, one, every and random solvable equations: "solvable": [],
    # r below 9 and matching_ok false must render as json.dumps would
    f = cached_field(7)
    rng = np.random.default_rng(7)
    solvable = rng.random((40, 18)) < 0.5
    solvable[0] = False
    solvable[1] = True
    solvable[2, 1:] = False
    keys = (solvable << np.arange(18)).sum(axis=1, dtype=np.int32)
    tab = CertificateTable(np.arange(2, 42), keys)
    want = _certify_oracle(f, tab)
    assert b"".join(certificates_json_chunks(f, tab)) == want
    head = json.loads(want)
    assert head["r_min"] == 0 and head["r_max"] == 18 and not head["all_matched"]


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_certify_writer_independent_of_chunking(monkeypatch, chunk):
    from qdf import serialize

    f = cached_field(9)
    tab = certificate_table(f, f.seeds())
    whole = b"".join(certificates_json_chunks(f, tab))
    monkeypatch.setattr(serialize, "_CHUNK_BYTES", 1)
    # every certificate row at n = 9 is as long as the first, its separator
    # included: the chunk after the header and the list's "["
    width = len(list(certificates_json_chunks(f, tab))[2])
    monkeypatch.setattr(serialize, "_CHUNK_BYTES", chunk * width)
    chunks = list(serialize.certificates_json_chunks(f, tab))
    # the header, the list's "[", one chunk per `chunk` certificates, each
    # but the last ending with the separator, the list's "]" and the footer
    assert len(chunks) == 4 + -(-len(tab.ts) // chunk)
    assert b"".join(chunks) == whole == _certify_oracle(f, tab)


@pytest.mark.parametrize("chunk", [1, 7, 200, 4096, 1 << 18])
def test_writer_chunks_hold_the_byte_bound_and_one_row(monkeypatch, chunk):
    # at 1 byte every row is a chunk of its own, at 2^40 all rows are one
    # chunk, and at any bound no chunk is longer than it and one row
    from qdf import serialize

    f = cached_field(9)
    fam = build_family(f)
    spread, design = desarguesian_spread(f), develop(build_relative_family(fam))
    tab = certificate_table(f, f.seeds())
    # each writer with its rows, a count per list of them
    writers = [
        (family_json_chunks, (fam,), [len(fam.slots)]),
        (gdd_json_chunks, (spread, design, {}), [len(spread), len(design.blocks)]),
        (certificates_json_chunks, (f, tab), [len(tab.ts)]),
        (profile_csv_chunks, (multiplicity_profile(full_family(f)), 9), [f.order - 2]),
    ]
    for writer, args, rows in writers:
        monkeypatch.setattr(serialize, "_CHUNK_BYTES", 1)
        one_row_each = list(writer(*args))
        monkeypatch.setattr(serialize, "_CHUNK_BYTES", 1 << 40)
        one_chunk = list(writer(*args))
        monkeypatch.setattr(serialize, "_CHUNK_BYTES", chunk)
        chunks = list(writer(*args))
        # the pieces before the rows (a header, the list's "[") and after,
        # and the three between two lists (a "]", the next key, a "[")
        head, tail = (1, 0) if writer is profile_csv_chunks else (2, 2)
        pieces = head + tail + 3 * (len(rows) - 1)
        assert len(one_row_each) == pieces + sum(rows) and len(one_chunk) == pieces + len(rows)
        assert b"".join(one_row_each) == b"".join(one_chunk) == b"".join(chunks)
        longest = max(map(len, one_row_each[head : len(one_row_each) - tail]))
        assert max(map(len, chunks[head : len(chunks) - tail])) <= chunk + longest
