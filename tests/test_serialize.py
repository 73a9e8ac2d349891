"""Format tests: hex conventions, round-trips, deterministic bytes."""

import json

import numpy as np
import pytest

from qdf import (
    MATCHED_PAIRS,
    CertificateTable,
    DifferenceFamily,
    ForbiddenSeedError,
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
from qdf.family import EQUATION_FORMS
from qdf.serialize import (
    certificates_json_chunks,
    design_json_chunks,
    element_hex,
    family_from_dict,
    family_json_chunks,
    gdd_json_chunks,
    hex_width,
    profile_csv_chunks,
    report_to_dict,
    to_json_bytes,
)
from oracles import cached_field, certify_dict, design_dict, family_dict, gdd_dict

# (n, modulus): n = 3..11 with the default modulus, and a second one at n = 7
FIELDS = [(3, None), (5, None), (7, None), (7, 0x89), (9, None), (11, None)]


def test_hex_width_and_padding():
    assert [hex_width(n) for n in (3, 5, 9, 13, 15)] == [1, 2, 3, 4, 4]
    assert element_hex(7, 3) == "7"
    assert element_hex(7, 5) == "07"
    assert element_hex(511, 9) == "1ff"
    assert element_hex(0x1abc, 13) == "1abc"


def test_family_round_trip():
    f = cached_field(5)
    fam = build_family(f)
    d = json.loads(b"".join(family_json_chunks(fam)))
    assert list(d.keys()) == ["n", "modulus", "lambda", "blocks"]
    assert d["n"] == 5 and d["modulus"] == f.modulus and d["lambda"] == 7
    assert len(d["blocks"]) == 5 and all(len(row) == 7 for row in d["blocks"])
    back = family_from_dict(d)
    assert back.ctx == f
    assert back.lambda_claim == 7
    assert [b.elements for b in back.base_blocks] == [b.elements for b in fam.base_blocks]


def test_family_from_dict_rejects_malformed_blocks():
    f = cached_field(5)
    d = json.loads(b"".join(family_json_chunks(build_family(f))))
    short = {**d, "blocks": [d["blocks"][0][:6]]}
    with pytest.raises(ValueError):
        family_from_dict(short)
    shuffled = {**d, "blocks": [list(reversed(d["blocks"][0]))]}
    with pytest.raises(ValueError):
        family_from_dict(shuffled)


def test_family_from_dict_checks_every_row_and_names_the_first_bad_one():
    f = cached_field(7)
    d = json.loads(b"".join(family_json_chunks(build_family(f))))
    back = family_from_dict(d)
    assert back.slots.dtype == np.int32
    assert back.slots.tolist() == build_family(f).slots.tolist()
    rows = [list(r) for r in d["blocks"]]
    rows[3][4], rows[3][5] = rows[3][5], rows[3][4]
    rows[9] = list(reversed(rows[9]))
    with pytest.raises(ValueError) as exc:
        family_from_dict({**d, "blocks": rows})
    assert str(exc.value) == f"block row {rows[3]} is not in canonical slot order"
    # a seed outside F* minus {1} is named by block_of's check
    rows[2][1] = "01"
    with pytest.raises(ForbiddenSeedError):
        family_from_dict({**d, "blocks": rows})
    rows[2][1] = "ff"
    with pytest.raises(ForbiddenSeedError):
        family_from_dict({**d, "blocks": rows})


def test_design_and_gdd_dict_shapes():
    f = cached_field(9)
    fam = build_family(f)
    design = develop(fam)
    dd = json.loads(b"".join(design_json_chunks(design)))
    assert list(dd.keys()) == ["n", "modulus", "v", "k", "lambda", "orbits"]
    assert dd["v"] == 511 and dd["k"] == 7
    reps = {(o["length"], o["replication"]) for o in dd["orbits"]}
    assert (73, 7) in reps and (511, 1) in reps

    rf = build_relative_family(fam)
    gd = json.loads(b"".join(gdd_json_chunks(desarguesian_spread(f), develop(rf), {})))
    assert list(gd.keys()) == ["n", "modulus", "g", "lambda", "spread", "orbits"]
    assert gd["g"] == 3 and len(gd["spread"]) == 73 and len(gd["orbits"]) == 84


def test_report_dict_contains_no_timing():
    f = cached_field(5)
    rep = verify_2design(develop(build_family(f)))
    d = report_to_dict(rep, 5)
    assert d["pass"] is True
    assert "timing" not in d
    assert d["pair_coverage_min"] == d["pair_coverage_max"] == 7


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


@pytest.mark.parametrize("chunk", [1, 3, None])
@pytest.mark.parametrize("n,modulus", [(3, None), (7, 0x89), (9, None)])
def test_family_json_chunks_independent_of_chunking(monkeypatch, n, modulus, chunk):
    from qdf import serialize

    f = cached_field(n, modulus)
    for fam in (build_family(f), full_family(f), DifferenceFamily(f, (), lambda_claim=7)):
        monkeypatch.setattr(serialize, "_ROW_CHUNK", chunk or max(1, len(fam.slots)))
        chunks = list(family_json_chunks(fam))
        assert all(type(c) is bytes for c in chunks)
        assert b"".join(chunks) == _json_dumps(family_dict(fam))


def _gdd_oracle(spread, design, reports):
    out = gdd_dict(spread, design)
    out.update(reports)
    return to_json_bytes(out)


@pytest.mark.parametrize("chunk", [1, 3, 4096])
@pytest.mark.parametrize("n", [3, 9, 15])
def test_gdd_writer_matches_to_json_bytes(monkeypatch, n, chunk):
    from qdf import serialize

    monkeypatch.setattr(serialize, "_ROW_CHUNK", chunk)
    f = cached_field(n)
    rel = build_relative_family(build_family(f))
    spread, design = desarguesian_spread(f), develop(rel)
    reports = {
        "relative_profile": report_to_dict(verify_relative(rel), n),
        "report": report_to_dict(verify_gdd(spread, design), n),
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
    # sum ((10, 7), (16, 1)) or on length * 256 + replication ((1, 256),
    # (2, 0)) maps two of them to one tail
    length = [1, 10, 511, 73, 12345, 10, 73, 73, 16, 1, 2]
    replication = [7, 1, 22, 3, 1, 7, 1, 7, 1, 256, 0]
    odd = type(design)(
        f, design.slots[: len(length)], np.array(length), np.array(replication), 9
    )
    empty = type(design)(f, design.slots[:0], design.length[:0], design.replication[:0], 7)
    return odd, empty


@pytest.mark.parametrize("chunk", [1, 3, None])
def test_design_writer_matches_json_dumps(monkeypatch, chunk):
    from qdf import serialize

    designs = [develop(build_family(cached_field(n))) for n in (3, 9, 15)]
    f = cached_field(9)
    designs += _odd_and_empty_designs(f, develop(build_relative_family(build_family(f))))
    for d in designs:
        monkeypatch.setattr(serialize, "_ROW_CHUNK", chunk or max(1, len(d.slots)))
        assert b"".join(design_json_chunks(d)) == _json_dumps(design_dict(d))


def test_every_writer_yields_only_bytes():
    f = cached_field(9)
    fam = build_family(f)
    rel = build_relative_family(fam)
    spread, design = desarguesian_spread(f), develop(rel)
    writers = [
        family_json_chunks(fam),
        design_json_chunks(develop(fam)),
        gdd_json_chunks(spread, design, {"report": report_to_dict(verify_gdd(spread, design), 9)}),
        certificates_json_chunks(f, certificate_table(f, f.seeds())),
        profile_csv_chunks(multiplicity_profile(fam), 9),
    ]
    for chunks in writers:
        assert all(type(c) is bytes for c in chunks)


def _csv_oracle(p, n):
    lines = ["t_hex,count"]
    for t in range(2, p.order):
        lines.append(f"{element_hex(t, n)},{p.count_of(t)}")
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
    for chunk in (3, 4096):
        monkeypatch.setattr(serialize, "_ROW_CHUNK", chunk)
        for p in profiles:
            want = _csv_oracle(p, n)
            assert b"".join(profile_csv_chunks(p, n)) == want.encode("ascii")


def _certify_oracle(f, tab):
    pairs = list(EQUATION_FORMS)
    rows = [
        (t, [p for p, ok in zip(pairs, row) if ok])
        for t, row in zip(tab.ts.tolist(), tab.solvable.tolist())
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
    tab = CertificateTable(np.arange(2, 42), solvable)
    assert b"".join(certificates_json_chunks(f, tab)) == _certify_oracle(f, tab)
    assert tab.r.min() == 0 and not tab.matching_ok.all()


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_certify_writer_independent_of_chunking(monkeypatch, chunk):
    from qdf import serialize

    f = cached_field(9)
    tab = certificate_table(f, f.seeds())
    whole = b"".join(certificates_json_chunks(f, tab))
    monkeypatch.setattr(serialize, "_ROW_CHUNK", chunk)
    chunks = list(serialize.certificates_json_chunks(f, tab))
    # the header, one chunk per `chunk` certificates, each but the last
    # ending with the separator, and the footer
    assert len(chunks) == 2 + -(-len(tab.ts) // chunk)
    assert b"".join(chunks) == whole == _certify_oracle(f, tab)
