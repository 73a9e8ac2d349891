"""CLI behavior: artifacts, exit codes, determinism, error JSON."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

from qdf.cli import main
from qdf.gf2n import table_bytes


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_writes_family_json(capsys, tmp_path):
    out = tmp_path / "fam5.json"
    code, stdout, _ = run_cli(capsys, "construct", "--n", "5", "--out", str(out))
    assert code == 0 and stdout == ""
    data = json.loads(out.read_text())
    assert data["n"] == 5 and data["lambda"] == 7
    assert len(data["blocks"]) == 5


def test_construct_stdout_and_determinism(capsys):
    code1, out1, _ = run_cli(capsys, "construct", "--n", "7")
    code2, out2, _ = run_cli(capsys, "construct", "--n", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(json.loads(out1)["blocks"]) == 21


def test_construct_even_n_exits_2_with_error_json(capsys):
    code, stdout, stderr = run_cli(capsys, "construct", "--n", "4")
    assert code == 2 and stdout == ""
    err = json.loads(stderr.strip())
    assert err["error"] == "EvenDegree"


def test_construct_reducible_modulus_exits_2(capsys):
    code, _, stderr = run_cli(capsys, "construct", "--n", "3", "--modulus", "0b1111")
    assert code == 2
    assert json.loads(stderr.strip())["error"] == "ReduciblePolynomial"


def test_ceiling_requires_force(capsys):
    code, _, stderr = run_cli(capsys, "construct", "--n", "15")
    assert code == 2
    assert "force" in json.loads(stderr.strip())["message"]
    code, stdout, stderr = run_cli(capsys, "construct", "--n", "15", "--force")
    assert code == 0
    assert len(json.loads(stdout)["blocks"]) == 5461
    assert "desk-scale" in stderr  # memory/time estimate printed
    code, _, stderr = run_cli(capsys, "construct", "--n", "27", "--force")
    assert code == 2


def test_preflight_estimate_matches_counter(capsys):
    # warned before the (reducible) modulus is rejected, so nothing is built
    code, stdout, stderr = run_cli(
        capsys, "verify", "--n", "15", "--force", "--modulus", "0x8000"
    )
    assert code == 2 and stdout == ""
    warning, error = stderr.strip().split("\n")
    # table_bytes(15) = 16 * 2^15 + 8 * 8192 = 589,824 bytes (0.56 MiB);
    # for 5461 orbits, develop_bytes = 2^20 + 80 * 5461 = 1,485,456
    # (1.42 MiB); the largest stage is the pair count, pair_count_bytes
    # for 16383 rows and the 21 runs of K*'s orbit, 72 * 16383 + 128 * 21
    # = 1,182,264 (1.13 MiB): 3,257,544 bytes (3.11 MiB) in all
    assert "~0.6 MiB of field tables" in warning
    assert "~1.4 MiB for the development and ~1.1 MiB for the largest stage" in warning
    assert "~3.1 MiB in all" in warning
    assert json.loads(error)["error"] == "ReduciblePolynomial"


@pytest.mark.parametrize("command", ["construct", "certify"])
def test_preflight_counts_no_pairs_without_pair_counting(capsys, command):
    code, _, stderr = run_cli(capsys, command, "--n", "15", "--force", "--modulus", "0x8000")
    assert code == 2
    warning = stderr.strip().split("\n")[0]
    assert "~0.6 MiB of field tables" in warning
    assert "largest stage" not in warning


def test_preflight_of_construct_counts_family_and_profile(capsys):
    code, _, stderr = run_cli(capsys, "construct", "--n", "15", "--force", "--modulus", "0x8000")
    assert code == 2
    warning = stderr.strip().split("\n")[0]
    # 28 * 5461 = 152,908 bytes of slots; 6 * 2^15 + 364 * 4096 =
    # 1,687,552 for the profile (its half-field histogram, its counts and
    # a chunk of 4096 blocks); with the tables 2,430,284 bytes (2.32 MiB)
    # in all
    assert "~0.1 MiB for the family and ~1.6 MiB for the profile" in warning
    assert "~2.3 MiB in all" in warning


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
@pytest.mark.parametrize("n", [15, 17, 19])
def test_preflight_table_estimate_matches_measured_rss(n):
    # peak anonymous RSS growth of building GF2n(n) in a fresh process,
    # against the figure the preflight prints (0.56 MiB at n = 15).  It
    # reads 524, 2,060 and 8,204 KiB at n = 15, 17 and 19: the four
    # table words per element, not the log scatter's 64 KiB index
    # buffer, which lives within one numpy call.
    # - GF2n(5) first imports and warms up everything the build runs.
    # - glibc's MALLOC_MMAP_THRESHOLD_ puts every array of 4 KiB or more
    #   in fresh pages, so no table reuses heap that the import left free.
    # - RssAnon (statm's resident minus shared pages) is read at every
    #   call and return while GF2n(n) runs.  VmHWM, the peak the kernel
    #   records lazily, read 420-584 KiB at n = 15 on a 2-vCPU host even
    #   with fresh pages; this reading gave the same figure every run.
    probe = (
        "import os, sys, qdf;"
        "fd = os.open('/proc/self/statm', os.O_RDONLY);"
        "anon = lambda: (lambda f: int(f[1]) - int(f[2]))(os.pread(fd, 128, 0).split());"
        "qdf.GF2n(5); r0 = anon(); peak = [r0];"
        "sys.setprofile(lambda *_: peak.append(max(peak.pop(), anon())));"
        f"qdf.GF2n({n}); sys.setprofile(None);"
        "print((peak[0] - r0) * os.sysconf('SC_PAGESIZE'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "MALLOC_MMAP_THRESHOLD_": "4096"},
        capture_output=True, text=True, check=True,
    )
    measured = int(out.stdout)
    assert 0.75 * table_bytes(n) < measured < 1.25 * table_bytes(n)


def _measured_and_printed(command, n):
    """Peak RSS growth of a whole `command --n n --force` in a fresh
    process, and the total the preflight prints for it."""
    probe = (
        "import os, re, qdf.cli;"
        "hwm = lambda: int(re.search(r'VmHWM:\\s*(\\d+)', open('/proc/self/status').read())[1]);"
        "r0 = hwm();"
        f"rc = qdf.cli.main(['{command}', '--n', '{n}', '--force', '--out', os.devnull]);"
        "print(rc, (hwm() - r0) * 1024)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, check=True,
    )
    rc, measured = map(int, out.stdout.split())
    assert rc == 0
    return measured, float(re.search(r"~([0-9.]+) MiB in all", out.stderr)[1]) * 2**20


def test_commands_do_not_import_numpy_ma(tmp_path):
    # numpy 2 imports numpy.ma lazily, on first use by some functions (a
    # bare np.unique among them; its return_index and return_inverse forms,
    # which the orbit, certificate and CSV writers call, do not).  With
    # numpy 2.4 that import took 9-16 ms and 1.6 MiB of peak RSS in a fresh
    # process, more than the whole first verify --n 13 takes.  numpy 1.x
    # imports it with numpy itself.
    family = str(tmp_path / "family.json")
    commands = [
        ["verify", "--n", "13", "--out", os.devnull],
        ["gdd", "--n", "9", "--out", os.devnull],
        ["certify", "--n", "9", "--out", os.devnull],
        ["construct", "--n", "9", "--out", family],
        ["export", family, "--format", "csv", "--out", os.devnull],
        ["export", family, "--format", "json", "--out", os.devnull],
    ]
    probe = (
        "import sys, qdf.cli;"
        "before = 'numpy.ma' in sys.modules;"
        f"codes = [qdf.cli.main(a) for a in {commands!r}];"
        "print(codes == [0] * len(codes), before, 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, check=True,
    )
    ok, before, after = out.stdout.split()
    assert ok == "True" and after == before


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
@pytest.mark.parametrize("n", [15, 17, 21])
def test_preflight_total_matches_measured_rss_of_verify(n):
    measured, total = _measured_and_printed("verify", n)
    assert 0.75 * total < measured < 1.25 * total


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
@pytest.mark.parametrize("n", [15, 21])
def test_preflight_total_matches_measured_rss_of_gdd(n):
    # the largest stage is the pair count, the writer's chunks included:
    # VmHWM grows by 3.8 and 149.5 MiB at n = 15 and 21, against printed
    # totals of 3.4 and 147.7 MiB
    measured, total = _measured_and_printed("gdd", n)
    assert 0.75 * total < measured < 1.25 * total


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
@pytest.mark.parametrize("n", [15, 19, 21])
def test_preflight_total_matches_measured_rss_of_certify(n):
    # the certificate table, the writer's per-t keys and index and its
    # chunks of byte rows; the 270 MB report at n = 19 (1.08 GB at n = 21)
    # is never held whole
    measured, total = _measured_and_printed("certify", n)
    assert 0.75 * total < measured < 1.25 * total


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
@pytest.mark.parametrize("n", [19, 21])
def test_preflight_total_matches_measured_rss_of_construct(n):
    # the tables, the slots and the profile's histogram and counts; the
    # 9.75 MB family JSON at n = 19 is written in chunks of rows and adds
    # no copy of itself
    measured, total = _measured_and_printed("construct", n)
    assert 0.75 * total < measured < 1.25 * total


# (argv, exit code) of commands run in one process, in this order: every
# subcommand, with bad arguments (argparse exits 2) and a QdfError between.
_SESSION = [
    (["construct", "--n", "5"], 0),
    (["verify", "--n", "5", "--format", "xml"], 2),
    (["certify", "--n", "3"], 0),
    (["construct"], 2),
    (["gdd", "--n", "3"], 0),
    (["verify", "--n", "5", "--seed-system", "max"], 0),
    (["bogus"], 2),
    (["construct", "--n", "4"], 2),
    (["export", "{fam}", "--format", "csv"], 0),
    (["construct", "--n", "7", "--modulus", "0x89"], 0),
]


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _untimed(stderr):
    return re.sub(r": [0-9.]+s$", ": <t>s", stderr, flags=re.M)


def test_repeated_main_calls_match_fresh_processes(tmp_path):
    # main reuses one parser; each call must behave as in a new process
    fam = tmp_path / "fam.json"
    main(["construct", "--n", "5", "--out", str(fam)])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for argv, want in _SESSION:
        argv = [str(fam) if a == "{fam}" else a for a in argv]
        code, out, err = _in_process(argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "qdf.cli", *argv], env=env, capture_output=True, text=True
        )
        assert code == fresh.returncode == want, argv
        assert out == fresh.stdout, argv
        assert _untimed(err) == _untimed(fresh.stderr), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--n", "3", "--format", "csv"],
        ["verify", "--n", "3", "--format", "json"],
        ["certify", "--n", "3", "--format", "json"],
        ["gdd", "--n", "3", "--format", "json"],
        ["certify", "--n", "3", "--seed-system", "max"],
        ["export", "{fam}", "--seed-system", "max"],
    ],
)
def test_options_are_accepted_only_where_they_are_read(capsys, tmp_path, argv):
    # --format only changes export and --seed-system only the commands
    # that build a family; elsewhere argparse rejects them
    fam = tmp_path / "fam.json"
    main(["construct", "--n", "3", "--out", str(fam)])
    with pytest.raises(SystemExit) as exc:
        main([str(fam) if a == "{fam}" else a for a in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_small_field(capsys):
    code, stdout, stderr = run_cli(capsys, "verify", "--n", "5")
    assert code == 0
    data = json.loads(stdout)
    assert data["pass"] is True
    assert data["v"] == 31 and data["lambda"] == 7
    assert data["blocks_counted"] == 155
    assert data["qanalog"] is True and data["simple"] is True
    assert data["pair_coverage_min"] == data["pair_coverage_max"] == 7
    assert "verify n=5" in stderr


def test_verify_seed_system_same_design(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "verify", "--n", "5", "--seed-system", "min", "--out", str(a))
    run_cli(capsys, "verify", "--n", "5", "--seed-system", "max", "--out", str(b))
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    assert da["pass"] and db["pass"]
    assert da["blocks_counted"] == db["blocks_counted"]


def test_certify_n5(capsys):
    code, stdout, _ = run_cli(capsys, "certify", "--n", "5")
    assert code == 0
    data = json.loads(stdout)
    assert data["r_min"] == data["r_max"] == 9
    assert data["all_matched"] is True
    assert len(data["certificates"]) == 30
    for cert in data["certificates"]:
        assert cert["r"] == 9 and cert["matching_ok"]
        assert len(cert["solvable"]) == 9


def test_gdd_n9(capsys):
    code, stdout, _ = run_cli(capsys, "gdd", "--n", "9")
    assert code == 0
    data = json.loads(stdout)
    assert data["g"] == 3 and data["lambda"] == 7
    assert len(data["spread"]) == 73 and len(data["orbits"]) == 84
    assert data["report"]["pass"] is True
    assert data["report"]["checks"] == {
        "block_groop_meet": True,
        "cross_pair_coverage": True,
        "within_pair_coverage": True,
        "simple": True,
    }
    assert data["relative_profile"]["pass"] is True


def test_gdd_wrong_residue(capsys):
    code, _, stderr = run_cli(capsys, "gdd", "--n", "5")
    assert code == 2
    assert json.loads(stderr.strip())["error"] == "WrongResidue"


def test_export_family_to_csv_and_json(capsys, tmp_path):
    fam = tmp_path / "fam.json"
    run_cli(capsys, "construct", "--n", "5", "--out", str(fam))
    code, stdout, _ = run_cli(capsys, "export", str(fam), "--format", "csv")
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == "t_hex,count"
    assert len(lines) == 1 + 30
    assert all(line.endswith(",7") for line in lines[1:])
    code, stdout, _ = run_cli(capsys, "export", str(fam), "--format", "json")
    assert code == 0
    assert stdout.encode() == fam.read_bytes().decode().encode()


def test_export_design_json_only(capsys, tmp_path):
    from qdf import build_family, develop
    from qdf.serialize import design_json_chunks
    from oracles import cached_field

    design_file = tmp_path / "design.json"
    design_file.write_bytes(b"".join(design_json_chunks(develop(build_family(cached_field(5))))))
    code, stdout, _ = run_cli(capsys, "export", str(design_file), "--format", "json")
    assert code == 0 and json.loads(stdout)["v"] == 31
    code, _, stderr = run_cli(capsys, "export", str(design_file), "--format", "csv")
    assert code == 2


@pytest.mark.parametrize(
    "defect",
    ["bogus", ("v", 1), ("v", -1), ("k", -1), ("n", 1), ("n", 10**6), "reordered",
     "lambda-bool", "orbits-dict"],
    ids=["bogus", "v+1", "v-1", "k-1", "n+1", "n-huge", "reordered", "lambda-bool", "orbits-dict"],
)
def test_export_rejects_what_is_not_a_design(capsys, tmp_path, defect):
    from qdf import build_family, develop
    from qdf.serialize import design_json_chunks
    from oracles import cached_field

    data = json.loads(b"".join(design_json_chunks(develop(build_family(cached_field(5))))))
    if defect == "bogus":
        data = {"orbits": 3, "junk": [1]}
    elif defect == "reordered":
        data = {"modulus": data.pop("modulus"), **data}
    elif defect == "lambda-bool":
        data["lambda"] = True
    elif defect == "orbits-dict":
        data["orbits"] = {}
    else:
        data[defect[0]] += defect[1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, stdout, stderr = run_cli(capsys, "export", str(bad))
    assert code == 2 and stdout == ""
    assert json.loads(stderr)["error"] == "Qdf"


def test_export_rejects_a_gdd_artifact(capsys, tmp_path):
    gdd = tmp_path / "gdd.json"
    assert run_cli(capsys, "gdd", "--n", "3", "--out", str(gdd))[0] == 0
    code, stdout, stderr = run_cli(capsys, "export", str(gdd))
    assert code == 2 and stdout == ""
    assert json.loads(stderr)["error"] == "Qdf"


def test_export_unrecognized_input(capsys, tmp_path):
    bogus = tmp_path / "x.json"
    bogus.write_text('{"hello": 1}')
    code, _, stderr = run_cli(capsys, "export", str(bogus))
    assert code == 2



@pytest.mark.parametrize(
    "defect", ["reversed", "short", "not-hex", "not-a-list", "not-strings", "too-wide", "outside-field"]
)
def test_export_malformed_family_exits_2_naming_the_row(capsys, tmp_path, defect):
    fam = tmp_path / "fam.json"
    run_cli(capsys, "construct", "--n", "5", "--out", str(fam))
    data = json.loads(fam.read_text())
    row = data["blocks"][2]
    bad = {
        "reversed": row[::-1],
        "short": row[:6],
        "not-hex": row[:3] + ["zz"] + row[4:],
        "not-a-list": 5,
        "not-strings": [int(s, 16) for s in row],
        "too-wide": row[:3] + ["f" * 20] + row[4:],
        "outside-field": row[:3] + ["20"] + row[4:],
    }[defect]
    data["blocks"][2] = bad
    fam.write_text(json.dumps(data))
    code, stdout, stderr = run_cli(capsys, "export", str(fam))
    assert code == 2 and stdout == ""
    err = json.loads(stderr)
    assert err["error"] == "MalformedFamily"
    assert str(bad) in err["message"]


@pytest.mark.parametrize(
    "text,error",
    [
        ('{"n": 5, "modulus": 37, "lambda": 7, "blocks": [["01"', "Qdf"),
        ("\"my blocks\"", "Qdf"),
        ('{"blocks": []}', "MalformedFamily"),
        ('{"n": 5, "modulus": 37, "blocks": []}', "MalformedFamily"),
        ('{"n": "5", "modulus": 37, "lambda": 7, "blocks": []}', "MalformedFamily"),
        ('{"n": 5.0, "modulus": 37, "lambda": 7, "blocks": []}', "MalformedFamily"),
        ('{"n": 5, "modulus": 37, "lambda": true, "blocks": []}', "MalformedFamily"),
        ('{"n": 5, "modulus": 37, "lambda": 7, "blocks": 3}', "MalformedFamily"),
    ],
    ids=["truncated", "string", "no-header", "no-lambda", "n-string", "n-float",
         "lambda-bool", "blocks-int"],
)
def test_export_malformed_input_exits_2(capsys, tmp_path, text, error):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, stdout, stderr = run_cli(capsys, "export", str(bad))
    assert code == 2 and stdout == ""
    assert json.loads(stderr)["error"] == error


def test_export_unreadable_input_exits_2(capsys, tmp_path):
    latin = tmp_path / "latin.json"
    latin.write_bytes('{"n": 5, "note": "café"}'.encode("latin-1"))
    for path in (tmp_path / "missing.json", latin):
        code, stdout, stderr = run_cli(capsys, "export", str(path))
        assert code == 2 and stdout == ""
        assert json.loads(stderr)["error"] == "Qdf"


def test_export_applies_the_hard_ceiling_only(capsys, tmp_path, monkeypatch):
    from qdf import cli

    fam = tmp_path / "fam.json"
    run_cli(capsys, "construct", "--n", "11", "--out", str(fam))
    # the default ceiling is not applied: stored families above it export
    monkeypatch.setattr(cli, "DEFAULT_N_CEILING", 9)
    code, stdout, _ = run_cli(capsys, "export", str(fam))
    assert code == 0 and stdout.encode() == fam.read_bytes()
    # the hard ceiling is, before family_from_dict builds the field
    monkeypatch.setattr(cli, "HARD_N_CEILING", 9)
    monkeypatch.setattr(cli, "family_from_dict", None)  # fails if it is reached
    code, stdout, stderr = run_cli(capsys, "export", str(fam))
    assert code == 2 and stdout == ""
    assert "ceiling 9" in json.loads(stderr)["message"]
