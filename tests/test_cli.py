"""CLI behavior: artifacts, exit codes, determinism, error JSON."""

import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

import qdf
from qdf import __version__, build_family, develop
from qdf.cli import main, parse_args
from qdf.gf2n import table_bytes
from qdf.serialize import family_json_chunks, hex_width, to_json_bytes
from oracles import build_parser, cached_field, design_dict

# The one PYTHONPATH of every fresh process: the directory that qdf is
# imported from.  Passed the suite's whole sys.path, the RSS probes read
# otherwise with nothing in qdf changed (GF2n(15) grew RssAnon by 404 KiB
# with it, by 440 KiB with the source directory alone).
QDF_ROOT = os.path.dirname(os.path.dirname(qdf.__file__))


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
    # a negative modulus once hung (-9, -0x89) or failed with a traceback (-11)
    for n, text in (("3", "-9"), ("3", "-11"), ("7", "-0x89")):
        code, stdout, stderr = run_cli(capsys, "construct", "--n", n, f"--modulus={text}")
        assert code == 2 and stdout == ""
        message = f"modulus {int(text, 0):#x} is negative"
        assert json.loads(stderr) == {"error": "Qdf", "message": message}
    # a value the converter cannot read is named after the converter
    assert main(["construct", "--n", "3", "--modulus", "abc"]) == 2
    assert "argument --modulus: invalid modulus value: 'abc'" in capsys.readouterr().err


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
    # table_bytes(15) = 4 * 2^15 + 36 * 2^13 = 425,984 bytes (the logs and
    # a walk chunk's 36 B per power) and the hexagons' flag, 2^15: 458,752
    # bytes (0.44 MiB) of field tables;
    # for 5461 orbits, develop_bytes = 228 * 4096 + 44 * 5461 = 1,174,172
    # (1.12 MiB: a scan chunk and the orbits); the largest stage is verify's
    # floor of 5 * 2^17 = 655,360 (0.62 MiB), above the pair count's
    # pair_count_bytes = 5 * 2^14 + 2^14 = 98,304 (0.09 MiB):
    # 2,288,284 bytes (2.18 MiB) in all
    assert "~0.4 MiB of field tables" in warning
    assert "~1.1 MiB for the development and ~0.6 MiB for the largest stage" in warning
    assert "~2.2 MiB in all" in warning
    assert json.loads(error)["error"] == "ReduciblePolynomial"


@pytest.mark.parametrize("command", ["construct", "certify"])
def test_preflight_counts_no_pairs_without_pair_counting(capsys, command):
    code, _, stderr = run_cli(capsys, command, "--n", "15", "--force", "--modulus", "0x8000")
    assert code == 2
    warning = stderr.strip().split("\n")[0]
    assert "~0.4 MiB of field tables" in warning
    assert "largest stage" not in warning


def test_preflight_of_construct_counts_family_and_profile(capsys):
    code, _, stderr = run_cli(capsys, "construct", "--n", "15", "--force", "--modulus", "0x8000")
    assert code == 2
    warning = stderr.strip().split("\n")[0]
    # 4 * 5461 + 2^18 = 283,988 bytes for the family (its seeds and the
    # writer's 256 KiB chunk); 2 * 2^15 + 224 * 4096 = 983,040 for the
    # profile (its half-field histogram and a chunk of 4096 slot rows with
    # the fold's temporaries); with the tables 1,725,780 bytes (1.65 MiB)
    # in all
    assert "~0.3 MiB for the family and ~0.9 MiB for the profile" in warning
    assert "~1.6 MiB in all" in warning


def test_preflight_of_certify_names_the_report_size(capsys, tmp_path):
    # the report's size, its header and 2^15 - 2 rows of the all-matched
    # width, is printed before the field is built and is what is written
    out = tmp_path / "c15.json"
    code, _, stderr = run_cli(capsys, "certify", "--n", "15", "--force", "--out", str(out))
    assert code == 0
    size = re.search(r"~[0-9.]+ MiB in all, for a report of ([0-9,]+) bytes$", stderr.strip())
    assert int(size[1].replace(",", "")) == out.stat().st_size == 16_841_833


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
@pytest.mark.parametrize("n", [15, 17, 19])
def test_preflight_table_estimate_matches_measured_rss(n):
    # peak anonymous RSS growth of building GF2n(n) in a fresh process,
    # against table_bytes(n) (0.41 MiB at n = 15).  It reads 336-412,
    # 736-812 and 2,272-2,372 KiB at n = 15, 17 and 19, as the heap the
    # import leaves varies, against 416, 800 and 2,336: the 4 B per
    # element of the int32 logs and 36 B per power of a walk chunk, not
    # the log scatter's index buffer, which lives within one numpy call.
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
        env={**os.environ, "PYTHONPATH": QDF_ROOT, "MALLOC_MMAP_THRESHOLD_": "4096"},
        capture_output=True, text=True, check=True,
    )
    measured = int(out.stdout)
    assert 0.75 * table_bytes(n) < measured < 1.25 * table_bytes(n)


def _measured_and_printed(command, n, *options):
    """Peak RSS growth of a whole `command --n n --force` in a fresh
    process, with any further options, and the total the preflight
    prints for it."""
    probe = (
        "import os, re, qdf.cli;"
        "hwm = lambda: int(re.search(r'VmHWM:\\s*(\\d+)', open('/proc/self/status').read())[1]);"
        "r0 = hwm();"
        f"rc = qdf.cli.main(['{command}', '--n', '{n}', '--force', *{list(options)!r},"
        " '--out', os.devnull]);"
        "print(rc, (hwm() - r0) * 1024)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": QDF_ROOT},
        capture_output=True, text=True, check=True,
    )
    rc, measured = map(int, out.stdout.split())
    assert rc == 0
    return measured, float(re.search(r"~([0-9.]+) MiB in all", out.stderr)[1]) * 2**20


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
@pytest.mark.parametrize("command", ["construct", "verify"])
def test_preflight_counts_the_exp_table_of_the_largest_vertices(command):
    # --seed-system max reads 1/r and 1/(r + 1) off the exp table, built
    # on first read, 4 B per element that the printed total adds: VmHWM
    # grows by 23.4 and 33.1 MiB at n = 21, against 24.7 and 38.9 printed
    measured, total = _measured_and_printed(command, 21, "--seed-system", "max")
    assert 0.75 * total < measured < 1.25 * total


def test_commands_do_not_import_numpy_ma(tmp_path):
    # numpy 2 imports numpy.ma lazily, on first use by some functions (a
    # bare np.unique among them; the orbit, certificate and CSV writers
    # rank their row kinds with family.rank, a sort and a search, and no
    # command calls np.unique).  With numpy 2.4 that import took 9-16 ms
    # and 1.6 MiB of peak RSS in a fresh process, more than the whole
    # first verify --n 13 takes.  numpy 1.x imports it with numpy itself.
    family = str(tmp_path / "family.json")
    commands = [
        ["verify", "--n", "13", "--out", os.devnull],
        ["gdd", "--n", "9", "--out", os.devnull],
        ["certify", "--n", "9", "--out", os.devnull],
        ["construct", "--n", "9", "--out", family],
        ["export", family, "--format", "csv", "--out", os.devnull],
        ["export", family, "--format", "json", "--out", os.devnull],
    ]
    # nor does any of them import the scalar definitions of qdf.reference,
    # or argparse, whose parsers once cost a fresh verify --n 13 2-3 ms
    # (half of it gettext importing locale)
    probe = (
        "import sys, qdf.cli;"
        "before = 'numpy.ma' in sys.modules;"
        f"codes = [qdf.cli.main(a) for a in {commands!r}];"
        "print(codes == [0] * len(codes), before, 'numpy.ma' in sys.modules,"
        " 'qdf.reference' in sys.modules,"
        " any(m in sys.modules for m in ('argparse', 'gettext', 'locale')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": QDF_ROOT},
        capture_output=True, text=True, check=True,
    )
    ok, before, after, reference, parser = out.stdout.split()
    assert ok == "True" and after == before and reference == "False"
    assert parser == "False"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
@pytest.mark.parametrize("n", [15, 17, 21])
def test_preflight_total_matches_measured_rss_of_verify(n):
    measured, total = _measured_and_printed("verify", n)
    assert 0.75 * total < measured < 1.25 * total


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
@pytest.mark.parametrize("n", [15, 21])
def test_preflight_total_matches_measured_rss_of_gdd(n):
    # the largest stage is the writer's chunks at n = 15 and the pair
    # count at n = 21: VmHWM grows by 2.7-3.0 and 37.8-38.1 MiB, against
    # printed totals of 2.7 and 38.9 MiB
    measured, total = _measured_and_printed("gdd", n)
    assert 0.75 * total < measured < 1.25 * total


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
@pytest.mark.parametrize("n", [15, 17, 19, 21])
def test_preflight_total_matches_measured_rss_of_certify(n):
    # the table's ts and keys, the decoding of the keys, a chunk's
    # temporaries left in the heap and the writer's 256 KiB chunks of byte
    # rows; the 270 MB report at n = 19 (1.08 GB at n = 21) is never held
    # whole
    measured, total = _measured_and_printed("certify", n)
    assert 0.75 * total < measured < 1.25 * total


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
@pytest.mark.parametrize("n", [15, 17, 19, 21])
def test_preflight_total_matches_measured_rss_of_construct(n):
    # the tables, the seeds, one slot chunk with its fold's temporaries,
    # and the profile's folded histogram; the 9.75 MB family JSON at
    # n = 19 is written in 256 KiB chunks of rows and adds no copy of
    # itself: VmHWM grows by 1.5-1.6, 3.0, 7.2 and 23.3 MiB at n = 15 to
    # 21, against printed totals of 1.7, 2.7, 6.7 and 22.7 MiB
    measured, total = _measured_and_printed("construct", n)
    assert 0.75 * total < measured < 1.25 * total


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_export_csv_of_the_n17_family_holds_little_beyond_the_file(tmp_path):
    # VmHWM growth of `export --format csv` of the 2.6 MB family in a fresh
    # process: the file, the field's tables (2.1 MiB), the slots and the
    # writer's chunks compared with the file, then the profile.  It reads
    # 7.0 MiB; through json.load and a loop per row it was 25.8 MiB.
    fam = tmp_path / "fam17.json"
    assert main(["construct", "--n", "17", "--force", "--out", str(fam)]) == 0
    probe = (
        "import os, re, qdf.cli;"
        "hwm = lambda: int(re.search(r'VmHWM:\\s*(\\d+)', open('/proc/self/status').read())[1]);"
        "r0 = hwm();"
        f"rc = qdf.cli.main(['export', {str(fam)!r}, '--format', 'csv', '--out', os.devnull]);"
        "print(rc, (hwm() - r0) * 1024)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": QDF_ROOT},
        capture_output=True, text=True, check=True,
    )
    rc, measured = map(int, out.stdout.split())
    assert rc == 0 and measured < 8 * 2**20


# (argv, exit code) of commands run in one process, in this order: every
# subcommand, with bad arguments (a usage error exits 2) and a QdfError between.
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
    # main keeps no state between calls; each must behave as in a new process
    fam = tmp_path / "fam.json"
    main(["construct", "--n", "5", "--out", str(fam)])
    env = {**os.environ, "PYTHONPATH": QDF_ROOT}
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
    # that build a family; elsewhere the parser rejects them
    fam = tmp_path / "fam.json"
    main(["construct", "--n", "3", "--out", str(fam)])
    assert main([str(fam) if a == "{fam}" else a for a in argv]) == 2
    assert capsys.readouterr().out == ""


# argv the argparse oracle accepts: the parse must equal its namespace
_ACCEPTED = [
    ["construct", "--n=5"],
    ["verify", "--n", "5", "--seed", "max"],
    ["construct", "--n", "7", "--mod", "0x89"],
    ["construct", "--n", "3", "--modulus=-9"],
    ["construct", "--n", "3", "--modulus", "-9"],
    ["verify", "--n", "5", "--n", "7"],
    ["export", "--format", "csv", "fam.json"],
    ["gdd", "--out", "g.json", "--n", "9", "--force"],
    ["certify", "--n", "3"],
]
# argv it rejects: main exits 2 with the oracle's message as one JSON line
_REJECTED = [
    ["construct", "--n", "3", "--modulus", "-0x89"],
    ["construct", "--n", "3", "--out"],
    ["verify", "--n", "5", "--format", "xml"],
    ["certify", "--n", "3", "--seed-system", "max"],
    ["construct", "--n", "x"],
    ["construct", "--out", "f.json"],
    ["construct", "--n", "3", "--seed-system", "mid"],
    ["construct", "--n", "3", "--force=yes"],
    ["--=x"],
    ["export"],
    ["export", "a.json", "b.json"],
    [],
    ["bogus"],
]


@pytest.mark.parametrize("argv", _ACCEPTED + _REJECTED)
def test_parse_args_agrees_with_the_argparse_oracle(capsys, argv):
    oracle_err = io.StringIO()
    with contextlib.redirect_stderr(oracle_err):
        try:
            want, code = vars(build_parser().parse_args(argv)), 0
        except SystemExit as exc:
            want, code = None, exc.code
    assert (want is not None) == (argv in _ACCEPTED)
    if want is not None:
        assert vars(parse_args(argv)) == want
        return
    assert code == 2
    assert main(argv) == 2
    out, err = capsys.readouterr()
    message = oracle_err.getvalue().splitlines()[-1].split(": error: ", 1)[1]
    assert out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": "Qdf", "message": message}


@pytest.mark.parametrize(
    "argv, head",
    [
        (["--version"], f"qdf {__version__}\n"),
        (["--vers"], f"qdf {__version__}\n"),
        (["-h"], "usage: qdf [-h] [--version] {construct,verify,certify,gdd,export} ...\n"),
        (["verify", "--help"], "usage: qdf verify [-h] --n N [--modulus MODULUS] [--force]"),
        (["export", "--h"], "usage: qdf export [-h] input [--out OUT] [--format {json,csv}]\n"),
    ],
)
def test_help_and_version_print_on_stdout_and_exit_0(capsys, argv, head):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith(head) and err == ""


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


def test_certify_exits_1_on_a_failing_certificate(capsys, monkeypatch):
    # one t loses one solvable equation: the exit code and the header read
    # the same decoded sets as that row
    from qdf import cli
    from qdf.family import CertificateTable, certificate_table

    def one_bit_cleared(ctx, ts):
        tab = certificate_table(ctx, ts)
        keys = tab.keys.copy()
        keys[5] &= keys[5] - 1  # its lowest set bit: the first solvable pair
        return CertificateTable(tab.ts, keys)

    _, want, _ = run_cli(capsys, "certify", "--n", "5")
    monkeypatch.setattr(cli, "certificate_table", one_bit_cleared)
    code, stdout, _ = run_cli(capsys, "certify", "--n", "5")
    assert code == 1
    data, good = json.loads(stdout), json.loads(want)
    assert data["r_min"] == 8 and data["r_max"] == 9 and data["all_matched"] is False
    certs, goods = data["certificates"], good["certificates"]
    assert [k for k, (a, b) in enumerate(zip(certs, goods)) if a != b] == [5]
    cert, was = certs[5], goods[5]
    assert cert == {**was, "r": 8, "matching_ok": False, "solvable": was["solvable"][1:]}


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


def test_gdd_wrong_residue(capsys, monkeypatch):
    # checked before the preflight and the field: the one error line is
    # all the command does, for odd, even and too small n alike
    from qdf import cli

    def no_field(*args):
        raise AssertionError("the field was built")

    monkeypatch.setattr(cli, "GF2n", no_field)
    for n in (["5"], ["23", "--force"], ["4"], ["1"]):
        code, stdout, stderr = run_cli(capsys, "gdd", "--n", *n)
        assert code == 2 and stdout == ""
        assert stderr.count("\n") == 1 and "warning:" not in stderr
        assert json.loads(stderr)["error"] == "WrongResidue"


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_export_refuses_a_design_file_before_building_the_field(
    capsys, tmp_path, monkeypatch, fmt
):
    # export reads back only the family files construct writes: a design
    # file holds no more than the family of its orbits' seeds
    from qdf import serialize

    design = tmp_path / "design.json"
    design.write_bytes(to_json_bytes(design_dict(develop(build_family(cached_field(5))))))
    monkeypatch.setattr(serialize, "GF2n", None)  # fails if it is reached
    code, stdout, stderr = run_cli(capsys, "export", str(design), "--format", fmt)
    assert code == 2 and stdout == "" and stderr.count("\n") == 1
    assert json.loads(stderr)["error"] == "Qdf"


@pytest.mark.parametrize(
    "defect",
    ["bogus", ("v", 1), ("v", -1), ("k", -1), ("n", 1), ("n", 10**6), "reordered",
     "lambda-bool", "orbits-dict"],
    ids=["bogus", "v+1", "v-1", "k-1", "n+1", "n-huge", "reordered", "lambda-bool", "orbits-dict"],
)
def test_export_rejects_what_is_not_a_design(capsys, tmp_path, defect):
    data = design_dict(develop(build_family(cached_field(5))))
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
    bad.write_bytes(to_json_bytes(data))
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
    fam.write_bytes(to_json_bytes(data))
    code, stdout, stderr = run_cli(capsys, "export", str(fam))
    assert code == 2 and stdout == ""
    err = json.loads(stderr)
    assert err["error"] == "MalformedFamily"
    # the row's index, then its text as it stands in the file
    assert err["message"].startswith("block row 2 ")
    assert err["message"].endswith(":\n" + textwrap.indent(json.dumps(bad, indent=2), "    "))


@pytest.mark.parametrize(
    "text,error",
    [
        ('{"n": 5, "modulus": 37, "lambda": 7, "blocks": [["01"', "MalformedFamily"),
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
    from qdf import cli, serialize

    fam = tmp_path / "fam.json"
    run_cli(capsys, "construct", "--n", "11", "--out", str(fam))
    # the default ceiling is not applied: stored families above it export
    monkeypatch.setattr(cli, "DEFAULT_N_CEILING", 9)
    code, stdout, _ = run_cli(capsys, "export", str(fam))
    assert code == 0 and stdout.encode() == fam.read_bytes()
    # the hard ceiling is, before the reader builds the field
    monkeypatch.setattr(cli, "HARD_N_CEILING", 9)
    monkeypatch.setattr(serialize, "GF2n", None)  # fails if it is reached
    code, stdout, stderr = run_cli(capsys, "export", str(fam))
    assert code == 2 and stdout == ""
    assert "ceiling 9" in json.loads(stderr)["message"]


def _artifact(n):
    """The family file construct writes for --n n."""
    return b"".join(family_json_chunks(build_family(cached_field(n))))


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_export_writes_back_the_bytes_it_reads(capsys, tmp_path, n):
    fam = tmp_path / "fam.json"
    assert run_cli(capsys, "construct", "--n", str(n), "--out", str(fam))[0] == 0
    code, stdout, _ = run_cli(capsys, "export", str(fam))
    assert code == 0 and stdout.encode() == fam.read_bytes()


@pytest.mark.parametrize("n", [5, 17], ids=lambda n: f"family-{n}")
def test_export_json_renders_once_and_writes_back_the_input(capsys, tmp_path, monkeypatch, n):
    # read_artifact renders the file once to check it; export writes back
    # the bytes that check accepted, to a file and, in chunks, to stdout.
    # Every family render goes through _json_rows_chunks once.
    from qdf import cli, serialize

    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_bytes(_artifact(n))
    calls, reading = [], []
    rows_chunks, read = serialize._json_rows_chunks, serialize.read_artifact

    def counted(*args):
        calls.append(bool(reading))
        return rows_chunks(*args)

    def read_artifact(data, check_n):
        reading.append(True)
        try:
            return read(data, check_n)
        finally:
            reading.pop()

    monkeypatch.setattr(serialize, "_json_rows_chunks", counted)
    monkeypatch.setattr(cli, "read_artifact", read_artifact)
    for argv in (["--out", str(out)], []):
        calls.clear()
        code, stdout, _ = run_cli(capsys, "export", str(path), "--format", "json", *argv)
        assert code == 0 and calls == [True]
        assert (stdout.encode() if not argv else out.read_bytes()) == path.read_bytes()


def _export_rejects(capsys, path, error):
    """Run export on path; it must exit 2, print nothing on stdout and
    return the error line's message."""
    code, stdout, stderr = run_cli(capsys, "export", str(path))
    assert code == 2 and stdout == ""
    err = json.loads(stderr)
    assert err["error"] == error
    return err["message"]


@pytest.mark.parametrize("n", [5, 9], ids=lambda n: f"family-{n}")
def test_export_names_the_row_with_a_changed_digit_or_cut(capsys, tmp_path, n):
    data = _artifact(n)
    what, error = "block row", "MalformedFamily"
    element = rb'\n {6}"[0-9a-f]'  # its first digit
    rows = [m.start() for m in re.finditer(rb"\n    \[\n", data)]
    bad = tmp_path / "bad.json"
    for k, at in enumerate(rows):
        # one hex digit of row k, a different one in each row, changed
        first = [m.end() - 1 for m in re.finditer(element, data[at:])][:7]
        i = at + first[k % 7] + k % hex_width(n)
        bad.write_bytes(data[:i] + b"%x" % (int(data[i : i + 1], 16) ^ 1) + data[i + 1 :])
        assert _export_rejects(capsys, bad, error).startswith(f"{what} {k} ")
        # the file cut within row k
        bad.write_bytes(data[: at + 20])
        message = _export_rejects(capsys, bad, error)
        assert message.startswith(f"{what} {k} is not the writer's row for its seed:\n")
        assert message.endswith(data[at + 1 : at + 20].decode())
    bad.write_bytes(data[:-1])
    assert _export_rejects(capsys, bad, error).startswith(f"{what} {len(rows) - 1} ")


@pytest.mark.parametrize("n", [3, 17], ids=lambda n: f"family-{n}")
def test_export_names_the_changed_or_cut_row_at_hex_widths_1_and_5(capsys, tmp_path, n):
    # the cases above at one hex digit and at five, in the first rows, a
    # middle one and the last two of the 21,845 at n = 17
    data = _artifact(n)
    rows = [m.start() for m in re.finditer(rb"\n    \[\n", data)]
    bad = tmp_path / "bad.json"
    for k in sorted({0, 1, 6, len(rows) // 2, len(rows) - 2, len(rows) - 1} & {*range(len(rows))}):
        at = rows[k]
        first = [m.end() - 1 for m in re.finditer(rb'\n {6}"[0-9a-f]', data[at : at + 200])][:7]
        i = at + first[k % 7] + k % hex_width(n)
        bad.write_bytes(data[:i] + b"%x" % (int(data[i : i + 1], 16) ^ 1) + data[i + 1 :])
        assert _export_rejects(capsys, bad, "MalformedFamily").startswith(f"block row {k} ")
        bad.write_bytes(data[: at + 20])
        message = _export_rejects(capsys, bad, "MalformedFamily")
        assert message == f"block row {k} is not the writer's row for its seed:\n" + data[
            at + 1 : at + 20
        ].decode()


@pytest.mark.parametrize("n", [3, 5, 9, 17], ids=lambda n: f"family-{n}")
def test_export_finds_the_rows_at_the_writers_offsets(capsys, tmp_path, n):
    # every row is where the header's end and the one row width put it:
    # what lies past the rows, and a row that is not one, is named as it stands
    data = _artifact(n)
    h = data.index(b'"blocks": ') + len(b'"blocks": ')
    rows = [m.start() + 1 for m in re.finditer(rb"\n    \[\n", data)]
    body, end = data[:-7], data[-7:]  # end closes the list and the object
    last, k = body[rows[-1] :], len(rows) - 1
    bad = tmp_path / "bad.json"

    def named(k, text):
        return f"block row {k} is not the writer's row for its seed:\n{text.decode()}"

    # the final byte cut, or one byte appended: the last row and what follows
    bad.write_bytes(data[:-1])
    assert _export_rejects(capsys, bad, "MalformedFamily") == named(k, last + end[:-1])
    bad.write_bytes(data + b"x")
    assert _export_rejects(capsys, bad, "MalformedFamily") == named(k, last + end + b"x")
    # one writer row appended, and no rows at all: families that write back
    for good in (body + b",\n" + last + end, data[:h] + b"[]\n}\n"):
        bad.write_bytes(good)
        code, stdout, _ = run_cli(capsys, "export", str(bad))
        assert code == 0 and stdout.encode() == good
    # a row replaced by a bare 5: named with it, where a row follows it
    for k in {0, len(rows) // 2, len(rows) - 1}:
        bad.write_bytes(data[: rows[k]] + b"5" + data[rows[k] + len(last) :])
        message = _export_rejects(capsys, bad, "MalformedFamily")
        if k < len(rows) - 1:
            assert message == named(k, b"5")
        elif k:
            assert message == named(k - 1, data[rows[k - 1] : rows[k]] + b"5")
        else:
            assert message == "the blocks list is not in the writer's layout"


@pytest.mark.parametrize("n", [5, 9], ids=lambda n: f"family-{n}")
def test_export_rejects_the_compact_layout(capsys, tmp_path, n):
    # the same object in json.dumps's compact layout is refused: whole, at
    # its header, and with only the rows compact, at the first row
    data = _artifact(n)
    key = b'"blocks": '
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(json.loads(data)))
    assert "header" in _export_rejects(capsys, bad, "MalformedFamily")
    h = data.index(key) + len(key)
    rows = json.loads(data)["blocks"]
    bad.write_bytes(data[:h] + json.dumps(rows).encode() + b"\n}\n")
    message = _export_rejects(capsys, bad, "MalformedFamily")
    assert message.startswith("block row 0 is not the writer's row for its seed")


@pytest.mark.parametrize(
    "orbits", [[1, "x", None], [{"rep": ["1"] * 7}]], ids=["junk", "no-length"]
)
def test_export_rejects_orbits_that_are_not_the_writers(capsys, tmp_path, orbits):
    data = design_dict(develop(build_family(cached_field(5))))
    data["orbits"] = orbits
    bad = tmp_path / "bad.json"
    bad.write_bytes(to_json_bytes(data))
    _export_rejects(capsys, bad, "Qdf")


def test_export_in_place_and_rejected_input_write_nothing_else(capsys, tmp_path):
    # the reader is done with the input before --out is opened, so export
    # may overwrite its own input
    fam = tmp_path / "fam.json"
    data = _artifact(7)
    fam.write_bytes(data)
    assert run_cli(capsys, "export", str(fam), "--out", str(fam))[:2] == (0, "")
    assert fam.read_bytes() == data
    # an input export rejects creates no --out file
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_bytes(data[: len(data) // 2])
    for fmt in ("json", "csv"):
        assert run_cli(capsys, "export", str(bad), "--format", fmt, "--out", str(out))[0] == 2
        assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["construct", "--n", "3"], ["export", "{fam}"]], ids=["construct", "export"]
)
def test_unwritable_out_exits_2_naming_the_path(capsys, tmp_path, argv):
    fam = tmp_path / "fam.json"
    fam.write_bytes(_artifact(3))
    out = tmp_path / "missing" / "x.json"
    argv = [str(fam) if a == "{fam}" else a for a in argv]
    code, stdout, stderr = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2 and stdout == ""
    err = json.loads(stderr)
    assert err["error"] == "Qdf" and str(out) in err["message"]


def test_closed_stdout_exits_2_with_one_error_line():
    # certify --n 13 writes ~4.2 MB, far past a pipe's buffer, so it is
    # still writing when its reader goes away after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "qdf.cli", "certify", "--n", "13"],
        env={**os.environ, "PYTHONPATH": QDF_ROOT},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    with proc.stderr:
        stderr = proc.stderr.read().decode()
    assert proc.wait() == 2
    [line] = stderr.splitlines()
    err = json.loads(line)
    assert err["error"] == "Qdf" and "stdout" in err["message"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv,target",
    [(["construct", "--n", "5", "--out", "/dev/full"], "/dev/full"), (["verify", "--n", "5"], "stdout")],
    ids=["out", "stdout"],
)
def test_full_device_exits_2_with_one_error_line(argv, target):
    # the open succeeds and the write fails (ENOSPC): one JSON line, and on
    # stdout no "Exception ignored" from the interpreter's flush at exit
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qdf.cli", *argv],
            env={**os.environ, "PYTHONPATH": QDF_ROOT},
            stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    message = f"cannot write {target}: {os.strerror(errno.ENOSPC)}"
    assert json.loads(line) == {"error": "Qdf", "message": message}


def _outputs(tmp_path, n, system):
    """{command: bytes written} of construct, verify, gdd (when 3 | n)
    and export of the constructed file to JSON and CSV, at degree n."""
    fam = tmp_path / "family.json"
    field = ["--n", str(n), "--seed-system", system]
    runs = {
        "construct": ["construct", *field],
        "verify": ["verify", *field],
        "gdd": ["gdd", *field] if n % 6 == 3 else None,
        "export-json": ["export", str(fam)],
        "export-csv": ["export", str(fam), "--format", "csv"],
    }
    out = {}
    for name, argv in runs.items():
        if argv is not None:
            path = fam if name == "construct" else tmp_path / f"{name}.out"
            assert main([*argv, "--out", str(path)]) == 0, name
            out[name] = path.read_bytes()
    return out


_DEFAULT_OUTPUTS = {}


@pytest.mark.parametrize("chunk", [1, 5, 64])
@pytest.mark.parametrize("system", ["min", "max"])
@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_outputs_independent_of_the_seed_chunk_size(tmp_path_factory, monkeypatch, n, system, chunk):
    # at n <= 13 the default chunk of 4096 rows holds every family whole:
    # here the commands read the family, its development and the file
    # export reads back in chunks of 1, 5 and 64 rows, and write the same
    # bytes
    from qdf import family

    if (n, system) not in _DEFAULT_OUTPUTS:
        assert (1 << n) // 6 <= family._CHUNK_ROWS
        _DEFAULT_OUTPUTS[n, system] = _outputs(tmp_path_factory.mktemp("default"), n, system)
    monkeypatch.setattr(family, "_CHUNK_ROWS", chunk)
    assert _outputs(tmp_path_factory.mktemp("chunked"), n, system) == _DEFAULT_OUTPUTS[n, system]


@pytest.mark.parametrize("n", [9, 15])
def test_commands_never_build_every_slot_row_at_once(tmp_path, monkeypatch, n):
    # the materializing accessors serve tests, demos and tracing only: with
    # each of them raising, every command still runs, from seed chunks and
    # the rows it fetches by index
    from qdf import Design, DifferenceFamily

    def refuse(self):
        raise AssertionError("every slot row built at once")

    for cls, name in ((DifferenceFamily, "slots"), (Design, "orbits")):
        monkeypatch.setattr(cls, name, property(refuse))
    monkeypatch.setattr(Design, "orbit_rows", refuse)
    fam = tmp_path / "family.json"
    field = ["--n", str(n), "--force"]
    commands = [
        ["construct", *field, "--out", str(fam)],
        ["verify", *field],
        ["certify", *field],
        ["gdd", *field],
        ["export", str(fam)],
        ["export", str(fam), "--format", "csv"],
    ]
    for argv in commands:
        assert main([*argv, "--out", os.devnull] if argv[0] != "construct" else argv) == 0, argv


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
def test_commands_never_read_the_exp_table(tmp_path, monkeypatch, n):
    # the exp table is built on first read, for the reference definitions,
    # tests, --seed-system max and a failing check's offenders: with it
    # raising, every command still runs, from the logs and the walks
    from qdf import GF2n

    def refuse(self):
        raise AssertionError("the exp table read")

    monkeypatch.setattr(GF2n, "exp", property(refuse))
    fam = tmp_path / "family.json"
    field = ["--n", str(n), "--force"]
    commands = [
        ["construct", *field, "--out", str(fam)],
        ["verify", *field],
        ["certify", *field],
        *([["gdd", *field]] if n % 6 == 3 else []),
        ["export", str(fam)],
        ["export", str(fam), "--format", "csv"],
    ]
    for argv in commands:
        assert main([*argv, "--out", os.devnull] if argv[0] != "construct" else argv) == 0, argv
    with pytest.raises(AssertionError, match="the exp table read"):
        main(["construct", *field, "--seed-system", "max", "--out", os.devnull])
