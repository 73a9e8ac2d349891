"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WHY, WORKLOADS, command_set, irreducibles  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tiny_workload_passes():
    res = _result(_run("--workload", "tiny", "--seed", "5", "--seconds", "1", "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 11
    assert list(res["metrics"]) == [name for name, _, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    res = _result(_run("--workload", "tiny", "--seed", "1", "--trace", "1"))
    assert res["correct"] and res["failed"] == 0
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert list(m) == [name for name, _, _ in PER_LAYER]
    # two passes of tiny: verify n = 3, 5 and gdd n = 3 (an empty relative family)
    assert m["design.kernel_incidences"] == 21 * (1 * 7 + 31 * 5)
    assert m["cli.commands"] == len(command_set("tiny", 1))
    shares = sum(v for k, v in m.items() if k.endswith(".share"))
    assert shares + m["trace.uncovered_share"] == pytest.approx(1.0, abs=1e-6)


def test_tampered_reference_digest_counts_as_failure():
    refs = run.load_references()
    tampered = json.loads(json.dumps(refs))
    entry = tampered["tiny"]["0"]["verify-5"]
    entry["sha256"] = entry["sha256"][::-1]
    bench = run.Bench(ROOT, tampered)
    checked = bench.run_pass("tiny", 0)["checked"]
    failed = {c["id"] for c in checked if c["problems"]}
    assert failed == {"verify-5"}
    # and the untampered references accept the same pass
    assert not any(c["problems"] for c in run.Bench(ROOT, refs).run_pass("tiny", 0)["checked"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "tiny", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w, WHY[w]) for w in WORKLOADS]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_seed_zero_is_the_cli_default_modulus():
    from qdf import smallest_irreducible

    for n in (3, 5, 7, 9, 13, 15, 19):
        assert irreducibles(n, 1) == [smallest_irreducible(n)]
    assert command_set("verify-13", 0) == command_set("verify-13", 32)
    assert command_set("verify-13", 1) != command_set("verify-13", 2)
