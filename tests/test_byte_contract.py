"""Byte contract: CLI artifacts equal the digests stored for the benchmark.

Replays the `tiny` and `sweep-small` command sets of `perfbench/` (every
command at n <= 9: construct, export to JSON and CSV, verify, certify and
gdd), the `build-19` set (construct at n = 19, certify at n = 15) and the
`verify-13` set (verify at n = 13) for seeds 0 and 1 (build-19 for
seeds 0 to 7) through `qdf.cli.main`, and compares each exit code and
artifact sha256 with `perfbench/reference.json`.  The files under
`perfbench/` are only read.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from qdf.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def reference():
    return json.loads((PERFBENCH / "reference.json").read_text(encoding="ascii"))


# build-19 (construct at n = 19, certify at n = 15) runs on eight moduli:
# its hexagons, profile and certificates read each field's own tables
_CASES = [
    (workload, seed)
    for workload, seeds in (("tiny", 2), ("sweep-small", 2), ("build-19", 8), ("verify-13", 2))
    for seed in range(seeds)
]


@pytest.mark.parametrize("workload,seed", _CASES)
def test_artifacts_match_reference_digests(workload, seed, reference, tmp_path, capsys):
    paths = {}
    for cid, argv in _workloads().command_set(workload, seed):
        out = tmp_path / f"{cid}.{'csv' if cid.startswith('export-csv') else 'json'}"
        paths[cid] = out
        argv = [str(paths[a[1:-1]]) if a.startswith("{") else a for a in argv]
        rc = main(argv + ["--out", str(out)])
        ref = reference[workload][str(seed)][cid]
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert (cid, rc, digest) == (cid, ref["exit"], ref["sha256"])
    capsys.readouterr()
