"""End-to-end benchmark of the `qdf` CLI, with a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-13 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one by one

A pass starts a fresh single-process worker (perfbench/worker.py) that
imports `qdf` from the checkout's `src/` and calls `qdf.cli.main` for each
command of the workload in order: a closed loop with one client.  Every
command writes its artifact with `--out` into a scratch directory under
`.perfbench_work/`.  Runs are single-threaded: no `--threads` flag and
`QDF_THREADS` unset.

A command fails when its exit code is not 0, when its artifact's sha256
differs from the digest recorded in reference.json (see record.py), or
when a verify/gdd report does not say `"pass": true`.

With --trace 0 the run repeats passes for --seconds and prints the
end-to-end metrics.  `wall_s` is the mean time of one set of the
workload's commands: the run's timed seconds over its timed sets (a
worker that runs the set more than once warms up on its first set, which
is left out).  The host switches between a fast and a slow speed every
few seconds, so the median of sets flips between the two from run to
run, while the mean follows the share of time in each.  `peak_rss_mib`
and `setup_s` are medians over workers.  With --trace 1 it makes one
untraced and one traced pass and prints the per-layer metrics (see
spans.py).  The last line of stdout is the JSON result; the lines before
it name every metric with its unit, plus the machine record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import LAYERS, PER_LAYER, layer_metrics  # noqa: E402
from workloads import ALL_WORKLOADS, SHIPPED_SEEDS, WORKLOADS, command_set, repeats  # noqa: E402

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)
# fail_frac and pair_incidences_per_s are printed too, but left out of the
# JSON result: fail_frac is 0 on correct code (the result's `failed` and
# `attempted` carry it), and only some workloads count pairs.

SETUP_SAMPLES = 11  # set-up is timed at least this often per run
RUN_DEADLINE_S = 170  # a run must end within 180 s


def _counts_pairs(cid: str) -> bool:
    return cid.split("-")[0] in ("verify", "gdd")


class BenchError(Exception):
    """The benchmark itself cannot run here (no source tree, dead worker)."""


def load_references() -> dict:
    with open(HERE / "reference.json", encoding="ascii") as fh:
        return json.load(fh)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _incidences(cid: str, report: dict) -> int:
    """21 (block, point-pair) incidences per developed block."""
    if cid.startswith("verify-"):
        return 21 * report["blocks_counted"]
    return 21 * sum(o["length"] * o["replication"] for o in report["orbits"])


class Bench:
    """Runs passes of one checkout's `qdf` and checks their artifacts."""

    def __init__(self, root: Path, references: dict, deadline: float | None = None) -> None:
        self.src = root / "src"
        if not (self.src / "qdf" / "__init__.py").is_file():
            raise BenchError(f"no qdf source tree under {self.src}")
        self.work = root / ".perfbench_work"
        self.deadline = deadline
        self.references = references
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.env.pop("QDF_THREADS", None)

    def _commands(self, workload: str, seed: int, reps: int, d: Path) -> list:
        commands = []
        for rep in range(reps):
            paths = {}
            for cid, argv in command_set(workload, seed):
                out = d / f"{rep}-{cid}.{'csv' if cid.startswith('export-csv') else 'json'}"
                paths[cid] = str(out)
                argv = [paths[a[1:-1]] if a.startswith("{") else a for a in argv]
                commands.append([cid, argv + ["--out", str(out)]])
        return commands

    def worker(self, commands: list, trace: bool, d: Path) -> tuple[float, dict]:
        """Run one worker over `commands`; return (set-up seconds, result)."""
        spec = {
            "commands": commands,
            "trace": trace,
            "result": str(d / "result.json"),
            "spans": str(d / "spans.json"),
        }
        (d / "spec.json").write_text(json.dumps(spec), encoding="ascii")
        with open(d / "worker.stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(d / "spec.json")],
                stdout=subprocess.PIPE,
                stderr=err,
                env=self.env,
            )
            try:
                ready = proc.stdout.readline()
                setup = time.perf_counter() - t0
                left = None if self.deadline is None else self.deadline - time.monotonic()
                rc = proc.wait(timeout=None if left is None else max(1.0, left))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError("worker exceeded the run deadline") from None
            finally:
                proc.stdout.close()
        if ready != b"ready\n" or rc != 0:
            tail = (d / "worker.stderr").read_text(errors="replace")[-2000:]
            raise BenchError(f"worker exited with {rc}:\n{tail}")
        result = json.loads((d / "result.json").read_text(encoding="ascii"))
        if not Path(result["qdf_file"]).resolve().is_relative_to(self.src.resolve()):
            raise BenchError(f"worker imported qdf from {result['qdf_file']}")
        return setup, result

    def run_pass(self, workload: str, seed: int, trace: bool = False, reps=None) -> dict:
        """One pass in a fresh worker, with every command checked."""
        self.work.mkdir(exist_ok=True)
        d = Path(tempfile.mkdtemp(prefix="pass-", dir=self.work))
        try:
            commands = self._commands(workload, seed, reps or repeats(workload), d)
            setup, result = self.worker(commands, trace, d)
            ref = self.references.get(workload, {}).get(str(seed % SHIPPED_SEEDS), {})
            checked = []
            for (cid, argv), (_, rc, secs, _) in zip(commands, result["commands"]):
                checked.append(self._check(cid, Path(argv[-1]), rc, secs, ref.get(cid)))
            per_set = len(commands) // (reps or repeats(workload))
            sets = [result["commands"][i : i + per_set] for i in range(0, len(commands), per_set)]
            result["set_walls"] = [s[-1][3] + s[-1][2] - s[0][3] for s in sets]
            spans = json.loads((d / "spans.json").read_text()) if trace else None
        finally:
            shutil.rmtree(d, ignore_errors=True)
        result.update(setup_s=setup, checked=checked, spans=spans)
        return result

    @staticmethod
    def _check(cid: str, artifact: Path, rc, secs: float, ref) -> dict:
        """Exit code, digest and verdict of one command's artifact."""
        c = {"id": cid, "exit": rc, "seconds": secs, "incidences": 0, "problems": []}
        if not artifact.is_file():
            c["problems"].append("no artifact")
        else:
            c["sha256"] = _sha256(artifact)
            if _counts_pairs(cid):
                try:
                    report = json.loads(artifact.read_text(encoding="ascii"))
                    c["incidences"] = _incidences(cid, report)
                    verdicts = [report["report"], report["relative_profile"]] if "report" in report else [report]
                    if any(v.get("pass") is not True for v in verdicts):
                        c["problems"].append("report does not say pass: true")
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    c["problems"].append(f"unreadable report: {exc!r}")
        if rc != 0:
            c["problems"].append(f"exit code {rc}")
        if ref is None:
            c["problems"].append("no reference digest")
        elif ref["exit"] != rc or ref["sha256"] != c.get("sha256"):
            c["problems"].append("exit code or sha256 differs from the reference")
        return c


def _samples(values: list[float], stat: str = "median") -> str:
    if len(values) > 12:
        q = statistics.quantiles(values, n=10)
        return (
            f"{stat} of {len(values)}; min {min(values):.4g} median {statistics.median(values):.4g}"
            f" p90 {q[8]:.4g} max {max(values):.4g}"
        )
    return f"{stat} of {len(values)}: " + " ".join(f"{v:.4g}" for v in sorted(values))


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<30} {value!s:>14} {unit:<13} {note}")


def machine_record(worker_result: dict, seed: int) -> dict:
    l3 = "unknown"
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        if (idx / "level").read_text().strip() == "3":
            l3 = (idx / "size").read_text().strip().replace("K", " KiB")
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": worker_result["python"],
        "numpy": worker_result["numpy"],
        "l3": l3,
        "seed": seed,
        "shipped_seed": seed % SHIPPED_SEEDS,
    }


def _failures(passes: list[dict]) -> tuple[int, int]:
    """(attempted, failed) commands; each distinct failure goes to stderr once."""
    cmds = [c for p in passes for c in p["checked"]]
    seen = set()
    for c in cmds:
        line = f"FAILED {c['id']}: {'; '.join(c['problems'])}"
        if c["problems"] and line not in seen:
            seen.add(line)
            print(line, file=sys.stderr)
    return len(cmds), sum(1 for c in cmds if c["problems"])


def measure(bench: Bench, workload: str, seed: int, seconds: float) -> dict:
    """Timed passes for `seconds`; the end-to-end metrics."""
    start = time.perf_counter()
    passes = []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        passes.append(bench.run_pass(workload, seed))
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - start + longest > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        d = Path(tempfile.mkdtemp(prefix="setup-", dir=bench.work))
        try:
            setups.append(bench.worker([], False, d)[0])
        finally:
            shutil.rmtree(d, ignore_errors=True)

    attempted, failed = _failures(passes)
    # A worker that runs the command set more than once warms up on its
    # first set, which is left out.
    walls = [w for p in passes for w in p["set_walls"][1:] or p["set_walls"]]
    rss = [p["peak_rss_mib"] for p in passes]
    metrics = {
        "wall_s": statistics.fmean(walls),
        "peak_rss_mib": statistics.median(rss),
        "setup_s": statistics.median(setups),
    }
    print("machine " + json.dumps(machine_record(passes[0], seed)))
    print(
        f"workload {workload}: {len(passes)} passes of {len(passes[0]['set_walls'])} sets"
        f" of {len(command_set(workload, seed))} commands"
    )
    for (name, unit, _), values, stat in zip(END_TO_END, (walls, rss, setups), ("mean", "median", "median")):
        _print_metric(name, f"{metrics[name]:.6g}", unit, _samples(values, stat))
    _print_metric("fail_frac", f"{failed / attempted:.6g}", "fraction", f"{failed} of {attempted} commands")
    rates = []
    for p in passes:
        pc = [c for c in p["checked"] if _counts_pairs(c["id"])]
        if pc:
            rates.append(sum(c["incidences"] for c in pc) / sum(c["seconds"] for c in pc))
    if rates:
        _print_metric("pair_incidences_per_s", f"{statistics.median(rates):.6g}", "1/s", _samples(rates))
    else:
        _print_metric("pair_incidences_per_s", "n/a", "1/s", "no pair counting in this workload")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in END_TO_END},
    }


def measure_traced(bench: Bench, workload: str, seed: int) -> dict:
    """One untraced and one traced pass; the per-layer metrics."""
    plain = bench.run_pass(workload, seed)
    traced = bench.run_pass(workload, seed, trace=True)
    m, per_command = layer_metrics(traced["spans"]["spans"], traced["wall_s"])
    m["trace.untraced_wall_s"] = plain["wall_s"]
    m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    for c, incidences in zip(traced["checked"], per_command):
        # the kernel must have counted exactly the developed blocks' pairs
        if _counts_pairs(c["id"]) and incidences != c["incidences"]:
            c["problems"].append(f"kernel counted {incidences} incidences, artifact implies {c['incidences']}")
    attempted, failed = _failures([plain, traced])

    print("machine " + json.dumps(machine_record(traced, seed)))
    print(f"workload {workload}: trace report, one untraced and one traced pass")
    for name in traced["spans"]["unbound"]:
        print(f"  note: {name} is not bound any more; its time counts to its caller")
    wall = traced["wall_s"]
    print(f"  {'layer':<12} {'self_s':>10} {'share of wall_s':>16}")
    for layer, share in [(x, m[f"{x}.share"]) for x in LAYERS] + [("uncovered", m["trace.uncovered_share"])]:
        print(f"  {layer:<12} {share * wall:>10.4f} {share:>16.2%}")
    print(f"  traced wall_s {wall:.4f} s, untraced {plain['wall_s']:.4f} s, overhead {m['trace.overhead_s']:+.4f} s")
    for name, unit, _ in PER_LAYER:
        _print_metric(name, f"{m[name]:.6g}", unit)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m[name], "unit": unit} for name, unit, _ in PER_LAYER},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=ALL_WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        bench = Bench(Path.cwd(), load_references())
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            bench.deadline = time.monotonic() + RUN_DEADLINE_S
            if args.trace:
                result = measure_traced(bench, workload, args.seed)
            else:
                result = measure(bench, workload, args.seed, args.seconds)
            print(json.dumps(result), flush=True)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
