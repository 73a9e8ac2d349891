"""Record reference.json: the exit code and artifact sha256 of every
command of every workload, for every shipped seed.

Run from the root of a checkout whose CLI output is the behaviour
contract (byte-identical output for a given n and modulus):

    python3 perfbench/record.py

Every verify/gdd report must say `"pass": true` and every command must
exit 0, or nothing is written.  The digests only change when the
contract does; a change that keeps the contract keeps them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import HERE, Bench
from workloads import ALL_WORKLOADS, SHIPPED_SEEDS


def main() -> int:
    bench = Bench(Path.cwd(), references={})
    refs: dict = {}
    for workload in ALL_WORKLOADS:
        for seed in range(SHIPPED_SEEDS):
            p = bench.run_pass(workload, seed, reps=1)
            entry = refs.setdefault(workload, {}).setdefault(str(seed), {})
            for c in p["checked"]:
                problems = [x for x in c["problems"] if x != "no reference digest"]
                if problems:
                    print(f"{workload} seed {seed} {c['id']}: {problems}", file=sys.stderr)
                    return 1
                entry[c["id"]] = {"exit": c["exit"], "sha256": c["sha256"]}
            print(f"{workload} seed {seed}: {len(entry)} commands", file=sys.stderr)
    with open(HERE / "reference.json", "w", encoding="ascii") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
