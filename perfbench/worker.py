"""One benchmark pass in a fresh process.

Usage: python3 worker.py SPEC.json

SPEC holds the commands of the pass, each as [id, argv], with argv
complete down to `--out`, and whether to trace.  The worker imports
`qdf`, prints `ready` on stdout (the parent times set-up up to that
line), runs every command through `qdf.cli.main` in order, one after the
other, and writes its timings (each command's seconds and start offset)
to the `result` path named in SPEC.  With
tracing on, the spans go to the `spans` path at exit.  The worker writes
nothing else; the parent hashes the artifacts.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

from spans import Tracer, maxrss_mib


def _run(spec: dict) -> dict:
    import numpy
    import qdf
    import qdf.cli

    tracer = None
    main = qdf.cli.main
    if spec["trace"]:
        tracer = Tracer()
        main = tracer.install()

    done = []
    first = time.perf_counter()
    for cid, argv in spec["commands"]:
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # one failing command must not stop the pass
            traceback.print_exc()
            rc = None
        done.append([cid, rc, time.perf_counter() - t0, t0 - first])
    wall = time.perf_counter() - first

    if tracer is not None:
        with open(spec["spans"], "w", encoding="ascii") as fh:
            json.dump({"spans": tracer.spans, "unbound": tracer.unbound}, fh)
    return {
        "commands": done,
        "wall_s": wall,
        "peak_rss_mib": maxrss_mib(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "qdf_file": qdf.__file__,
    }


if __name__ == "__main__":
    import qdf.cli  # noqa: F401  (set-up ends once the CLI is imported)

    print("ready", flush=True)
    with open(sys.argv[1], encoding="ascii") as fh:
        spec = json.load(fh)
    result = _run(spec)
    with open(spec["result"], "w", encoding="ascii") as fh:
        json.dump(result, fh)
