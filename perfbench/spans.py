"""Spans around the calls into each `qdf` layer, and the per-layer report.

`Tracer.install` rebinds public functions in the namespaces where `qdf`
looks them up (`qdf.cli`, `qdf.family`, `qdf.design`, `qdf.gdd`,
`qdf.serialize`), so the program runs unchanged.  Each call records a span
[name, start, end, parent index, counts] in memory; the worker writes the
list out once the pass is over.  A layer is a `qdf` module; a span's name
is the per-layer time metric its self time (its duration minus that of
its child spans) adds to.  Functions not listed here count towards their
caller's self time; e.g. `block_of` counts as `family.build_s`.
"""

from __future__ import annotations

import resource
import sys
from time import perf_counter

KERNEL = "design.kernel_s"

# (namespace, name bound there, span name)
WRAPPED = (
    ("cli", "GF2n", "gf2n.field_s"),
    ("serialize", "GF2n", "gf2n.field_s"),
    ("family", "hexagon_partition", "blocks.hexagon_partition_s"),
    ("design", "stabilizer_of", "blocks.stabilizer_s"),
    ("design", "canonical_orbit_label", "blocks.orbit_label_s"),
    ("gdd", "canonical_orbit_label", "blocks.orbit_label_s"),
    ("cli", "build_family", "family.build_s"),
    ("cli", "multiplicity_profile", "family.profile_s"),
    ("cli", "equation_certificate", "family.certify_s"),
    ("cli", "develop", "design.develop_s"),
    ("gdd", "develop", "design.develop_s"),
    ("design", "pair_coverage_counts", KERNEL),
    ("gdd", "pair_coverage_counts", KERNEL),
    ("cli", "verify_2design", "design.check_s"),
    ("cli", "check_qanalog", "design.qanalog_s"),
    ("cli", "check_simple", "design.simple_s"),
    ("cli", "build_relative_family", "gdd.relative_s"),
    ("cli", "verify_relative", "gdd.relative_s"),
    ("cli", "desarguesian_spread", "gdd.spread_s"),
    ("gdd", "desarguesian_spread", "gdd.spread_s"),
    ("cli", "develop_and_verify_gdd", "gdd.verify_s"),
    *(
        ("cli", f, "serialize.s")
        for f in (
            "certificate_to_dict",
            "design_to_dict",
            "family_from_dict",
            "family_to_dict",
            "gdd_to_dict",
            "profile_to_csv",
            "report_to_dict",
            "to_json_bytes",
        )
    ),
)
ROOT = "cli.self_s"  # qdf.cli.main, called once per command

LAYERS = ("cli", "gf2n", "blocks", "family", "design", "gdd", "serialize")

# Span-name counts: how many calls a layer served.
CALL_COUNTS = {
    "gf2n.fields": "gf2n.field_s",
    "family.certificates": "family.certify_s",
    "design.develop_calls": "design.develop_s",
    "gdd.spread_calls": "gdd.spread_s",
    "cli.commands": ROOT,
}

# Every per-layer metric as (name, unit, better); BENCHMARK.json lists the same.
PER_LAYER = (
    ("gf2n.field_s", "s", "lower"),
    ("gf2n.fields", "count", "lower"),
    ("blocks.hexagon_partition_s", "s", "lower"),
    ("blocks.stabilizer_s", "s", "lower"),
    ("blocks.orbit_label_s", "s", "lower"),
    ("family.build_s", "s", "lower"),
    ("family.profile_s", "s", "lower"),
    ("family.certify_s", "s", "lower"),
    ("family.certificates", "count", "lower"),
    ("design.develop_s", "s", "lower"),
    ("design.develop_calls", "count", "lower"),
    (KERNEL, "s", "lower"),
    ("design.kernel_incidences", "count", "lower"),
    ("design.kernel_counter_mib", "MiB-computed", "lower"),
    ("design.kernel_rss_mib", "MiB", "lower"),
    ("design.check_s", "s", "lower"),
    ("design.qanalog_s", "s", "lower"),
    ("design.simple_s", "s", "lower"),
    ("gdd.relative_s", "s", "lower"),
    ("gdd.spread_s", "s", "lower"),
    ("gdd.spread_calls", "count", "lower"),
    ("gdd.verify_s", "s", "lower"),
    ("serialize.s", "s", "lower"),
    ("serialize.bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.commands", "count", "higher"),
    *((f"{layer}.share", "fraction", "lower") for layer in LAYERS),
    ("trace.uncovered_share", "fraction", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def maxrss_mib() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10


def _rss_now_mib() -> float | None:
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return None
    return pages * resource.getpagesize() / 2**20


def _kernel_counts(args, counts, rss_before) -> dict:
    ctx, orbits = args[0], args[1]
    v = ctx.order - 1
    peak = maxrss_mib()
    return {
        # (block, point-pair) incidences: 21 pairs per developed block
        "incidences": 21 * sum(o.length * o.replication for o in orbits),
        # computed, not measured: one counter per unordered point pair
        "counter_mib": v * (v - 1) // 2 * counts.itemsize / 2**20,
        # upper bound: peak RSS so far minus RSS on entry
        "rss_mib": peak - (rss_before if rss_before is not None else 0.0),
    }


def _output_bytes(args, out, _before) -> dict:
    return {"bytes": len(out)}


PRE = {"pair_coverage_counts": _rss_now_mib}
POST = {
    "pair_coverage_counts": _kernel_counts,
    "to_json_bytes": _output_bytes,
    "profile_to_csv": _output_bytes,
}


class Tracer:
    """Records spans of the wrapped calls in one process, in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.unbound: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, pre=None, post=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            before = pre() if pre else None
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if post:
                rec[4] = post(args, out, before)
            return out

        return traced

    def install(self):
        """Wrap every function in WRAPPED and return the traced `qdf.cli.main`.

        A name no longer bound where WRAPPED expects it is skipped and
        listed in `unbound`, so its time shows up in its caller's layer.
        """
        import qdf.cli

        for ns, attr, name in WRAPPED:
            mod = getattr(qdf, ns)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.unbound.append(f"{ns}.{attr}")
                continue
            setattr(mod, attr, self._wrap(name, fn, PRE.get(attr), POST.get(attr)))
        return self._wrap(ROOT, qdf.cli.main)


def layer_metrics(spans: list, wall: float) -> tuple[dict, list[int]]:
    """Per-layer metrics of one traced pass whose commands took `wall`
    seconds, and the kernel incidences of each command (root span) in
    order."""
    child = [0.0] * len(spans)
    root = [0] * len(spans)
    for i, (_, t0, t1, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
            root[i] = root[parent]
        else:
            root[i] = i
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    per_root = {r: 0 for r in roots}

    m = {name: 0.0 if unit == "s" else 0 for name, unit, _ in PER_LAYER}
    calls = {}
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for i, (name, t0, t1, _, counts) in enumerate(spans):
        self_s = (t1 - t0) - child[i]
        m[name] += self_s
        layer_s[name.split(".")[0]] += self_s
        calls[name] = calls.get(name, 0) + 1
        if name == KERNEL:
            per_root[root[i]] += counts["incidences"]
            m["design.kernel_incidences"] += counts["incidences"]
            m["design.kernel_counter_mib"] += counts["counter_mib"]
            m["design.kernel_rss_mib"] = max(m["design.kernel_rss_mib"], counts["rss_mib"])
        elif counts:
            m["serialize.bytes"] += counts["bytes"]
    for metric, span_name in CALL_COUNTS.items():
        m[metric] = calls.get(span_name, 0)
    for layer, self_s in layer_s.items():
        m[f"{layer}.share"] = self_s / wall
    covered = sum(spans[r][2] - spans[r][1] for r in roots)
    m["trace.uncovered_share"] = (wall - covered) / wall
    m["trace.wall_s"] = wall
    m["trace.spans"] = len(spans)
    return m, [per_root[r] for r in roots]
