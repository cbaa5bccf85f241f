"""Outside-in tracer for one s4min CLI command.

    PYTHONPATH=src python3 bench/tracer.py SPANS.json -- <cli arguments>

runs the command in this process through ``s4min.cli.main`` after
rebinding the public functions of each s4min module, in every module
namespace where callers look them up, to wrappers that record a span:
name, start, end, parent span and the process's ``ru_maxrss`` when the
span ends.  The program's files are not changed.  Spans stay in memory and
are written to SPANS.json when the command returns.

``layer_stats`` turns the spans of a pass into per-function totals, and
``PER_LAYER`` maps those totals to the benchmark's per-layer metrics.
"""
from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from collections import defaultdict
from functools import wraps
from pathlib import Path

# defining module -> public functions timed as spans
LAYERS = {
    "grid": ("diff",),
    "catalog": ("load_catalog", "read_manifest", "write_manifest",
                "perturb_immersion"),
    "surface": ("fd_jets", "tangent_frame", "normal_frame",
                "second_fundamental_form", "shape_report"),
    "adapted": ("superminimality_test", "hopf_differential"),
    "topology": ("topology_report", "laplace_identity_residual"),
    "family": ("connection_data", "assemble_maurer_cartan", "flatness_residual",
               "frame_reconstruction_residual", "integrate_frame", "march_frames",
               "deformed_immersion", "congruence_test"),
    "monodromy": ("scan_profile", "dichotomy_report"),
}
MODULES = ("grid", "catalog", "surface", "adapted", "topology", "family",
           "monodromy", "cli")
# march_frames is named after the module that calls it: the generator
# scan and root refinement of monodromy versus the sheet sweeps of family.
BY_CALLER = {"march_frames"}


def _nbytes(*arrays) -> int:
    return sum(getattr(a, "nbytes", 0) for a in arrays)


# extra numbers recorded on a span from the call's arguments and result
EXTRA = {
    "grid.diff": lambda args, out: {"bytes": _nbytes(args[1], out)},
    "family.connection_data": lambda args, out: {
        "bytes": _nbytes(out.C0, out.C1, out.C2)},
    "monodromy.scan_profile": lambda args, out: {"roots": len(out.roots)},
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        extra = EXTRA.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                span["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if extra is not None:
                span.update(extra(args, out))
            return out

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"s4min.{m}") for m in MODULES}
        for owner, names in LAYERS.items():
            for name in names:
                original = getattr(mods[owner], name)
                shared = self.wrap(f"{owner}.{name}", original)
                for where, mod in mods.items():
                    if getattr(mod, name, None) is original:
                        setattr(mod, name, self.wrap(f"{where}.{name}", original)
                                if name in BY_CALLER else shared)


# ---------------------------------------------------------------------------
# aggregation


def layer_stats(spans: list) -> dict:
    """Per span name: calls, total and self seconds, extras, peak RSS.

    ``spans`` holds one span list per command; self time is a span's
    duration minus that of its direct children.
    """
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                 "bytes": 0, "max_bytes": 0, "roots": 0,
                                 "rss_mb": 0.0})
    for command in spans:
        children = defaultdict(float)
        for s in command:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        for s in command:
            t = stats[s["name"]]
            dur = s["end"] - s["start"]
            t["calls"] += 1
            t["total_s"] += dur
            t["self_s"] += dur - children[s["id"]]
            t["bytes"] += s.get("bytes", 0)
            t["max_bytes"] = max(t["max_bytes"], s.get("bytes", 0))
            t["roots"] += s.get("roots", 0)
            t["rss_mb"] = max(t["rss_mb"], s["rss_kb"] / 1024)
    return dict(stats)


# (metric, unit, better, span name, statistic); bytes become MB
PER_LAYER = [
    ("monodromy.march_calls", "count", "lower", "monodromy.march_frames", "calls"),
    ("monodromy.march_s", "s", "lower", "monodromy.march_frames", "total_s"),
    ("monodromy.scan_self_s", "s", "lower", "monodromy.scan_profile", "self_s"),
    ("monodromy.roots", "count", "higher", "monodromy.scan_profile", "roots"),
    ("family.integrate_frame_calls", "count", "lower", "family.integrate_frame", "calls"),
    ("family.integrate_frame_self_s", "s", "lower", "family.integrate_frame", "self_s"),
    ("family.march_calls", "count", "lower", "family.march_frames", "calls"),
    ("family.march_s", "s", "lower", "family.march_frames", "total_s"),
    ("family.congruence_s", "s", "lower", "family.congruence_test", "total_s"),
    ("family.deformed_immersion_s", "s", "lower", "family.deformed_immersion", "total_s"),
    ("family.connection_data_s", "s", "lower", "family.connection_data", "total_s"),
    ("family.conn_mb", "MB", "lower", "family.connection_data", "max_bytes"),
    ("family.assemble_calls", "count", "lower", "family.assemble_maurer_cartan", "calls"),
    ("family.flatness_s", "s", "lower", "family.flatness_residual", "total_s"),
    ("family.reconstruction_s", "s", "lower", "family.frame_reconstruction_residual", "total_s"),
    ("surface.tangent_frame_s", "s", "lower", "surface.tangent_frame", "total_s"),
    ("surface.normal_frame_s", "s", "lower", "surface.normal_frame", "total_s"),
    ("surface.second_fundamental_form_s", "s", "lower",
     "surface.second_fundamental_form", "total_s"),
    ("surface.fd_jets_s", "s", "lower", "surface.fd_jets", "total_s"),
    ("grid.diff_calls", "count", "lower", "grid.diff", "calls"),
    ("grid.diff_s", "s", "lower", "grid.diff", "total_s"),
    ("grid.diff_mb", "MB", "lower", "grid.diff", "bytes"),
    ("catalog.load_s", "s", "lower", "catalog.load_catalog", "total_s"),
    ("catalog.read_manifest_s", "s", "lower", "catalog.read_manifest", "total_s"),
    ("catalog.write_manifest_s", "s", "lower", "catalog.write_manifest", "total_s"),
    ("catalog.perturb_s", "s", "lower", "catalog.perturb_immersion", "total_s"),
    ("cli.self_s", "s", "lower", "cli.main", "self_s"),
    ("adapted.superminimality_s", "s", "lower", "adapted.superminimality_test", "total_s"),
    ("adapted.hopf_s", "s", "lower", "adapted.hopf_differential", "total_s"),
    ("topology.report_s", "s", "lower", "topology.topology_report", "total_s"),
    # ru_maxrss high-water marks at the end of the pipeline stages
    ("catalog.load_rss_mb", "MB", "lower", "catalog.load_catalog", "rss_mb"),
    ("surface.normal_frame_rss_mb", "MB", "lower", "surface.normal_frame", "rss_mb"),
    ("family.connection_data_rss_mb", "MB", "lower", "family.connection_data", "rss_mb"),
    ("family.flatness_rss_mb", "MB", "lower", "family.flatness_residual", "rss_mb"),
    ("family.integrate_frame_rss_mb", "MB", "lower", "family.integrate_frame", "rss_mb"),
    ("monodromy.scan_rss_mb", "MB", "lower", "monodromy.scan_profile", "rss_mb"),
]


def layer_metrics(stats: dict) -> dict:
    """Per-layer metric values; a layer the pass never reached reads 0."""
    out = {}
    for metric, unit, _, name, stat in PER_LAYER:
        value = stats.get(name, {}).get(stat, 0)
        if stat in ("bytes", "max_bytes"):
            value = value / 1e6
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <cli arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from s4min import cli

    try:
        return tracer.wrap("cli.main", cli.main)(argv[2:])
    finally:
        Path(argv[0]).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
