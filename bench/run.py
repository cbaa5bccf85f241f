"""s4min benchmark: drives ``python -m s4min.cli`` as a user does.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0
    python3 bench/run.py --report        # aggregate the stored results
    python3 bench/run.py --stage-table   # per-stage time and RSS, Clifford torus

Run it from the root of a source checkout; the program is imported from
``src/``.  One client runs in a closed loop: each command of a workload
(see ``workloads.py``) runs in a fresh interpreter, one child at a time,
timed from spawn to exit, with its peak RSS read by ``os.wait4``.  Each
pass writes to a fresh directory under ``.bench_work/`` that is deleted
after the pass's checks.  Passes repeat until ``--seconds`` have passed,
and at least twice, so that every report can be compared byte for byte
with the same command's report of an earlier pass.

With ``--trace 0`` the result holds the end-to-end metrics, taken as
medians over passes.  With ``--trace 1`` the run makes one untraced pass
and one traced pass, in which every command runs in-process under
``tracer.py``, and the result holds the per-layer metrics and the tracing
overhead.  The last line of standard output is the result as JSON; a full
record, with the environment, goes to ``.bench_results/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from tracer import layer_metrics, layer_stats
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
TRACER = Path(__file__).resolve().parent / "tracer.py"

MIN_PASSES = 2
# set-up is measured this many times before every pass, so that its
# samples spread over the run like the passes do
SETUP_REPEATS = 3
KINDS = ("analyze", "deform", "monodromy", "verify")
END_TO_END = ("session_s", "setup_s", "peak_rss_mb")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
NOISE_NOTE = ("On a shared 2-core, 7 GB VM single-shot timings spread by about "
              "+-20%: the same analyze command took 6.1-8.9 s of CPU time. "
              "Compare medians over many runs, not single passes.")


# ---------------------------------------------------------------------------
# environment and statistics


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "note": NOISE_NOTE,
    }


def summary(values: list) -> dict:
    """Median, sample count and the highest percentile that has at least
    ten samples beyond it (None below eleven samples)."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "samples": n,
           "high_percentile": None, "high_value": None}
    if n >= 11:
        out["high_percentile"] = math.floor(100 * (n - 10) / n)
        out["high_value"] = ordered[n - 11]
    return out


# ---------------------------------------------------------------------------
# running commands


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list, log_dir: Path, env: dict) -> dict:
    """Run one child to completion; wall time from spawn to exit and its
    ru_maxrss.  Output goes to files, so no pipe can fill up."""
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024,
            "exit": proc.returncode, "stdout": out_path.read_text(errors="replace"),
            "stderr": err_path.read_text(errors="replace")}


@contextmanager
def work_dir(prefix: str):
    """A fresh directory under .bench_work/, removed with everything in it."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_pass(commands: list, run_dir: Path, env: dict, reference: dict,
             traced: bool = False) -> dict:
    """One pass through the workload's commands, with every check."""
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=run_dir))
    results, spans = [], []
    try:
        for cmd in commands:
            log_dir = pass_dir / f"{cmd.name}.log"
            log_dir.mkdir()
            cli_args = cmd.argv(pass_dir)
            if traced:
                span_file = log_dir / "spans.json"
                argv = [sys.executable, str(TRACER), str(span_file), "--", *cli_args]
            else:
                argv = [sys.executable, "-m", "s4min.cli", *cli_args]
            r = spawn(argv, log_dir, env)
            out = pass_dir / cmd.name
            try:
                problems = cmd.check(out, r["exit"], r["stdout"])
            except (KeyError, TypeError, AttributeError, ValueError) as exc:
                problems = [f"unexpected output: {exc!r}"]
            for name in cmd.reports:
                try:
                    data = (out / name).read_bytes()
                except OSError:
                    problems.append(f"{name} missing")
                    continue
                first = reference.setdefault(cmd.name, {}).setdefault(name, data)
                if data != first:
                    problems.append(f"{name} differs from an earlier pass")
            if problems and r["stderr"].strip():
                problems.append("stderr: " + r["stderr"].strip().splitlines()[-1])
            if not problems:
                status = "ok"
            elif cmd.known_defect and all(p.startswith(cmd.known_defect) for p in problems):
                status = "known_defect"
            else:
                status = "failed"
            results.append({"name": cmd.name, "kind": cmd.kind, "wall_s": r["wall_s"],
                            "rss_mb": r["rss_mb"], "exit": r["exit"],
                            "output_mb": _dir_bytes(out) / 1e6 if out.is_dir() else 0.0,
                            "status": status, "problems": problems})
            if traced:
                try:
                    spans.append(json.loads(span_file.read_text()))
                except (OSError, ValueError):
                    spans.append([])
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    kinds = {k: sum(c["wall_s"] for c in results if c["kind"] == k)
             for k in KINDS if any(c["kind"] == k for c in results)}
    return {"session_s": sum(c["wall_s"] for c in results), "kinds": kinds,
            "peak_rss_mb": max(c["rss_mb"] for c in results),
            "output_mb": sum(c["output_mb"] for c in results),
            "traced": traced, "commands": results, "spans": spans}


def measure_setup(workload, seed: int, run_dir: Path, env: dict) -> list:
    """SETUP_REPEATS set-up times: the workload's input preparation plus a
    fresh interpreter's ``import s4min.cli``."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        scratch = Path(tempfile.mkdtemp(prefix="setup-", dir=run_dir))
        for cmd in workload.commands(seed):
            cmd.argv(scratch)
        prep = time.perf_counter() - t0
        r = spawn([sys.executable, "-c", "import s4min.cli"], scratch, env)
        shutil.rmtree(scratch, ignore_errors=True)
        if r["exit"] != 0:
            raise RuntimeError(f"import s4min.cli failed: {r['stderr'].strip()}")
        samples.append(prep + r["wall_s"])
    return samples


# ---------------------------------------------------------------------------
# one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    env = child_env()
    commands = workload.commands(seed)
    reference: dict = {}
    passes = []
    setup: list = []
    with work_dir(f"{name}-") as run_dir:
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or (
                not trace and time.perf_counter() - start < seconds):
            setup += measure_setup(workload, seed, run_dir, env)
            # with --trace 1 the second pass is the traced one
            passes.append(run_pass(commands, run_dir, env, reference,
                                   traced=trace and len(passes) == 1))

    statuses = [c["status"] for p in passes for c in p["commands"]]
    failed = statuses.count("failed")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "commands": [" ".join(c.argv(Path("{dir}"))) for c in commands],
        "environment": environment(),
        "setup_s": setup,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "attempted": len(statuses), "failed": failed,
        "known_defects": statuses.count("known_defect"),
    }
    if trace:
        untraced, traced = passes
        metrics = layer_metrics(layer_stats(traced["spans"]))
        metrics["cli.output_mb"] = {"value": traced["output_mb"], "unit": "MB"}
        metrics["trace.overhead_s"] = {
            "value": traced["session_s"] - untraced["session_s"], "unit": "s"}
        metrics["trace.spans"] = {"value": sum(map(len, traced["spans"])), "unit": "count"}
        record["layer_stats"] = {c["name"]: layer_stats([spans]) for c, spans
                                 in zip(traced["commands"], traced["spans"])}
    else:
        metrics = {
            "session_s": {"value": statistics.median(p["session_s"] for p in passes), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
        }
    record["metrics"] = metrics
    record["line"] = {"correct": failed == 0, "attempted": len(statuses),
                      "failed": failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1))
    return record


def end_to_end_samples(records: list) -> dict:
    """Every end-to-end sample of untraced passes, per metric; a command
    kind's time only where the workload runs that kind."""
    passes = [p for r in records for p in r["passes"] if not p["traced"]]
    samples = {"session_s": [p["session_s"] for p in passes],
               "setup_s": [s for r in records for s in r["setup_s"]],
               "peak_rss_mb": [p["peak_rss_mb"] for p in passes]}
    for kind in KINDS:
        if kind in passes[0]["kinds"]:
            samples[f"{kind}_s"] = [p["kinds"][kind] for p in passes]
    return samples


def print_record(record: dict) -> None:
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{len(record['passes'])} passes")
    for metric, values in end_to_end_samples([record]).items():
        s = summary(values)
        unit = "MB" if metric.endswith("_mb") else "s"
        high = (f", p{s['high_percentile']} {s['high_value']:.4f}"
                if s["high_percentile"] is not None else "")
        print(f"  {metric:<16} {s['median']:12.4f} {unit:<3} "
              f"(median of {s['samples']}{high})")
    broken = record["failed"] + record["known_defects"]
    print(f"  {'failed_ratio':<16} {broken / record['attempted']:12.4f}     "
          f"({broken} of {record['attempted']} commands; "
          f"{record['known_defects']} known defect)")
    for p in record["passes"]:
        for c in p["commands"]:
            if c["status"] != "ok":
                print(f"  {c['status']}: {c['name']}: {'; '.join(c['problems'])}")
    if record["trace"]:
        for metric, m in record["metrics"].items():
            print(f"  {metric:<36} {m['value']:14.6g} {m['unit']}")


# ---------------------------------------------------------------------------
# aggregation of stored results and the stage table


def quartile_spread(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / med}


def report() -> dict:
    """Aggregate every stored result by workload."""
    by_workload: dict = {}
    for path in sorted(RESULTS.glob("*.json")):
        rec = json.loads(path.read_text())
        by_workload.setdefault(rec["workload"], []).append(rec)
    out = {"environment": environment(), "workloads": {}}
    for name, recs in by_workload.items():
        plain = [r for r in recs if not r["trace"]]
        traced = [r for r in recs if r["trace"]]
        entry = {"seeds": sorted({r["seed"] for r in recs}),
                 "commands": recs[0]["commands"]}
        if plain:
            entry["end_to_end"] = {m: summary(v)
                                   for m, v in end_to_end_samples(plain).items()}
            entry["per_run"] = {m: quartile_spread([r["metrics"][m]["value"] for r in plain])
                                for m in END_TO_END}
            counts = {k: sum(r[k] for r in plain)
                      for k in ("attempted", "failed", "known_defects")}
            entry["failed_ratio"] = {
                "value": (counts["failed"] + counts["known_defects"]) / counts["attempted"],
                **counts}
        if traced:
            layers = {}
            for metric in traced[0]["metrics"]:
                vals = [r["metrics"][metric]["value"] for r in traced]
                layers[metric] = {"median": statistics.median(vals), "min": min(vals),
                                  "max": max(vals), "runs": len(vals),
                                  "unit": traced[0]["metrics"][metric]["unit"]}
            entry["per_layer"] = layers
        out["workloads"][name] = entry
    return out


# (row, command index, span name) of the stage table
STAGES = (("catalog", 0, "catalog.load_catalog"),
          ("tangent_frame", 0, "surface.tangent_frame"),
          ("normal_frame", 0, "surface.normal_frame"),
          ("second_fundamental_form", 0, "surface.second_fundamental_form"),
          ("topology_report", 0, "topology.topology_report"),
          ("connection_data", 0, "family.connection_data"),
          ("flatness_residual", 0, "family.flatness_residual"),
          ("integrate_frame (2 sweeps)", 0, "family.integrate_frame"),
          ("scan_profile (256 angles)", 1, "monodromy.scan_profile"))


def stage_table(sizes=(64, 256)) -> list:
    """Markdown table of per-call stage time and RSS high-water mark for
    the Clifford torus, from traced ``verify`` and ``monodromy`` runs."""
    from workloads import Command

    env = child_env()
    columns = []
    with work_dir("stages-") as run_dir:
        for n in sizes:
            commands = [Command("verify", "verify", ("--catalog", "clifford", "--n", str(n)),
                                lambda *a: [], reports=()),
                        Command("monodromy", "monodromy",
                                ("--catalog", "clifford", "--n", str(n), "--scan", "256"),
                                lambda *a: [], reports=())]
            p = run_pass(commands, run_dir, env, {}, traced=True)
            columns.append([layer_stats([spans]) for spans in p["spans"]])
    head = " | ".join(f"n={n} ms | n={n} MB" for n in sizes)
    lines = [f"| stage (Clifford torus) | {head} |",
             "|---" * (1 + 2 * len(sizes)) + "|"]
    for row, index, span in STAGES:
        cells = []
        for stats in columns:
            st = stats[index].get(span)
            cells.append("- | -" if st is None else
                         f"{1e3 * st['total_s'] / st['calls']:.0f} | {st['rss_mb']:.0f}")
        lines.append(f"| {row} | {' | '.join(cells)} |")
    return lines


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=[*WORKLOADS, "all"])
    mode.add_argument("--report", action="store_true",
                      help="aggregate the results stored in .bench_results/")
    mode.add_argument("--stage-table", action="store_true",
                      help="print per-stage time and RSS of the Clifford torus")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    # and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if args.report:
        print(json.dumps(report(), indent=1))
        return 0
    if not (SRC / "s4min" / "cli.py").is_file():
        print(f"bench: no s4min sources under {SRC}", file=sys.stderr)
        return 2
    if args.stage_table:
        print("\n".join(stage_table()))
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_record(record)
        lines[name] = record["line"]
    print(json.dumps({"environment": environment()}))
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
