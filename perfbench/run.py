"""hermgrass benchmark: runs one workload end to end and checks every answer.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0

Workloads: verify-all, mindist-walk, duals-automorphisms (see workloads.py
and README.md).  With --trace 0 the run prints the end-to-end metrics of the
workload; with --trace 1 it prints the per-layer metrics of a traced pass
of every workload and writes the spans.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The run
exits 1 if any operation failed and 2 if it cannot run at all.

Output files (a stamped record per run, the spans of a traced run) go to
.perfbench/ in the checkout; temporary files go there too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import hostspeed
import setup_probe
from spans import NullTracer, Tracer

OUT_DIR = ".perfbench"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure passes until the next one would end past this")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args, workload_names) -> dict:
    import numpy

    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": args.seed,
        "workload": args.workload,
        "workloads": list(workload_names),
        "trace": args.trace,
        "seconds": args.seconds,
    }


def setup_seconds(cell_names):
    """Medians, over SETUP_PROBES fresh interpreters, of the time from spawn
    to ready: (normalized, measured).  The probes run pinned to the core of
    this process, whose timer samples the host speed while it waits."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    intervals = []
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        with hostspeed.Sampler() as sampler:
            for _ in range(SETUP_PROBES):
                start = time.perf_counter()
                with subprocess.Popen([sys.executable, probe, *cell_names],
                                      stdout=subprocess.PIPE, text=True) as proc:
                    try:
                        line = proc.stdout.readline()
                        intervals.append((start, time.perf_counter()))
                        proc.wait(timeout=PROBE_TIMEOUT_S)
                    finally:
                        if proc.poll() is None:
                            proc.kill()
                            proc.wait()
                if line.strip() != "ready" or proc.returncode != 0:
                    raise RuntimeError(f"set-up probe failed (exit code {proc.returncode})")
    finally:
        os.sched_setaffinity(0, allowed)
    return (statistics.median(sampler.normalize(s, e) for s, e in intervals),
            statistics.median(e - s for s, e in intervals))


def measure(workloads, args, workdir):
    """Untraced passes of one workload; returns the metrics (normalized
    times), the same times as measured, and the passes."""
    cell_names = workloads.setup_cells(args.workload)
    setup_s, measured_setup_s = setup_seconds(cell_names)
    tracer = NullTracer()
    setup_probe.setup(cell_names, tracer)
    ops = workloads.build_ops(args.workload, args.seed, tracer, workdir)
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(workloads.run_pass(ops, tracer))
        last = time.perf_counter() - began
        if time.perf_counter() - start + last > args.seconds:
            break

    def per_op(key):
        # each operation's median over the passes
        return [statistics.median(ts) for ts in zip(*([r[key] for r in p] for p in passes))]

    op_s = per_op("normalized_s")
    metrics = {
        "wall_s": (sum(op_s), "s"),
        "setup_s": (setup_s, "s"),
        "slowest_op_s": (max(op_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    measured = per_op("seconds")
    measured = {"wall_s": sum(measured), "setup_s": measured_setup_s,
                "slowest_op_s": max(measured)}
    return metrics, measured, passes


def trace(workloads, args, workdir):
    """One traced pass of every workload, then one untraced pass of the
    chosen one for the tracing overhead; returns (metrics, passes, tracer)."""
    tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-{os.getpid()}")
    traced = {}
    with tracer.patched(workloads.patch_targets()):
        with tracer.span("setup"):
            all_cells = dict.fromkeys(c for w in workloads.WORKLOADS
                                      for c in workloads.setup_cells(w))
            setup_probe.setup(all_cells, tracer)
            workloads.eval_minors(tracer)
        for name in workloads.WORKLOADS:
            ops = workloads.build_ops(name, args.seed, tracer, workdir)
            with tracer.span(f"workload.{name}"):
                traced[name] = workloads.run_pass(ops, tracer)
    null = NullTracer()
    untraced = workloads.run_pass(workloads.build_ops(args.workload, args.seed, null, workdir),
                                  null)
    traced_s = sum(r["normalized_s"] for r in traced[args.workload])
    untraced_s = sum(r["normalized_s"] for r in untraced)
    values = workloads.layer_metrics(tracer, traced, {
        "process.cpu_s": time.process_time(),
        "trace.overhead_ratio": traced_s / untraced_s - 1,
    })
    metrics = {name: (values[name], unit) for name, unit, _ in workloads.per_layer_spec()}
    return metrics, list(traced.values()) + [untraced], tracer


def write_json(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, default=str)
        fh.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "hermgrass", "__init__.py")):
        print("error: run from the root of a hermgrass checkout (no src/hermgrass here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # Temporary files, including those the checks make, stay in the checkout.
    workdir = os.path.abspath(os.path.join(OUT_DIR, "tmp", str(os.getpid())))
    os.makedirs(workdir)
    saved_tempdir, tempfile.tempdir = tempfile.tempdir, workdir
    try:
        if args.trace:
            metrics, passes, tracer = trace(workloads, args, workdir)
            measured = {}
        else:
            metrics, measured, passes = measure(workloads, args, workdir)
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for p in passes for r in p]
    failed = sum(not r["ok"] for r in records)
    error_rate = failed / len(records)
    info = stamp(args, workloads.WORKLOADS)
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = os.path.join(OUT_DIR, "records", f"{name}.json")
    write_json(record_path, {
        **info,
        "metrics": values,
        "error_rate": error_rate,
        "measured": measured,
        "passes": passes,
    })
    if args.trace:
        spans_path = os.path.join(OUT_DIR, "spans", f"{args.workload}-seed{args.seed}.json")
        write_json(spans_path, {**info, "summary": tracer.summary(), "spans": tracer.records()})
        print(f"spans: {spans_path} ({len(tracer.spans)} spans)")

    for r in records:
        if not r["ok"]:
            print(f"FAIL {r['op']}: {r['error']}", file=sys.stderr)
    print(" ".join(f"{k}={v}" for k, v in info.items() if k != "workloads"))
    width = max(len(k) for k in metrics)
    for k, (v, u) in metrics.items():
        print(f"  {k:<{width}}  {v:.6g} {u}")
    print(f"  {'error_rate':<{width}}  {error_rate:.6g} ratio ({failed} of {len(records)} "
          f"operations failed, {len(passes)} passes)")
    for k, v in measured.items():
        print(f"  {k:<{width}}  {v:.6g} s as measured, before normalizing to host speed")
    print(f"record: {record_path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": values,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
