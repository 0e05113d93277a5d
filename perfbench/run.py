#!/usr/bin/env python3
"""isprof benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the isprof libraries
from src/ plus the harness) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench, runs the harness, and prints a summary followed
by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. The harness streams one record per
operation, so an abort (assertions stay on in every build type) keeps
every earlier number and counts as one failed operation.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures and builds the harness; returns its path or None."""
    os.makedirs(bdir, exist_ok=True)
    logpath = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(logpath, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(logpath) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % logpath)
                return None
    return os.path.join(bdir, "isprof_perfbench")


def source_identity():
    """The commit when run from a git checkout, and always a digest of
    the sources the benchmark builds (a checkout may not be a repo)."""
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return commit, h.hexdigest()[:16]


def run_harness(exe, args, workdir):
    """Runs the harness; returns (records, exit status description)."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    records = []
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if line.startswith("PB "):
                records.append(json.loads(line[3:]))
    finally:
        proc.stdout.close()
        code = proc.wait()
        timed_out = not watchdog.is_alive()
        watchdog.cancel()
    if code == 0:
        return records, None
    if timed_out:
        return records, "killed after %d s" % RUN_TIMEOUT_S
    return records, ("killed by %s" % signal.Signals(-code).name
                     if code < 0 else "exit code %d" % code)


def high_percentile(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None, None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def summarize(args, records, status, spec):
    ops = [r for r in records if r["k"] == "op"]
    failed = [r for r in ops if not r["ok"]]
    attempted = len(ops)
    done = any(r["k"] == "done" for r in records)
    nfailed = len(failed)
    if status or not done:
        # The operation in flight when the harness died failed.
        attempted += 1
        nfailed += 1
    metrics = {r["name"]: (r["value"], r["unit"])
               for r in records if r["k"] == "metric"}

    for r in records:
        if r["k"] == "host":
            commit, digest = source_identity()
            log("host: nproc %d, hardware_concurrency %d, %s, %s, commit %s, "
                "source digest %s" % (r["nproc"], r["hardware_concurrency"],
                                      r["compiler"], r["build_type"], commit,
                                      digest))
        elif r["k"] == "inputs":
            log("inputs: workload %s, seed %d, digest %s, guest sizes %s"
                % (r["workload"], r["seed"], r["digest"], r["guest_sizes"]))
    setups = [r["s"] for r in records if r["k"] == "setup"]
    if setups:
        metrics["setup_s"] = (statistics.median(setups), "s")
        log("setup_s: median %.6f s per set-up over %d samples" % (
            metrics["setup_s"][0], len(setups)))
    timed = [r["ms"] for r in ops if r["tag"] == "timed"]
    samples = [r["ms"] for r in records if r["k"] == "sample"]
    if samples:
        metrics["op_ms"] = (statistics.median(samples), "ms")
        pct, val = high_percentile(samples)
        tail = " p%.0f %.3f ms" % (pct, val) if pct else ""
        log("op_ms: median %.3f ms%s over %d samples of %d operations "
            "each; single operations: median %.3f ms, min %.3f, max %.3f"
            % (metrics["op_ms"][0], tail, len(samples),
               len(timed) // len(samples), statistics.median(timed),
               min(timed), max(timed)))
    if attempted:
        metrics["pass_rate"] = ((attempted - nfailed) / attempted, "ratio")
    log("operations: %d attempted, %d failed" % (attempted, nfailed))
    for r in failed:
        log("  FAILED %s: %s" % (r["tag"], r["why"]))
    if status:
        log("  harness %s" % status)
    spans = [r for r in records if r["k"] == "span"]
    if spans:
        log("traced operation, median over %d: span / layer / total ms / "
            "self ms / self share" % spans[0]["samples"])
        for r in spans:
            log("  %-26s %-32s %10.3f %10.3f %6.1f%%" % (
                r["name"], r["layer"], r["total_ms"], r["self_ms"],
                r["self_share_pct"]))

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    out = {}
    correct = nfailed == 0 and done and not status
    for m in wanted:
        if m["name"] not in metrics:
            log("missing metric %s" % m["name"])
            correct = False
            continue
        value, unit = metrics[m["name"]]
        if value is None:
            log("metric %s is not a finite number" % m["name"])
            correct = False
            continue
        if unit != m["unit"]:
            log("metric %s has unit %s, BENCHMARK.json says %s"
                % (m["name"], unit, m["unit"]))
            correct = False
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        log("%-28s %16.6f %s" % (m["name"], value, m["unit"]))
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": nfailed, "metrics": out}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.stderr.write("perfbench: unknown workload %s\n" % args.workload)
        return 2
    exe = build(build_dir())
    if exe is None:
        return 2
    workdir = os.path.join(build_dir(), "work-%d" % os.getpid())
    try:
        records, status = run_harness(exe, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not any(r["k"] == "op" for r in records):
        sys.stderr.write("perfbench: harness made no operation (%s)\n"
                         % (status or "no records"))
        return 1
    print(json.dumps(summarize(args, records, status, spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
