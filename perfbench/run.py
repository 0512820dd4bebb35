#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script builds trollc and the
benchmark executable from source (dune, shared cache off), runs the
workload in a scratch directory under .bench_build/, prints the
workload's metric table and provenance, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  The full report (sample counts, expected refusals,
mismatches, spans, provenance) is kept in
.bench_build/perfbench/results/.  Exit status: 0 when every output
checked out, 1 when an output was wrong (the result line says so), 2
when the benchmark could not run (no result line).

--plant plants one wrong expectation (the self-test uses it to prove
that a wrong output fails the run).  A traced run's spans are kept
beside its report, as JSON lines.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("serve-mixed", "animate-company", "refine-cert")
NEEDED = (
    "dune-project",
    "bin/trollc.ml",
    "lib",
    "perfbench/dune",
    "perfbench/perfbench.ml",
    "examples/specs/cells.trl",
    "examples/specs/company.trl",
    "examples/specs/employee_abstract.trl",
    "examples/specs/employee_implementation.trl",
)
RAM_FILESYSTEMS = ("tmpfs", "ramfs")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170  # after the build


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def filesystem_type(path):
    """The type of the filesystem holding path, from the mount table."""
    real = os.path.realpath(path)
    best, best_type = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, _, right = line.partition(" - ")
                mount_point = left.split()[4]
                fs_type = right.split()[0]
                prefix = mount_point.rstrip("/") + "/"
                if (real == mount_point or real.startswith(prefix)) and len(
                    mount_point
                ) >= len(best):
                    best, best_type = mount_point, fs_type
    except OSError:
        pass
    return best_type


def source_digest(root):
    """SHA-256 over the program's and the benchmark's sources, so a result
    names the code it measured even where there is no git history."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench", "examples/specs"):
        for d, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(
            cmd, capture_output=True, text=True, timeout=30, check=True
        ).stdout
        return out.strip().splitlines()[0] if out.strip() else None
    except (OSError, subprocess.SubprocessError):
        return None


def git_revision():
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    return command_output(["git", "rev-parse", "HEAD"]) or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant", action="store_true")
    args = ap.parse_args()
    started = time.monotonic()

    root = os.getcwd()
    missing = [p for p in NEEDED if not os.path.exists(os.path.join(root, p))]
    if missing:
        fail("not the root of a checkout (missing %s)" % ", ".join(missing))

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/trollc.exe",
             "./perfbench/perfbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed")
    built = time.monotonic()
    build_s = built - started

    base = os.path.join(root, ".bench_build", "perfbench")
    run_dir = os.path.join(base, "%s-%d" % (args.workload, os.getpid()))
    results_dir = os.path.join(base, "results")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(results_dir, exist_ok=True)
    report_path = os.path.join(run_dir, "report.json")

    scratch_fs = filesystem_type(run_dir)
    provenance = {
        "git_revision": git_revision(),
        "source_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "ocaml_version": command_output(["ocamlfind", "ocamlopt", "-version"])
        or "unknown",
        "seed": args.seed,
        "seconds": args.seconds,
        # where sockets and any WAL live; a disk-backed WAL was measured
        # unsteady (p99 4.6-9.3 ms against 2.25-2.46 ms on tmpfs)
        "scratch_filesystem": scratch_fs,
        "build_s": round(build_s, 3),
    }

    cmd = [
        os.path.join(root, "_build/default/perfbench/perfbench.exe"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", root, "--run-dir", run_dir, "--report", report_path,
        "--cores", str(os.cpu_count()),
    ] + (["--plant"] if args.plant else [])
    # The benchmark, and the daemon it starts, run pinned to one processor.
    # Unpinned on a 2-vCPU VM, serve-mixed's daemon and client each got
    # their processor's speed, and whole runs swung between ~30k and ~41k
    # req/s (ten-seed throughput spread 24%, p50 27%); the daemon's batch
    # sizes were identical in both states, only its per-request time moved.
    # Its own process group, so a timeout also takes down the daemon.
    cpu = max(os.sched_getaffinity(0))
    provenance["pinned_cpu"] = cpu
    proc = subprocess.Popen(
        cmd, start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S - (time.monotonic() - built))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("the %s run timed out" % args.workload)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    if code not in (0, 1) or not os.path.exists(report_path):
        fail("the %s run failed (exit status %d)" % (args.workload, code))
    with open(report_path) as f:
        report = json.load(f)
    provenance["wal_disk_backed"] = (
        report["wal_attached"] and scratch_fs not in RAM_FILESYSTEMS)
    report["provenance"] = provenance

    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
        declared = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
        if declared != list(report["metrics"]):
            fail("the metrics reported differ from those BENCHMARK.json declares")

    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results_dir, name + ".json"), "w") as f:
        json.dump(report, f, indent=1)
    spans = os.path.join(run_dir, "spans.jsonl")
    if os.path.exists(spans):
        os.replace(spans, os.path.join(results_dir, name + ".spans.jsonl"))
    shutil.rmtree(run_dir, ignore_errors=True)

    for key, value in provenance.items():
        print("  %-40s %s" % (key, value))
    if provenance["wal_disk_backed"]:
        print("  WARNING: the WAL directory is disk-backed (%s)" % scratch_fs)
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            k: {"value": v["value"], "unit": v["unit"]}
            for k, v in report["metrics"].items()
        },
    }
    print(json.dumps(result))
    sys.exit(0 if report["correct"] else 1)


if __name__ == "__main__":
    main()
