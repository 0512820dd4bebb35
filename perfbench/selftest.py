#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It runs every workload briefly,
untraced and traced, and requires each run to pass its output checks;
then runs every workload with one planted wrong expectation and requires
the run to count it in `failed` and exit non-zero; then copies only
BENCHMARK.json and perfbench/ into an empty directory and requires the
command to fail there without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve-mixed", "animate-company", "refine-cert")
SEED = 11


def run(args, cwd="."):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py"] + args,
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return p.returncode, result, p


def main():
    failures = []

    def check(ok, what, p=None):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)
            if p is not None:
                sys.stdout.write(p.stdout[-2000:] + p.stderr[-2000:])

    for w in WORKLOADS:
        for trace in ("0", "1"):
            code, result, p = run(
                ["--workload", w, "--seed", str(SEED), "--seconds", "1", "--trace", trace])
            check(
                code == 0 and result is not None and result["correct"]
                and result["failed"] == 0 and result["attempted"] >= 1,
                "%s --trace %s passes its checks" % (w, trace), p)
        code, result, p = run(
            ["--workload", w, "--seed", str(SEED), "--seconds", "1", "--trace", "0", "--plant"])
        check(
            code == 1 and result is not None and not result["correct"]
            and result["failed"] >= 1,
            "%s with a planted wrong expectation fails" % w, p)

    bare = os.path.join(".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    code, result, p = run(
        ["--workload", "refine-cert", "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=bare)
    check(code != 0 and result is None, "a directory without the program fails", p)
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
