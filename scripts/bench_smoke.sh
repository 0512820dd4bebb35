#!/bin/sh
# Benchmark smoke run: quick-mode E3 (engine), E10 (probe vs clone),
# E12 (compiled vs interpreted dispatch), E15 (parallel-probe
# scaling) and E16 (WAL durability cost, best of five runs per arm),
# with the E10, E12, E15 and E16 numbers written by bench/main.exe as
# BENCH_E10.json / BENCH_E12.json / BENCH_E15.json / BENCH_E16.json at
# the repo root so the perf trajectory is tracked in-tree, plus the
# E11 socket round-trip
# benchmark (bench/serve_bench.ml) emitting BENCH_E11.json and the
# E17 sharded-throughput benchmark (bench/shard_bench.ml) emitting
# BENCH_E17.json and the E19 memoized refinement-depth benchmark
# (bench/refine_bench.ml) emitting BENCH_E19.json and the E20
# many-connection pipelined-throughput benchmark
# (bench/serve_many_bench.ml) emitting BENCH_E20.json.  Every file is
# stamped with the commit it measured, suffixed -dirty when the
# working tree differs from it.
#
# Usage: scripts/bench_smoke.sh            (from the repo root)

set -eu

cd "$(dirname "$0")/.."

dune build bench/main.exe bench/serve_bench.exe bench/shard_bench.exe \
  bench/refine_bench.exe bench/serve_many_bench.exe

echo "== E3 (transaction rollback) =="
dune exec bench/main.exe -- --quick --filter E3

# Each run below writes its own BENCH document, stamped with the
# commit, date, host and cores it measured (bench/workload.ml).
for e in E10 E12 E15 E16; do
  echo
  echo "== $e =="
  dune exec bench/main.exe -- --quick --filter $e -o BENCH_$e.json
  cat BENCH_$e.json
done

echo
echo "== E11 (serve socket round-trips) =="
dune exec bench/serve_bench.exe -- -n 1000 -o BENCH_E11.json

echo
echo "== E17 (sharded step throughput) =="
dune exec bench/shard_bench.exe -- -n 1500 -o BENCH_E17.json


echo
echo "== E19 (memoized refinement depth) =="
dune exec bench/refine_bench.exe -- -b 0.5 -o BENCH_E19.json

echo
echo "== E20 (many-connection pipelined throughput) =="
dune exec bench/serve_many_bench.exe -- -o BENCH_E20.json
