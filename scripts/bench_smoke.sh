#!/bin/sh
# Benchmark smoke run: quick-mode E3 (engine), E10 (probe vs clone),
# E12 (compiled vs interpreted dispatch), E15 (parallel-probe
# scaling) and E16 (WAL durability cost), with the E10, E12, E15 and
# E16 numbers emitted as BENCH_E10.json / BENCH_E12.json /
# BENCH_E15.json / BENCH_E16.json at the repo root so the perf
# trajectory is tracked in-tree, plus the E11 socket round-trip
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

git_rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ "$git_rev" != unknown ] && ! git diff --quiet HEAD 2>/dev/null; then
  git_rev="$git_rev-dirty"
fi
date_utc=$(date -u +%Y-%m-%dT%H:%M:%SZ)
host=$(hostname 2>/dev/null || echo unknown)
cores=$(nproc 2>/dev/null || echo 1)

echo "== E3 (transaction rollback) =="
dune exec bench/main.exe -- --quick --filter E3

echo
echo "== E10 (probe vs clone) =="
out=$(dune exec bench/main.exe -- --quick --filter E10)
printf '%s\n' "$out"

# Quick-mode rows are "<name padded to 44> <ns/run>"; turn the E10
# rows into a small JSON document with provenance.
printf '%s\n' "$out" | awk -v rev="$git_rev" -v date="$date_utc" -v host="$host" -v cores="$cores" '
  BEGIN {
    print "{"
    print "  \"experiment\": \"E10\","
    printf "  \"git_rev\": \"%s\",\n", rev
    printf "  \"date\": \"%s\",\n", date
    printf "  \"host\": \"%s\",\n", host
    printf "  \"cores\": %d,\n", cores
    print "  \"unit\": \"ns/run\","
    print "  \"results\": ["
    n = 0
  }
  /^E10 / {
    ns = $NF
    name = $0
    sub(/[ \t]+[0-9.]+[ \t]*$/, "", name)
    sub(/[ \t]+$/, "", name)
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"ns_per_run\": %s}", name, ns
  }
  END {
    print ""
    print "  ]"
    print "}"
  }
' > BENCH_E10.json

echo
echo "wrote BENCH_E10.json:"
cat BENCH_E10.json

echo
echo "== E12 (compiled vs interpreted dispatch) =="
out12=$(dune exec bench/main.exe -- --quick --filter E12)
printf '%s\n' "$out12"

printf '%s\n' "$out12" | awk -v rev="$git_rev" -v date="$date_utc" -v host="$host" -v cores="$cores" '
  BEGIN {
    print "{"
    print "  \"experiment\": \"E12\","
    printf "  \"git_rev\": \"%s\",\n", rev
    printf "  \"date\": \"%s\",\n", date
    printf "  \"host\": \"%s\",\n", host
    printf "  \"cores\": %d,\n", cores
    print "  \"unit\": \"ns/run\","
    print "  \"results\": ["
    n = 0
  }
  /^E12 / {
    ns = $NF
    name = $0
    sub(/[ \t]+[0-9.]+[ \t]*$/, "", name)
    sub(/[ \t]+$/, "", name)
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"ns_per_run\": %s}", name, ns
  }
  END {
    print ""
    print "  ]"
    print "}"
  }
' > BENCH_E12.json

echo
echo "wrote BENCH_E12.json:"
cat BENCH_E12.json

echo
echo "== E15 (parallel-probe scaling) =="
out15=$(dune exec bench/main.exe -- --quick --filter E15)
printf '%s\n' "$out15"

printf '%s\n' "$out15" | awk -v rev="$git_rev" -v date="$date_utc" -v host="$host" -v cores="$cores" '
  BEGIN {
    print "{"
    print "  \"experiment\": \"E15\","
    printf "  \"git_rev\": \"%s\",\n", rev
    printf "  \"date\": \"%s\",\n", date
    printf "  \"host\": \"%s\",\n", host
    printf "  \"cores\": %d,\n", cores
    print "  \"unit\": \"ns/run\","
    print "  \"results\": ["
    n = 0
  }
  /^E15 / {
    ns = $NF
    name = $0
    sub(/[ \t]+[0-9.]+[ \t]*$/, "", name)
    sub(/[ \t]+$/, "", name)
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"ns_per_run\": %s}", name, ns
  }
  END {
    print ""
    print "  ]"
    print "}"
  }
' > BENCH_E15.json

echo
echo "wrote BENCH_E15.json:"
cat BENCH_E15.json

echo
echo "== E16 (durability: WAL steps/s) =="
# Five full runs; keep each arm's fastest run.  E16 reports minimum-
# of-repetitions already, but a background load spike during one run
# can still skew a whole arm — the cross-run minimum filters that.
out16=$(for i in 1 2 3 4 5; do dune exec bench/main.exe -- --quick --filter "E16"; done)
printf '%s\n' "$out16" | awk 'NR <= 2 || /^E16 /'

printf '%s\n' "$out16" | awk -v rev="$git_rev" -v date="$date_utc" -v host="$host" -v cores="$cores" '
  /^E16 / {
    ns = $(NF - 1)
    name = $0
    sub(/[ \t]+[0-9.]+[ \t]+[0-9.]+[ \t]*$/, "", name)
    sub(/[ \t]+$/, "", name)
    if (!(name in best) || ns + 0 < best[name] + 0) best[name] = ns
    if (!(name in seen)) { order[n++] = name; seen[name] = 1 }
  }
  END {
    print "{"
    print "  \"experiment\": \"E16\","
    printf "  \"git_rev\": \"%s\",\n", rev
    printf "  \"date\": \"%s\",\n", date
    printf "  \"host\": \"%s\",\n", host
    printf "  \"cores\": %d,\n", cores
    print "  \"unit\": \"ns/step\","
    print "  \"note\": \"script-layer animation steps (trollc run path), best of 5 runs per arm\","
    for (i = 0; i < n; i++) {
      name = order[i]
      if (name ~ /wal-off/) off = best[name] + 0
      if (name ~ /wal-on/) on = best[name] + 0
    }
    if (off > 0 && on > 0)
      printf "  \"wal_on_overhead\": %.3f,\n", on / off
    print "  \"results\": ["
    for (i = 0; i < n; i++) {
      name = order[i]
      ns = best[name] + 0
      printf "    {\"name\": \"%s\", \"ns_per_step\": %.1f, \"steps_per_s\": %.0f}%s\n", \
        name, ns, 1e9 / ns, (i < n - 1 ? "," : "")
    }
    print "  ]"
    print "}"
  }
' > BENCH_E16.json

echo
echo "wrote BENCH_E16.json:"
cat BENCH_E16.json

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
