#!/bin/sh
# Nightly fuzz run: a large random-seed sweep through the nine
# differential oracles (compiled-vs-interpreted dispatch, in-process
# vs server, save/load/replay, journal cleanliness, fanned-out probes,
# crash recovery, sharding, steps batches, refinement
# certificates), plus the fixed deterministic seed that tier-1 CI
# runs under `dune build @fuzz`.
#
# The seed of the random sweep is logged so any failure is
# reproducible with `trollc fuzz --seed <seed>`; shrunk
# counterexamples land in fuzz-artifacts/ for upload.
#
# Usage: scripts/fuzz_nightly.sh [iters]      (from the repo root)

set -eu

cd "$(dirname "$0")/.."

iters=${1:-2000}
out_dir=fuzz-artifacts

dune build bin/trollc.exe

echo "== fixed seed (tier-1 parity, 500 iterations) =="
dune exec bin/trollc.exe -- fuzz --seed 42 --iters 500 --shrink --out "$out_dir"

echo
echo "== random seed, $iters iterations =="
seed=$(awk 'BEGIN { srand(); printf "%d", rand() * 2147483647 }')
echo "seed: $seed  (reproduce: trollc fuzz --seed $seed --iters $iters)"
dune exec bin/trollc.exe -- fuzz --seed "$seed" --iters "$iters" --shrink --out "$out_dir"
