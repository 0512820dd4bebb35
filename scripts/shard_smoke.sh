#!/bin/sh
# Sharded-society smoke test: launch two shard servers plus the router
# with `trollc shard`, drive a mixed workload (single-shard steps,
# cross-shard two-phase syncs, guaranteed rejections on one shard and
# across shards), kill -9 one shard halfway through, keep driving while
# the router respawns it and catches it up from the mirrored WAL
# records, then require every answer's code and the merged final state
# to equal those of a single-engine `trollc serve` run of the very
# same trace.
#
# Usage: scripts/shard_smoke.sh          (from the repo root)

set -eu

cd "$(dirname "$0")/.."

dune build bin/trollc.exe

TROLLC=_build/default/bin/trollc.exe
SPEC=examples/specs/cells.trl

tmp=$(mktemp -d "${TMPDIR:-/tmp}/troll-shard-smoke.XXXXXX")
SHARD_PID=
SERVE_PID=
cleanup() {
  [ -n "$SHARD_PID" ] && kill "$SHARD_PID" 2>/dev/null || true
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "== launch: 2 shards + router, and a single-engine reference =="
"$TROLLC" shard "$SPEC" --socket "$tmp/shard.sock" --shards 2 \
  --wal-root "$tmp/wal" --wal-fsync 2> "$tmp/shard.log" &
SHARD_PID=$!
"$TROLLC" serve "$SPEC" --socket "$tmp/single.sock" 2> "$tmp/serve.log" &
SERVE_PID=$!

python3 - "$tmp/shard.sock" "$tmp/single.sock" <<'EOF'
import json, os, signal, socket, sys, time

shard_sock, single_sock = sys.argv[1], sys.argv[2]

def connect(path, tries=100):
    for _ in range(tries):
        if os.path.exists(path):
            s = socket.socket(socket.AF_UNIX)
            try:
                s.connect(path)
                return s.makefile("rw")
            except OSError:
                s.close()
        time.sleep(0.05)
    sys.exit(f"FAIL: cannot connect to {path}")

def rpc(f, obj, retries=30):
    """One request; retries while the router is respawning a shard."""
    for _ in range(retries):
        f.write(json.dumps(obj) + "\n"); f.flush()
        resp = json.loads(f.readline())
        if resp.get("ok"):
            return resp
        code = resp.get("error", {}).get("code")
        if code == "shard_unavailable":
            time.sleep(0.2)
            continue
        return resp
    return resp

def code(r):
    return "ok" if r.get("ok") else r.get("error", {}).get("code")

def add(cls, n, key="x"):
    return {"cls": cls, "key": key, "event": "add", "args": [n]}

def trace(f, killer=None):
    """The deterministic mixed workload; returns every answer's code
    (or "ok") and the final save dump."""
    codes = []
    def expect(req, want):
        r = rpc(f, req)
        codes.append(code(r))
        assert code(r) == want, r
        return r
    expect({"id": 0, "op": "hello", "version": 1}, "ok")
    for i in range(8):
        expect({"id": 1, "op": "create", "cls": f"CELL{i}", "key": "x"}, "ok")
    for i in range(200):
        if i == 100 and killer:
            killer()
        if i % 25 == 24:
            # a guaranteed rejection: the permission guard Total+n >= 0
            expect({"id": 2, "op": "fire", **add(f"CELL{i % 8}", -1000000)},
                   "permission_denied")
        elif i % 50 == 19:
            # a cross-shard refusal: the CELL1 half breaks the guard, so
            # both shards abort
            expect({"id": 3, "op": "sync", "events": [
                add("CELL0", 1), add("CELL1", -1000000)]},
                   "permission_denied")
        elif i % 50 == 39:
            # refusals of two phases: CELL0's guard and the unborn
            # CELL1("ghost"); life cycles come first, as on one engine
            expect({"id": 4, "op": "sync", "events": [
                add("CELL0", -1000000), add("CELL1", 1, key="ghost")]},
                   "unknown_object")
        elif i % 10 == 9:
            # cross-shard synchronous step (two-phase on the router)
            expect({"id": 5, "op": "sync", "events": [
                add("CELL0", 2), add("CELL1", 3)]}, "ok")
        else:
            expect({"id": 6, "op": "fire", **add(f"CELL{i % 8}", 1)}, "ok")
    r = expect({"id": 7, "op": "save"}, "ok")
    rpc(f, {"id": 8, "op": "shutdown"})
    return codes, r["result"]["state"]

def kill_shard_0():
    with open(shard_sock + ".0.pid") as fh:
        pid = int(fh.read().strip())
    os.kill(pid, signal.SIGKILL)
    print(f"killed shard 0 (pid {pid}) mid-workload")

sharded_codes, sharded = trace(connect(shard_sock), killer=kill_shard_0)
single_codes, single = trace(connect(single_sock))

if sharded_codes != single_codes:
    diff = next(i for i, (a, b) in enumerate(zip(sharded_codes, single_codes))
                if a != b) if len(sharded_codes) == len(single_codes) else None
    print(f"FAIL: answer codes differ (first at request {diff}):",
          sharded_codes[diff] if diff is not None else len(sharded_codes),
          single_codes[diff] if diff is not None else len(single_codes))
    sys.exit(1)
print(f"all {len(single_codes)} answers match the single-engine run")

if sharded != single:
    print("FAIL: sharded final state differs from the single-engine run")
    print("sharded:", sharded[:400])
    print("single: ", single[:400])
    sys.exit(1)
print("final state is bit-identical to the single-engine run")
EOF

wait "$SHARD_PID"; SHARD_PID=
wait "$SERVE_PID"; SERVE_PID=

grep -q "respawning shard 0" "$tmp/shard.log" \
  || { echo "FAIL: router never respawned shard 0" >&2; exit 1; }
grep -q "wal: recovered" "$tmp/shard.log" \
  || { echo "FAIL: respawned shard did not recover from its WAL" >&2; exit 1; }
echo "router respawned shard 0 and caught it up from the WAL mirror"

echo
echo "shard smoke: OK"
