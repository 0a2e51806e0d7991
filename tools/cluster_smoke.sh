#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end multi-process smoke test (DESIGN.md §15).
#
# Boots two real ffsva_node server processes on kernel-picked ports, runs the
# socket scheduler against them with one forced live migration, and requires:
#
#   * sched exits 0 with ok:true and verified:true — the merged cluster
#     verdicts are bit-identical to the single-process reference run,
#     including across the hand-off;
#   * at least one hand-off actually happened (handoffs >= 1);
#   * both node processes shut down cleanly (exit 0) after the scheduler's
#     kStop, within the grace window — no leaked processes, no SIGKILL.
#
# usage: tools/cluster_smoke.sh [BUILD_DIR]   (default: build)
set -u

BUILD_DIR="${1:-build}"
NODE_BIN="$BUILD_DIR/src/node/ffsva_node"
if [[ ! -x "$NODE_BIN" ]]; then
  echo "cluster_smoke: $NODE_BIN not found or not executable" >&2
  exit 1
fi

WORK="$(mktemp -d)"
NODE0_PID="" NODE1_PID=""

cleanup() {
  for pid in $NODE0_PID $NODE1_PID; do
    kill "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "cluster_smoke: FAIL: $*" >&2
  echo "--- node0 stderr ---" >&2; cat "$WORK/node0.err" >&2 || true
  echo "--- node1 stderr ---" >&2; cat "$WORK/node1.err" >&2 || true
  exit 1
}

# Boot a node with --port 0 and read the kernel-resolved port from the JSON
# line it prints on stdout. Sets REPLY_PORT and REPLY_PID (no subshell — both
# must survive into the caller).
boot_node() {
  local id="$1"
  "$NODE_BIN" serve --port 0 --node-id "$id" --sdd-workers 2 \
    >"$WORK/node$id.out" 2>"$WORK/node$id.err" &
  REPLY_PID=$!
  REPLY_PORT=""
  for _ in $(seq 1 100); do
    REPLY_PORT=$(sed -n 's/.*"port":\([0-9]*\).*/\1/p' "$WORK/node$id.out" | head -1)
    [[ -n "$REPLY_PORT" ]] && break
    kill -0 "$REPLY_PID" 2>/dev/null || fail "node$id died during startup"
    sleep 0.1
  done
  [[ -n "$REPLY_PORT" ]] || fail "node$id never printed its port"
}

boot_node 0; PORT0=$REPLY_PORT; NODE0_PID=$REPLY_PID
boot_node 1; PORT1=$REPLY_PORT; NODE1_PID=$REPLY_PID
echo "cluster_smoke: node0 pid=$NODE0_PID port=$PORT0, node1 pid=$NODE1_PID port=$PORT1"

# Scheduler: 4 streams x 1200 frames, force one migration once a stream has
# ingested a quarter of its window, and verify the merged verdicts against
# the single-process reference. The trigger follows ingest progress, not
# wall time, so the hand-off lands mid-window on any host.
SCHED_OUT="$WORK/sched.json"
"$NODE_BIN" sched \
  --node "127.0.0.1:$PORT0" --node "127.0.0.1:$PORT1" \
  --streams 4 --frames 1200 --calib 12 --width 96 --height 72 \
  --snapshot-interval-ms 50 --force-migration-at-fraction 0.25 --deadline 300 \
  --verify-local | tee "$SCHED_OUT"
SCHED_RC=${PIPESTATUS[0]}
[[ "$SCHED_RC" -eq 0 ]] || fail "sched exited $SCHED_RC"

grep -q '"ok":true' "$SCHED_OUT" || fail "sched report not ok"
grep -q '"verified":true' "$SCHED_OUT" || fail "cluster verdicts diverge from single-process reference"
HANDOFFS=$(sed -n 's/.*"handoffs":\([0-9]*\).*/\1/p' "$SCHED_OUT")
[[ -n "$HANDOFFS" && "$HANDOFFS" -ge 1 ]] || fail "expected >=1 live hand-off, got '${HANDOFFS:-}'"

# The scheduler's kStop must bring both nodes down cleanly on their own.
wait_node() {
  local name="$1" pid="$2" rc
  for _ in $(seq 1 150); do
    kill -0 "$pid" 2>/dev/null || { wait "$pid"; return $?; }
    sleep 0.1
  done
  fail "$name still running 15 s after scheduler stop"
}
wait_node node0 "$NODE0_PID"; RC0=$?
NODE0_PID=""
wait_node node1 "$NODE1_PID"; RC1=$?
NODE1_PID=""
[[ "$RC0" -eq 0 ]] || fail "node0 exited $RC0"
[[ "$RC1" -eq 0 ]] || fail "node1 exited $RC1"

echo "cluster_smoke: PASS (handoffs=$HANDOFFS, nodes exited cleanly)"
