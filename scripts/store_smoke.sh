#!/bin/sh
# Plan-warehouse smoke: the full offline->serving loop of the L2 store.
#
#   1. compile a reference store uninterrupted, and again on two
#      domains: the two stores must be byte-identical;
#   2. compile the same store with --checkpoint, SIGKILL the compiler
#      mid-run, resume from the checkpoint, and require the resumed
#      store to be byte-identical to the reference (the compiler is
#      deterministic, so any divergence is a resume bug);
#   3. start gdpd with --store and crosscheck a bench-client burst
#      against a direct Engine.solve replay (--check exits 3 on any
#      divergence — a stale or transported-wrong plan is CI-fatal);
#   4. require the metrics snapshot to show the cold lap was served
#      from the store (store_hits > 0, zero full solves) and the store
#      counters to be present.
#
# Exit 3 on response divergence, 2 on setup failure, 1 on any other
# smoke failure.
set -u

GDP=${GDPN_GDP:-_build/default/bin/gdp.exe}
GDPD=${GDPN_GDPD:-_build/default/bin/gdpd.exe}
# Kill-leg instance: big enough that the compile spans many checkpointed
# units and survives long enough to be killed mid-run.
KN=${1:-30}
KK=${2:-4}
KMAX=${3:-3}
KILL_AFTER=${4:-0.5}

if [ ! -x "$GDP" ] || [ ! -x "$GDPD" ]; then
  echo "store-smoke: $GDP / $GDPD not found (dune build first)" >&2
  exit 2
fi

TMP=$(mktemp -d)
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null
  rm -rf "$TMP"
}
trap cleanup EXIT

# --- 1. reference compile, uninterrupted -----------------------------
"$GDP" compile-plans -n "$KN" -k "$KK" --max-size "$KMAX" \
  -o "$TMP/ref.store" >"$TMP/ref.out" 2>&1
if [ $? -ne 0 ]; then
  echo "store-smoke: reference compile failed:" >&2
  cat "$TMP/ref.out" >&2
  exit 1
fi
"$GDP" compile-plans -n "$KN" -k "$KK" --max-size "$KMAX" --domains 2 \
  -o "$TMP/two.store" >"$TMP/two.out" 2>&1
if [ $? -ne 0 ]; then
  echo "store-smoke: two-domain compile failed:" >&2
  cat "$TMP/two.out" >&2
  exit 1
fi
if ! cmp -s "$TMP/ref.store" "$TMP/two.store"; then
  echo "store-smoke: the two-domain store differs from the one-domain store" >&2
  exit 1
fi

# --- 2. kill mid-compile, resume, compare ----------------------------
"$GDP" compile-plans -n "$KN" -k "$KK" --max-size "$KMAX" \
  -o "$TMP/killed.store" --checkpoint "$TMP/compile.ckpt" \
  >"$TMP/killed.out" 2>&1 &
COMPILE_PID=$!
sleep "$KILL_AFTER"
if kill -KILL "$COMPILE_PID" 2>/dev/null; then
  wait "$COMPILE_PID" 2>/dev/null
  if [ -f "$TMP/killed.store" ]; then
    echo "store-smoke: killed compile still published a store" >&2
    exit 1
  fi
  if [ ! -s "$TMP/compile.ckpt" ]; then
    echo "store-smoke: killed compile left no checkpoint" >&2
    exit 1
  fi
else
  # The compile beat the kill; the resume below still exercises the
  # checkpoint path (all units already recorded).
  wait "$COMPILE_PID" 2>/dev/null
  echo "store-smoke: note: compile finished before the kill (resume will be trivial)"
  rm -f "$TMP/killed.store"
fi
"$GDP" compile-plans -n "$KN" -k "$KK" --max-size "$KMAX" \
  -o "$TMP/resumed.store" --resume "$TMP/compile.ckpt" \
  >"$TMP/resume.out" 2>&1
if [ $? -ne 0 ]; then
  echo "store-smoke: resumed compile failed:" >&2
  cat "$TMP/resume.out" >&2
  exit 1
fi
if ! grep -q '^resume:' "$TMP/resume.out"; then
  echo "store-smoke: resume did not report recorded units:" >&2
  cat "$TMP/resume.out" >&2
  exit 1
fi
if ! cmp -s "$TMP/ref.store" "$TMP/resumed.store"; then
  echo "store-smoke: resumed store differs from uninterrupted compile" >&2
  exit 1
fi
echo "store-smoke: two-domain store identical; $(grep '^resume:' "$TMP/resume.out"); resumed store byte-identical"

# --- 3. cold-start serving with crosscheck ---------------------------
"$GDP" compile-plans -n 9 -k 2 -o "$TMP/serve.store" \
  >"$TMP/serve_compile.out" 2>&1 || {
  echo "store-smoke: serving-store compile failed" >&2
  cat "$TMP/serve_compile.out" >&2
  exit 1
}
SOCK="$TMP/gdpd.sock"
"$GDPD" --instances 9:2 --socket "$SOCK" --workers 2 \
  --store "$TMP/serve.store" >"$TMP/daemon.out" 2>&1 &
DAEMON_PID=$!
i=0
while ! grep -q '^gdpd: serving' "$TMP/daemon.out" 2>/dev/null; do
  if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
    echo "store-smoke: daemon died at startup:" >&2
    cat "$TMP/daemon.out" >&2
    exit 1
  fi
  i=$((i + 1))
  [ "$i" -gt 100 ] && { echo "store-smoke: daemon never became ready" >&2; exit 1; }
  sleep 0.1
done
if ! grep -q 'plan store(s) mmap' "$TMP/daemon.out"; then
  echo "store-smoke: daemon ready line does not report the mmap'd store" >&2
  cat "$TMP/daemon.out" >&2
  exit 1
fi

"$GDP" bench-client --socket "$SOCK" --requests 2048 --batch 128 \
  --laps 2 --check --store "$TMP/serve.store" --stats --shutdown \
  >"$TMP/client.out" 2>&1
status=$?
sed -n '1,4p' "$TMP/client.out"
if [ "$status" -eq 3 ]; then
  echo "store-smoke: DIVERGENCE between store-backed daemon and local replay" >&2
  grep '^DIVERGENCE' "$TMP/client.out" >&2 || true
  exit 3
elif [ "$status" -ne 0 ]; then
  echo "store-smoke: bench-client failed (exit $status):" >&2
  cat "$TMP/client.out" >&2
  exit 1
fi

# --- 4. the cold lap must actually have hit the store ----------------
for key in engine.store_hits engine.store_mmap_bytes; do
  if ! grep -q "$key" "$TMP/client.out"; then
    echo "store-smoke: metrics snapshot is missing $key" >&2
    exit 1
  fi
done
hits=$(sed -n 's/.*"engine\.store_hits": \([0-9]*\).*/\1/p' "$TMP/client.out" | head -1)
if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
  echo "store-smoke: daemon served the cold lap without store hits" >&2
  grep 'engine\.store' "$TMP/client.out" >&2 || true
  exit 1
fi
solves=$(sed -n 's/.*"engine\.full_solves": \([0-9]*\).*/\1/p' "$TMP/client.out" | head -1)
if [ "$solves" != 0 ]; then
  echo "store-smoke: the store-backed cold lap ran ${solves:-unknown} full solves" >&2
  exit 1
fi

i=0
while kill -0 "$DAEMON_PID" 2>/dev/null; do
  i=$((i + 1))
  [ "$i" -gt 100 ] && { echo "store-smoke: daemon ignored shutdown" >&2; exit 1; }
  sleep 0.1
done
wait "$DAEMON_PID"
daemon_status=$?
DAEMON_PID=""
if [ "$daemon_status" -ne 0 ]; then
  echo "store-smoke: daemon exited $daemon_status:" >&2
  cat "$TMP/daemon.out" >&2
  exit 1
fi

echo "store-smoke: kill+resume byte-identical, cold-start crosschecked ($hits store hits, no full solves), clean shutdown"
exit 0
