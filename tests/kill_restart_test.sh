#!/bin/sh
# Crash-recovery integration test: SIGKILL crowdml-server mid-run, restart
# it on the same port with the same --wal-dir, and assert that
#   (a) the restarted server recovers past iteration 0 from snapshot + WAL,
#   (b) devices ride out the outage via ReconnectingDeviceSession,
#   (c) training resumes and advances past the pre-crash iteration.
# Under --fsync always the engine's group commit must uphold
# acked => durable across the crash.
# Run by ctest with the build directory as argument.
set -eu
BUILD_DIR="$1"
WORK=$(mktemp -d)
SERVER_PID=""
trap 'kill -9 $SERVER_PID 2>/dev/null || true; rm -rf "$WORK"' EXIT
cd "$WORK"

"$BUILD_DIR/tools/crowdml-make-dataset" --kind mnist --scale 0.05 --shards 2 \
    --shard-prefix dev_ --seed 42

start_server() {
  # The log exists before the polling loops read it: the background
  # server may not have opened it yet, and a failed sed in $(...) ends
  # this set -e script.
  : >> "$3"
  # --auth-seed is fixed, so re-enrollment after the crash regenerates
  # the exact same device keys the devices are already holding.
  "$BUILD_DIR/tools/crowdml-server" --port "$1" --classes 10 --dim 50 \
      --enroll 2 --keys-out "$2" --auth-seed 7 \
      --io-threads 2 --checkin-queue-max 256 \
      --wal-dir wal --fsync always --report-every 0.3 \
      --max-iterations 100000 >> "$3" 2>&1 &
  SERVER_PID=$!
}

start_server 0 keys.csv server1.log

PORT=""
for i in $(seq 1 50); do
  PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' server1.log)
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || { echo "server did not start"; cat server1.log; exit 1; }
grep -q "^config: role=leader " server1.log || {
  echo "missing effective-config line"; cat server1.log; exit 1; }

# Devices with a generous retry budget: they must survive the restart
# window (capped exponential backoff, checkins abandoned, never replayed).
KEY1=$(sed -n 1p keys.csv)
KEY2=$(sed -n 2p keys.csv)
run_device() {
  "$BUILD_DIR/tools/crowdml-device" --host 127.0.0.1 --port "$PORT" \
      --data "$1" --key "$2" --minibatch 10 --epsilon 50 --passes 20 \
      --classes 10 --max-attempts 60 --backoff-max-ms 500 \
      --connect-timeout-ms 1000 > "$3" 2>&1 &
}
run_device dev_0.csv "$KEY1" dev1.log
DEV1=$!
run_device dev_1.csv "$KEY2" dev2.log
DEV2=$!

# Let training get going, then pull the plug without ceremony.
PRE=0
for i in $(seq 1 100); do
  PRE=$(sed -n 's/^iteration t: *\([0-9]*\).*/\1/p' server1.log | tail -1)
  [ -n "$PRE" ] && [ "$PRE" -ge 20 ] && break
  PRE=0
  sleep 0.1
done
[ "$PRE" -ge 20 ] || { echo "training never took off"; cat server1.log; exit 1; }
kill -9 $SERVER_PID
wait $SERVER_PID 2>/dev/null || true

start_server "$PORT" keys2.csv server2.log

RECOVERED=""
for i in $(seq 1 50); do
  RECOVERED=$(sed -n 's/^recovered state: iteration \([0-9]*\).*/\1/p' server2.log)
  [ -n "$RECOVERED" ] && break
  sleep 0.1
done
[ -n "$RECOVERED" ] || { echo "no recovery line"; cat server2.log; exit 1; }
cmp -s keys.csv keys2.csv || { echo "re-enrolled keys differ"; exit 1; }

# The WAL must have carried training at least to the last report we saw
# — with --fsync always this is exactly "no acked checkin lost".
[ "$RECOVERED" -ge "$PRE" ] || {
  echo "recovered iteration $RECOVERED behind last report $PRE"
  cat server2.log; exit 1; }

wait $DEV1 || { echo "device 1 failed"; cat dev1.log; exit 1; }
wait $DEV2 || { echo "device 2 failed"; cat dev2.log; exit 1; }
cat dev1.log dev2.log

# At least one device had to reconnect across the crash window.
RECONNECTS=$(sed -n 's/^transport: \([0-9]*\) reconnects.*/\1/p' dev1.log dev2.log |
    awk '{s+=$1} END {print s+0}')
[ "$RECONNECTS" -ge 1 ] || { echo "no device ever reconnected"; exit 1; }

# Training resumed: the restarted server moved past the recovered state.
kill -TERM $SERVER_PID
wait $SERVER_PID 2>/dev/null || true
FINAL=$(sed -n 's/^iteration t: *\([0-9]*\).*/\1/p' server2.log | tail -1)
[ -n "$FINAL" ] && [ "$FINAL" -gt "$RECOVERED" ] || {
  echo "training did not resume (recovered $RECOVERED, final ${FINAL:-none})"
  cat server2.log; exit 1; }
grep -q "durable state compacted" server2.log || {
  echo "no final compaction"; cat server2.log; exit 1; }
ls wal/snapshot-*.bin >/dev/null 2>&1 || { echo "no snapshot on disk"; exit 1; }

echo "kill-restart OK (crashed at >=$PRE, recovered at $RECOVERED," \
     "finished at $FINAL, $RECONNECTS reconnects)"
