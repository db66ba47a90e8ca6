#!/bin/sh
# Sharded-cluster smoke test, with real processes and SIGKILL:
#   (1) two shard leaders behind one --shard-map partition the device-id
#       space under one --wal-dir (wal/shard-000, wal/shard-001), devices
#       hash-route to their home shard via crowdml-device --shard-map;
#   (2) a device deliberately pointed at the WRONG shard rides the
#       "wrong shard" nack redirect to its home shard — no operator, no
#       lost checkin;
#   (3) the merge director (shard 0) completes at least one cross-shard
#       count-weighted merge round while both shards train;
#   (4) SIGKILL one shard leader mid-run and restart it with the same
#       flags: it recovers from its own WAL namespace at or past the last
#       reported iteration (--fsync always => no acked checkin lost), and
#       its devices ride out the outage via ReconnectingDeviceSession.
# Run by ctest with the build directory as argument.
set -eu
BUILD_DIR="$1"
WORK=$(mktemp -d)
PIDS=""
trap 'kill -9 $PIDS 2>/dev/null || true; rm -rf "$WORK"' EXIT
cd "$WORK"

"$BUILD_DIR/tools/crowdml-make-dataset" --kind mnist --scale 0.05 --shards 4 \
    --shard-prefix dev_ --seed 42

SERVER="$BUILD_DIR/tools/crowdml-server"
COMMON="--classes 10 --dim 50 --auth-seed 7 --enroll 4 \
        --fsync always --report-every 0.2 --max-iterations 100000"

# The shard map names both device ports before either server has bound,
# so they need fixed ports. Derive from the PID to avoid clashes.
SP0=$(( 22000 + ($$ % 20000) ))
SP1=$(( SP0 + 1 ))
MAP="127.0.0.1:$SP0,127.0.0.1:$SP1"

# Shared HMAC key sealing the cross-shard merge frames.
printf '6b1df3a0c4e55b27188f9ad02c637e41aa55bc0912fd8e7634cb10a9d2ef4873\n' \
    > key.hex

wait_line() {  # wait_line LOG SED_PATTERN TRIES -> prints first capture
  _out=""
  for _i in $(seq 1 "$3"); do
    _out=$(sed -n "$2" "$1" 2>/dev/null | head -1)
    [ -n "$_out" ] && break
    sleep 0.1
  done
  [ -n "$_out" ] || { echo "timed out waiting for $2 in $1" >&2; cat "$1" >&2; exit 1; }
  echo "$_out"
}

# --- (1) Two shard leaders under one --wal-dir. Only shard 0 runs the
# merge director; both seal Shard* frames with the shared key. The same
# --auth-seed enrolls the same device keys fleet-wide.
start_shard() {  # start_shard ID PORT EXTRA LOG
  # shellcheck disable=SC2086
  $SERVER --port "$2" $COMMON --keys-out "keys$1.csv" --wal-dir wal \
      --shard-map "$MAP" --shard-id "$1" --repl-key-file key.hex \
      $3 >> "$4" 2>&1 &
}
start_shard 0 "$SP0" "--shard-merge-ms 300" shard0.log
S0_PID=$!
PIDS="$PIDS $S0_PID"
start_shard 1 "$SP1" "" shard1.log
S1_PID=$!
PIDS="$PIDS $S1_PID"
wait_line shard0.log 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' 50 > /dev/null
wait_line shard1.log 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' 50 > /dev/null
grep -q "config: shard-id=0 shards=2" shard0.log || {
  echo "shard 0 missing shard config line"; cat shard0.log; exit 1; }
grep -q "shard merge director: 2 shard(s)" shard0.log || {
  echo "shard 0 did not start the merge director"; cat shard0.log; exit 1; }
cmp -s keys0.csv keys1.csv || { echo "shards enrolled different keys"; exit 1; }
[ -d wal/shard-000 ] && [ -d wal/shard-001 ] || {
  echo "per-shard WAL namespaces missing"; ls -R wal; exit 1; }

# --- Devices hash-route to their home shard via --shard-map.
run_device() {  # run_device DATA KEY PASSES LOG EXTRA
  # shellcheck disable=SC2086
  "$BUILD_DIR/tools/crowdml-device" --shard-map "$MAP" \
      --data "$1" --key "$2" --minibatch 10 --epsilon 50 --passes "$3" \
      --classes 10 --max-attempts 60 --backoff-max-ms 500 \
      --connect-timeout-ms 1000 $5 > "$4" 2>&1 &
}
KEY1=$(sed -n 1p keys0.csv); KEY2=$(sed -n 2p keys0.csv)
KEY3=$(sed -n 3p keys0.csv); KEY4=$(sed -n 4p keys0.csv)
run_device dev_0.csv "$KEY1" 2 dev1.log ""
DEV1=$!
run_device dev_1.csv "$KEY2" 2 dev2.log ""
DEV2=$!
run_device dev_2.csv "$KEY3" 2 dev3.log ""
DEV3=$!
run_device dev_3.csv "$KEY4" 2 dev4.log ""
DEV4=$!
for d in $DEV1 $DEV2 $DEV3 $DEV4; do
  wait $d || { echo "phase-1 device failed"; cat dev?.log; exit 1; }
done
ACKED=$(sed -n 's/.*passes, \([0-9]*\) checkins.*/\1/p' dev?.log |
    awk '{s+=$1} END {print s+0}')
[ "$ACKED" -ge 40 ] || { echo "too few acked checkins ($ACKED)"; exit 1; }
# The partition must be real: every device printed its home shard, and
# with the correct map nobody needed a redirect.
HOMES=$(sed -n 's/^shard-map: device [0-9]* homed to shard \([0-9]*\).*/\1/p' \
    dev?.log | sort -u | tr '\n' ' ')
echo "device homes: $HOMES"
[ "$(echo "$HOMES" | wc -w)" -ge 2 ] || {
  echo "all devices hashed to one shard — partition untested"; exit 1; }

# --- (2) Point device 1 at the shard that is NOT its home (no map): its
# checkin draws the "wrong shard" nack and the session follows the
# redirect to the home shard.
HOME1=$(sed -n 's/^shard-map: device [0-9]* homed to shard \([0-9]*\).*/\1/p' \
    dev1.log)
[ -n "$HOME1" ] || { echo "device 1 never printed its home shard"; cat dev1.log; exit 1; }
WRONG_PORT=$SP1
[ "$HOME1" = "1" ] && WRONG_PORT=$SP0
"$BUILD_DIR/tools/crowdml-device" --host 127.0.0.1 --port "$WRONG_PORT" \
    --data dev_0.csv --key "$KEY1" --minibatch 10 --epsilon 50 --passes 1 \
    --classes 10 --max-attempts 60 --backoff-max-ms 500 \
    --connect-timeout-ms 1000 > dev_wrong.log 2>&1 || {
  echo "mishomed device failed"; cat dev_wrong.log; exit 1; }
REDIR=$(sed -n 's/.* \([0-9]*\) redirects followed.*/\1/p' dev_wrong.log)
[ "${REDIR:-0}" -ge 1 ] || {
  echo "mishomed device was never redirected (followed ${REDIR:-0})"
  cat dev_wrong.log; exit 1; }

# Give the director a couple of 300ms cycles with both shards loaded.
sleep 1

# --- (4) SIGKILL device 1's home shard mid-run, restart it on the same
# port with the same flags. --fsync always: the recovered iteration must
# be at or past the last report — no acked checkin lost. 100 passes
# (~7500 checkins, several seconds at fsync-per-batch rates) so the kill
# 0.7s in is guaranteed to land while the device is still streaming.
if [ "$HOME1" = "0" ]; then
  KILL_PID=$S0_PID; KILL_PORT=$SP0; KILL_ID=0; KILL_LOG=shard0.log
  KILL_EXTRA="--shard-merge-ms 300"
else
  KILL_PID=$S1_PID; KILL_PORT=$SP1; KILL_ID=1; KILL_LOG=shard1.log
  KILL_EXTRA=""
fi
run_device dev_0.csv "$KEY1" 100 dev5.log ""
DEV5=$!
sleep 0.7
kill -9 $KILL_PID
wait $KILL_PID 2>/dev/null || true
PRE=$(sed -n 's/^iteration t: *\([0-9]*\).*/\1/p' "$KILL_LOG" | tail -1)
[ -n "$PRE" ] || PRE=0

start_shard "$KILL_ID" "$KILL_PORT" "$KILL_EXTRA" shard_restart.log
RESTART_PID=$!
PIDS="$PIDS $RESTART_PID"
RECOVERED=$(wait_line shard_restart.log \
    's/^recovered state: iteration \([0-9]*\).*/\1/p' 50)
[ "$RECOVERED" -ge "$PRE" ] || {
  echo "acked checkin lost: shard $KILL_ID recovered $RECOVERED < $PRE"
  cat shard_restart.log; exit 1; }

wait $DEV5 || { echo "phase-2 device failed"; cat dev5.log; exit 1; }
RECONNECTS=$(sed -n 's/^transport: \([0-9]*\) reconnects.*/\1/p' dev5.log)
[ "${RECONNECTS:-0}" -ge 1 ] || {
  echo "device never reconnected across the shard crash"; cat dev5.log; exit 1; }

# --- (3) Clean shutdown; the director must have completed >= 1 merge
# round (both shards were up and training through phase 1).
if [ "$KILL_ID" = "0" ]; then
  DIRECTOR_LOG=shard_restart.log
  kill -TERM $RESTART_PID 2>/dev/null || true
  wait $RESTART_PID 2>/dev/null || true
  kill -TERM $S1_PID 2>/dev/null || true
  wait $S1_PID 2>/dev/null || true
  # The restarted director may not have had two live merge rounds yet;
  # the pre-crash director's rounds count from the original log.
  ROUNDS=$(sed -n 's/^merge director: \([0-9]*\) round(s) completed.*/\1/p' \
      shard0.log shard_restart.log | awk '{s+=$1} END {print s+0}')
else
  DIRECTOR_LOG=shard0.log
  kill -TERM $S0_PID 2>/dev/null || true
  wait $S0_PID 2>/dev/null || true
  kill -TERM $RESTART_PID 2>/dev/null || true
  wait $RESTART_PID 2>/dev/null || true
  ROUNDS=$(sed -n 's/^merge director: \([0-9]*\) round(s) completed.*/\1/p' \
      shard0.log)
fi
[ "${ROUNDS:-0}" -ge 1 ] || {
  echo "merge director completed no rounds"; cat "$DIRECTOR_LOG"; exit 1; }

echo "shard-smoke OK ($ACKED acked across homes [$HOMES], $REDIR redirect(s)" \
     "followed, shard $KILL_ID recovered at $RECOVERED >= $PRE," \
     "$ROUNDS merge round(s))"
