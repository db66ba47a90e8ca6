#!/bin/sh
# Automatic-failover integration test, with real processes and SIGKILL:
#   (1) leader (quorum acks, 2 followers, 300ms leases, HMAC-sealed
#       replication) + two electing followers + devices train — devices
#       are homed on a FOLLOWER and ride its not-leader redirect to the
#       leader;
#   (2) SIGKILL the leader mid-deployment;
#   (3) with ZERO operator action, a follower detects the lease lapse,
#       wins the election, and serves as leader — and no checkin whose
#       ack reached a device is lost (the quorum/majority intersection);
#   (4) a device homed on the losing follower follows its refreshed
#       redirect to the new leader and trains on, quorum-acked by the
#       ex-follower that rejoined the winner.
# Run by ctest with the build directory as argument.
set -eu
BUILD_DIR="$1"
WORK=$(mktemp -d)
PIDS=""
trap 'kill -9 $PIDS 2>/dev/null || true; rm -rf "$WORK"' EXIT
cd "$WORK"

"$BUILD_DIR/tools/crowdml-make-dataset" --kind mnist --scale 0.05 --shards 2 \
    --shard-prefix dev_ --seed 42

SERVER="$BUILD_DIR/tools/crowdml-server"
COMMON="--classes 10 --dim 50 --auth-seed 7 --enroll 2 \
        --fsync always --report-every 0.2 --max-iterations 100000"

# Vote listeners need fixed ports (each follower must name the other in
# --peers before either has bound). Derive from the PID to avoid clashes;
# a port some other process already holds makes a follower refuse to
# start, and both followers then restart on the next pair.
VP1=$(( 20000 + ($$ % 20000) ))
VP2=$(( VP1 + 1 ))

# Shared HMAC key for the replication plane.
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

# --- (1) Leader: quorum sized for two followers, heartbeating leases.
# shellcheck disable=SC2086
$SERVER --port 0 $COMMON --keys-out keys.csv --wal-dir lwal \
    --repl-ack quorum --repl-followers 2 --lease-ms 300 \
    --repl-key-file key.hex >> leader.log 2>&1 &
LEADER_PID=$!
PIDS="$PIDS $LEADER_PID"
PORT=$(wait_line leader.log 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' 50)
RPORT=$(wait_line leader.log \
    's/^replication: shipping on 127.0.0.1:\([0-9]*\).*/\1/p' 50)
grep -q "ack=quorum, quorum=1 of 2" leader.log || {
  echo "leader did not size the quorum"; cat leader.log; exit 1; }

# Followers: the short-fused one is the likely first candidate; jittered
# timeouts (and the log-length vote rule) settle any collision.
start_follower() {  # start_follower ID VOTE_PORT PEER_PORT TIMEOUT LOG
  # shellcheck disable=SC2086
  $SERVER --port 0 $COMMON --keys-out "fkeys$1.csv" --wal-dir "fwal$1" \
      --role follower --leader-addr "127.0.0.1:$RPORT" \
      --election-timeout-ms "$4" --vote-port "$2" \
      --peers "127.0.0.1:$3" --repl-key-file key.hex \
      --follower-id "$1" --seed "$1" --max-read-lag 500 >> "$5" 2>&1 &
}
followers_up() {  # 0 once both listen, 1 on a vote-port refusal
  for _i in $(seq 1 50); do
    if grep -q "vote listener bind failed" follower1.log follower2.log; then
      return 1
    fi
    if grep -q "listening on" follower1.log &&
        grep -q "listening on" follower2.log; then
      return 0
    fi
    sleep 0.1
  done
  echo "timed out waiting for the followers to listen" >&2
  cat follower1.log follower2.log >&2
  exit 1
}
for _attempt in 1 2 3 4 5; do
  : > follower1.log
  : > follower2.log
  start_follower 1 "$VP1" "$VP2" 800 follower1.log
  F1_PID=$!
  start_follower 2 "$VP2" "$VP1" 1600 follower2.log
  F2_PID=$!
  PIDS="$PIDS $F1_PID $F2_PID"
  followers_up && break
  cat follower1.log follower2.log
  kill -TERM $F1_PID $F2_PID 2>/dev/null || true
  wait $F1_PID $F2_PID 2>/dev/null || true
  VP1=$(( VP1 + 2 ))
  VP2=$(( VP1 + 1 ))
done
FPORT1=$(wait_line follower1.log \
    's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' 50)
FPORT2=$(wait_line follower2.log \
    's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' 50)
grep -q "failover: election timeout 800ms" follower1.log || {
  echo "follower 1 did not arm its failure detector"; cat follower1.log; exit 1; }
wait_line follower1.log 's/.*\(connected=1\).*/\1/p' 100 > /dev/null
wait_line follower2.log 's/.*\(connected=1\).*/\1/p' 100 > /dev/null
cmp -s keys.csv fkeys1.csv || {
  echo "leader and follower enrolled different keys"; exit 1; }

# --- Devices homed on follower 1: its not-leader nack advertises the
# leader's (heartbeat-learned) device address, and the session follows.
KEY1=$(sed -n 1p keys.csv)
KEY2=$(sed -n 2p keys.csv)
run_device() {
  "$BUILD_DIR/tools/crowdml-device" --host 127.0.0.1 --port "$1" \
      --data "$2" --key "$3" --minibatch 10 --epsilon 50 --passes "$4" \
      --classes 10 --max-attempts 60 --backoff-max-ms 500 \
      --connect-timeout-ms 1000 > "$5" 2>&1 &
}
run_device "$FPORT1" dev_0.csv "$KEY1" 4 dev1.log
DEV1=$!
run_device "$FPORT1" dev_1.csv "$KEY2" 4 dev2.log
DEV2=$!
wait $DEV1 || { echo "phase-1 device 1 failed"; cat dev1.log; exit 1; }
wait $DEV2 || { echo "phase-1 device 2 failed"; cat dev2.log; exit 1; }
ACKED=$(sed -n 's/.*passes, \([0-9]*\) checkins.*/\1/p' dev1.log dev2.log |
    awk '{s+=$1} END {print s+0}')
[ "$ACKED" -ge 20 ] || { echo "too few acked checkins ($ACKED)"; exit 1; }
REDIR1=$(sed -n 's/.* \([0-9]*\) redirects followed.*/\1/p' dev1.log dev2.log |
    awk '{s+=$1} END {print s+0}')
[ "$REDIR1" -ge 2 ] || {
  echo "devices were not redirected off the replica (followed $REDIR1)"
  cat dev1.log dev2.log; exit 1; }

# No premature elections while the leader heartbeats.
if grep -q "election won" follower1.log follower2.log; then
  echo "a follower campaigned against a live leader"
  cat follower1.log follower2.log; exit 1
fi

# --- (2) Pull the plug. No sync, no goodbye, no operator.
kill -9 $LEADER_PID
wait $LEADER_PID 2>/dev/null || true

# --- (3) A follower promotes itself. Nobody runs --promote-on-start.
WINNER_LOG=""
for _i in $(seq 1 150); do
  if grep -q "election won: serving as leader" follower1.log; then
    WINNER_LOG=follower1.log; WINNER_PORT=$FPORT1; LOSER_LOG=follower2.log
    LOSER_PORT=$FPORT2; break
  fi
  if grep -q "election won: serving as leader" follower2.log; then
    WINNER_LOG=follower2.log; WINNER_PORT=$FPORT2; LOSER_LOG=follower1.log
    LOSER_PORT=$FPORT1; break
  fi
  sleep 0.1
done
[ -n "$WINNER_LOG" ] || {
  echo "no follower promoted itself after the leader died"
  cat follower1.log follower2.log; exit 1; }
EPOCH=$(sed -n 's/^election won: serving as leader (epoch \([0-9]*\).*/\1/p' \
    "$WINNER_LOG" | head -1)
[ "$EPOCH" -ge 2 ] || { echo "promotion did not bump the epoch"; exit 1; }

# The quorum invariant across an automatic failover: the election's
# majority intersects every ack quorum, so the winner's replica holds
# every checkin a device saw acked (one applied record per checkin).
sleep 0.5  # let a fresh report line land
SEQ=$(sed -n 's/^replicated through seq \([0-9]*\).*/\1/p' "$WINNER_LOG" |
    tail -1)
[ "${SEQ:-0}" -ge "$ACKED" ] || {
  echo "acked checkin lost: winner applied $SEQ < $ACKED acked"
  cat "$WINNER_LOG"; exit 1; }

# The loser durably adopted the winner's epoch when it granted its vote.
wait_line "$LOSER_LOG" \
    "s/^replicated through seq [0-9]* (epoch \($EPOCH\),.*/\1/p" 100 \
    > /dev/null

# --- (4) A device homed on the LOSER follows its refreshed redirect to
# the new leader; its acks are quorum-held until the loser (now the
# winner's follower) durably appends — the full regime, re-established.
run_device "$LOSER_PORT" dev_0.csv "$KEY1" 2 dev3.log
DEV3=$!
wait $DEV3 || { echo "phase-2 device failed"; cat dev3.log; exit 1; }
ACKED2=$(sed -n 's/.*passes, \([0-9]*\) checkins.*/\1/p' dev3.log)
[ "${ACKED2:-0}" -ge 1 ] || {
  echo "no checkins acked after automatic failover"; cat dev3.log; exit 1; }
REDIR2=$(sed -n 's/.* \([0-9]*\) redirects followed.*/\1/p' dev3.log)
[ "${REDIR2:-0}" -ge 1 ] || {
  echo "phase-2 device was not redirected to the new leader"
  cat dev3.log; exit 1; }

kill -TERM $F1_PID $F2_PID 2>/dev/null || true
wait $F1_PID $F2_PID 2>/dev/null || true

echo "repl-failover OK ($ACKED acked pre-crash, winner applied $SEQ," \
     "epoch $EPOCH, $ACKED2 acked post-failover, $REDIR1+$REDIR2 redirects)"
