#!/bin/sh
# crowdml-server refuses a malformed or out-of-range command line, or an
# invalid tier combination (node::validate), with exit code 1 and a
# one-line "crowdml-server: ..." reason on stderr, instead of aborting or
# quietly running with a different value.
# Run by ctest with the build directory as argument.
set -eu
SERVER="$1/tools/crowdml-server"
ERR=$(mktemp)
trap 'rm -f "$ERR"' EXIT

refuses() {  # refuses EXPECTED_STDERR ARGS...
  _want="$1"
  shift
  _rc=0
  "$SERVER" "$@" > /dev/null 2> "$ERR" || _rc=$?
  [ "$_rc" -eq 1 ] || { echo "rc $_rc for: $*"; cat "$ERR"; exit 1; }
  [ "$(cat "$ERR")" = "$_want" ] || {
    echo "for: $*"; echo "want: $_want"; echo "got:  $(cat "$ERR")"; exit 1; }
}

refuses "crowdml-server: --port: expected an integer, got 'abc'" --port abc
refuses "crowdml-server: unexpected positional argument: oops" --port 0 oops
refuses "crowdml-server: --port: must be in 0..65535, got 70000" --port 70000
refuses "crowdml-server: --repl-port: must be in 0..65535, got 70001" \
    --repl-port 70001 --wal-dir wal
refuses "crowdml-server: --io-threads: must be >= 1, got 0" --io-threads 0
refuses "crowdml-server: --model-instances > 1 does not replicate: drop \
--repl-port/--repl-ack/--promote-on-start or serve one model (no follower \
can rebuild a pool's k instance streams; see docs/REPLICATION.md)" \
    --model-instances 2 --repl-ack async --wal-dir wal
echo "server-flags OK"
