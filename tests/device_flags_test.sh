#!/bin/sh
# crowdml-device refuses an out-of-range numeric flag with exit code 1 and
# a one-line "crowdml-device: ..." reason on stderr, before it reads its
# data or dials the server, instead of running with a wrapped or
# meaningless value.
# Run by ctest with the build directory as argument.
set -eu
DEVICE="$1/tools/crowdml-device"
ERR=$(mktemp)
trap 'rm -f "$ERR"' EXIT

refuses() {  # refuses EXPECTED_STDERR ARGS...
  _want="$1"
  shift
  _rc=0
  "$DEVICE" --data missing.csv --key 1,abcd "$@" > /dev/null 2> "$ERR" ||
      _rc=$?
  [ "$_rc" -eq 1 ] || { echo "rc $_rc for: $*"; cat "$ERR"; exit 1; }
  [ "$(cat "$ERR")" = "$_want" ] || {
    echo "for: $*"; echo "want: $_want"; echo "got:  $(cat "$ERR")"; exit 1; }
}

refuses "crowdml-device: --port: must be in 0..65535, got 70000" --port 70000
refuses "crowdml-device: --port: expected an integer, got 'abc'" --port abc
refuses "crowdml-device: --minibatch: must be >= 1, got 0" --minibatch 0
refuses "crowdml-device: --classes: must be >= 1, got 0" --classes 0
refuses "crowdml-device: --passes: must be >= 1, got 0" --passes 0
refuses "crowdml-device: --io-deadline-ms: must be in 1..2147483647, got 0" \
    --io-deadline-ms 0
refuses "crowdml-device: --connect-timeout-ms: must be in 1..2147483647, got -5" \
    --connect-timeout-ms -5
refuses "crowdml-device: --max-attempts: must be in 1..2147483647, got 0" \
    --max-attempts 0
refuses "crowdml-device: --backoff-max-ms: must be in 0..2147483647, got -1" \
    --backoff-max-ms -1
refuses "crowdml-device: --device-class: must be in 0..255, got 256" \
    --device-class 256
# In range, the flags pass and the run stops at the missing data file.
refuses "crowdml-device: cannot open for reading: missing.csv" \
    --port 9000 --minibatch 1
echo "device-flags OK"
