#!/usr/bin/env bash
# Run one CI probe: a command under a time limit whose output file must
# hash to a recorded sha256.
#
# usage: .github/probe.sh LABEL SECONDS OUTPUT SHA256 COMMAND [ARG...]
#
# COMMAND runs under `timeout SECONDS` with this script's stdin and stdout,
# and must write OUTPUT (for example with the CLI's --output).  The script
# prints the wall time, and fails when the command runs out of time, exits
# nonzero, or leaves an OUTPUT whose sha256 is not SHA256.  Its own
# messages go to stderr, so a caller may redirect the command's stdout.
set -u
label=$1 seconds=$2 output=$3 expected=$4
shift 4
start=$(date +%s%N)
status=0
timeout "$seconds" "$@" || status=$?
ms=$(( ($(date +%s%N) - start) / 1000000 ))
printf '%s: %d.%03d s\n' "$label" $((ms / 1000)) $((ms % 1000)) >&2
if [ "$status" = 124 ]; then
  echo "$label exceeded $seconds s" >&2
  exit 1
elif [ "$status" != 0 ]; then
  echo "$label exited with status $status" >&2
  exit 1
fi
digest=$(sha256sum "$output" | cut -d ' ' -f 1)
if [ "$digest" != "$expected" ]; then
  echo "$label output digest $digest differs from the recorded one" >&2
  exit 1
fi
