#!/usr/bin/env bash
# fuzzfloor.sh runs one fuzz target for a fixed budget and fails unless the
# fuzzer executed at least FLOOR inputs. A budget spent minimizing the first
# interesting input, or one a slow target eats up, shows as a low count:
# the floor keeps a fuzz step from silently checking almost nothing.
#
#   bash tools/fuzzfloor.sh PACKAGE TARGET FUZZTIME FLOOR
#   bash tools/fuzzfloor.sh ./internal/trace FuzzInflate 20s 100000
#
# Minimization is capped at 10 executions per input (-fuzzminimizetime 10x),
# so a crasher still comes back minimized a little and the budget still goes
# to fuzzing.
set -euo pipefail

if [ $# -ne 4 ]; then
	echo "usage: $0 PACKAGE TARGET FUZZTIME FLOOR" >&2
	exit 2
fi
pkg=$1 target=$2 budget=$3 floor=$4

log=$(mktemp)
trap 'rm -f "$log"' EXIT
status=0
go test -run '^$' -fuzz "^${target}\$" -fuzztime "$budget" -fuzzminimizetime 10x "$pkg" 2>&1 | tee "$log" || status=$?
if [ "$status" -ne 0 ]; then
	exit "$status"
fi

# The coordinator's last status line carries the total: "execs: N (R/sec)".
execs=$(sed -n 's/.*execs: \([0-9]*\).*/\1/p' "$log" | tail -n 1)
if [ -z "$execs" ]; then
	echo "$target: no exec count in the fuzzer's output" >&2
	exit 1
fi
echo "$target: $execs execs in $budget (floor $floor)"
if [ "$execs" -lt "$floor" ]; then
	echo "$target: $execs execs is below the floor of $floor" >&2
	exit 1
fi
