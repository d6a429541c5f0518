#!/usr/bin/env bash
#===- tests/svc/smoke.sh - silverd end-to-end loopback smoke test -------------===#
#
# Part of SilverStack, a C++ reproduction of "Verified Compilation on a
# Verified Processor" (PLDI 2019).
#
# Exercises the real daemon over its real socket:
#
#   1. boots silverd on a temp Unix socket
#   2. fires 10 concurrent silver-client submissions (hello + wc mix;
#      isa + machine levels, the jit backend, and the compiled-HDL
#      verilog tier) and requires every one to come back completed with
#      the right stdout — zero lost, zero duplicated
#   3. cross-checks the silver-client --json outcome shape against
#      silverc --json for the same program (one parser, two producers),
#      requires both to name a level identically, and requires both
#      to reject --level=jit (a backend, not a level) with usage
#   4. SIGTERMs the daemon with work in flight and requires a graceful
#      drain: exit 0, every job finished, nothing killed
#
# usage: smoke.sh SILVERD SILVER_CLIENT [SILVERC]
#
#===----------------------------------------------------------------------===#

set -u

SILVERD=${1:?usage: smoke.sh SILVERD SILVER_CLIENT [SILVERC]}
CLIENT=${2:?usage: smoke.sh SILVERD SILVER_CLIENT [SILVERC]}
SILVERC=${3:-}

WORK=$(mktemp -d /tmp/silver_smoke.XXXXXX)
SOCK="$WORK/d.sock"
DAEMON_PID=

fail() {
  echo "smoke: FAIL: $*" >&2
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null
  exit 1
}

cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_for_socket() {
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && return 0
    sleep 0.1
  done
  return 1
}

# A stdin workload for wc: 40 lines of text.
seq 1 40 | sed 's/^/line /' > "$WORK/input.txt"

#--- 1. boot ------------------------------------------------------------------
"$SILVERD" --socket="$SOCK" --workers=4 --queue-depth=32 \
  > "$WORK/silverd.out" 2> "$WORK/silverd.err" &
DAEMON_PID=$!
wait_for_socket || fail "silverd did not create $SOCK"
echo "smoke: silverd up (pid $DAEMON_PID)"

#--- 2. 10 concurrent clients, mixed workloads, levels and backends -----------
CLIENTS="0 1 2 3 4 5 6 7 8 9"
CLIENT_PIDS=()
for i in $CLIENTS; do
  case $i in
    0|4) args=(submit --builtin=hello --level=isa) ;;
    1|5) args=(submit --builtin=wc --stdin-file="$WORK/input.txt" --level=isa) ;;
    2|6) args=(submit --builtin=hello --level=machine) ;;
    3|7) args=(submit --builtin=wc --stdin-file="$WORK/input.txt" --level=machine) ;;
    # The jit execution backend and the compiled-HDL verilog tier ride
    # the same daemon as the interpreter jobs.
    8) args=(submit --builtin=wc --stdin-file="$WORK/input.txt" \
             --level=isa --backend=jit) ;;
    9) args=(submit --builtin=hello --level=verilog --hdl=compiled) ;;
  esac
  "$CLIENT" --socket="$SOCK" "${args[@]}" --json --wait-ms=120000 \
    > "$WORK/client$i.json" 2> "$WORK/client$i.err" &
  CLIENT_PIDS+=($!)
done

n=0
for i in $CLIENTS; do
  wait "${CLIENT_PIDS[$n]}" || fail "client $i exited nonzero: $(cat "$WORK/client$i.err")"
  n=$((n + 1))
done

# Every response is a completed outcome with the expected stdout — and
# every client got exactly one response line.
for i in $CLIENTS; do
  [ "$(wc -l < "$WORK/client$i.json")" = 1 ] \
    || fail "client $i: expected exactly one response line"
  grep -q '"status":"completed"' "$WORK/client$i.json" \
    || fail "client $i not completed: $(cat "$WORK/client$i.json")"
  case $i in
    0|2|4|6|9) grep -q '"stdout":"Hello, world!\\n"' "$WORK/client$i.json" \
           || fail "client $i: wrong hello output" ;;
    # 40 lines of "line N" = 80 space-separated tokens.
    1|3|5|7|8) grep -q '"stdout":"80\\n"' "$WORK/client$i.json" \
           || fail "client $i: wrong wc output" ;;
  esac
done
echo "smoke: 10 concurrent submissions all completed (incl. jit + compiled hdl)"

# No duplicated work: the daemon saw exactly the 10 jobs.
STATS=$("$CLIENT" --socket="$SOCK" stats) || fail "stats request failed"
echo "$STATS" | grep -q '"submitted":10' \
  || fail "expected 10 submitted jobs, got: $STATS"
echo "$STATS" | grep -q '"completed":10' \
  || fail "expected 10 completed jobs, got: $STATS"

#--- 3. the one-outcome-shape contract vs silverc --json ----------------------
if [ -n "$SILVERC" ]; then
  printf 'val _ = print "Hello, world!\\n"' > "$WORK/hello.cml"
  "$SILVERC" --json "$WORK/hello.cml" > "$WORK/silverc.json" 2>/dev/null \
    || fail "silverc --json failed"
  for key in status level exit_code instructions cycles stdout_bytes \
             stderr_bytes stdout stderr; do
    grep -q "\"$key\":" "$WORK/silverc.json" \
      || fail "silverc --json missing key $key"
    grep -q "\"$key\":" "$WORK/client0.json" \
      || fail "silver-client --json missing key $key"
  done
  echo "smoke: silverc/silver-client --json share the outcome shape"

  # Same level, same "level" value (client 2 ran hello at machine).
  "$SILVERC" --json --level=machine "$WORK/hello.cml" \
    > "$WORK/silverc-machine.json" 2>/dev/null \
    || fail "silverc --json --level=machine failed"
  C_LEVEL=$(grep -o '"level":"[^"]*"' "$WORK/silverc-machine.json")
  S_LEVEL=$(grep -o '"level":"[^"]*"' "$WORK/client2.json")
  [ -n "$C_LEVEL" ] && [ "$C_LEVEL" = "$S_LEVEL" ] \
    || fail "level value differs: silverc $C_LEVEL, silver-client $S_LEVEL"
  echo "smoke: silverc/silver-client --json agree on the level value"

  # jit is selected with --backend=jit; --level=jit is no level.
  if "$SILVERC" --level=jit "$WORK/hello.cml" \
       > /dev/null 2> "$WORK/silverc-jit.err"; then
    fail "silverc accepted --level=jit"
  fi
  grep -q '^usage:' "$WORK/silverc-jit.err" \
    || fail "silverc --level=jit did not print usage"
  if "$CLIENT" --socket="$SOCK" submit --builtin=hello --level=jit \
       > /dev/null 2> "$WORK/client-jit.err"; then
    fail "silver-client accepted --level=jit"
  fi
  grep -q '^usage:' "$WORK/client-jit.err" \
    || fail "silver-client --level=jit did not print usage"
  echo "smoke: --level=jit is rejected with usage by silverc and silver-client"
fi

#--- 4. SIGTERM drains in-flight work -----------------------------------------
# Queue async work, then immediately ask for shutdown: the daemon must
# finish what it accepted before exiting.
for i in 0 1 2; do
  "$CLIENT" --socket="$SOCK" submit --builtin=wc \
    --stdin-file="$WORK/input.txt" --wait-ms=0 >/dev/null 2>&1 \
    || fail "async submit $i failed"
done
kill -TERM "$DAEMON_PID"
for _ in $(seq 1 300); do
  kill -0 "$DAEMON_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$DAEMON_PID" 2>/dev/null; then
  fail "silverd still alive 30s after SIGTERM"
fi
wait "$DAEMON_PID"
RC=$?
DAEMON_PID=
[ "$RC" = 0 ] || fail "silverd exited $RC after SIGTERM"
grep -q 'drained, exiting' "$WORK/silverd.err" \
  || fail "silverd did not report a drain"
# The final stats on stderr must account for all 13 jobs, none killed.
grep -q '"submitted":13' "$WORK/silverd.err" \
  || fail "final stats missing the async jobs: $(tail -1 "$WORK/silverd.err")"
grep -q '"completed":13' "$WORK/silverd.err" \
  || fail "drain killed in-flight jobs: $(tail -1 "$WORK/silverd.err")"
grep -q '"active":0' "$WORK/silverd.err" \
  || fail "jobs still active after drain"
echo "smoke: SIGTERM drained 3 in-flight jobs cleanly"

echo "smoke: PASS"
