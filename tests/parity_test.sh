#!/bin/sh
# CLI ↔ daemon parity table. Every row runs once through folearn_cli and
# once through folearnd (via folearn_client, on a fresh session), and the
# two legs must agree: the CLI exit code equals the wire code (mc's exit
# 0/2 ↔ query's result true/false), both equal the row's expected code,
# learned model bytes are identical, and no leg aborts (no CLI exit 134, and
# the daemon is still alive after every row). Both front ends share one
# request core (src/service/request.h), so a drift shows up here. Invoked
# by ctest (and runnable by hand) with the directory holding the folearnd
# / folearn_client / folearn_cli binaries as $1.
set -eu

TOOLS="$1"
DIR="$(mktemp -d)"
SOCK="$DIR/folearnd.sock"
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null
  rm -rf "$DIR"
}
trap cleanup EXIT

fail() {
  echo "parity: $*" >&2
  exit 1
}

client() {
  "$TOOLS/folearn_client" --socket "$SOCK" "$@"
}

# The CLI leg: `cli <command> <flags>...`; sets CLI_RC, keeps stdout.
cli() {
  CLI_RC=0
  "$TOOLS/folearn_cli" "$@" > "$DIR/cli.out" 2> "$DIR/cli.err" || CLI_RC=$?
}

# The wire leg: `wire <graph file> <op> <fields>...` on a fresh session;
# sets WIRE_RC (the client's exit code: the response code, 0 for ok, 3 for
# partial). A learned model lands in $DIR/wire.model.
wire() {
  graph="$1"
  op="$2"
  shift 2
  session=$(client load-graph --graph-file "$graph" 2> /dev/null |
      sed -n 's/^session: //p')
  [ -n "$session" ] || fail "load-graph of $graph failed"
  rm -f "$DIR/wire.model"
  WIRE_RC=0
  client "$op" --session "$session" --out "$DIR/wire.model" "$@" \
      > "$DIR/wire.out" 2> "$DIR/wire.err" || WIRE_RC=$?
}

ROWS=0
# `check <name> <expected code>`: compares the two legs just run.
check() {
  [ "$CLI_RC" -ne 134 ] || fail "$1: the CLI aborted"
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "$1: the daemon died"
  [ "$CLI_RC" -eq "$WIRE_RC" ] || {
    cat "$DIR/cli.err" "$DIR/wire.err" >&2
    fail "$1: CLI exit $CLI_RC, wire code $WIRE_RC"
  }
  [ "$CLI_RC" -eq "$2" ] || fail "$1: both legs gave $CLI_RC, expected $2"
  ROWS=$((ROWS + 1))
}

# `check_model <name> <expected code>`: check, plus identical model bytes.
check_model() {
  check "$1" "$2"
  cmp -s "$DIR/cli.out" "$DIR/wire.model" ||
      fail "$1: model bytes differ between the CLI and the daemon"
}

# A coloured random tree with an "is Red" dataset, the same shape as
# cli_test.sh, plus the rank-3 instance whose model text is too large.
"$TOOLS/folearn_cli" generate --family tree --n 16 --seed 11 \
    --color Red:0.3 --out "$DIR/g.txt"
reds=$(grep '^color Red' "$DIR/g.txt" | cut -d' ' -f3-)
{
  echo "examples 1"
  v=0
  while [ "$v" -lt 16 ]; do
    label="-"
    for r in $reds; do
      [ "$r" = "$v" ] && label="+"
    done
    echo "$label $v"
    v=$((v + 1))
  done
} > "$DIR/d.txt"
"$TOOLS/folearn_cli" generate --family tree --n 30 --seed 3 \
    --color Red:0.3 --out "$DIR/g30.txt"
printf 'examples 1\n+ 1\n- 2\n+ 3\n- 4\n' > "$DIR/d30.txt"
printf 'examples 2\n+ 0 1\n- 1 2\n' > "$DIR/pairs.txt"
printf 'examples 1\n+ 99\n- 0\n' > "$DIR/far_data.txt"
printf 'hypothesis k 1 ell 1\nparams 99\nformula E(x1, y1)\n' \
    > "$DIR/far_param.txt"

"$TOOLS/folearnd" --socket "$SOCK" 2> "$DIR/daemon.log" &
DAEMON_PID=$!
tries=0
while [ ! -S "$SOCK" ]; do
  tries=$((tries + 1))
  [ "$tries" -lt 100 ] || fail "daemon never bound $SOCK"
  kill -0 "$DAEMON_PID" 2>/dev/null || {
    cat "$DIR/daemon.log" >&2
    fail "daemon died at startup"
  }
  sleep 0.1
done

# 1. Brute learns over the class grid: identical model bytes.
for ell in 0 1 2; do
  for rank in 0 1 2; do
    for threads in 1 2; do
      flags="--rank $rank --ell $ell --threads $threads"
      # shellcheck disable=SC2086  # $flags is a list of flag pairs
      cli learn --graph "$DIR/g.txt" --data "$DIR/d.txt" $flags
      # shellcheck disable=SC2086
      wire "$DIR/g.txt" learn --data-file "$DIR/d.txt" $flags
      check_model "learn ell=$ell rank=$rank threads=$threads" 0
    done
  done
done
cp "$DIR/cli.out" "$DIR/m.txt"

# 2. eval / evaluate.
cli eval --graph "$DIR/g.txt" --data "$DIR/d.txt" --model "$DIR/m.txt"
wire "$DIR/g.txt" evaluate --data-file "$DIR/d.txt" --model-file "$DIR/m.txt"
check "evaluate: good model" 0
cli eval --graph "$DIR/g.txt" --data "$DIR/pairs.txt" --model "$DIR/m.txt"
wire "$DIR/g.txt" evaluate --data-file "$DIR/pairs.txt" \
    --model-file "$DIR/m.txt"
check "evaluate: arity mismatch" 65
cli eval --graph "$DIR/g.txt" --data "$DIR/d.txt" \
    --model "$DIR/far_param.txt"
wire "$DIR/g.txt" evaluate --data-file "$DIR/d.txt" \
    --model-file "$DIR/far_param.txt"
check "evaluate: parameter outside the graph" 65
cli eval --graph "$DIR/g.txt" --data "$DIR/far_data.txt" \
    --model "$DIR/m.txt"
wire "$DIR/g.txt" evaluate --data-file "$DIR/far_data.txt" \
    --model-file "$DIR/m.txt"
check "evaluate: data vertex outside the graph" 65

# 3. mc / query. A false sentence is mc's exit 2 and query's result=false.
for row in "0|exists x. Red(x)" "2|forall x. Red(x)" "65|exists x. (" \
    "65|Red(x)"; do
  expected=${row%%|*}
  sentence=${row#*|}
  cli mc --graph "$DIR/g.txt" --sentence "$sentence"
  wire "$DIR/g.txt" query --sentence "$sentence"
  if [ "$WIRE_RC" -eq 0 ] && grep -q '^result: false$' "$DIR/wire.out"; then
    WIRE_RC=2
  fi
  check "mc: $sentence" "$expected"
done

# 3b. MSO input that used to reach a CHECK: a free set variable (in a
#     sentence or a model formula) and set quantifiers on a graph above
#     the 22-vertex MSO limit exit 65 on both front ends. The same MSO
#     sentence first answers on the 16-vertex graph, so the 30-vertex row
#     meets a cached plan and is still refused.
printf 'hypothesis k 1 ell 0\nformula x1 in X\n' > "$DIR/free_set.txt"
printf 'hypothesis k 1 ell 0\nformula existsset X. x1 in X\n' \
    > "$DIR/mso.txt"
for row in "65|g|exists x. x in X" "0|g|existsset X. exists x. x in X" \
    "65|g30|existsset X. exists x. x in X"; do
  expected=${row%%|*}
  rest=${row#*|}
  graph=${rest%%|*}
  sentence=${rest#*|}
  cli mc --graph "$DIR/$graph.txt" --sentence "$sentence"
  wire "$DIR/$graph.txt" query --sentence "$sentence"
  if [ "$WIRE_RC" -eq 0 ] && grep -q '^result: false$' "$DIR/wire.out"; then
    WIRE_RC=2
  fi
  check "mc: $sentence on $graph" "$expected"
done
cli eval --graph "$DIR/g.txt" --data "$DIR/d.txt" \
    --model "$DIR/free_set.txt"
wire "$DIR/g.txt" evaluate --data-file "$DIR/d.txt" \
    --model-file "$DIR/free_set.txt"
check "evaluate: free set variable" 65
cli eval --graph "$DIR/g30.txt" --data "$DIR/d30.txt" --model "$DIR/mso.txt"
wire "$DIR/g30.txt" evaluate --data-file "$DIR/d30.txt" \
    --model-file "$DIR/mso.txt"
check "evaluate: set quantifier on 30 vertices" 65

# 4. Invalid values: usage errors (64) on both front ends. The CLI's
#    --timeout-ms is the wire's deadline-ms (-1 is kNoLimit on both).
for bad in "rank -1" "rank 4x" "radius -2" "ell -1" "threads -1" \
    "threads +4" "max-work 0" "max-work -5"; do
  # shellcheck disable=SC2086  # $bad is one flag pair
  set -- --$bad
  cli learn --graph "$DIR/g.txt" --data "$DIR/d.txt" "$@"
  wire "$DIR/g.txt" learn --data-file "$DIR/d.txt" "$@"
  check "learn --$bad" 64
done
cli learn --graph "$DIR/g.txt" --data "$DIR/d.txt" --timeout-ms -2
wire "$DIR/g.txt" learn --data-file "$DIR/d.txt" --deadline-ms -2
check "learn: negative deadline" 64
cli eval --graph "$DIR/g.txt" --data "$DIR/d.txt" --model "$DIR/m.txt" \
    --max-work 0
wire "$DIR/g.txt" evaluate --data-file "$DIR/d.txt" \
    --model-file "$DIR/m.txt" --max-work 0
check "evaluate --max-work 0" 64

# 5. A max-work cut: partial (3) with the same best-so-far model.
cli learn --graph "$DIR/g.txt" --data "$DIR/d.txt" --rank 1 --ell 1 \
    --max-work 5
wire "$DIR/g.txt" learn --data-file "$DIR/d.txt" --rank 1 --ell 1 \
    --max-work 5
check_model "learn cut by max-work" 3

# 6. The model-size refusal: 65 on both, no model, and the daemon keeps
#    serving the session.
cli learn --graph "$DIR/g30.txt" --data "$DIR/d30.txt" --rank 3 \
    --timeout-ms 200
wire "$DIR/g30.txt" learn --data-file "$DIR/d30.txt" --rank 3 \
    --deadline-ms 200
check "learn: rank-3 model over the size bound" 65
[ ! -s "$DIR/cli.out" ] || fail "the CLI printed a refused model"
[ ! -e "$DIR/wire.model" ] || fail "the daemon sent a refused model"
client list-models --session "$session" > "$DIR/list.out" 2> /dev/null
grep -q '^count: 0$' "$DIR/list.out" || fail "the refused model registered"
client ping > /dev/null 2>&1 || fail "the daemon stopped answering"

echo "parity test passed ($ROWS rows)"
