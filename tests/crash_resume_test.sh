#!/bin/sh
# Crash-loop harness for the checkpoint/resume subsystem: a learn run is
# repeatedly killed by injected crash points (--crash-at-save, exit 70),
# resumed from its checkpoint, and the survivor's model + diagnostics are
# compared byte-for-byte against an uninterrupted reference run. Covers
# every learner of the shared parameter sweep (brute, sublinear, nd), each
# both ungoverned and under a --max-work budget (the governor ledger must
# be restored so the budget trips at the original cut point). nd's resumed
# runs replay candidate collection ungoverned before continuing the scan.
#
# Usage: crash_resume_test.sh <path-to-folearn_cli> [threads]
set -eu

CLI="$1"
THREADS="${2:-1}"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

# Inputs: coloured trees and labels no rank-1 hypothesis fits exactly
# (periodic in the vertex id), so the scans cannot early-stop at zero
# error and must walk their whole candidate range.
make_inputs() {
  n="$1"
  "$CLI" generate --family tree --n "$n" --seed 11 --color Red:0.3 \
      --out "$DIR/g$n.txt"
  {
    echo "examples 1"
    v=0
    while [ "$v" -lt "$n" ]; do
      if [ $((v % 7)) -lt 3 ]; then echo "+ $v"; else echo "- $v"; fi
      v=$((v + 1))
    done
  } > "$DIR/d$n.txt"
}
make_inputs 60
make_inputs 70

# One learn invocation of the learner under test; extra flags follow.
learn() {
  "$CLI" learn --graph "$DIR/g$N.txt" --data "$DIR/d$N.txt" --rank 1 \
      --radius 1 --ell 2 --learner "$LEARNER" --threads "$THREADS" "$@"
}

# Runs learn to completion through a crash-resume loop. $1: extra flags
# for every invocation; $2: output prefix. Each process is allowed two
# checkpoint saves, then dies with exit 70; the next iteration resumes.
# Progress (one 64-candidate segment per save) guarantees termination; the
# iteration bound is the backstop that turns a livelock into a failure.
crash_loop() {
  extra="$1"
  prefix="$2"
  ckpt="$DIR/$prefix.ckpt"
  rc=0
  learn $extra --checkpoint "$ckpt" --crash-at-save 2 \
      --out "$DIR/$prefix.model" 2> "$DIR/$prefix.log" || rc=$?
  iterations=0
  while [ "$rc" -eq 70 ]; do
    iterations=$((iterations + 1))
    if [ "$iterations" -gt 40 ]; then
      echo "FAIL: $prefix crash loop did not terminate after 40 resumes" >&2
      exit 1
    fi
    rc=0
    learn $extra --checkpoint "$ckpt" --crash-at-save 2 --resume "$ckpt" \
        --out "$DIR/$prefix.model" 2> "$DIR/$prefix.log" || rc=$?
  done
  if [ "$iterations" -lt 1 ]; then
    echo "FAIL: $prefix never crashed — injection did not fire" >&2
    exit 1
  fi
  echo "$prefix: $iterations resumes, final rc=$rc"
  return "$rc"
}

# $1: learner; $2: graph order; $3: a --max-work budget that trips inside
# the learner's final scan (for nd: after candidate collection).
check_learner() {
  LEARNER="$1"
  N="$2"
  budget="$3"

  # 1. Ungoverned: the crash-looped run must finish cleanly (exit 0) and
  #    reproduce the uninterrupted model and training-error line exactly.
  learn --out "$DIR/$LEARNER.ref.model" 2> "$DIR/$LEARNER.ref.log"
  crash_loop "" "$LEARNER.plain"
  cmp "$DIR/$LEARNER.ref.model" "$DIR/$LEARNER.plain.model"
  cmp "$DIR/$LEARNER.ref.log" "$DIR/$LEARNER.plain.log"

  # 2. Governed: with a --max-work budget that trips mid-scan, the resumed
  #    runs must land on the byte-identical degraded model, the same
  #    "resource limit hit ... after N work units" line, and exit 3.
  rc=0
  learn --max-work "$budget" --out "$DIR/$LEARNER.gref.model" \
      2> "$DIR/$LEARNER.gref.log" || rc=$?
  [ "$rc" -eq 3 ]
  grep -q 'resource limit hit (budget-exhausted)' "$DIR/$LEARNER.gref.log"

  rc=0
  crash_loop "--max-work $budget" "$LEARNER.governed" || rc=$?
  [ "$rc" -eq 3 ]
  cmp "$DIR/$LEARNER.gref.model" "$DIR/$LEARNER.governed.model"
  cmp "$DIR/$LEARNER.gref.log" "$DIR/$LEARNER.governed.log"
}

check_learner brute 60 30000
check_learner sublinear 60 30000
# nd collects 94 candidates on this instance (two 64-candidate segments)
# after about 18000 work units of collection.
check_learner nd 70 22000

echo "CRASH_RESUME_TEST_OK threads=$THREADS"
