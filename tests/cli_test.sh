#!/bin/sh
# End-to-end test of the folearn_cli tool: generate → label → learn →
# save → evaluate → model-check (direct and via the Theorem 1 reduction)
# → profile. Invoked by ctest with the CLI path as $1.
set -eu

CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

# 1. Generate a coloured random tree.
"$CLI" generate --family tree --n 40 --seed 11 --color Red:0.3 \
    --out "$DIR/g.txt"
grep -q '^graph 40$' "$DIR/g.txt"

# 2. Build a dataset: label = vertex is Red (read off the graph file).
reds=$(grep '^color Red' "$DIR/g.txt" | cut -d' ' -f3-)
{
  echo "examples 1"
  v=0
  while [ "$v" -lt 40 ]; do
    label="-"
    for r in $reds; do
      [ "$r" = "$v" ] && label="+"
    done
    echo "$label $v"
    v=$((v + 1))
  done
} > "$DIR/d.txt"

# 3. Learn (brute force, then the nowhere-dense learner).
"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/d.txt" --rank 1 \
    --radius 1 --out "$DIR/m.txt" 2> "$DIR/learn.log"
grep -q 'training error: 0.0000' "$DIR/learn.log"
grep -q '^hypothesis k 1 ell 0$' "$DIR/m.txt"

"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/d.txt" --rank 1 \
    --radius 1 --learner nd --out "$DIR/m_nd.txt" 2> "$DIR/nd.log"
grep -q 'training error: 0.0000' "$DIR/nd.log"

"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/d.txt" --rank 1 \
    --radius 1 --learner sublinear --out "$DIR/m_sub.txt" 2> "$DIR/sub.log"
grep -q 'training error: 0.0000' "$DIR/sub.log"

# 4. Evaluate the saved model.
"$CLI" eval --graph "$DIR/g.txt" --data "$DIR/d.txt" \
    --model "$DIR/m.txt" | grep -q 'error: 0.0000'

# 4b. Colour-guarded quantifiers scan the graph's colour bitsets: the
#     learned model and a colour-guarded one print the same output
#     ungoverned (the VM's fast lane), under a (generous) work budget (its
#     counting lane) and on the interpreted reference engine.
printf 'hypothesis k 1 ell 0\nformula exists y. (Red(y) & (E(x1, y) | x1 = y))\n' \
    > "$DIR/guarded.txt"
for model in m.txt guarded.txt; do
  plain=$("$CLI" eval --graph "$DIR/g.txt" --data "$DIR/d.txt" \
      --model "$DIR/$model")
  for variant in "--max-work 1000000" "--eval interpreted"; do
    # shellcheck disable=SC2086  # $variant is deliberately word-split
    other=$("$CLI" eval --graph "$DIR/g.txt" --data "$DIR/d.txt" \
        --model "$DIR/$model" $variant)
    [ "$plain" = "$other" ]
  done
done

# 5. Model checking, direct and via the learning-oracle reduction, must
#    agree (both say "true": some red vertex exists).
direct=$("$CLI" mc --graph "$DIR/g.txt" --sentence "exists x. Red(x)" || true)
reduced=$("$CLI" mc --graph "$DIR/g.txt" --sentence "exists x. Red(x)" \
    --via-erm 1 2>/dev/null || true)
[ "$direct" = "true" ]
[ "$direct" = "$reduced" ]

# 5b. Both engines agree — the interpreted reference oracle matches the VM
#     default, for both eval and mc; any other --eval value (such as
#     'compiled') exits 64.
for engine in interpreted vm; do
  "$CLI" eval --graph "$DIR/g.txt" --data "$DIR/d.txt" \
      --model "$DIR/m.txt" --eval "$engine" | grep -q 'error: 0.0000'
  verdict=$("$CLI" mc --graph "$DIR/g.txt" --sentence "exists x. Red(x)" \
      --eval "$engine" || true)
  [ "$verdict" = "$direct" ]
done
for bad in fast compiled; do
  rc=0
  "$CLI" mc --graph "$DIR/g.txt" --sentence "exists x. Red(x)" \
      --eval "$bad" 2> "$DIR/badeval.log" || rc=$?
  [ "$rc" -eq 64 ]
  grep -q "\-\-eval must be 'vm' or 'interpreted', got '$bad'" \
      "$DIR/badeval.log"
done

# 5c. A colour the graph does not have is an empty class on both engines,
#     never an abort: a sentence over it is false (exit 2) or true (exit 0),
#     and a model over it evaluates (exit 0) — every example whose label
#     needs the colour is misclassified.
echo "hypothesis k 1 ell 0" > "$DIR/blue.txt"
echo "formula Blue(x1)" >> "$DIR/blue.txt"
for engine in interpreted vm; do
  rc=0
  out=$("$CLI" mc --graph "$DIR/g.txt" --sentence "exists x. Blue(x)" \
      --eval "$engine") || rc=$?
  [ "$rc" -eq 2 ]
  [ "$out" = "false" ]
  out=$("$CLI" mc --graph "$DIR/g.txt" \
      --sentence "forall x. (!Blue(x) | Red(x))" --eval "$engine")
  [ "$out" = "true" ]
  rc=0
  out=$("$CLI" eval --graph "$DIR/g.txt" --data "$DIR/d.txt" \
      --model "$DIR/blue.txt" --eval "$engine") || rc=$?
  [ "$rc" -eq 0 ]
  echo "$out" | grep -q '^error: '
done

# 5d. A model header whose k + ell exceeds the frame bound is malformed
#     input (exit 65), not an allocation of billions of variables.
printf 'hypothesis k 2000000000 ell 0\nformula true\n' > "$DIR/huge.txt"
rc=0
"$CLI" eval --graph "$DIR/g.txt" --data "$DIR/d.txt" \
    --model "$DIR/huge.txt" 2> "$DIR/huge.log" || rc=$?
[ "$rc" -eq 65 ]
grep -q 'k + ell exceeds' "$DIR/huge.log"

# 5e. Input that used to reach a CHECK (exit 134) is validated instead.
#     eval checks the data's arity against the model's k, and the model's
#     parameters against the graph: both exit 65 like folearnd. mc
#     --via-erm on a colour the graph lacks answers what plain mc answers.
printf 'examples 2\n+ 0 1\n- 1 2\n' > "$DIR/pairs.txt"
rc=0
"$CLI" eval --graph "$DIR/g.txt" --data "$DIR/pairs.txt" \
    --model "$DIR/m.txt" 2> "$DIR/arity.log" || rc=$?
[ "$rc" -eq 65 ]
grep -q "does not match the model's k=1" "$DIR/arity.log"
printf 'hypothesis k 1 ell 1\nparams 99\nformula E(x1, y1)\n' \
    > "$DIR/far_param.txt"
rc=0
"$CLI" eval --graph "$DIR/g.txt" --data "$DIR/d.txt" \
    --model "$DIR/far_param.txt" 2> "$DIR/param.log" || rc=$?
[ "$rc" -eq 65 ]
grep -q 'model parameter vertex 99 outside the graph' "$DIR/param.log"
rc=0
verdict=$("$CLI" mc --graph "$DIR/g.txt" --sentence "exists x. Blue(x)" \
    --via-erm 1 2> /dev/null) || rc=$?
[ "$rc" -eq 2 ]
[ "$verdict" = "false" ]
# Data vertices outside the graph (learn and eval) exit 65; a formula with
# a free variable is not a sentence (exit 65, like a parse error and like
# folearnd's query).
printf 'examples 1\n+ 99\n- 0\n' > "$DIR/far_data.txt"
for extra in "learn --out $DIR/unused.txt" "eval --model $DIR/m.txt"; do
  rc=0
  # shellcheck disable=SC2086  # $extra is a subcommand plus one flag
  "$CLI" $extra --graph "$DIR/g.txt" --data "$DIR/far_data.txt" \
      2> "$DIR/data.log" || rc=$?
  [ "$rc" -eq 65 ] || { echo "$extra: expected 65, got $rc" >&2; exit 1; }
  grep -q 'example names vertex 99 outside the graph' "$DIR/data.log"
done
rc=0
"$CLI" mc --graph "$DIR/g.txt" --sentence "Red(x)" 2> "$DIR/free.log" \
    || rc=$?
[ "$rc" -eq 65 ]
grep -q "'x' occurs free" "$DIR/free.log"
# mc --via-erm reduces to FO-ERM, which covers plain FO: a counting or a
# set quantifier exits 65 instead of reaching the reduction.
for sentence in "exists>=2 x. Red(x)" "existsset X. exists x. x in X"; do
  rc=0
  "$CLI" mc --graph "$DIR/g.txt" --sentence "$sentence" --via-erm 1 \
      2> "$DIR/erm.log" || rc=$?
  [ "$rc" -eq 65 ] || {
    echo "mc --via-erm '$sentence': expected 65, got $rc" >&2
    exit 1
  }
  grep -q 'the ERM reduction covers plain FO' "$DIR/erm.log"
done
# A missing --sentence is a usage error, and so is a negative profile
# radius (it used to reach a CHECK in the wcol computation).
rc=0
"$CLI" mc --graph "$DIR/g.txt" 2> "$DIR/nosentence.log" || rc=$?
[ "$rc" -eq 64 ]
grep -q 'missing --sentence' "$DIR/nosentence.log"
rc=0
"$CLI" profile --graph "$DIR/g.txt" --radius -1 2> /dev/null || rc=$?
[ "$rc" -eq 64 ]

# 5f. A model whose text would exceed the model size bound is refused
#     (exit 65) before it is materialised: rank-3 Hintikka formulas expand
#     to gigabytes of text. No model file is written, and the refusal is
#     prompt (the timeout guards against materialising anyway).
"$CLI" generate --family tree --n 30 --seed 3 --color Red:0.3 \
    --out "$DIR/g30.txt"
printf 'examples 1\n+ 1\n- 2\n+ 3\n- 4\n' > "$DIR/d30.txt"
rc=0
timeout 60 "$CLI" learn --graph "$DIR/g30.txt" --data "$DIR/d30.txt" \
    --rank 3 --timeout-ms 200 --out "$DIR/m30.txt" 2> "$DIR/big.log" \
    || rc=$?
[ "$rc" -eq 65 ]
[ ! -e "$DIR/m30.txt" ]
grep -q 'retry with a lower rank or radius' "$DIR/big.log"

# 6. Profile prints the invariants table.
"$CLI" profile --graph "$DIR/g.txt" --radius 2 | grep -q 'degeneracy'

# 7. Flag hygiene: duplicates and unknown flags are rejected (exit 64).
rc=0
"$CLI" learn --graph "$DIR/g.txt" --graph "$DIR/g.txt" \
    --data "$DIR/d.txt" 2> "$DIR/dup.log" || rc=$?
[ "$rc" -eq 64 ]
grep -q "duplicate flag '--graph'" "$DIR/dup.log"

rc=0
"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/d.txt" \
    --bogus 1 2> "$DIR/unknown.log" || rc=$?
[ "$rc" -eq 64 ]
grep -q "unknown flag '--bogus' for command 'learn'" "$DIR/unknown.log"

rc=0
"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/d.txt" \
    --max-work 0 2> /dev/null || rc=$?
[ "$rc" -eq 64 ]

rc=0
"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/d.txt" \
    --max-work abc 2> "$DIR/badnum.log" || rc=$?
[ "$rc" -eq 64 ]
grep -q "invalid value 'abc' for flag '--max-work'" "$DIR/badnum.log"

# 8. Resource limits: a generous work budget completes normally (exit 0);
#    a tiny one degrades gracefully — best-so-far model, exit 3.
"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/d.txt" --rank 1 \
    --radius 1 --max-work 100000000 --out "$DIR/m_full.txt" 2> /dev/null
cmp -s "$DIR/m.txt" "$DIR/m_full.txt"

rc=0
"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/d.txt" --rank 1 \
    --radius 1 --ell 1 --max-work 25 --out "$DIR/m_cut.txt" \
    2> "$DIR/cut.log" || rc=$?
[ "$rc" -eq 3 ]
grep -q 'resource limit hit (budget-exhausted)' "$DIR/cut.log"
grep -q '^hypothesis ' "$DIR/m_cut.txt"

# Same budget twice: the degraded model is deterministic.
"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/d.txt" --rank 1 \
    --radius 1 --ell 1 --max-work 25 --out "$DIR/m_cut2.txt" \
    2> /dev/null || true
cmp -s "$DIR/m_cut.txt" "$DIR/m_cut2.txt"

# A zero deadline cuts every learner before its first candidate completes:
# each still writes a loadable model (candidate 0's partial vote) and
# exits 3, never aborting.
for learner in brute sublinear nd; do
  rc=0
  "$CLI" learn --graph "$DIR/g.txt" --data "$DIR/d.txt" --rank 1 \
      --radius 1 --ell 1 --learner "$learner" --timeout-ms 0 \
      --out "$DIR/m_t0_$learner.txt" 2> "$DIR/t0_$learner.log" || rc=$?
  [ "$rc" -eq 3 ] || { echo "$learner --timeout-ms 0: exit $rc" >&2; exit 1; }
  grep -q 'resource limit hit (deadline-exceeded)' "$DIR/t0_$learner.log"
  "$CLI" eval --graph "$DIR/g.txt" --data "$DIR/d.txt" \
      --model "$DIR/m_t0_$learner.txt" > /dev/null
done

# An empty training set gives every learner the parameter-free model.
echo "examples 1" > "$DIR/d_empty.txt"
for learner in brute sublinear nd; do
  "$CLI" learn --graph "$DIR/g.txt" --data "$DIR/d_empty.txt" --rank 1 \
      --radius 1 --learner "$learner" --out "$DIR/m_empty_$learner.txt" \
      2> /dev/null
  grep -q '^hypothesis k 0 ell 0$' "$DIR/m_empty_$learner.txt"
done

# mc under a tiny budget refuses to report a truth value (exit 3).
rc=0
out=$("$CLI" mc --graph "$DIR/g.txt" \
    --sentence "forall x. exists y. E(x, y)" --max-work 2 \
    2> /dev/null) || rc=$?
[ "$rc" -eq 3 ]
[ "$out" = "indeterminate" ]

# 9. Input-file failure modes use sysexits codes: missing file 66
#    (EX_NOINPUT), malformed contents 65 (EX_DATAERR) — diagnostics name
#    the path and the offending line, never a crash.
rc=0
"$CLI" learn --graph "$DIR/absent.txt" --data "$DIR/d.txt" \
    2> "$DIR/noinput.log" || rc=$?
[ "$rc" -eq 66 ]
grep -q "absent.txt" "$DIR/noinput.log"

printf 'graph zz\n' > "$DIR/badg.txt"
rc=0
"$CLI" learn --graph "$DIR/badg.txt" --data "$DIR/d.txt" \
    2> "$DIR/badg.log" || rc=$?
[ "$rc" -eq 65 ]
grep -q "badg.txt: line 1:" "$DIR/badg.log"

rc=0
"$CLI" eval --graph "$DIR/g.txt" --data "$DIR/d.txt" \
    --model "$DIR/badg.txt" 2> /dev/null || rc=$?
[ "$rc" -eq 65 ]

# 10. Checkpoint/resume flag matrix. A hard dataset (labels periodic in
#     the vertex id, so no zero-error hypothesis exists and the scan runs
#     all candidate segments) exercises save, crash, and resume.
{
  echo "examples 1"
  v=0
  while [ "$v" -lt 40 ]; do
    if [ $((v % 7)) -lt 3 ]; then echo "+ $v"; else echo "- $v"; fi
    v=$((v + 1))
  done
} > "$DIR/dh.txt"

# Reference run, then a crash-injected checkpointing run (exit 70), then
# a resume that must reproduce the reference model byte-for-byte.
"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/dh.txt" --rank 1 \
    --radius 1 --ell 2 --out "$DIR/ck_ref.model" 2> "$DIR/ck_ref.log"
rc=0
"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/dh.txt" --rank 1 \
    --radius 1 --ell 2 --checkpoint "$DIR/c.ckpt" --crash-at-save 2 \
    --out "$DIR/ck_crash.model" 2> "$DIR/crash.log" || rc=$?
[ "$rc" -eq 70 ]
grep -q 'crash injection' "$DIR/crash.log"
grep -q '^folearn-checkpoint v1$' "$DIR/c.ckpt"

"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/dh.txt" --rank 1 \
    --radius 1 --ell 2 --resume "$DIR/c.ckpt" \
    --out "$DIR/ck_res.model" 2> "$DIR/ck_res.log"
cmp -s "$DIR/ck_ref.model" "$DIR/ck_res.model"
cmp -s "$DIR/ck_ref.log" "$DIR/ck_res.log"

# Resuming with a different thread count changes nothing.
"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/dh.txt" --rank 1 \
    --radius 1 --ell 2 --resume "$DIR/c.ckpt" --threads 4 \
    --out "$DIR/ck_res4.model" 2> /dev/null
cmp -s "$DIR/ck_ref.model" "$DIR/ck_res4.model"

# --resume failure matrix: missing file 66; truncated/corrupt 65;
# version skew 65; different problem instance (fingerprint) 65;
# different learner 65; checkpoint modifiers without --checkpoint 64.
rc=0
"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/dh.txt" \
    --resume "$DIR/absent.ckpt" 2> /dev/null || rc=$?
[ "$rc" -eq 66 ]

head -c 60 "$DIR/c.ckpt" > "$DIR/trunc.ckpt"
rc=0
"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/dh.txt" --rank 1 \
    --radius 1 --ell 2 --resume "$DIR/trunc.ckpt" \
    2> "$DIR/trunc.log" || rc=$?
[ "$rc" -eq 65 ]
grep -q 'truncated' "$DIR/trunc.log"

sed 's/^folearn-checkpoint v1$/folearn-checkpoint v9/' "$DIR/c.ckpt" \
    > "$DIR/v9.ckpt"
rc=0
"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/dh.txt" --rank 1 \
    --radius 1 --ell 2 --resume "$DIR/v9.ckpt" 2> "$DIR/v9.log" || rc=$?
[ "$rc" -eq 65 ]
grep -q "unsupported checkpoint version 'v9'" "$DIR/v9.log"

rc=0
"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/dh.txt" --rank 2 \
    --radius 1 --ell 2 --resume "$DIR/c.ckpt" 2> "$DIR/fp.log" || rc=$?
[ "$rc" -eq 65 ]
grep -q 'fingerprint' "$DIR/fp.log"

rc=0
"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/dh.txt" --rank 1 \
    --radius 1 --ell 2 --learner nd --resume "$DIR/c.ckpt" \
    2> /dev/null || rc=$?
[ "$rc" -eq 65 ]

rc=0
"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/dh.txt" \
    --checkpoint-every-ms 50 2> /dev/null || rc=$?
[ "$rc" -eq 64 ]

rc=0
"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/dh.txt" \
    --crash-at-save 1 2> /dev/null || rc=$?
[ "$rc" -eq 64 ]

# 11. --cache-bytes is a pure memory knob: a tiny budget must not change
#     the learned model.
"$CLI" learn --graph "$DIR/g.txt" --data "$DIR/dh.txt" --rank 1 \
    --radius 1 --ell 2 --cache-bytes 1024 --out "$DIR/cb.model" \
    2> /dev/null
cmp -s "$DIR/ck_ref.model" "$DIR/cb.model"

# 12. Numeric flag audit: every malformed value exits 64 with a
#     diagnostic naming the flag — never a silent truncation, never an
#     uncaught parse exception.
expect_64() {
  log="$DIR/f64.log"
  rc=0
  "$CLI" "$@" 2> "$log" || rc=$?
  [ "$rc" -eq 64 ] || { echo "expected 64, got $rc: $*" >&2; exit 1; }
  [ -s "$log" ] || { echo "no diagnostic for: $*" >&2; exit 1; }
}

# Trailing garbage and int-overflowing values in an int flag.
expect_64 learn --graph "$DIR/g.txt" --data "$DIR/d.txt" --threads 4x
grep -q "invalid value '4x' for flag '--threads'" "$DIR/f64.log"
expect_64 learn --graph "$DIR/g.txt" --data "$DIR/d.txt" \
    --threads 4294967298
grep -q "invalid value '4294967298' for flag '--threads'" "$DIR/f64.log"
expect_64 learn --graph "$DIR/g.txt" --data "$DIR/d.txt" --threads -1
# Integers are strict decimal: no leading whitespace, no '+' sign.
expect_64 learn --graph "$DIR/g.txt" --data "$DIR/d.txt" --threads " 4"
grep -q "invalid value ' 4' for flag '--threads'" "$DIR/f64.log"
expect_64 learn --graph "$DIR/g.txt" --data "$DIR/d.txt" --threads +4

# int64 overflow is caught by the parser, not wrapped.
expect_64 learn --graph "$DIR/g.txt" --data "$DIR/d.txt" \
    --max-work 99999999999999999999

# Negative budgets/arities are typos, not sentinels.
expect_64 learn --graph "$DIR/g.txt" --data "$DIR/d.txt" --cache-bytes -1
grep -q -- '--cache-bytes must be >= 0' "$DIR/f64.log"
# --cache-bytes budgets learn's ball cache; eval and mc have no cache.
expect_64 eval --graph "$DIR/g.txt" --data "$DIR/d.txt" \
    --model "$DIR/m.txt" --cache-bytes -1
grep -q "unknown flag '--cache-bytes' for command 'eval'" "$DIR/f64.log"
expect_64 mc --graph "$DIR/g.txt" --sentence "exists x. Red(x)" \
    --cache-bytes 0
grep -q "unknown flag '--cache-bytes' for command 'mc'" "$DIR/f64.log"
expect_64 learn --graph "$DIR/g.txt" --data "$DIR/d.txt" --ell -1
expect_64 learn --graph "$DIR/g.txt" --data "$DIR/d.txt" --rank -1
expect_64 learn --graph "$DIR/g.txt" --data "$DIR/d.txt" --radius -2
expect_64 learn --graph "$DIR/g.txt" --data "$DIR/d.txt" --epsilon 1.5
expect_64 learn --graph "$DIR/g.txt" --data "$DIR/d.txt" --epsilon 0

# generate validates its distribution parameters too.
expect_64 generate --family tree --n 0 --out "$DIR/zz.txt"
expect_64 generate --family gnp --n 10 --p 1.5 --out "$DIR/zz.txt"
expect_64 generate --family tree --n 10 --color Red:x --out "$DIR/zz.txt"
expect_64 generate --family nosuch --n 10 --out "$DIR/zz.txt"

# 13. SIGINT/SIGTERM cancel the governed search cooperatively: the run
#     exits through the normal best-so-far path (exit 3), writes a valid
#     model, and leaves a loadable final checkpoint behind.
"$CLI" generate --family tree --n 300 --seed 7 --color Red:0.4 \
    --out "$DIR/big.txt"
{
  echo "examples 1"
  v=0
  while [ "$v" -lt 300 ]; do
    if [ $((v % 7)) -lt 3 ]; then echo "+ $v"; else echo "- $v"; fi
    v=$((v + 1))
  done
} > "$DIR/bigd.txt"

for sig in INT TERM; do
  rc=0
  "$CLI" learn --graph "$DIR/big.txt" --data "$DIR/bigd.txt" --rank 1 \
      --radius 1 --ell 2 --checkpoint "$DIR/sig.ckpt" \
      --out "$DIR/sig.model" 2> "$DIR/sig.log" &
  pid=$!
  sleep 1
  kill -"$sig" "$pid" 2> /dev/null || true
  wait "$pid" || rc=$?
  [ "$rc" -eq 3 ] || { echo "SIG$sig: expected exit 3, got $rc" >&2; exit 1; }
  grep -q 'resource limit hit (cancelled)' "$DIR/sig.log"
  grep -q '^hypothesis ' "$DIR/sig.model"
  grep -q '^folearn-checkpoint v1$' "$DIR/sig.ckpt"
  rm -f "$DIR/sig.ckpt" "$DIR/sig.model"
done

# The final checkpoint from a cancelled run resumes cleanly (here under a
# small work budget, so the resumed leg itself degrades with exit 3
# rather than running the full scan — the point is that the checkpoint
# loads and is compatible).
rc=0
"$CLI" learn --graph "$DIR/big.txt" --data "$DIR/bigd.txt" --rank 1 \
    --radius 1 --ell 2 --checkpoint "$DIR/sig2.ckpt" \
    --out "$DIR/sig2.model" 2> /dev/null &
pid=$!
sleep 1
kill -INT "$pid" 2> /dev/null || true
wait "$pid" || rc=$?
[ "$rc" -eq 3 ]
rc=0
"$CLI" learn --graph "$DIR/big.txt" --data "$DIR/bigd.txt" --rank 1 \
    --radius 1 --ell 2 --resume "$DIR/sig2.ckpt" --max-work 25 \
    --out "$DIR/sig2b.model" 2> /dev/null || rc=$?
[ "$rc" -eq 3 ]
grep -q '^hypothesis ' "$DIR/sig2b.model"

echo "CLI_TEST_OK"
