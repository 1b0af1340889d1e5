#!/bin/sh
# Runs every bench_* binary with --json and aggregates the per-binary
# JSONL records into one JSON array.
#
# Usage: tools/run_benches.sh [build_dir] [output.json]
#   build_dir   directory containing the bench binaries (default: build)
#   output.json aggregated report (default: BENCH_parallel.json in the
#               repo root)
#
# bench_server measures the folearnd daemon rather than the batch paths;
# its records are split out into BENCH_server.json next to output.json,
# and the run FAILS if the black-pressure-tier record shows any
# substantive request answered with anything but a retry-safe shed — a
# daemon that computes at black is one OOM kill from losing every
# session. Every record also carries peak_rss_bytes (the binary's RSS
# high-water mark), so --compare diffs catch memory regressions too.
# bench_vm (the bytecode-VM E9 grid) is likewise split into BENCH_vm.json,
# and the run FAILS if any of its E9 rows has the VM slower than the
# reference interpreter — the VM's whole reason to exist is that row. bench_graph_scale
# (the million-vertex CSR/.fog sweep) splits into BENCH_graph.json, and
# the run FAILS if the memory-mapped .fog load at the largest measured n
# is not at least 10x faster than the text parse — the binary format's
# whole reason to exist is that row.
#
# Compare mode: tools/run_benches.sh --compare baseline.json other.json
#   joins two aggregated reports on (bench, config) and prints a per-row
#   speedup table (baseline_ms / other_ms > 1 means `other` is faster).
#   Reports carrying vm/e9_grid records additionally get an
#   interpreter-vs-VM speedup table per file, with the same VM ≥
#   interpreter gate applied to `other` (a regression exits non-zero).
#
# A binary that fails (a VIOLATION self-check, a crash) aborts the whole
# run immediately — a partial aggregate silently missing benches has
# repeatedly been mistaken for a complete one. Each bench's JSONL is also
# validated (object-per-line, required fields) before the aggregate is
# declared good. Human-readable tables still go to stdout.

set -u

repo_root=$(dirname "$0")/..

# Interpreter-vs-VM speedup columns from a report's vm/e9_grid records
# (one row per n), printed only when such records exist. With `enforce`
# non-empty, exits 1 if any row has the VM slower than the interpreter.
vm_speedup_table() {
  file=$1
  enforce=${2:-}
  grep -q '"vm/e9_grid"' "$file" 2>/dev/null || return 0
  echo ""
  echo "interpreter-vs-VM E9 grid speedups in $file:"
  awk -v enforce="$enforce" '
    function field(line, name,    rest) {
      rest = line
      if (!sub(".*\"" name "\": \"?", "", rest)) return ""
      sub("\"?[,}].*", "", rest)
      return rest
    }
    /"vm\/e9_grid"/ {
      config = field($0, "config")
      ms = field($0, "wall_ms") + 0
      n = config; sub(".*n=", "", n)
      engine = config; sub(".*engine=", "", engine); sub(" .*", "", engine)
      if (engine == "interpreted") interp[n] = ms
      if (engine == "vm") { if (!(n in vm)) order[cnt++] = n; vm[n] = ms }
    }
    END {
      printf "%-6s %12s %12s %10s\n", "n", "interp ms", "vm ms", "vm/interp"
      bad = 0
      for (i = 0; i < cnt; i++) {
        n = order[i]
        if (!(n in interp)) continue
        ratio = vm[n] > 0 ? interp[n] / vm[n] : 0
        printf "%-6s %12.3f %12.3f %9.2fx\n", n, interp[n], vm[n], ratio
        if (vm[n] > interp[n]) bad = 1
      }
      if (bad && enforce != "") {
        print "VM E9 row regressed below the interpreter" > "/dev/stderr"
        exit 1
      }
    }
  ' "$file" || return 1
}

# Text-parse vs mmap load columns from a report's graph_scale/load
# records (one row per n). With `enforce` non-empty, exits 1 if the fog
# load at the largest n is not at least 10x faster than the text parse.
graph_load_table() {
  file=$1
  enforce=${2:-}
  grep -q '"graph_scale/load"' "$file" 2>/dev/null || return 0
  echo ""
  echo "text-vs-mmap graph load speedups in $file:"
  awk -v enforce="$enforce" '
    function field(line, name,    rest) {
      rest = line
      if (!sub(".*\"" name "\": \"?", "", rest)) return ""
      sub("\"?[,}].*", "", rest)
      return rest
    }
    /"graph_scale\/load"/ {
      config = field($0, "config")
      ms = field($0, "wall_ms") + 0
      n = config; sub(".*n=", "", n)
      mode = config; sub(".*mode=", "", mode); sub(" .*", "", mode)
      if (mode == "text") text[n] = ms
      if (mode == "fog") { if (!(n in fog)) order[cnt++] = n; fog[n] = ms }
      if (n + 0 > max_n) max_n = n + 0
    }
    END {
      printf "%-9s %12s %12s %9s\n", "n", "text ms", "fog ms", "text/fog"
      bad = 0
      for (i = 0; i < cnt; i++) {
        n = order[i]
        if (!(n in text)) continue
        ratio = fog[n] > 0 ? text[n] / fog[n] : 0
        printf "%-9s %12.3f %12.3f %8.2fx\n", n, text[n], fog[n], ratio
        if (n + 0 == max_n && ratio < 10) bad = 1
      }
      if (bad && enforce != "") {
        print "mmap .fog load is under 10x the text parse at the " \
              "largest n" > "/dev/stderr"
        exit 1
      }
    }
  ' "$file" || return 1
}

if [ "${1:-}" = "--compare" ]; then
  baseline=${2:-}
  other=${3:-}
  if [ -z "$baseline" ] || [ -z "$other" ]; then
    echo "usage: run_benches.sh --compare baseline.json other.json" >&2
    exit 64
  fi
  for f in "$baseline" "$other"; do
    if [ ! -f "$f" ]; then
      echo "run_benches.sh: '$f' not found" >&2
      exit 1
    fi
  done
  # The reports are the writer's own one-record-per-line output wrapped in
  # [ ... ], so a line-oriented awk join on (bench, config) is reliable.
  awk '
    function field(line, name,    rest) {
      rest = line
      if (!sub(".*\"" name "\": \"?", "", rest)) return ""
      sub("\"?[,}].*", "", rest)
      return rest
    }
    /"bench"/ {
      key = field($0, "bench") "|" field($0, "config")
      ms = field($0, "wall_ms") + 0
      if (NR == FNR) { base[key] = ms; order[n++] = key; next }
      if (key in base) seen[key] = ms
    }
    END {
      printf "%-58s %12s %12s %9s\n", "bench | config", "baseline ms", \
             "other ms", "speedup"
      for (i = 0; i < n; i++) {
        key = order[i]
        if (!(key in seen)) continue
        # Parenthesised: a bare ">" in a printf list redirects output.
        printf "%-58s %12.3f %12.3f %8.2fx\n", key, base[key], seen[key], \
               (seen[key] > 0 ? base[key] / seen[key] : 0)
      }
    }
  ' "$baseline" "$other"
  vm_speedup_table "$baseline" || exit 1
  vm_speedup_table "$other" enforce || exit 1
  graph_load_table "$baseline" || exit 1
  graph_load_table "$other" enforce || exit 1
  exit 0
fi
build_dir=${1:-"$repo_root/build"}
out=${2:-"$repo_root/BENCH_parallel.json"}
server_out=$(dirname "$out")/BENCH_server.json
vm_out=$(dirname "$out")/BENCH_vm.json
graph_out=$(dirname "$out")/BENCH_graph.json

if [ ! -d "$build_dir" ]; then
  echo "run_benches.sh: build dir '$build_dir' not found" >&2
  exit 1
fi

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# Every record line must be a single JSON object carrying the fields the
# aggregate and --compare mode rely on. Pure awk (no jq in the image):
# brace-delimited, balanced quotes, and the two join keys present.
validate_jsonl() {
  awk '
    {
      if ($0 !~ /^\{.*\}$/) {
        printf "line %d is not a JSON object: %s\n", NR, $0; bad = 1; exit 1
      }
      if ($0 !~ /"bench"/ || $0 !~ /"wall_ms"/) {
        printf "line %d lacks bench/wall_ms: %s\n", NR, $0; bad = 1; exit 1
      }
      quotes = gsub(/"/, "\"")
      if (quotes % 2 != 0) {
        printf "line %d has unbalanced quotes\n", NR; bad = 1; exit 1
      }
      n++
    }
    END { if (!bad && n == 0) { print "no records"; exit 1 } }
  ' "$1"
}

ran=0
for bench_path in "$build_dir"/bench/bench_*; do
  [ -f "$bench_path" ] && [ -x "$bench_path" ] || continue
  bench=$(basename "$bench_path")
  echo "=== $bench ==="
  if ! "$bench_path" --json "$tmpdir/$bench.jsonl"; then
    echo "run_benches.sh: $bench exited non-zero, aborting" >&2
    exit 1
  fi
  if ! err=$(validate_jsonl "$tmpdir/$bench.jsonl"); then
    echo "run_benches.sh: $bench wrote invalid JSONL: $err" >&2
    exit 1
  fi
  ran=$((ran + 1))
done

if [ "$ran" -eq 0 ]; then
  echo "run_benches.sh: no bench binaries found under $build_dir/bench" >&2
  exit 1
fi

# JSONL -> one JSON array. Pure shell: join all record lines with commas.
write_array() {
  target=$1
  shift
  {
    printf '[\n'
    first=1
    for jsonl in "$@"; do
      [ -f "$jsonl" ] || continue
      while IFS= read -r line; do
        [ -n "$line" ] || continue
        if [ "$first" -eq 1 ]; then first=0; else printf ',\n'; fi
        printf '  %s' "$line"
      done < "$jsonl"
    done
    printf '\n]\n'
  } > "$target"
  # The array must open, close, and hold at least one record.
  if ! head -1 "$target" | grep -q '^\[' \
      || ! tail -1 "$target" | grep -q '^\]' \
      || ! grep -q '"bench"' "$target"; then
    echo "run_benches.sh: aggregate $target is not a JSON array" >&2
    exit 1
  fi
}

# The daemon report is split from the batch report (tmpdir paths come
# from mktemp, so the unquoted list is safe).
main_files=""
for jsonl in "$tmpdir"/*.jsonl; do
  [ -f "$jsonl" ] || continue
  case $(basename "$jsonl") in
    bench_server.jsonl) continue ;;
    bench_vm.jsonl) continue ;;
    bench_graph_scale.jsonl) continue ;;
  esac
  main_files="$main_files $jsonl"
done
write_array "$out" $main_files
echo "wrote $out ($ran benches, $(grep -c '"bench"' "$out") records)"

if [ -f "$tmpdir/bench_server.jsonl" ]; then
  write_array "$server_out" "$tmpdir/bench_server.jsonl"
  echo "wrote $server_out ($(grep -c '"bench"' "$server_out") records)"
  # Black-tier contract: the pressure bench counts substantive responses
  # that were NOT a retry-safe shed into this record's work_units. Any
  # non-zero count fails the whole run.
  if ! awk '
    function field(line, name,    rest) {
      rest = line
      if (!sub(".*\"" name "\": \"?", "", rest)) return ""
      sub("\"?[,}].*", "", rest)
      return rest
    }
    /"server\/pressure_black_nonshed"/ {
      seen = 1
      if (field($0, "work_units") + 0 != 0) bad = 1
    }
    END {
      if (!seen) { print "no black-tier record in report" > "/dev/stderr"
                   exit 1 }
      if (bad) { print "black tier answered substantive work instead " \
                       "of shedding" > "/dev/stderr"
                 exit 1 }
    }
  ' "$server_out"; then
    echo "run_benches.sh: black-pressure-tier shed contract violated" >&2
    exit 1
  fi
fi

if [ -f "$tmpdir/bench_vm.jsonl" ]; then
  write_array "$vm_out" "$tmpdir/bench_vm.jsonl"
  echo "wrote $vm_out ($(grep -c '"bench"' "$vm_out") records)"
  if ! vm_speedup_table "$vm_out" enforce; then
    echo "run_benches.sh: VM E9 grid regressed below the interpreter" >&2
    exit 1
  fi
fi

if [ -f "$tmpdir/bench_graph_scale.jsonl" ]; then
  write_array "$graph_out" "$tmpdir/bench_graph_scale.jsonl"
  echo "wrote $graph_out ($(grep -c '"bench"' "$graph_out") records)"
  if ! graph_load_table "$graph_out" enforce; then
    echo "run_benches.sh: .fog mmap load floor violated" >&2
    exit 1
  fi
fi
