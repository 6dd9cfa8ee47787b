#!/usr/bin/env bash
# Tier-1 verification plus the determinism regression (run twice), the
# performance trajectory record, and an observability smoke-check.
#
# This is the exact line ROADMAP.md documents as "Tier-1 verify", followed
# by two back-to-back runs of the analyzer determinism suite (which itself
# compares ordered report lists across threads {1,2,4,8} x query-cache
# {on,off} x tracing {off,on}, and drives the SCC scheduler through deep
# chains and wide fan-ins at 8 workers); running the binary twice catches
# run-to-run nondeterminism that a single in-process comparison cannot
# (e.g. ASLR-dependent container ordering). The same suite then runs under
# ThreadSanitizer (a `build-tsan` tree configured through CMAKE_CXX_FLAGS),
# since the scheduler's ready queue and every structure its workers share
# are exactly what TSan checks; the summary suite runs there too, and
# under ASan+UBSan, for the defaults built on first lookup, and so does
# the smt cache suite, for the shared term pool (under LeakSanitizer
# its never-freed nodes must stay reachable, not leak).
# It then runs the robustness chaos suite (fault injection + budgets),
# once normally and once under ASan+UBSan (the `asan` preset's build
# tree, building only the chaos test), runs the tree-executor unit suite
# under the same sanitizers — including the engine differential
# (TreeExecDifferential: executeFunctionTree vs its enumerate-then-replay
# reference on every function of the determinism corpus) — since the COW
# store and persistent condition chain are exactly the kind of shared-
# ownership code ASan exists for, runs the summary-compaction unit
# suite plus the compaction/interning determinism differentials under
# ASan (the sharded instantiation cache is shared mutable state), runs
# the triage suite under ASan (per-unit higher-precision module lifetime),
# runs the call-graph and classifier suites under ASan (the call graph
# borrows the module's names), runs the frontend suites, the IR suite and
# the seeded frontend fuzz under ASan (tokens view the source buffer; the
# AST and IR hold interned names), runs the end-to-end, injection and
# Python/C baseline suites under ASan (frozen IR: call arguments and
# blocks are views into each function's one allocation),
# refreshes BENCH_performance.json
# at the repo root (the microbenchmarks themselves are skipped via a
# non-matching filter — only the trajectory-record workload runs,
# including the provenance journal off/on overhead pair plus the
# durable-store cold/warm resume differential), exercises the tracing path end to end
# on a small DPM corpus, round-trips the provenance journal through
# `ridc explain` and `ridc diff-runs` (including a torn-tail journal),
# and SIGKILLs a store-backed `ridc` scan mid-run to prove `--resume`
# reproduces an uninterrupted run's reports byte for byte (and that a
# further resume with no edits leaves the store's log untouched).
#
# Usage: scripts/check.sh        (from anywhere inside the repo)
# CMake equivalent: cmake --build build --target check

set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

if command -v clang-tidy > /dev/null; then
    echo "== clang-tidy (src/, .clang-tidy check set) =="
    cmake --build build --target lint
else
    echo "== clang-tidy skipped (not installed) =="
fi

echo "== determinism suite, run 1/2 =="
./build/tests/test_analyzer_determinism
echo "== determinism suite, run 2/2 =="
./build/tests/test_analyzer_determinism

# The SCC scheduler's workers share the ready queue, the summary db, the
# query and instantiation caches and the metrics registry; TSan checks
# every access the determinism suite and the scheduler tests make. The
# summary suite adds concurrent first lookups of one defaulted function,
# which race to build its summary. The smt cache suite races eight
# threads building the same terms in the process-wide term pool.
echo "== sanitizer smoke (TSan determinism suite + SCC scheduler + summary db + term pool) =="
cmake -B build-tsan -S . -DCMAKE_CXX_FLAGS=-fsanitize=thread \
    -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread
cmake --build build-tsan -j --target test_analyzer_determinism \
    --target test_summary --target test_smt_cache
./build-tsan/tests/test_analyzer_determinism
./build-tsan/tests/test_summary
./build-tsan/tests/test_smt_cache

echo "== robustness chaos suite =="
./build/tests/test_robustness_chaos

echo "== sanitizer smoke (ASan+UBSan chaos run) =="
cmake -B build-asan -S . -DRID_SANITIZE=ON
cmake --build build-asan -j --target test_robustness_chaos
./build-asan/tests/test_robustness_chaos

# A defaulted function's summary is built on its first lookup and must
# keep its address; ASan checks that no caller reads a freed summary.
echo "== sanitizer smoke (ASan+UBSan summary db) =="
cmake --build build-asan -j --target test_summary
./build-asan/tests/test_summary

# Terms are pooled for the life of the process; the pool keeps every
# node reachable, so LeakSanitizer must report nothing.
echo "== sanitizer smoke (ASan+UBSan term pool) =="
cmake --build build-asan -j --target test_smt_cache
./build-asan/tests/test_smt_cache

echo "== sanitizer smoke (ASan+UBSan durable store) =="
cmake --build build-asan -j --target test_store
./build-asan/tests/test_store

echo "== sanitizer smoke (ASan+UBSan prefix-sharing engine) =="
cmake --build build-asan -j --target test_analysis_tree_exec
# The whole suite, so the engine differential (TreeExecDifferential.*)
# cannot drop out of the run unnoticed the way a stale filter would.
./build-asan/tests/test_analysis_tree_exec

# The sharded instantiation cache is cross-thread shared mutable state
# (per-shard mutexes guarding LRU lists), and compaction runs solver
# proofs over freshly merged formulas — both are prime ASan territory.
echo "== sanitizer smoke (ASan+UBSan compaction + interning) =="
cmake --build build-asan -j --target test_summary_compact \
    --target test_analyzer_determinism
./build-asan/tests/test_summary_compact
./build-asan/tests/test_analyzer_determinism \
    --gtest_filter='*Compaction*:*Interning*'

# The triage pass lowers each reporting unit on demand and frees it once
# its last reported function has run; ASan checks that no higher-
# precision IR is touched after its unit is gone.
echo "== sanitizer smoke (ASan+UBSan per-unit triage lowering) =="
cmake --build build-asan -j --target test_triage
./build-asan/tests/test_triage

# The call graph borrows the module's function names instead of copying
# them, and the classifier indexes categories by call-graph node; ASan
# checks that neither outlives or over-indexes the module it reads.
echo "== sanitizer smoke (ASan+UBSan call graph + classifier) =="
cmake --build build-asan -j --target test_analysis_graphs \
    --target test_analysis_paths
./build-asan/tests/test_analysis_graphs
./build-asan/tests/test_analysis_paths

# Tokens view the caller's source buffer, and the AST and the IR hold
# interned name pointers; ASan checks that no token outlives its buffer
# and that the frontend fuzz's malformed and deeply nested mutants end in
# a ParseError, never a stack overflow or a stray read.
echo "== sanitizer smoke (ASan+UBSan frontend, IR names, frontend fuzz) =="
cmake --build build-asan -j --target test_frontend_lexer \
    --target test_frontend_parser --target test_frontend_lower \
    --target test_ir --target test_frontend_fuzz
./build-asan/tests/test_frontend_lexer
./build-asan/tests/test_frontend_parser
./build-asan/tests/test_frontend_lower
./build-asan/tests/test_ir
./build-asan/tests/test_frontend_fuzz

# Lowered IR is frozen: each function is one exact-size allocation whose
# blocks, instructions and call arguments are views into it, and a unit
# reaches the corpus module only once all of it has lowered. These suites
# compile standalone modules, walk call arguments and free whole runs;
# ASan checks that no view outlives the function that owns it.
echo "== sanitizer smoke (ASan+UBSan frozen IR lifetime) =="
cmake --build build-asan -j --target test_core_e2e --target test_injection \
    --target test_pyc_baseline
./build-asan/tests/test_core_e2e
./build-asan/tests/test_injection
./build-asan/tests/test_pyc_baseline

echo "== performance trajectory record =="
RID_BENCH_JSON="$PWD/BENCH_performance.json" \
    ./build/bench/bench_performance --benchmark_filter='^$none'
test -s BENCH_performance.json

# Interning must never be a pessimization: the cached run may not
# execute more from-scratch instantiations than the uncached one.
if command -v python3 > /dev/null; then
    python3 - BENCH_performance.json <<'EOF'
import json, sys
record = json.load(open(sys.argv[1]))
off = record["entries_instantiated_off"]
on = record["entries_instantiated_on"]
assert on <= off, \
    f"interning regressed: {on} instantiations with cache > {off} without"
print(f"instantiation gate: {off} -> {on} (reduction "
      f"{record['instantiation_reduction']:.2f}x)")
EOF
fi

# The standing cross-tool scoring harness: score RID and the cpychecker
# baseline against LAVA-style injected ground truth at scale 0.05. The
# binary exits nonzero unless RID holds precision/recall >= 0.9 in every
# effect domain AND strictly Pareto-dominates the baseline. Export
# RID_SCALE_BENCH=1 before running check.sh to add the full-scale
# (270k-function) sharded run to the record.
#
# --triage additionally runs the triage-gate corpus (injected bugs plus
# seeded Section 6.4 FP-inducers) with the SMT refutation pass on and
# folds the triage gate into the exit status: the run fails if any
# injected true positive is demoted below `unverified`, or if fewer than
# 90% of the FP-inducer reports are demoted to low-confidence/refuted.
echo "== injected-truth scoring harness (RID vs cpychecker, triage gate) =="
RID_TRUTH_JSON="$PWD/BENCH_truth.json" \
    ./build/bench/bench_truth_score 0.05 --triage
test -s BENCH_truth.json

# Append a compacted snapshot of the (gitignored) BENCH_performance.json
# and BENCH_truth.json to the committed trajectory log, so the perf and
# score history travels with the repo even though the full records do not.
if command -v python3 > /dev/null; then
    echo "== bench snapshot -> docs/bench/trajectory.jsonl =="
    python3 scripts/bench_snapshot.py BENCH_performance.json \
        docs/bench/trajectory.jsonl
    python3 scripts/bench_snapshot.py BENCH_truth.json \
        docs/bench/trajectory.jsonl
else
    echo "== bench snapshot skipped (no python3) =="
fi

echo "== observability smoke-check =="
trace_json="$(mktemp)" metrics_prom="$(mktemp)"
trap 'rm -f "$trace_json" "$metrics_prom"' EXIT
./build/examples/linux_dpm_scan 0.001 0x101 "$trace_json" "$metrics_prom" \
    > /dev/null
test -s "$trace_json"
test -s "$metrics_prom"
if command -v python3 > /dev/null; then
    python3 -m json.tool "$trace_json" > /dev/null
    python3 - "$trace_json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
assert events, "trace has no events"
assert any(e["name"] == "analyze-function" for e in events)
EOF
else
    # No python3: at least require the structural markers.
    grep -q '"traceEvents"' "$trace_json"
    grep -q '"analyze-function"' "$trace_json"
fi
grep -q '^rid_functions_analyzed_total ' "$metrics_prom"

# Provenance round trip: scan a known-buggy file with --provenance, then
# require `explain all` to narrate every journal record and `diff-runs`
# of the journal against itself to report everything as persisting.
echo "== provenance explain/diff-runs smoke =="
prov_src="$(mktemp)" prov_journal="$(mktemp)"
trap 'rm -f "$trace_json" "$metrics_prom" "$prov_src" "$prov_journal"' EXIT
cat > "$prov_src" <<'EOF'
int smoke_guarded_get(struct device *dev, int flags) {
    if (flags & 4)
        pm_runtime_get_noresume(dev);
    return 0;
}
EOF
rc=0
./build/examples/ridc --builtin-dpm --provenance "$prov_journal" \
    "$prov_src" > /dev/null 2>&1 || rc=$?
test "$rc" -eq 1     # 1 = reports found; anything else is a real failure
test -s "$prov_journal"
./build/examples/ridc explain all "$prov_journal" | grep -q '^report 0x'
./build/examples/ridc diff-runs "$prov_journal" "$prov_journal" \
    | grep -q '^new (0):'

# Torn-journal tolerance: a journal whose writer was killed mid-flush has
# a partial last line; `ridc explain` must recover every complete record
# and warn about the torn tail instead of aborting.
echo "== torn provenance journal smoke =="
torn_journal="$(mktemp)" torn_err="$(mktemp)"
trap 'rm -f "$trace_json" "$metrics_prom" "$prov_src" "$prov_journal" \
    "$torn_journal" "$torn_err"' EXIT
journal_bytes=$(wc -c < "$prov_journal")
cat "$prov_journal" > "$torn_journal"
head -c "$((journal_bytes - 10))" "$prov_journal" >> "$torn_journal"
./build/examples/ridc explain all "$torn_journal" 2> "$torn_err" \
    | grep -q '^report 0x'
grep -q 'skipped 1 malformed line' "$torn_err"

# Kill-and-resume differential on the real binary: SIGKILL a store-backed
# scan mid-run, resume from the surviving log, and require the resumed
# run's reports to be byte-identical to an uninterrupted scan's with a
# nonzero store hit count. The kill lands at a fraction of the measured
# cold wall time; later fractions retry in case an early cut killed the
# scan before anything durable was recorded.
echo "== kill-and-resume smoke =="
smoke_dir="$(mktemp -d)"
trap 'rm -f "$trace_json" "$metrics_prom" "$prov_src" "$prov_journal" \
    "$torn_journal" "$torn_err"; rm -rf "$smoke_dir"' EXIT
./build/examples/corpus_dump 0.2 0x101 "$smoke_dir/src" > /dev/null
mapfile -t smoke_srcs < <(find "$smoke_dir/src" -name '*.c' | sort)

cold_start=$(date +%s%N)
rc=0
./build/examples/ridc --builtin-dpm "${smoke_srcs[@]}" \
    > "$smoke_dir/cold.out" 2> /dev/null || rc=$?
test "$rc" -eq 1     # 1 = reports found; anything else is a real failure
cold_wall_ns=$(( $(date +%s%N) - cold_start ))
test -s "$smoke_dir/cold.out"

resume_ok=0
for frac in 0.5 0.75 0.9; do
    rm -rf "$smoke_dir/store"
    kill_after=$(awk -v ns="$cold_wall_ns" -v f="$frac" \
        'BEGIN { printf "%.3f", ns / 1e9 * f }')
    rc=0
    timeout -s KILL "$kill_after" \
        ./build/examples/ridc --builtin-dpm --store "$smoke_dir/store" \
        "${smoke_srcs[@]}" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 137 ]; then
        continue     # ran to completion before the kill; try a later cut
    fi
    rc=0
    ./build/examples/ridc --builtin-dpm --store "$smoke_dir/store" \
        --resume "${smoke_srcs[@]}" \
        > "$smoke_dir/resumed.out" 2> "$smoke_dir/resumed.err" || rc=$?
    test "$rc" -eq 1
    cmp -s "$smoke_dir/cold.out" "$smoke_dir/resumed.out"
    hits=$(sed -n 's/^store: \([0-9]*\) hit(s).*/\1/p' \
        "$smoke_dir/resumed.err")
    if [ -n "$hits" ] && [ "$hits" -gt 0 ]; then
        echo "kill-and-resume: byte-identical after SIGKILL at" \
            "${kill_after}s ($hits replayed)"
        resume_ok=1
        break
    fi
done
test "$resume_ok" -eq 1

# One more resume with no edits: every function replays, so nothing is
# recorded and no checkpoint has anything to commit. The reports stay
# byte-identical and the log does not grow by a single byte.
wal_bytes=$(stat -c %s "$smoke_dir/store/analysis.wal")
rc=0
./build/examples/ridc --builtin-dpm --store "$smoke_dir/store" \
    --resume "${smoke_srcs[@]}" > "$smoke_dir/warm.out" 2> /dev/null || rc=$?
test "$rc" -eq 1
cmp -s "$smoke_dir/cold.out" "$smoke_dir/warm.out"
test "$(stat -c %s "$smoke_dir/store/analysis.wal")" -eq "$wal_bytes"
echo "warm resume: byte-identical, analysis.wal unchanged ($wal_bytes bytes)"

echo "check.sh: all green"
