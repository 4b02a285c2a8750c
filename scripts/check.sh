#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite (748
# tests; the ASan stage below reruns the crash-image, cut-checker,
# engine, compile and trace suites instrumented), then
# smoke-test the bounded model checker with small budgets, diff the
# px86 conformance report against its golden copy, run the analysis
# stage (the engine's race detector + crash-state pruning tests, the
# persist_race CLI and the explore-scaling acceptance gate), run the
# kvstore stage (recovery
# ladder + corruption fuzzer + load-driver gate), run the
# compiled-trace stage (compiled-vs-interpreted bit-identity suite,
# instrumented), fuzz the timing engine differentially
# (--fuzz-iters=N, default 500), and run the perf-labeled
# replay-throughput regression.
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZ_ITERS=500
for arg in "$@"; do
    case "$arg" in
        --fuzz-iters=*) FUZZ_ITERS="${arg#--fuzz-iters=}" ;;
        *) echo "usage: $0 [--fuzz-iters=N]" >&2; exit 2 ;;
    esac
done

cmake -B build -S . && cmake --build build -j && \
    ctest --test-dir build --output-on-failure -j

# Explorer smoke: the litmus must verify exhaustively with the
# consumer barrier and produce a counterexample (exit 1) without it.
./build/bench/explore_litmus --model=epoch --threads=2
if ./build/bench/explore_litmus --no-consumer-barrier; then
    echo "check.sh: expected a counterexample without the barrier" >&2
    exit 1
fi
./build/bench/explore_litmus --program=queue --max-executions=256 \
    --samples=32

# Conformance stage: the labeled tests assert the px86-vs-epoch
# divergences by name, and the full runner must reproduce the
# committed golden report byte-for-byte even when run in parallel.
ctest --test-dir build -L conformance --output-on-failure
CONF_OUT=$(mktemp)
./build/bench/conformance_report --jobs=4 --out="$CONF_OUT" >/dev/null
cmp "$CONF_OUT" tests/conformance/golden/conformance_report.txt
rm -f "$CONF_OUT"

# Analysis stage: the timing engine's race detector (detect_races:
# unordered persists and px86 dirty reads, held to pinned counts and
# to the offline reference) and constraint-guided crash-state pruning
# (checkObservedCuts, which the explorer and the conformance harness
# reach through their one shared crash-state check for programs that
# declare observed cells) by label. The persist_race CLI must flag the
# tlc2 fixture's 27 px86 dirty reads (exit 1). Then the
# explore-scaling acceptance gate — pruning must
# complete a program >=5x larger than blind cut enumeration (the same
# program without its observed cells) under one cut budget. The JSON
# goes to a scratch path; the committed BENCH_explore.json baseline is
# refreshed deliberately, like BENCH_replay.json.
ctest --test-dir build -L analysis --output-on-failure
RACE_STATUS=0
./build/bench/persist_race --trace=tests/persistency/golden/tlc2.trc \
    --model=px86 >/dev/null || RACE_STATUS=$?
if [ "$RACE_STATUS" -ne 1 ]; then
    echo "check.sh: persist_race exited $RACE_STATUS on tlc2/px86," \
         "expected 1 (27 dirty reads)" >&2
    exit 1
fi
EXPLORE_JSON=$(mktemp)
./build/bench/explore_scaling --check --json="$EXPLORE_JSON"
rm -f "$EXPLORE_JSON"

# KV-store stage: the recovery-ladder and cross-shard service tests
# by label (functional, bit-flip fuzzers, fault campaigns, the txn
# atomicity battery), then the load driver's smoke gate — zero audit
# violations across every strategy x model pair on both the
# single-shard Repair audit and the cross-shard TxnResolve audit —
# and the emitted report must carry the per-model txn replay rows the
# committed BENCH_kvstore.json baseline is built from.
ctest --test-dir build -L kvstore --output-on-failure
KV_JSON=$(mktemp)
./build/bench/kvstore_perf --check --json="$KV_JSON" >/dev/null
for row in 'kvstore/txn_in_place/strict/replay' \
           'kvstore/txn_cow/strand/replay' \
           'kvstore/txn_log_structured/px86/replay'; do
    if ! grep -q "$row" "$KV_JSON"; then
        echo "check.sh: $row missing from kvstore_perf report" >&2
        exit 1
    fi
done
rm -f "$KV_JSON"

# ThreadSanitizer pass: the task pool, the pool-driven parallel sweep
# (compiled and engine configs side by side on pool workers, and
# workers building and sharing the program one trace keeps),
# the compiled-trace path (one serial compile pass and the fast
# executor, driven from the test's thread), and the sharded explorer
# must be race-free.
# The simulator itself is no longer concurrent — simulated threads
# are fibers on the caller's OS thread — so sim_test and replay_test
# run here to exercise the annotated fiber switches and abort
# unwinding (and engines running side by side on pool workers), not
# to look for races between simulated threads.
# Separate build tree so the instrumented objects never mix with the
# tier-1 build. The compiled-trace test's synthetic trace is shrunk to
# 150k events because TSan's ~10x slowdown would otherwise dominate
# the stage.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan -j \
    --target task_pool_test sweep_test compiled_trace_test \
    explore_test explore_litmus tso_test conformance_test \
    kv_txn_test kvstore_perf sim_test replay_test \
    fault_campaign_test recovery_test
./build-tsan/tests/task_pool_test
./build-tsan/tests/sim_test
./build-tsan/tests/replay_test
./build-tsan/tests/sweep_test
PERSIM_SYNTH_EVENTS=150000 PERSIM_GOLDEN_DIR=tests/persistency/golden \
    ./build-tsan/tests/compiled_trace_test
./build-tsan/tests/explore_test
./build-tsan/bench/explore_litmus --model=epoch --threads=2
./build-tsan/bench/explore_litmus --program=queue --shards=4 \
    --max-executions=256 --samples=32
# The TSO store-buffer scheduler and the parallel (--jobs) conformance
# harness (one engine per pool worker): run both instrumented.
./build-tsan/tests/tso_test
PERSIM_CONFORMANCE_GOLDEN=tests/conformance/golden/conformance_report.txt \
    ./build-tsan/tests/conformance_test
# The router's global sequence counter is polled by a real OS thread
# in kv_txn_test's snapshot regression while the engine's fibers
# mutate it on another (acquire/release, no data race),
# and the KV load driver fans shard generation, per-model replay of
# the cross-shard txn mix, and both audit campaigns out over the
# shared pool: run both instrumented.
./build-tsan/tests/kv_txn_test
./build-tsan/bench/kvstore_perf --check >/dev/null
# Fault-campaign realizations run their crash-image sweeps on pool
# workers and share one FaultModel (and its wear profile), and the
# invariants read each builder's image from the worker that built it.
./build-tsan/tests/fault_campaign_test
./build-tsan/tests/recovery_test

# AddressSanitizer + UBSan pass: the fault-injection machinery does a
# lot of raw byte slicing (torn persists, checksummed record parsing,
# degraded queue scans) — run it and the structure tests instrumented.
# -Werror here makes any new compiler warning fail the check.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -Werror" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build build-asan -j \
    --target faults_test fault_campaign_test recovery_test \
    log_test queue_test queue_negative_test differential_fuzz_test \
    race_detector_test pruned_cuts_test pruned_conformance_test \
    cuts_test crash_image_test \
    kvstore_test kv_recovery_test kv_campaign_test \
    kv_txn_test kv_router_fuzz_test kv_txn_campaign_test \
    compiled_trace_test sim_test replay_test common_test \
    timing_engine_test px86_test golden_replay_test explore_test \
    memtrace_test
# Fiber stacks are mmap'd and switched by hand: run the engine suites
# (worker errors and max_events aborts unwind suspended fibers)
# instrumented, with the ASan fiber-switch annotations live.
./build-asan/tests/sim_test
./build-asan/tests/replay_test
./build-asan/tests/faults_test
./build-asan/tests/fault_campaign_test
./build-asan/tests/recovery_test
# Crash images are built through an undo log that writes back through
# the image's cached page pointer: run the cut checker's apply/rollback
# walk (the crash plan's groups applied through applyGroup, indexed by
# the DAG's flat predecessor lists) and the builder-vs-reference
# oracle instrumented.
./build-asan/tests/cuts_test
./build-asan/tests/crash_image_test
./build-asan/tests/log_test
./build-asan/tests/queue_test
./build-asan/tests/queue_negative_test
# The paged index behind the timing engine and compileTrace indexes
# raw page arrays unchecked on the hot path (common_test also moves
# both index maps and uses the moved-from source), and the race
# detector reads the engine's px86 line bank through the atomic index
# and grows its report mask lazily: run both instrumented. The one
# crash-state check (checkCrashStates) replays with record_deps and
# enumerates cuts for the explorer and the conformance harness alike,
# projected onto a program's observed cells when it declares them:
# both suites run each program with and without its observed cells,
# so the projected and the full enumeration run instrumented.
./build-asan/tests/common_test
PERSIM_GOLDEN_DIR=tests/persistency/golden \
    ./build-asan/tests/race_detector_test
./build-asan/tests/pruned_cuts_test
./build-asan/tests/pruned_conformance_test
# The timing engine's banks are std::vectors that free their old
# storage when they grow, so a bank reference held across a slot
# insert is a use-after-free: run the engine suites instrumented —
# unified and separate line banks, px86 dirty lists and flushes, the
# frozen golden outputs, the explorer's record_deps dep-set pool, the
# persist log the engine appends to directly, and thread ids 65,536
# and 0xffffffff, which the thread table must refuse without growing.
./build-asan/tests/timing_engine_test
./build-asan/tests/px86_test
PERSIM_GOLDEN_DIR=tests/persistency/golden \
    ./build-asan/tests/golden_replay_test
./build-asan/tests/explore_test
# InMemoryTrace is raw realloc'd storage, and TraceStats sizes its
# per-thread table from the ids it sees (it refuses 65,536 and
# 0xffffffff): run their suite instrumented.
./build-asan/tests/memtrace_test
# The KV recovery ladder parses checksummed buckets, journal records,
# and deliberately bit-flipped images (the corruption fuzzer lives in
# kv_recovery_test): run all three KV suites instrumented.
./build-asan/tests/kvstore_test
./build-asan/tests/kv_recovery_test
./build-asan/tests/kv_campaign_test
# The cross-shard service layer slices commit and migration records
# out of the group journal and takes seeded bit flips straight to
# those parsers (kv_router_fuzz_test): run the txn/router suites
# instrumented too. The exhaustive atomicity battery stays in the
# tier-1 run only — its cut enumeration is wall-clock heavy and
# touches no byte-slicing the fuzz and campaign suites don't.
./build-asan/tests/kv_txn_test
./build-asan/tests/kv_router_fuzz_test
./build-asan/tests/kv_txn_campaign_test

# Compiled-trace stage: the fast compiled executor indexes its banks
# by precomputed slots without bounds checks, and compileTrace writes
# its columns through raw pointers into storage sized from the event
# count — run the full compiled-vs-engine bit-identity and
# replayTrace dispatch suite, and the compile-vs-reference oracle
# (CompileOracle.*: splitting accesses that grow the columns)
# instrumented (shrunken synthetic trace; the identity must hold at
# any size).
PERSIM_SYNTH_EVENTS=150000 PERSIM_GOLDEN_DIR=tests/persistency/golden \
    ./build-asan/tests/compiled_trace_test

# Fuzz stage: the differential fuzzer at full depth, instrumented —
# 500 seeded random programs (default) replayed under all three
# models with the refinement invariants checked on every one, and
# every program compiled and held to the plain reference compile.
PERSIM_FUZZ_ITERS="$FUZZ_ITERS" ./build-asan/tests/differential_fuzz_test

# Perf stage: replay-throughput regression against the committed
# BENCH_replay.json, in the uninstrumented release-config build
# (wall-clock sensitive, hence outside the default ctest run).
ctest --test-dir build -C perf -L perf --output-on-failure
echo "check.sh: all checks passed"
