#!/usr/bin/env bash
# Full pre-merge check: the tier-1 verify from ROADMAP.md, then a
# ThreadSanitizer build of the concurrency-sensitive suites (the comm
# layer, the enactor's control threads, fault paths, and the stream
# stress tests), then an AddressSanitizer + UndefinedBehaviorSanitizer
# build of the whole suite.
# Usage: scripts/check.sh [build-dir] [tsan-build-dir] [asan-build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
TSAN_BUILD="${2:-build-tsan}"
ASAN_BUILD="${3:-build-asan}"

echo "==> tier-1: configure + build + ctest"
cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j
ctest --test-dir "$BUILD" --output-on-failure -j

echo "==> operator-pipeline property suite (explicit)"
"$BUILD/tests/mgg_tests" --gtest_filter='OperatorPipeline.*'

echo "==> sync-mode differential suite + handshake stressors (explicit)"
# Pins barrier-vs-pipeline results and W/H counters bit-identical and
# hammers the handshake table's ordering/abort paths.
"$BUILD/tests/mgg_tests" \
  --gtest_filter='SyncPipeline.*:StreamStress.Handshake*'

echo "==> micro_operators acceptance gate (writes BENCH_operators.json)"
"$BUILD/bench/micro_operators" --json="$BUILD/BENCH_operators.json"

echo "==> chaos + fault-recovery suites (explicit)"
# Seeded fault plans against whole primitive runs plus the targeted
# recovery tests (grow-and-retry, comm retries, stop deadline, degraded
# re-enact). Every chaos assertion message carries its fault-plan
# seed, so a red run is reproducible straight from this log.
"$BUILD/tests/mgg_tests" \
  --gtest_filter='Chaos.*:ChaosTsan.*:FaultRecovery.*:FaultInjection.*'

echo "==> wire-format differential + adversarial suite (explicit)"
# Bit-identical results/frontiers across {raw, bitmap, varint, auto}
# x {BSP, pipeline} x 1-8 vGPUs, the encoder fallback chain (with
# wire::plan agreeing with every encode), the corrupt-payload
# rejections, and the seeded decode mutation sweep.
"$BUILD/tests/mgg_tests" --gtest_filter='WireFormat.*'

echo "==> parallel-exec differential suite (explicit)"
# Host worker pool (docs/architecture.md §12): results, W/H and modeled
# times bit-identical at every Config::host_threads width. Each test
# sweeps widths {1, 2, 4, 8} internally (sequential baseline, the
# chunk-boundary widths and the auto cap), plus the pool's error and
# nesting protocol and the steady-state zero-allocation regression.
"$BUILD/tests/mgg_tests" --gtest_filter='ParallelExec.*'

echo "==> micro_parallel acceptance gate (writes BENCH_parallel.json)"
# Bit-identity across pool widths is always enforced; the >= 2x wall
# gate at 4 workers arms only when the host has >= 4 hardware threads.
"$BUILD/bench/micro_parallel" --json="$BUILD/BENCH_parallel.json"

echo "==> micro_comm acceptance gate"
"$BUILD/bench/micro_comm"

echo "==> micro_wire acceptance gate"
# Compressed frontier pushes: >= 30% modeled byte reduction under
# kAuto at 4 vGPUs with both codecs exercised, results bit-identical
# to raw in both sync modes. Modeled bytes only — no wall-clock gate.
"$BUILD/bench/micro_wire"

echo "==> multi-source + serve differential suites (explicit)"
# Batched traversal bit-identical to individual runs across GPU counts,
# schedules and wire formats, plus the query-service packing / lane /
# reuse suite (docs/architecture.md §13).
"$BUILD/tests/mgg_tests" --gtest_filter='MsBfs.*:Serve.*'

echo "==> serve_throughput acceptance gate"
# >= 3x modeled W+H reduction for one 64-source batch vs the 64
# individual runs it replaces (rmat + social at 4 vGPUs), bit-identical
# per-source answers, batch-tagged trace. Modeled gate only — the
# QPS/latency sweep is informational.
"$BUILD/bench/serve_throughput"

echo "==> serve-layer resilience suites (explicit)"
# Supervisor policy units (backoff, batch-queue ordering, restart /
# quarantine budgets) plus the chaos-facing service behaviors:
# deadlines, lane restart with survivor takeover, admission shedding
# and the lossless-accounting invariant (docs/architecture.md §15).
"$BUILD/tests/mgg_tests" --gtest_filter='Supervisor.*:ServeChaos.*'

echo "==> serve_chaos acceptance gate"
# Faults degrade throughput, never answers: fault-free runs keep every
# resilience counter at zero with bit-identical repeats; scripted +
# seeded chaos loses zero queries, provably restarts and requeues at
# least once, and every answered query matches its fault-free
# individual run; open-loop overload sheds instead of queueing.
"$BUILD/bench/serve_chaos"

echo "==> hierarchy + two-level combine suites (explicit)"
# Interconnect shape validation / link classification / gateway
# election, and flat-vs-two-level bit-identity with the byte-split and
# gateway-counter invariants (docs/architecture.md §14).
"$BUILD/tests/mgg_tests" --gtest_filter='Hierarchy.*:TwoLevel.*'

echo "==> ext_multinode acceptance gate"
# Two-level combine must strictly reduce modeled inter-node bytes vs
# the flat topology on rmat_n22_128 at 2x4 and 4x2, non-vacuously
# (gateway dedup and both codecs engage), with results and item
# counters bit-identical across {flat, two-level} x {BSP, pipeline} x
# {raw, auto}. Modeled bytes only — no wall-clock gate.
"$BUILD/bench/ext_multinode"

echo "==> micro_faults acceptance gate (writes BENCH_faults.json)"
# Non-vacuous recovery gates: grow-and-retry completes a just-enough
# run that throws without it, comm retries recover with backoff
# charged, degraded re-enact is correct on n-1 vGPUs. Prints the
# failing fault plan on a red gate.
"$BUILD/bench/micro_faults" --json="$BUILD/BENCH_faults.json"

echo "==> sec5b sync-mode acceptance gate (writes BENCH_sync.json)"
"$BUILD/bench/sec5b_sync_latency" --json="$BUILD/BENCH_sync.json"

echo "==> tsan: build mgg_tests with -fsanitize=thread"
cmake -B "$TSAN_BUILD" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "$TSAN_BUILD" -j --target mgg_tests

echo "==> tsan: core / fault / stream-stress / partition / graph-build suites"
# The suites defined in core_test.cpp, operator_pipeline_test.cpp,
# fault_test.cpp and stream_stress_test.cpp — the code paths where
# threads actually race (dedup bitmaps and route scratch are touched
# from the enactor's per-GPU threads).
TSAN_FILTER='Message.*:CommBus.*:Frontier.*:Operators.*:Problem.*'
TSAN_FILTER+=':Enactor.*:Oom.*:FaultInjection.*:StreamStress.*'
TSAN_FILTER+=':OperatorPipeline.*:SyncPipeline.*'
# Fault-recovery paths cross threads by design: injector atomics,
# the comm retry loop, the stop-deadline error handoff (a timed-out
# handshake take aborts the table under its peers) and the regrow
# replay.
TSAN_FILTER+=':FaultRecovery.*:ChaosTsan.*'
# Tracer observation paths + the Device scale-knob race regression
# (tracer buffers are written from stream workers and drained from the
# barrier-completion thread).
TSAN_FILTER+=':CostModel.*:Trace.*'
# Wire codecs run on the sender/receiver threads (encode at package
# time, decode inside drain) and bump the CommBus wire-stats atomics.
TSAN_FILTER+=':WireFormat.*'
# Host worker pool: chunk claiming, the wake/done protocol, and every
# parallel operator pipeline running with 2-8 pool workers.
TSAN_FILTER+=':ParallelExec.*'
# Serve layer: concurrent lanes enact over one shared PartitionedGraph
# (the new race surface — shared read-only CSR slices, the atomic batch
# queue, the stats mutex, and Tracer batch tags from lane threads).
TSAN_FILTER+=':MsBfs.*:Serve.*'
# Resilience layer: lane threads fail/restart while the supervisor
# mutates shared state, the batch queue re-orders under backoff, the
# open-loop dispatcher admits from its own thread, and per-query
# resolution races are claimed via the single-writer ticket protocol.
TSAN_FILTER+=':Supervisor.*:ServeChaos.*'
# Two-level combine: stage_relay appends records and IDs to a
# gateway's ledger on the sender comm streams under the relay mutex
# while flush_relays drains it from the closing control thread and
# bumps the link-split/gateway atomics.
TSAN_FILTER+=':TwoLevel.*:Hierarchy.*'
# Partition build: one pool task per part writes its own SubGraph and
# border row while sibling tasks read the shared graph and assignment.
TSAN_FILTER+=':*PartitionerSweep.*:Partitioner.*:PartitionedGraph.*'
TSAN_FILTER+=':*DuplicationSweep.*'
# Graph build: generator chunks fill disjoint edge ranges from their own
# jumped streams, and the radix clean and row sort write chunk-owned
# counts, offsets and rows.
TSAN_FILTER+=':Coo.*:Csr.*:Generators.*:Rng.*'
"$TSAN_BUILD/tests/mgg_tests" --gtest_filter="$TSAN_FILTER"

echo "==> asan+ubsan: build mgg_tests with -fsanitize=address,undefined"
cmake -B "$ASAN_BUILD" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build "$ASAN_BUILD" -j --target mgg_tests

echo "==> asan+ubsan: whole suite"
# Every suite, including the loader mutation sweeps
# (MatrixMarket.SurvivesMutatedInput, EdgeList.SurvivesMutatedInput),
# which feed untrusted bytes through validate, the radix clean and the
# CSR build. MemoryManager.HostAllocationFailureRollsBackAccounting is
# compiled out of this tree: ASan's operator new aborts on an oversized
# request instead of throwing std::bad_alloc.
"$ASAN_BUILD/tests/mgg_tests"

echo "==> check.sh: all green"
