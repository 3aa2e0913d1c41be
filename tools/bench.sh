#!/usr/bin/env bash
# Hot-path benchmark runner. From the repo root:
#
#   ./tools/bench.sh            # full run: criterion benches + BENCH_*.json
#   ./tools/bench.sh --quick    # CI smoke: quick criterion pass + quick JSON
#
# Emits eight committed artifacts at the repo root so future PRs can be
# held to the trajectory:
#   BENCH_record.json       — caller-thread submit latency per materialization
#                             strategy (zero-copy vs pre-refactor eager copies)
#   BENCH_replay.json       — restore-read latency (zero-copy get_bytes over
#                             packed segments) + cold store-open time
#   BENCH_replay_sched.json — replay scheduling: static contiguous partitioning
#                             vs cost-aware work-stealing + streaming merge
#   BENCH_compress.json     — checkpoint bytes on disk + record submit
#                             throughput of the delta-chain + parallel
#                             compression write pipeline
#   BENCH_interp.json       — replay interpreter: tree-walking AST executor vs
#                             the bytecode VM, plus cold-compile vs
#                             cached-module fetch costs
#   BENCH_slice.json        — dependency-aware incremental replay: VM replay
#                             with backward slicing off vs on, plus the
#                             cross-query slice memo (cold query vs a
#                             textually different probe served from cache)
#   BENCH_store_tier.json   — tiered storage engine: cold sparse restore time
#                             per checkpoint via mmap segment reads, plus the
#                             dedup arena's bytes-on-disk ratio across an
#                             identical-record sweep
#   BENCH_serve.json        — async query service over real sockets: 1 vs 16
#                             closed-loop clients under an emulated 2ms RTT,
#                             admission-control overhead and shedding, and
#                             fresh-replay TTFE beside a jammed slow reader

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
    QUICK=1
fi

run() {
    echo
    echo "==> $*"
    "$@"
}

# Criterion benches for the record path (the vendored criterion harness is
# already time-bounded; quick mode just skips the slower codec/tensor runs).
if [[ "$QUICK" == "1" ]]; then
    run cargo bench -p flor-bench --bench bench_record
else
    for bench in bench_record bench_materialization bench_codec; do
        run cargo bench -p flor-bench --bench "$bench"
    done
fi

# The benchmark artifacts. Full runs refresh the committed BENCH_*.json;
# quick (CI smoke) runs write under target/ so they never dirty the tree.
RECORD_OUT=BENCH_record.json
REPLAY_OUT=BENCH_replay.json
SCHED_OUT=BENCH_replay_sched.json
COMPRESS_OUT=BENCH_compress.json
INTERP_OUT=BENCH_interp.json
SLICE_OUT=BENCH_slice.json
STORE_TIER_OUT=BENCH_store_tier.json
SERVE_OUT=BENCH_serve.json
if [[ "$QUICK" == "1" ]]; then
    RECORD_OUT=target/BENCH_record.quick.json
    REPLAY_OUT=target/BENCH_replay.quick.json
    SCHED_OUT=target/BENCH_replay_sched.quick.json
    COMPRESS_OUT=target/BENCH_compress.quick.json
    INTERP_OUT=target/BENCH_interp.quick.json
    SLICE_OUT=target/BENCH_slice.quick.json
    STORE_TIER_OUT=target/BENCH_store_tier.quick.json
    SERVE_OUT=target/BENCH_serve.quick.json
fi
FLOR_BENCH_QUICK="$QUICK" run cargo run --release -p flor-bench --bin bench_record_json -- "$RECORD_OUT"
FLOR_BENCH_QUICK="$QUICK" run cargo run --release -p flor-bench --bin bench_replay_json -- "$REPLAY_OUT"
FLOR_BENCH_QUICK="$QUICK" run cargo run --release -p flor-bench --bin bench_replay_sched -- "$SCHED_OUT"
FLOR_BENCH_QUICK="$QUICK" run cargo run --release -p flor-bench --bin bench_compress_json -- "$COMPRESS_OUT"
FLOR_BENCH_QUICK="$QUICK" run cargo run --release -p flor-bench --bin bench_interp -- "$INTERP_OUT"
FLOR_BENCH_QUICK="$QUICK" run cargo run --release -p flor-bench --bin bench_slice -- "$SLICE_OUT"
FLOR_BENCH_QUICK="$QUICK" run cargo run --release -p flor-bench --bin bench_store_tier -- "$STORE_TIER_OUT"
FLOR_BENCH_QUICK="$QUICK" run cargo run --release -p flor-bench --bin bench_serve -- "$SERVE_OUT"

echo
echo "bench: OK ($RECORD_OUT, $REPLAY_OUT, $SCHED_OUT, $COMPRESS_OUT, $INTERP_OUT, $SLICE_OUT, $STORE_TIER_OUT, $SERVE_OUT written)"
