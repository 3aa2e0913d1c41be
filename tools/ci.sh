#!/usr/bin/env bash
# Tier-1 gate for flor-rs. Run from the repo root:
#
#   ./tools/ci.sh          # build + test + clippy
#   ./tools/ci.sh --bench  # also run the criterion benches
#
# Everything is offline: external dependencies are vendored under
# crates/vendor/, so no network or cargo registry is required.

set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo
    echo "==> $*"
    "$@"
}

run cargo build --release
run cargo test -q
run cargo clippy --workspace --all-targets -- -D warnings
run cargo fmt --check

# Clock-discipline lint: hot paths must take timestamps through
# flor_obs::clock (one Instant::now site, pausable in tests, powers the
# trace timeline). A raw Instant::now anywhere else in the instrumented
# crates silently forks the timeline.
echo
echo "==> clock lint (Instant::now outside obs::clock)"
if grep -rn "Instant::now" \
    crates/core/src crates/chkpt/src crates/registry/src crates/obs/src \
    --include='*.rs' | grep -v "obs/src/clock.rs"; then
    echo "clock lint: raw Instant::now in an instrumented crate (use flor_obs::clock)" >&2
    exit 1
fi
echo "clock lint: OK"

# Opcode-coverage gate: every VM opcode the compiler can emit must be
# exercised by the lowering corpus in crates/lang (a new Op variant
# without a corpus program fails there, not in production replay).
run cargo test -q -p flor-lang opcode_coverage

# Slice-oracle gate: the differential suites must keep at least one
# oracle replay with slicing explicitly disabled — otherwise a slicer
# bug that mangles both sides identically could slip through with every
# configuration sliced.
echo
echo "==> slice-oracle gate (unsliced oracle present in tests/)"
if ! grep -rq "slice: false" tests/ --include='*.rs'; then
    echo "slice-oracle gate: no test replays with 'slice: false' — the differential oracle must stay slice-free" >&2
    exit 1
fi
echo "slice-oracle gate: OK"

# Record-hot-path smoke bench: quick criterion pass + quick submit-latency
# JSON (written under target/, never dirties the committed artifact).
run ./tools/bench.sh --quick

# Bench-regression gate: scale-invariant metrics of the quick runs must
# stay within a tolerance band of the committed full-scale baselines
# (>20% regressions fail; widen with FLOR_BENCH_TOLERANCE for noisy
# hosts). Per-unit numbers only — the quick fixtures keep the full
# fixtures' payload size and checkpoints per segment and shrink only
# counts, so absolute totals differ by design but per-unit numbers do
# not. Per-restore read latency:
run cargo run --release -q -p flor-bench --bin bench_check -- \
    BENCH_replay.json target/BENCH_replay.quick.json \
    segmented.median_ns=lower
# Checkpoint bytes (raw / stored, and stored / raw per delta frame) and
# record submit throughput in MB/s:
run cargo run --release -q -p flor-bench --bin bench_check -- \
    BENCH_compress.json target/BENCH_compress.quick.json \
    bytes_reduction=higher delta.submit_mb_per_s=higher delta_frame_ratio=lower
# The live steal-speedup columns are fixture- and host-load-dependent
# (the quick fixture replays once on whatever cores CI has), so the gate
# uses the deterministic paper-scale simulation of the same scheduler.
run cargo run --release -q -p flor-bench --bin bench_check -- \
    BENCH_replay_sched.json target/BENCH_replay_sched.quick.json \
    sim_paper_scale.improvement=higher sim_paper_scale.profile_bound=higher
# The VM must stay well over the tree-walker on the interpreter-bound
# fixture. vm_speedup is a ratio of same-run walls and so scale-
# invariant between quick and full fixtures — but the tree-walker's
# wall is dominated by HashMap name traffic whose per-process hash
# seeding swings it ~2× run to run, so this band is catastrophe-only
# (a real VM regression is ≥2×; the committed full-scale number is the
# precise record).
(
    export FLOR_BENCH_TOLERANCE=0.55
    run cargo run --release -q -p flor-bench --bin bench_check -- \
        BENCH_interp.json target/BENCH_interp.quick.json \
        vm_speedup=higher
)
# Sliced replay must stay well over the ≥3× acceptance bar on the
# sparse-dependency fixture. slice_speedup ≈ the dead/live busy ratio of
# the fixture's inner loop, which quick and full modes share, so it is
# scale-invariant; memo_speedup grows with fixture scale, so the bench
# binary asserts its ≥10× floor internally instead of gating it here.
run cargo run --release -q -p flor-bench --bin bench_check -- \
    BENCH_slice.json target/BENCH_slice.quick.json \
    slice_speedup=higher
# Tiered storage: the dedup bytes-on-disk ratio is a pure byte count
# (deterministic across scales, default band). The cold sparse restore
# time per checkpoint is a best-of-5 ms-scale wall that swings about
# ±20% run to run on a busy host, so its band is wider than the
# default. The silent whole-file fallback is caught exactly by the bench
# binary itself, which asserts one segment mapping per sparse read.
run cargo run --release -q -p flor-bench --bin bench_check -- \
    BENCH_store_tier.json target/BENCH_store_tier.quick.json \
    dedup_bytes_ratio=higher
(
    export FLOR_BENCH_TOLERANCE=0.50
    run cargo run --release -q -p flor-bench --bin bench_check -- \
        BENCH_store_tier.json target/BENCH_store_tier.quick.json \
        mmap.restore_ns_per_ckpt=lower
)
# The serve qps columns are closed-loop socket measurements on whatever
# core CI has, so their band is catastrophe-only: the bench binary
# asserts the hard acceptance floors internally (concurrent/serial
# qps_speedup ≥4x, admission_overhead ≥0.7x, slow-reader p99 ≤1.5x).
(
    export FLOR_BENCH_TOLERANCE=0.70
    run cargo run --release -q -p flor-bench --bin bench_check -- \
        BENCH_serve.json target/BENCH_serve.quick.json \
        qps_speedup=higher admission_overhead=higher
)
# BENCH_record's speedup columns are ratios of µs-scale submit costs
# (O(1) handle pushes) — too noisy for a 20% band; its own regression
# test (`bench_record_json` pins zero-copy ≤ eager) guards it instead.

# Trace smoke: record a small run, replay it with tracing on, and check
# that the emitted Chrome trace is structurally valid (parses, every span
# has a lane/timestamp/duration, several distinct categories present).
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
cat > "$TRACE_DIR/train.flr" <<'EOF'
import flor
data = synth_data(n=24, dim=4, classes=2, seed=3)
loader = dataloader(data, batch_size=8, seed=3)
net = mlp(input=4, hidden=6, classes=2, depth=1, seed=3)
optimizer = sgd(net, lr=0.1)
criterion = cross_entropy()
avg = meter()
for epoch in flor.partition(range(6)):
    avg.reset()
    for batch in loader.epoch():
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
        avg.update(loss)
    log("loss", avg.mean())
EOF
sed 's/        optimizer.step()/        optimizer.step()\n        log("probe_gnorm", net.grad_norm())/' \
    "$TRACE_DIR/train.flr" > "$TRACE_DIR/probed.flr"
run ./target/release/flor record "$TRACE_DIR/train.flr" \
    --registry "$TRACE_DIR/registry" --run-id trace-smoke --no-adaptive
run ./target/release/flor query trace-smoke "$TRACE_DIR/probed.flr" \
    --registry "$TRACE_DIR/registry" --workers 2 --trace "$TRACE_DIR/trace.json"
run cargo run --release -q -p flor-bench --bin trace_check -- \
    "$TRACE_DIR/trace.json" --min-events 20 --min-lanes 2 --min-categories 4

if [[ "${1:-}" == "--bench" ]]; then
    for bench in bench_registry bench_codec bench_tensor; do
        run cargo bench -p flor-bench --bench "$bench"
    done
fi

echo
echo "tier-1 gate: OK"
