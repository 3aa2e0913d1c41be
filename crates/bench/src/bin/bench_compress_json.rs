//! Emits `BENCH_compress.json`: checkpoint bytes on disk and record
//! submit throughput of the delta-chain + parallel-compression write
//! pipeline on a drifting-tensor workload, plus the restore median. This
//! is the committed benchmark trajectory for checkpoint bytes;
//! `tools/ci.sh`'s bench-regression step holds future PRs to its
//! per-unit numbers (bytes reduction, delta frame ratio, MB/s submitted),
//! and `flor-sim`'s `cost::delta_cost` constants come from it.
//!
//! ```text
//! cargo run --release -p flor-bench --bin bench_compress_json [-- OUT.json]
//! ```
//!
//! Quick mode (`FLOR_BENCH_QUICK=1`, used by `tools/bench.sh` in CI)
//! writes fewer versions of the same payload size, so the smoke run
//! finishes in seconds and its per-unit numbers compare with the
//! committed baseline.

use flor_bench::compress_delta::{run_side, SideResult, DRIFT_DENOM};
use flor_chkpt::StoreOptions;
use std::fmt::Write as _;

fn json_side(out: &mut String, s: &SideResult) {
    let _ = write!(
        out,
        "{{\"stored_bytes\": {}, \"raw_bytes\": {}, \"submit_median_ns\": {}, \
         \"submit_mb_per_s\": {:.1}, \"restore_median_ns\": {}}}",
        s.stored_bytes, s.raw_bytes, s.submit_median_ns, s.submit_mb_per_s, s.restore_median_ns
    );
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_compress.json".to_string());
    let quick = std::env::var("FLOR_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false);
    // Both fixtures write 4 MiB payloads and keep the same keyframe
    // fraction (1 in 8), so the per-unit numbers stay comparable between
    // the CI quick run and the committed full-scale baseline.
    let floats = 1024 * 1024;
    let versions = if quick { 16u64 } else { 32 };
    let payload_mb = (floats * 4) as f64 / 1e6;

    eprintln!(
        "drifting-tensor workload: {versions} versions × {payload_mb:.1} MB, \
         ~{:.0}% of elements move per version",
        100.0 / DRIFT_DENOM as f64
    );
    // Warmup (allocator, CPU ramp) on a small instance.
    run_side("warm-delta", StoreOptions::default(), 4, 64 * 1024);

    let delta = run_side("delta", StoreOptions::default(), versions, floats);

    let bytes_reduction = delta.raw_bytes as f64 / delta.stored_bytes.max(1) as f64;
    let delta_frame_ratio = {
        // Mean stored/raw over delta entries alone: keyframes store ~raw.
        let kf_bytes = delta.stats.keyframe_entries * (floats as u64 * 4);
        let delta_bytes = delta.stored_bytes.saturating_sub(kf_bytes);
        let delta_raw = delta.stats.delta_entries * (floats as u64 * 4);
        delta_bytes as f64 / delta_raw.max(1) as f64
    };

    let mut body = String::new();
    let _ = writeln!(body, "{{");
    let _ = writeln!(body, "  \"bench\": \"compress_delta\",");
    let _ = writeln!(
        body,
        "  \"description\": \"checkpoint bytes + record submit throughput on a drifting-tensor \
         workload through the store write pipeline: XOR delta chains (keyframe every 8) + \
         hash-chain LZ + parallel chunked keyframe compression; bytes_reduction = raw bytes / \
         stored bytes\","
    );
    let _ = writeln!(body, "  \"quick\": {quick},");
    let _ = writeln!(
        body,
        "  \"fixture\": {{\"versions\": {versions}, \"payload_bytes\": {}, \
         \"drift_fraction\": {:.3}}},",
        floats * 4,
        1.0 / DRIFT_DENOM as f64
    );
    let _ = write!(body, "  \"delta\": ");
    json_side(&mut body, &delta);
    let _ = writeln!(body, ",");
    let _ = writeln!(
        body,
        "  \"delta_entries\": {}, \"keyframes\": {}, \"delta_frame_ratio\": {:.4},",
        delta.stats.delta_entries, delta.stats.keyframe_entries, delta_frame_ratio
    );
    let _ = writeln!(body, "  \"bytes_reduction\": {bytes_reduction:.2}");
    let _ = writeln!(body, "}}");

    std::fs::write(&out_path, &body).expect("write BENCH_compress.json");
    eprintln!(
        "bytes {} → {} ({bytes_reduction:.2}x); submit {:.0} MB/s; restore median {} ns",
        delta.raw_bytes, delta.stored_bytes, delta.submit_mb_per_s, delta.restore_median_ns
    );
    eprintln!("wrote {out_path}");
    assert!(
        bytes_reduction >= 3.0,
        "acceptance: stored-byte reduction must stay ≥3× (got {bytes_reduction:.2})"
    );
}
