//! Emits `BENCH_replay.json`: the replay read-path baseline — median
//! restore-read latency (zero-copy `get_bytes` over packed segments) and
//! cold store-open time at scale (100k checkpoints; the open reads the
//! manifest once and stats only segments). This is the committed
//! benchmark trajectory for the replay hot path — `tools/ci.sh` holds
//! the per-restore median to it, and `flor-sim`'s `cost::read_cost`
//! constants are taken from it.
//!
//! ```text
//! cargo run --release -p flor-bench --bin bench_replay_json [-- OUT.json]
//! ```
//!
//! Quick mode (`FLOR_BENCH_QUICK=1`, used by `tools/bench.sh` in CI)
//! writes fewer checkpoints of the same payload size into same-size
//! segments, so the per-restore numbers compare across scales.

use flor_bench::replay_read::{
    measure_reads, ReadFixture, BLOCKS, PAYLOAD_BYTES, SEGMENT_TARGET_BYTES,
};
use std::fmt::Write as _;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_replay.json".to_string());
    let quick = std::env::var("FLOR_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false);
    let (checkpoints, sample) = if quick {
        (5_000u64, 2_000u64)
    } else {
        (100_000, 20_000)
    };

    eprintln!("building a {checkpoints}-checkpoint fixture…");
    let seg = ReadFixture::build("json-seg", checkpoints);

    // Cold open first (no read caches primed by the latency pass).
    let open_ns = seg.cold_open_ns();

    let store = seg.open();
    // Warm-up pass over a small slice so first-touch costs (segment buffer
    // loads, allocator) don't skew the median.
    measure_reads(&store, &seg, 256);
    let m = measure_reads(&store, &seg, sample);
    let stats = store.stats();

    let mut body = String::new();
    let _ = writeln!(body, "{{");
    let _ = writeln!(body, "  \"bench\": \"replay_read\",");
    let _ = writeln!(
        body,
        "  \"description\": \"per-restore checkpoint read latency (zero-copy get_bytes over \
         packed segments, pseudo-shuffled keys) and cold store-open time\","
    );
    let _ = writeln!(body, "  \"quick\": {quick},");
    let _ = writeln!(
        body,
        "  \"fixture\": {{\"checkpoints\": {checkpoints}, \"payload_bytes\": {PAYLOAD_BYTES}, \
         \"blocks\": {BLOCKS}, \"segment_target_bytes\": {SEGMENT_TARGET_BYTES}, \
         \"sampled_reads\": {sample}}},"
    );
    let _ = writeln!(
        body,
        "  \"segmented\": {{\"reads\": {}, \"median_ns\": {}, \"mean_ns\": {}, \"p99_ns\": {}, \
         \"cold_open_ns\": {open_ns}}},",
        m.reads, m.median_ns, m.mean_ns, m.p99_ns
    );
    let _ = writeln!(
        body,
        "  \"zero_copy_reads\": {}, \"segment_cache_hits\": {}, \"segments\": {}",
        stats.zero_copy_reads, stats.segment_cache_hits, stats.segments
    );
    let _ = writeln!(body, "}}");

    drop(store);
    let _ = std::fs::remove_dir_all(seg.root());

    std::fs::write(&out_path, &body).expect("write BENCH_replay.json");
    eprintln!(
        "get_bytes median {} ns (p99 {} ns) over {} segment(s); cold open {:.1} ms",
        m.median_ns,
        m.p99_ns,
        stats.segments,
        open_ns as f64 / 1e6
    );
    eprintln!("wrote {out_path}");
}
