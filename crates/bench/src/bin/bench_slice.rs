//! Emits `BENCH_slice.json`: dependency-aware incremental replay — the
//! backward-slicing before/after table plus the cross-query slice memo.
//!
//! The fixture is sparse-dependency by construction: a cheap live
//! accumulator chain feeds the log statements while three `busy()`
//! strands per inner iteration feed names nothing reads. A hindsight
//! probe on the inner skipblock forces every iteration to re-execute,
//! so the dead strands dominate unsliced replay cost and the slicer
//! can provably drop them. Columns:
//!
//! - `full` / `sliced`: best (minimum) replay wall over `reps` runs of
//!   the same probed query on the bytecode VM with slicing off vs on,
//!   and the per-iteration cost each implies. `slice_speedup` (held to
//!   ≥3× by the CI gate and an in-binary assert) is their ratio; the
//!   two logs are asserted byte-identical first.
//! - `memo`: a cold registry query (full replay + cache fill) vs a
//!   *textually different* probe that slices to the same live cone —
//!   served from the slice cache for the price of a parse+slice. The
//!   `cache.slice_hits` counter delta asserts the memo path ran;
//!   `memo_speedup` is asserted ≥10× in-binary (it is fixture-scale
//!   dependent, so the CI tolerance band gates `slice_speedup` only).
//!
//! ```text
//! cargo run --release -p flor-bench --bin bench_slice [-- OUT.json]
//! ```
//!
//! Quick mode (`FLOR_BENCH_QUICK=1`, used by `tools/bench.sh` in CI)
//! shrinks the fixture so the smoke run finishes in well under a second.

use flor_core::record::{record, RecordOptions};
use flor_core::replay::{replay, ReplayOptions};
use flor_core::InitMode;
use flor_registry::Registry;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Sparse-dependency training-shaped loop. The probe keeps `acc` and the
/// one-unit `w` strand live; the three `units`-unit `dead_*` strands are
/// provably unread. Sliced replay cost is then dominated by `busy(1)` per
/// inner iteration, so `slice_speedup` ≈ the dead/live busy ratio
/// (1 + 3·units) — invariant across the quick and full fixture scales,
/// which is what lets the CI tolerance band gate it.
fn slice_script(epochs: u64, batches: u64, units: u64) -> String {
    format!(
        "\
import flor
base = 2
acc = 0
for epoch in flor.partition(range({epochs})):
    acc = acc + base
    for i in range({batches}):
        w = busy(1)
        acc = acc + i
        dead_a = busy({units})
        dead_b = busy({units})
        dead_c = busy({units})
        dead_d = epoch * 7 + i
    log(\"loss\", acc)
"
    )
}

/// Best-of-reps: on a shared single-core host the minimum is the
/// least-interfered run, and is far stabler than the median.
fn best(xs: &[u64]) -> u64 {
    xs.iter().copied().min().expect("at least one rep")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flor-bench-slice-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_slice.json".to_string());
    let quick = std::env::var("FLOR_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false);
    // Same per-iteration shape (batches, units) in both modes — quick only
    // trims epochs and reps, so the ratio metrics stay comparable.
    let (epochs, batches, units, reps) = if quick {
        (4u64, 12u64, 4u64, 2usize)
    } else {
        (8, 24, 4, 4)
    };
    let src = slice_script(epochs, batches, units);
    let probed = src.replace(
        "        acc = acc + i\n",
        "        acc = acc + i\n        log(\"probe_acc\", acc)\n        log(\"probe_w\", w)\n",
    );
    assert_ne!(probed, src, "probe must land");

    eprintln!("recording {epochs}x{batches} sparse-dependency fixture…");
    let store = tmp_dir("store");
    let mut ropts = RecordOptions::new(&store);
    ropts.adaptive = false;
    record(&src, &ropts).expect("record fixture");

    let replay_opts = |slice: bool| ReplayOptions {
        workers: 1,
        init_mode: InitMode::Strong,
        steal: false,
        slice,
        module_cache: None,
        cancel: None,
    };

    eprintln!("replaying probed query unsliced × {reps} rep(s)…");
    let full_log = replay(&probed, &store, &replay_opts(false))
        .expect("warmup full replay")
        .log;
    let mut full_walls = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let report = replay(&probed, &store, &replay_opts(false)).expect("full replay");
        full_walls.push(t0.elapsed().as_nanos() as u64);
        assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);
        assert_eq!(report.stats.statements_elided, 0);
    }

    eprintln!("replaying the same query sliced × {reps} rep(s)…");
    let mut sliced_walls = Vec::with_capacity(reps);
    let mut elided = 0u64;
    let mut live_permille = 0u32;
    replay(&probed, &store, &replay_opts(true)).expect("warmup sliced replay");
    for _ in 0..reps {
        let t0 = Instant::now();
        let report = replay(&probed, &store, &replay_opts(true)).expect("sliced replay");
        sliced_walls.push(t0.elapsed().as_nanos() as u64);
        assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);
        assert_eq!(
            report.log, full_log,
            "sliced replay diverged from the full replay"
        );
        elided = report.stats.statements_elided;
        live_permille = report.stats.slice_permille;
    }
    assert!(elided > 0, "the dead strands must be elided");

    eprintln!("cross-query memo: cold registry query, then a textual variant…");
    // The memo query's probe additionally reads `dead_a`, pulling one of
    // the heavy strands into the live cone: the cold query pays real
    // (sliced) replay work, the memoized one pays only a parse+slice.
    let memo_probed = probed.replace(
        "        dead_d = epoch * 7 + i\n",
        "        dead_d = epoch * 7 + i\n        log(\"probe_busy\", dead_a)\n",
    );
    assert_ne!(memo_probed, probed);
    let registry = Registry::open(tmp_dir("registry")).expect("open registry");
    registry
        .record_run("bench-slice", &src, |o| o.adaptive = false)
        .expect("record into registry");
    let t0 = Instant::now();
    let cold = registry
        .query("bench-slice", &memo_probed, 1)
        .expect("cold query");
    let cold_ns = t0.elapsed().as_nanos() as u64;
    assert!(!cold.cached);
    // A blank line: new raw query text, same parse → same slice class.
    let variant = memo_probed.replace("import flor\n", "import flor\n\n");
    assert_ne!(variant, memo_probed);
    let h0 = flor_obs::metrics::counter("cache.slice_hits").get();
    let t0 = Instant::now();
    let warm = registry
        .query("bench-slice", &variant, 1)
        .expect("warm query");
    let warm_ns = t0.elapsed().as_nanos() as u64;
    let slice_hits = flor_obs::metrics::counter("cache.slice_hits").get() - h0;
    assert!(warm.cached, "variant must be served from the slice cache");
    assert_eq!(warm.slice_cache_hits, 1);
    assert_eq!(slice_hits, 1, "exactly one slice-cache hit counted");
    assert_eq!(warm.log, cold.log, "memoized answer diverged");

    let full_wall = best(&full_walls);
    let sliced_wall = best(&sliced_walls);
    let full_iter_ns = full_wall as f64 / epochs as f64;
    let sliced_iter_ns = sliced_wall as f64 / epochs as f64;
    let slice_speedup = full_wall as f64 / sliced_wall.max(1) as f64;
    let memo_speedup = cold_ns as f64 / warm_ns.max(1) as f64;
    eprintln!(
        "slice: full {:.2}ms/iter vs sliced {:.2}ms/iter — {slice_speedup:.2}x \
         ({elided} stmts elided, {live_permille}‰ live); memo {:.2}ms cold vs {:.3}ms warm — \
         {memo_speedup:.1}x",
        full_iter_ns / 1e6,
        sliced_iter_ns / 1e6,
        cold_ns as f64 / 1e6,
        warm_ns as f64 / 1e6,
    );
    assert!(
        slice_speedup >= 3.0,
        "sliced replay must be ≥3× over unsliced: got {slice_speedup:.2}x"
    );
    assert!(
        memo_speedup >= 10.0,
        "memoized second query must be ≥10× over cold: got {memo_speedup:.2}x"
    );

    let mut body = String::new();
    let _ = writeln!(body, "{{");
    let _ = writeln!(body, "  \"bench\": \"slice\",");
    let _ = writeln!(
        body,
        "  \"description\": \"dependency-aware incremental replay on a sparse-dependency \
         fixture (live accumulator + three unread busy strands per inner iteration, inner \
         skipblock probed): bytecode-VM replay with backward slicing off vs on, plus the \
         cross-query slice memo — a textually different probe with the same live cone served \
         from the slice cache, with the cache.slice_hits counter delta asserting the path\","
    );
    let _ = writeln!(body, "  \"quick\": {quick},");
    let _ = writeln!(
        body,
        "  \"fixture\": {{\"epochs\": {epochs}, \"batches\": {batches}, \
         \"busy_units\": {units}, \"reps\": {reps}}},"
    );
    let _ = writeln!(
        body,
        "  \"full\": {{\"best_wall_ns\": {full_wall}, \"iter_ns\": {full_iter_ns:.0}}},"
    );
    let _ = writeln!(
        body,
        "  \"sliced\": {{\"best_wall_ns\": {sliced_wall}, \"iter_ns\": {sliced_iter_ns:.0}, \
         \"statements_elided\": {elided}, \"live_permille\": {live_permille}}},"
    );
    let _ = writeln!(
        body,
        "  \"memo\": {{\"cold_ns\": {cold_ns}, \"warm_ns\": {warm_ns}, \
         \"slice_cache_hits_counted\": {slice_hits}}},"
    );
    let _ = writeln!(body, "  \"slice_speedup\": {slice_speedup:.2},");
    let _ = writeln!(body, "  \"memo_speedup\": {memo_speedup:.2}");
    let _ = writeln!(body, "}}");

    std::fs::write(&out_path, &body).expect("write BENCH_slice.json");
    eprintln!("wrote {out_path}");
}
