//! Emits `BENCH_interp.json`: the bytecode VM's per-iteration cost next
//! to the reference tree-walker (the test oracle), plus the
//! compiled-module caching columns (cold compile vs cached fetch).
//!
//! The fixture is deliberately interpreter-bound: a training-shaped
//! nested loop of arithmetic, subscripts, branches, and per-epoch `log`
//! statements with **no** `busy()` spin, so per-iteration cost is pure
//! dispatch + name traffic — the overhead hindsight replay pays on every
//! re-executed iteration. Columns:
//!
//! - `tree_walk` / `vm`: best (minimum) wall over `reps` whole-program
//!   runs — the least-interfered run on a shared core — and the
//!   per-iteration cost it implies. CI gates `vm.iter_ns` as an absolute
//!   per-iteration ceiling; `vm_speedup` is their ratio, reported for
//!   the record.
//! - `compile`: best cold `compile_program` wall vs a cached
//!   `ModuleCache::get_or_compile` hit, with the `vm.compile` /
//!   `vm.module_cache_hits` counter deltas asserting which path ran.
//!   `cold_compile_iters` prices one compile in VM iterations — the
//!   break-even replay length for compiling at all.
//!
//! ```text
//! cargo run --release -p flor-bench --bin bench_interp [-- OUT.json]
//! ```
//!
//! Quick mode (`FLOR_BENCH_QUICK=1`, used by `tools/bench.sh` in CI)
//! shrinks the iteration counts so the smoke run finishes in under a
//! second.

use flor_core::interp::{Interp, Mode};
use flor_core::vm::{compile_program, ModuleCache};
use flor_lang::parse;
use std::fmt::Write as _;
use std::time::Instant;

/// Interpreter-bound main loop: a scalar two-weight SGD update — every
/// inner line is dispatch, name traffic, and float arithmetic with no
/// native compute to hide behind. Name-heavy on purpose: per iteration
/// the tree-walker pays a hash lookup per read and a `String` clone +
/// hash insert per assignment, which is exactly the cost slot
/// resolution compiles away.
fn interp_script(epochs: u64, steps: u64) -> String {
    format!(
        "\
import flor
w1 = 0.5
w2 = 0.25
b1 = 0.1
b2 = 0.2
m1 = 0.0
m2 = 0.0
lr = 0.01
beta = 0.9
decay = 0.999
ema = 0.0
hits = 0
for epoch in range({epochs}):
    total = 0.0
    for step in range({steps}):
        x = step % 16 * 0.125
        target = x * 3.0 - 1.0
        h = w1 * x + b1
        pred = w2 * h + b2 + w1 * x * 0.5
        err = pred - target
        loss = err * err
        g2 = err * h + err * x * 0.5
        g1 = err * w2 * x + err * x
        m1 = beta * m1 + g1 - beta * g1
        m2 = beta * m2 + g2 - beta * g2
        w1 = w1 * decay - lr * m1
        w2 = w2 * decay - lr * m2
        b1 = b1 - lr * err
        b2 = b2 - lr * err * 0.5
        total = total + loss
        ema = ema * 0.99 + loss * 0.01
        if loss < ema:
            hits = hits + 1
    log(\"loss\", total)
log(\"w1\", w1)
log(\"hits\", hits)
log(\"ema\", ema)
"
    )
}

/// Best-of-reps: on a shared single-core host the minimum is the
/// least-interfered run, and is far stabler than the median.
fn best(xs: &[u64]) -> u64 {
    xs.iter().copied().min().expect("at least one rep")
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_interp.json".to_string());
    let quick = std::env::var("FLOR_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false);
    // Quick mode still needs enough reps and iterations for the
    // best-of-reps minimum to converge — min-of-2 over 600 iterations
    // swings ±40% on a shared core, tripping the CI band on noise.
    let (epochs, steps, reps, compile_reps) = if quick {
        (12u64, 200u64, 6usize, 3usize)
    } else {
        (50, 1000, 5, 20)
    };
    let iterations = epochs * steps;
    let src = interp_script(epochs, steps);
    let prog = parse(&src).expect("parse fixture");

    eprintln!("tree-walking {iterations} iterations × {reps} rep(s)…");
    let mut tree_walls = Vec::with_capacity(reps);
    let mut tree_log = Vec::new();
    Interp::new(Mode::Vanilla)
        .run_reference(&prog)
        .expect("warmup");
    for _ in 0..reps {
        let mut interp = Interp::new(Mode::Vanilla);
        let t0 = Instant::now();
        interp.run_reference(&prog).expect("tree-walk run");
        tree_walls.push(t0.elapsed().as_nanos() as u64);
        tree_log = interp.log.entries().to_vec();
    }

    eprintln!("vm: same fixture on the bytecode VM…");
    let module = compile_program(&prog).expect("compile fixture");
    Interp::new(Mode::Vanilla).run_vm(&module).expect("warmup");
    let d0 = flor_obs::metrics::counter("vm.dispatch").get();
    let mut vm_walls = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut interp = Interp::new(Mode::Vanilla);
        let t0 = Instant::now();
        interp.run_vm(&module).expect("vm run");
        vm_walls.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(
            interp.log.entries(),
            &tree_log[..],
            "executors diverged on the bench fixture"
        );
    }
    let dispatched = (flor_obs::metrics::counter("vm.dispatch").get() - d0) / reps as u64;

    eprintln!("compile: cold lowering × {compile_reps}, then cached-module fetches…");
    let c0 = flor_obs::metrics::counter("vm.compile").get();
    let mut compile_walls = Vec::with_capacity(compile_reps);
    for _ in 0..compile_reps {
        let t0 = Instant::now();
        std::hint::black_box(compile_program(&prog).expect("cold compile"));
        compile_walls.push(t0.elapsed().as_nanos() as u64);
    }
    let cold_compiles = flor_obs::metrics::counter("vm.compile").get() - c0;
    assert_eq!(cold_compiles, compile_reps as u64);

    let cache = ModuleCache::new();
    let key = "bench-interp-fixture";
    cache.get_or_compile(key, &prog).expect("warm the cache");
    let fetches = 10_000u64;
    let h0 = flor_obs::metrics::counter("vm.module_cache_hits").get();
    let t0 = Instant::now();
    for _ in 0..fetches {
        std::hint::black_box(cache.get_or_compile(key, &prog).expect("cached fetch"));
    }
    let fetch_ns = t0.elapsed().as_nanos() as u64 / fetches;
    let cache_hits = flor_obs::metrics::counter("vm.module_cache_hits").get() - h0;
    assert_eq!(cache_hits, fetches, "every warm fetch must be a cache hit");

    let tree_wall = best(&tree_walls);
    let vm_wall = best(&vm_walls);
    let compile_ns = best(&compile_walls);
    let tree_iter_ns = tree_wall as f64 / iterations as f64;
    let vm_iter_ns = vm_wall as f64 / iterations as f64;
    let vm_speedup = tree_wall as f64 / vm_wall.max(1) as f64;
    let cold_compile_iters = compile_ns as f64 / vm_iter_ns.max(1e-9);

    let mut body = String::new();
    let _ = writeln!(body, "{{");
    let _ = writeln!(body, "  \"bench\": \"interp\",");
    let _ = writeln!(
        body,
        "  \"description\": \"replay interpreter, tree-walking AST interpreter (pre-VM executor) \
         vs the bytecode VM on an interpreter-bound training-shaped loop (arithmetic + log, no \
         native spin); 'compile' prices cold lowering vs a cached-module fetch keyed by \
         source_version, with metric-counter deltas asserting which path ran\","
    );
    let _ = writeln!(body, "  \"quick\": {quick},");
    let _ = writeln!(
        body,
        "  \"fixture\": {{\"epochs\": {epochs}, \"steps\": {steps}, \
         \"iterations\": {iterations}, \"reps\": {reps}}},"
    );
    let _ = writeln!(
        body,
        "  \"tree_walk\": {{\"best_wall_ns\": {tree_wall}, \"iter_ns\": {tree_iter_ns:.1}}},"
    );
    let _ = writeln!(
        body,
        "  \"vm\": {{\"best_wall_ns\": {vm_wall}, \"iter_ns\": {vm_iter_ns:.1}, \
         \"dispatched_ops\": {dispatched}, \"ns_per_op\": {:.2}}},",
        vm_wall as f64 / dispatched.max(1) as f64
    );
    let _ = writeln!(
        body,
        "  \"compile\": {{\"cold_best_ns\": {compile_ns}, \"cached_fetch_ns\": {fetch_ns}, \
         \"cold_compiles_counted\": {cold_compiles}, \"cache_hits_counted\": {cache_hits}, \
         \"cold_compile_iters\": {cold_compile_iters:.1}}},"
    );
    let _ = writeln!(body, "  \"vm_speedup\": {vm_speedup:.2}");
    let _ = writeln!(body, "}}");

    std::fs::write(&out_path, &body).expect("write BENCH_interp.json");
    eprintln!(
        "interp: tree-walk {:.0}ns/iter vs vm {:.0}ns/iter — {vm_speedup:.2}x; \
         compile {:.1}µs cold vs {fetch_ns}ns cached (≈{cold_compile_iters:.0} iterations to amortize)",
        tree_iter_ns,
        vm_iter_ns,
        compile_ns as f64 / 1e3,
    );
    eprintln!("wrote {out_path}");
}
