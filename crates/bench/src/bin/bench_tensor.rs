//! Emits `BENCH_tensor.json`: the cost of one MLP training step and of the
//! matrix kernels inside it, at the shapes of the e2ebench workloads.
//!
//! Re-executing training is what a hindsight probe inside the batch loop
//! costs (logical recovery), and that re-execution is MLP forward,
//! backward and optimizer step. Columns, per shape:
//!
//! - `step_ns`: best (minimum) wall over `reps` runs of `steps` SGD steps
//!   (zero_grad, forward, cross-entropy forward and backward, model
//!   backward, momentum step), divided by `steps`. CI gates it as an
//!   absolute per-step ceiling: per-step cost is the same in the quick and
//!   full fixtures.
//! - `fwd_ns`, `dw_ns`, `dx_ns`: best ns per call of a hidden layer's
//!   three products on ReLU-sparse operands: forward `x · W`, weight
//!   gradient `xᵀ · g` (`matmul_tn`, no transposed copy) and input
//!   gradient `g · Wᵀ` (tiled transpose, then `matmul`).
//!
//! Shapes: `base` is 64 → 128×3 → 4 at batch 64, `wide` the same with
//! hidden width 256 (e2ebench's `base` and `wide` models).
//!
//! ```text
//! cargo run --release -p flor-bench --bin bench_tensor [-- OUT.json]
//! ```
//!
//! Quick mode (`FLOR_BENCH_QUICK=1`, used by `tools/bench.sh` in CI)
//! runs fewer steps and reps of the same shapes.

use flor_ml::{models, CrossEntropyLoss, DataLoader, Optimizer, Sgd, SyntheticClassification};
use flor_tensor::{init, ops, Pcg64, Tensor};
use std::fmt::Write as _;
use std::time::Instant;

const BATCH: usize = 64;
const INPUT: usize = 64;
const CLASSES: usize = 4;
const DEPTH: usize = 3;

struct Shape {
    name: &'static str,
    hidden: usize,
}

const SHAPES: [Shape; 2] = [
    Shape {
        name: "base",
        hidden: 128,
    },
    Shape {
        name: "wide",
        hidden: 256,
    },
];

/// Best ns per call of `f` over `reps` runs of `calls` calls each.
fn best_ns(reps: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// ns per SGD step on the e2ebench training script's model and optimizer.
fn step_ns(hidden: usize, reps: usize, steps: usize) -> f64 {
    let data = SyntheticClassification::generate(1024, INPUT, CLASSES, 4.0, 1);
    let mut loader = DataLoader::new(data.len(), BATCH, 2);
    let batches: Vec<_> = loader
        .next_epoch()
        .iter()
        .map(|idx| data.gather(idx))
        .collect();
    let mut net = models::mlp(INPUT, hidden, CLASSES, DEPTH, &mut Pcg64::seeded(3));
    let mut opt = Sgd::new(0.005, 0.9, 0.0);
    let mut criterion = CrossEntropyLoss::new();
    let mut i = 0;
    best_ns(reps, steps, || {
        let (x, y) = &batches[i % batches.len()];
        i += 1;
        net.zero_grad();
        let preds = net.forward(x);
        std::hint::black_box(criterion.forward(&preds, y));
        net.backward(&criterion.backward());
        opt.step(&mut net);
    })
}

/// A `[rows, cols]` matrix with ReLU's zero pattern (about half zeros).
fn relu_sparse(rows: usize, cols: usize, rng: &mut Pcg64) -> Tensor {
    ops::relu(&init::uniform([rows, cols], -1.0, 1.0, rng))
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_tensor.json".to_string());
    let quick = std::env::var("FLOR_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false);
    let (reps, steps, calls) = if quick { (30, 16, 16) } else { (40, 64, 64) };
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;

    let mut body = String::new();
    let _ = writeln!(body, "{{");
    let _ = writeln!(body, "  \"bench\": \"tensor\",");
    let _ = writeln!(
        body,
        "  \"description\": \"one MLP SGD step (forward, cross-entropy, backward, momentum \
         step) and its hidden-layer products (forward x.W, weight gradient xT.g via matmul_tn, \
         input gradient g.WT via tiled transpose + matmul) on ReLU-sparse operands; best ns \
         over reps\","
    );
    let _ = writeln!(body, "  \"quick\": {quick},");
    let _ = writeln!(body, "  \"avx2\": {avx2},");
    let _ = writeln!(
        body,
        "  \"fixture\": {{\"batch\": {BATCH}, \"input\": {INPUT}, \"classes\": {CLASSES}, \
         \"depth\": {DEPTH}, \"steps\": {steps}, \"kernel_calls\": {calls}, \"reps\": {reps}}},"
    );
    for (s, shape) in SHAPES.iter().enumerate() {
        let h = shape.hidden;
        eprintln!("{}: {steps} steps × {reps} reps at hidden {h}…", shape.name);
        let step = step_ns(h, reps, steps);
        let mut rng = Pcg64::seeded(4);
        let x = relu_sparse(BATCH, h, &mut rng);
        let g = relu_sparse(BATCH, h, &mut rng);
        let w = init::kaiming_normal(h, h, &mut rng);
        let fwd = best_ns(reps, calls, || {
            std::hint::black_box(x.matmul(&w));
        });
        let dw = best_ns(reps, calls, || {
            std::hint::black_box(x.matmul_tn(&g));
        });
        let dx = best_ns(reps, calls, || {
            std::hint::black_box(g.matmul(&w.transpose()));
        });
        let comma = if s + 1 < SHAPES.len() { "," } else { "" };
        let _ = writeln!(
            body,
            "  \"{}\": {{\"hidden\": {h}, \"step_ns\": {step:.0}, \"fwd_ns\": {fwd:.0}, \
             \"dw_ns\": {dw:.0}, \"dx_ns\": {dx:.0}}}{comma}",
            shape.name
        );
        eprintln!(
            "{}: {:.1} µs/step; hidden fwd {:.1} µs, dW {:.1} µs, dx {:.1} µs",
            shape.name,
            step / 1e3,
            fwd / 1e3,
            dw / 1e3,
            dx / 1e3
        );
    }
    let _ = writeln!(body, "}}");
    std::fs::write(&out_path, &body).expect("write BENCH_tensor.json");
    eprintln!("wrote {out_path}");
}
