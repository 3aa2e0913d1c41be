//! Golden cross-version test for the tensor kernels.
//!
//! Hindsight logs and checkpoints must stay byte-identical across builds:
//! a replay on a new binary restores checkpoints written by an old one and
//! must recompute the same losses bit for bit. This test pins a hash of the
//! exact `f32` bits of every loss, the final predictions and the final
//! weights of short, fixed `mlp` + `sgd(momentum)` runs. Any kernel change
//! that reorders a sum, drops the zero skip or contracts `a * b + c` into an
//! FMA changes these bits and fails here.

use flor_ml::{models, CrossEntropyLoss, DataLoader, Optimizer, Sgd, SyntheticClassification};
use flor_tensor::Pcg64;

/// 64-bit FNV-1a over a stream of `f32` bit patterns.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn f32(&mut self, x: f32) {
        for b in x.to_bits().to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

struct Run {
    samples: usize,
    dim: usize,
    hidden: usize,
    classes: usize,
    depth: usize,
    batch: usize,
    epochs: usize,
}

/// Trains `run` and hashes every loss, the final full-data logits and the
/// final parameter values (in state-dict order).
fn train_hash(run: &Run) -> u64 {
    let data = SyntheticClassification::generate(run.samples, run.dim, run.classes, 4.0, 11);
    let mut loader = DataLoader::new(data.len(), run.batch, 12);
    let mut rng = Pcg64::seeded(13);
    let mut net = models::mlp(run.dim, run.hidden, run.classes, run.depth, &mut rng);
    let mut opt = Sgd::new(0.005, 0.9, 0.0);
    let mut criterion = CrossEntropyLoss::new();
    let mut h = Fnv::new();
    for _ in 0..run.epochs {
        for idx in loader.next_epoch() {
            let (x, y) = data.gather(&idx);
            net.zero_grad();
            let preds = net.forward(&x);
            h.f32(criterion.forward(&preds, &y));
            net.backward(&criterion.backward());
            opt.step(&mut net);
        }
    }
    let all: Vec<usize> = (0..data.len()).collect();
    for &v in net.forward(&data.gather(&all).0).data() {
        h.f32(v);
    }
    for (_, t) in net.state_dict().iter() {
        for &v in t.data() {
            h.f32(v);
        }
    }
    h.0
}

#[test]
fn mlp_sgd_momentum_bits_are_pinned() {
    // The e2ebench `base` model (64 → 128×3 → 4, batch 64) and an odd
    // shape whose every width leaves a partial SIMD tail.
    let runs = [
        (
            Run {
                samples: 256,
                dim: 64,
                hidden: 128,
                classes: 4,
                depth: 3,
                batch: 64,
                epochs: 5,
            },
            0x37dd_fce4_5e53_bb9cu64,
        ),
        (
            Run {
                samples: 70,
                dim: 13,
                hidden: 37,
                classes: 5,
                depth: 2,
                batch: 9,
                epochs: 5,
            },
            0x8e45_1993_73c8_70d5u64,
        ),
    ];
    for (i, (run, want)) in runs.iter().enumerate() {
        let got = train_hash(run);
        assert_eq!(got, *want, "run {i}: got {got:#018x}, want {want:#018x}");
    }
}
