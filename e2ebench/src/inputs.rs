//! Seeded inputs. Everything the program under test receives — the
//! training script, probe files and the serve request mix — is generated
//! here from `--seed`, so the same seed gives byte-identical inputs.

/// SplitMix64: small, seedable, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Training-run shape of a workload. Both shapes run 10 epochs of
/// about the same compute; they differ in the width of the model, and so
/// in the bytes each epoch checkpoints and each restore reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub samples: usize,
    pub hidden: usize,
}

pub const BATCH: usize = 64;
pub const EPOCHS: usize = 10;

impl Shape {
    pub fn for_workload(name: &str) -> Option<Shape> {
        match name {
            "base" => Some(Shape {
                samples: 1024,
                hidden: 128,
            }),
            "wide" => Some(Shape {
                samples: 256,
                hidden: 256,
            }),
            _ => None,
        }
    }

    pub fn batches_per_epoch(&self) -> usize {
        self.samples.div_ceil(BATCH)
    }
}

/// Which hindsight probe a query adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `log` of the weight norm after the epoch log: every epoch is
    /// restored from its checkpoint, nothing re-executes.
    Outer,
    /// `log` of the batch loss inside the batch loop: every probed
    /// iteration re-executes.
    Inner,
}

const EPOCH_LOG: &str = "    log(\"loss\", avg.mean())\n";
const BATCH_TAIL: &str = "        avg.update(loss)\n";

/// The seed-derived inputs of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    pub shape: Shape,
    pub script: String,
    /// First probe constant; fresh queries count up from it.
    pub probe_base: u64,
    /// Order of the fresh-query pairs: `true` puts the inner probe first.
    pub pair_order: Vec<bool>,
    /// Probe constants of the probes warmed for serving, by kind.
    pub warm: Vec<(Kind, u64)>,
    /// First blank-line variant index handed to serve clients.
    pub variant_base: u64,
    /// Per-client mix seeds.
    pub client_seeds: Vec<u64>,
}

/// Distinct blank-line variants available (4 choices in each of the
/// top-level gaps of the script).
pub const VARIANT_SPACE: u64 = 1 << 16;

impl Inputs {
    pub fn generate(shape: Shape, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 1);
        // Script literals must fit the language's i64 literals.
        let data_seed = rng.below(1 << 31);
        let loader_seed = rng.below(1 << 31);
        let model_seed = rng.below(1 << 31);
        let script = format!(
            "import flor\n\
             data = synth_data(n={n}, dim=64, classes=4, spread=4.0, seed={data_seed})\n\
             loader = dataloader(data, batch_size={BATCH}, seed={loader_seed})\n\
             net = mlp(input=64, hidden={hidden}, classes=4, depth=3, seed={model_seed})\n\
             optimizer = sgd(net, lr=0.005, momentum=0.9)\n\
             criterion = cross_entropy()\n\
             avg = meter()\n\
             for epoch in range({EPOCHS}):\n\
             \x20   avg.reset()\n\
             \x20   for batch in loader.epoch():\n\
             \x20       optimizer.zero_grad()\n\
             \x20       preds = net.forward(batch)\n\
             \x20       loss = criterion.forward(preds, batch)\n\
             \x20       grad = criterion.backward()\n\
             \x20       net.backward(grad)\n\
             \x20       optimizer.step()\n\
             {BATCH_TAIL}\
             {EPOCH_LOG}\
             acc = evaluate(net, data)\n\
             log(\"accuracy\", acc)\n",
            n = shape.samples,
            hidden = shape.hidden,
        );
        let probe_base = 1 + rng.below(1 << 20);
        let pair_order = (0..4096).map(|_| rng.below(2) == 1).collect();
        // Warm-probe constants live below the fresh-query range so no
        // fresh query can hit a warmed cache entry.
        let warm = vec![
            (Kind::Outer, probe_base + (1 << 21) + rng.below(1 << 20)),
            (Kind::Inner, probe_base + (1 << 22) + rng.below(1 << 20)),
            (Kind::Outer, probe_base + (1 << 23) + rng.below(1 << 20)),
            (Kind::Inner, probe_base + (1 << 24) + rng.below(1 << 20)),
        ];
        let variant_base = rng.below(VARIANT_SPACE);
        let client_seeds = (0..2).map(|_| rng.next()).collect();
        Inputs {
            shape,
            script,
            probe_base,
            pair_order,
            warm,
            variant_base,
            client_seeds,
        }
    }

    /// The script with one probe carrying constant `k`. Distinct
    /// constants make distinct query texts and distinct slices, so
    /// neither the result cache nor the slice memo can answer them.
    pub fn probe(&self, kind: Kind, k: u64) -> String {
        let (anchor, line) = match kind {
            Kind::Outer => (
                EPOCH_LOG,
                format!("    log(\"probe\", net.weight_norm() + {k})\n"),
            ),
            Kind::Inner => (BATCH_TAIL, format!("        log(\"probe\", loss + {k})\n")),
        };
        let out = self.script.replacen(anchor, &format!("{anchor}{line}"), 1);
        assert_ne!(out, self.script, "probe anchor missing");
        out
    }

    /// A textual variant of `src` that parses to the same program: blank
    /// lines inserted in the top-level gaps, chosen by the base-4 digits
    /// of `index`. Different indices below [`VARIANT_SPACE`] give
    /// different texts.
    pub fn blank_line_variant(src: &str, index: u64) -> String {
        assert!(index < VARIANT_SPACE);
        let mut digits = index;
        let mut out = String::with_capacity(src.len() + 32);
        let mut gaps = 0;
        let lines: Vec<&str> = src.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            out.push_str(line);
            out.push('\n');
            let next_top_level = lines
                .get(i + 1)
                .is_some_and(|n| !n.starts_with(' ') && !line.starts_with(' '));
            if next_top_level && gaps < 8 {
                for _ in 0..digits % 4 {
                    out.push('\n');
                }
                digits /= 4;
                gaps += 1;
            }
        }
        assert_eq!(gaps, 8, "script lost its top-level gaps");
        out
    }

    /// Client `c`'s request stream.
    pub fn serve_mix(&self, client: usize) -> ServeMix {
        ServeMix {
            rng: Rng::new(self.client_seeds[client], 0),
            probes: self.warm.len() as u64,
            slot: 0,
            i: 0,
        }
    }
}

/// One serve client's requests: a warm probe per request and, in every
/// block of 16 requests, one blank-line variant at a seeded position
/// (drawn per block, so the two clients' slow requests do not stay in
/// lock-step).
pub struct ServeMix {
    rng: Rng,
    probes: u64,
    slot: u64,
    i: u64,
}

impl Iterator for ServeMix {
    /// (warm probe index, whether to send a blank-line variant of it)
    type Item = (usize, bool);

    fn next(&mut self) -> Option<(usize, bool)> {
        if self.i.is_multiple_of(16) {
            self.slot = self.rng.below(16);
        }
        let probe = self.rng.below(self.probes) as usize;
        let variant = self.i % 16 == self.slot;
        self.i += 1;
        Some((probe, variant))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_inputs(seed: u64) -> String {
        let shape = Shape::for_workload("base").unwrap();
        let inp = Inputs::generate(shape, seed);
        let mut out = format!("{inp:?}");
        for kind in [Kind::Outer, Kind::Inner] {
            out += &inp.probe(kind, inp.probe_base);
        }
        out += &Inputs::blank_line_variant(&inp.probe(Kind::Inner, 7), inp.variant_base);
        for c in 0..2 {
            let mix: Vec<_> = inp.serve_mix(c).take(64).collect();
            assert_eq!(mix.iter().filter(|(_, v)| *v).count(), 4);
            out += &format!("{mix:?}");
        }
        out
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(all_inputs(42), all_inputs(42));
    }

    #[test]
    fn different_seeds_different_inputs() {
        let a = all_inputs(1);
        let b = all_inputs(2);
        assert_ne!(a, b);
        let sa = Inputs::generate(Shape::for_workload("base").unwrap(), 1).script;
        let sb = Inputs::generate(Shape::for_workload("base").unwrap(), 2).script;
        assert_ne!(sa, sb, "the seed must reach the training data");
    }

    #[test]
    fn variants_are_distinct_and_parse_alike() {
        let inp = Inputs::generate(Shape::for_workload("wide").unwrap(), 9);
        let src = inp.probe(Kind::Outer, 5);
        let base = flor_lang::print_program(&flor_lang::parse(&src).unwrap());
        let mut seen = std::collections::HashSet::new();
        for index in [0, 1, 4, 255, 4096, VARIANT_SPACE - 1] {
            let v = Inputs::blank_line_variant(&src, index);
            assert!(seen.insert(v.clone()), "variant {index} repeats");
            let printed = flor_lang::print_program(&flor_lang::parse(&v).unwrap());
            assert_eq!(printed, base);
        }
    }
}
