//! Read-path measurement for the replay hot path.
//!
//! Builds a checkpoint store and measures what a replay worker pays per
//! restore through zero-copy [`CheckpointStore::get_bytes`] — a
//! sharded-index lookup and a slice of the shared segment buffer — plus
//! the cold open, which reads the manifest once and stats only segments.
//!
//! Used by the `bench_replay` criterion bench and the `bench_replay_json`
//! binary that emits `BENCH_replay.json` (the committed per-restore
//! baseline; `flor-sim`'s `cost::read_cost` constants come from it).

use flor_chkpt::{CheckpointStore, StoreOptions};
use std::path::PathBuf;
use std::time::Instant;

/// Payload bytes per checkpoint in the standard fixture.
pub const PAYLOAD_BYTES: usize = 256;

/// Blocks the fixture spreads its checkpoints across (a multi-block run,
/// so the sharded index sees more than one key).
pub const BLOCKS: u64 = 8;

/// Segment roll target of the fixture store, pinned so every segment
/// holds the same number of checkpoints whatever the fixture's size.
pub const SEGMENT_TARGET_BYTES: u64 = 1 << 20;

/// The fixture store's options.
fn fixture_options() -> StoreOptions {
    StoreOptions {
        segment_target_bytes: SEGMENT_TARGET_BYTES,
        ..StoreOptions::default()
    }
}

/// A store fixture of `checkpoints` identical-shape payloads.
pub struct ReadFixture {
    root: PathBuf,
    /// Checkpoints written.
    pub checkpoints: u64,
}

/// Deterministic xorshift bytes — incompressible, like real tensor
/// payloads (the case the zero-copy raw-stored path exists for).
pub fn payload(seed: u32, n: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(2654435761).max(1);
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x as u8
        })
        .collect()
}

/// The fixture's key set, in write order.
pub fn keys(checkpoints: u64) -> Vec<(String, u64)> {
    (0..checkpoints)
        .map(|i| (format!("sb_{}", i % BLOCKS), i / BLOCKS))
        .collect()
}

impl ReadFixture {
    /// Builds (or rebuilds) a store of `checkpoints` payloads under a temp
    /// directory tagged `tag`.
    pub fn build(tag: &str, checkpoints: u64) -> ReadFixture {
        let root = std::env::temp_dir().join(format!(
            "flor-bench-replay-read-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store =
            CheckpointStore::open_opts(&root, fixture_options()).expect("open fixture store");
        // Batched writes, like the materializer's group commits.
        for chunk in keys(checkpoints).chunks(64) {
            let mut batch = store.batch();
            for (i, (block, seq)) in chunk.iter().enumerate() {
                batch.stage(block, *seq, &payload(*seq as u32 + i as u32, PAYLOAD_BYTES));
            }
            batch.commit().expect("commit fixture batch");
        }
        ReadFixture { root, checkpoints }
    }

    /// Fixture root directory.
    pub fn root(&self) -> &PathBuf {
        &self.root
    }

    /// Opens the fixture store (counts as a cold open only if no other
    /// handle is live; the OS page cache stays warm either way, so the
    /// open cost measured is syscalls and parsing, not disk).
    pub fn open(&self) -> CheckpointStore {
        CheckpointStore::open_opts(&self.root, fixture_options()).expect("reopen fixture store")
    }

    /// Times a cold open (manifest load + recovery scan), ns.
    pub fn cold_open_ns(&self) -> u64 {
        let t0 = Instant::now();
        let store = self.open();
        let ns = t0.elapsed().as_nanos() as u64;
        drop(store);
        ns
    }
}

/// Latency distribution over one pass of reads.
#[derive(Debug, Clone, Copy)]
pub struct ReadMeasurement {
    /// Reads performed.
    pub reads: u64,
    /// Median per-read latency, ns.
    pub median_ns: u64,
    /// Mean per-read latency, ns.
    pub mean_ns: u64,
    /// p99 per-read latency, ns.
    pub p99_ns: u64,
}

/// Reads up to `sample` keys of the fixture once each through
/// `get_bytes`, in a deterministic pseudo-shuffled order (defeats trivial
/// locality without `rand`), and reports the latency distribution.
pub fn measure_reads(
    store: &CheckpointStore,
    fixture: &ReadFixture,
    sample: u64,
) -> ReadMeasurement {
    let all = keys(fixture.checkpoints);
    let n = all.len() as u64;
    let sample = sample.min(n).max(1);
    // Golden-ratio stride walk visits distinct indices in scattered order
    // — valid only while gcd(stride, n) == 1, so nudge the stride until it
    // is coprime (otherwise the walk cycles over a subset and the medians
    // would be warm re-reads).
    fn gcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }
    let mut stride = ((n as f64 * 0.6180339887) as u64) | 1;
    while gcd(stride, n) != 1 {
        stride += 2;
    }
    let mut lat: Vec<u64> = Vec::with_capacity(sample as usize);
    let mut checksum = 0u64;
    for k in 0..sample {
        let (block, seq) = &all[((k * stride) % n) as usize];
        let t0 = Instant::now();
        let b = store.get_bytes(block, *seq).expect("fixture read");
        checksum ^= b.len() as u64;
        lat.push(t0.elapsed().as_nanos() as u64);
    }
    assert!(checksum != u64::MAX, "keep the reads observable");
    lat.sort_unstable();
    ReadMeasurement {
        reads: sample,
        median_ns: lat[lat.len() / 2],
        mean_ns: lat.iter().sum::<u64>() / lat.len() as u64,
        p99_ns: lat[(lat.len() * 99 / 100).min(lat.len() - 1)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_reads_every_sampled_key_once() {
        let fixture = ReadFixture::build("measure", 128);
        let store = fixture.open();
        let m = measure_reads(&store, &fixture, 128);
        assert_eq!(m.reads, 128);
        assert_eq!(store.stats().reads, 128);
        assert!(m.median_ns > 0 && m.mean_ns > 0 && m.p99_ns >= m.median_ns);
    }
}
