//! The on-disk checkpoint store — a segmented storage engine.
//!
//! One store per recorded run. Layout under the root directory:
//!
//! ```text
//! root/
//!   MANIFEST              one line per checkpoint:
//!                         "<block_id>\t<seq>\t<location>\t<raw>\t<crc32>\t<line_crc32>"
//!                         location is either a legacy file name under ckpt/
//!                         (v1 stores) or "@<seg>:<offset>:<len>[:r | :d<base>:<depth>]"
//!                         — a payload slice inside a segment (":r" = stored
//!                         uncompressed; ":d<base>:<depth>" = a delta frame
//!                         against the same block's seq <base>, at chain
//!                         depth <depth>). The delta suffix is a strict
//!                         extension of the v2 grammar: v2 lines parse
//!                         unchanged. line_crc32 covers the first five
//!                         fields, so a torn append is detectable.
//!   seg/<NNNNNNNN>.seg    append-only segment files packing many checkpoint
//!                         payloads (the write path for all new checkpoints)
//!   ckpt/<block>.<seq>    legacy file-per-checkpoint payloads (still
//!                         readable; compaction migrates them into segments)
//!   artifacts/<name>      named artifacts (recorded source, record logs)
//! ```
//!
//! # Segment format
//!
//! ```text
//! segment   := magic "FLRSEG1\n" entry* [footer trailer]
//! entry     := block_len:u16 seq:u64 raw:u64 comp:u32 crc:u32 flags:u8
//!              block_id payload            (all integers little-endian)
//! footer    := count:u32 { block_len:u16 block_id seq:u64 offset:u64
//!                          raw:u64 comp:u32 crc:u32 flags:u8 }*
//! trailer   := footer_len:u64 footer_crc:u32 magic "FLRSEGF1"
//! ```
//!
//! `flags` bit 0 set means the payload is stored raw (compression did not
//! shrink it); bit 1 set means the payload is a [`crate::delta`] frame
//! (whose own header carries the base seq, chain depth, and base CRC, so
//! segments stay self-describing). `crc` is always the CRC32 of the fully
//! reconstructed *uncompressed* payload.
//! The footer is written when a segment is sealed (rolled over or the store
//! is dropped cleanly) and makes a segment self-describing: the index can be
//! rebuilt from footers (or, failing that, an entry-header scan) without the
//! MANIFEST. The MANIFEST remains the authoritative index; an unsealed
//! segment (crash before roll) is still fully readable through it.
//!
//! # Delta chains
//!
//! Successive versions of one block differ only slightly (one optimizer
//! step), so [`WriteBatch::stage`] stores a version as a [`crate::delta`]
//! frame against the block's previous payload whenever that earns ≥ 2×
//! over storing it raw: XOR against the base, byte-shuffle into f32
//! lanes, zero-RLE, LZ. The store keeps a per-block last-payload cache
//! ([`Bytes`], refcounted) feeding the encode side, and full keyframes
//! every [`StoreOptions::delta_keyframe_interval`] versions bound every
//! restore to a short chain walk. Reads resolve chains iteratively with a
//! per-block restore cache (sequential replay restores pay O(1) links
//! each, not O(depth)); every level is CRC-verified, and each frame's
//! recorded base CRC is checked against the live base entry so a re-put
//! base fails loudly instead of decoding garbage. Open-time recovery
//! cascade-drops delta entries whose chain base is gone (their data is
//! unreachable — the same contract as a missing segment), and compaction
//! re-encodes delta-bearing blocks payload-by-payload, folding chains
//! into fresh keyframes when the current policy no longer supports them
//! ([`CompactionReport::chains_folded`]).
//!
//! # Read path: zero-copy `get_bytes`
//!
//! [`CheckpointStore::get_bytes`] resolves `(block, seq)` through a
//! *sharded* in-memory index (16 shards, read-write locks, borrowed-key
//! lookups — no allocation and no global lock on the read hot path), maps
//! the segment into a shared refcounted buffer (one mapping per segment —
//! a whole-file `fs::read` where mapping is unavailable — cached and shared
//! by every reader), and returns a [`Bytes`] slice of that buffer. Raw-stored payloads are returned without any copy at all;
//! compressed payloads pay exactly the decompression. The old
//! [`CheckpointStore::get`] survives as a thin `Vec<u8>` compatibility
//! wrapper. Every read is CRC-verified, so corruption surfaces as
//! [`StoreError::Corrupt`] instead of silent replay anomalies.
//!
//! # Open, recovery, and repair
//!
//! Opening a store reads the MANIFEST once and stats each *segment* once —
//! never one `stat` per checkpoint (the v1 engine statted every data file).
//! Entries whose data is gone (a missing legacy file or a missing segment)
//! are dropped from the index, surfaced in a [`RecoveryReport`], and the
//! MANIFEST is rewritten so byte totals stay truthful instead of silently
//! undercounting. Unreferenced ("orphaned") segments — the visible residue
//! of a crash between a compaction's rename and its manifest swap — are
//! reported and left invisible to the index (the next compaction reclaims
//! their disk space; open itself never deletes files, so a read-only open
//! cannot destroy a segment another process is mid-commit into); orphaned
//! legacy files are reported but left in
//! place. A segment that is present but too short for an entry it should
//! contain stays indexed and fails loudly at read time (truncation is
//! corruption, not a skipped checkpoint).
//!
//! # Group commit and the `WriteBatch` durability contract
//!
//! All writes go through [`WriteBatch`]: payloads are *staged* (compressed
//! and CRC-stamped, no I/O), then *committed* together. A commit appends
//! every staged payload to the active segment in **one `write_all`**, then
//! appends all manifest lines in one `write_all` to a persistent kept-open
//! `O_APPEND` handle. Under [`Durability::GroupCommit`] the segment is
//! fsynced *before* the manifest append, then the `seg/` directory, the
//! manifest, and the store root once per batch — the classic group-commit
//! amortization. The ordering (data before manifest) means a manifest line
//! is only ever durable after the payload it describes, so a crash anywhere
//! in a commit leaves a *prefix of whole checkpoints*: complete manifest
//! lines point at complete payload slices, the single torn tail line (if
//! the cut landed inside the batched append) is detected by its line CRC
//! and dropped on recovery, and a torn segment tail past the last durable
//! manifest line is unreferenced dead space that the next compaction
//! reclaims. Reopened stores never append to an existing segment — each
//! writer session starts a fresh one — so a torn tail can never corrupt
//! later offsets.
//!
//! Under [`Durability::Buffered`] (the default) no fsync is issued on the
//! put path: the same ordering is *issued*, but the OS may persist pages
//! out of order, so a crash can durably keep a manifest line whose payload
//! bytes were lost with the segment tail. Such an entry fails loudly as
//! [`StoreError::Corrupt`] at read time — the same contract the v1 engine
//! had for a torn data file — and is deliberately *not* dropped at open: a
//! present-but-short segment is indistinguishable from real truncation
//! corruption, and converting corruption into silent re-execution is the
//! one thing this store must never do. Record under
//! [`Durability::GroupCommit`] when checkpoints must survive power loss.
//!
//! # Compaction / GC
//!
//! Superseded re-puts and dropped entries leave dead bytes in old segments.
//! [`CheckpointStore::compact`] rewrites every *live* payload into fresh,
//! sealed segments (written to temp siblings, fsynced, renamed in), swaps
//! the MANIFEST atomically, and only then deletes the old segments and any
//! migrated legacy files — so a crash at any byte leaves either the
//! pre-compaction or the post-compaction view, never a store with a live
//! checkpoint missing. Legacy v1 stores are migrated into segments by the
//! same pass, which is the upgrade path for old-format data.

use crate::compress::{
    compress_auto_effort, decompress_any, DEFAULT_EFFORT, MAX_EFFORT, MIN_EFFORT,
};
use crate::dedup::{BlobMeta, DedupIndex, Interned};
use crate::delta;
use crate::mmap::MmapRegion;
use bytes::{Buf, Bytes};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::fs;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Store failure.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// No checkpoint for the requested block/seq.
    Missing {
        /// Requested block id.
        block_id: String,
        /// Requested sequence number.
        seq: u64,
    },
    /// Entry exists but its payload fails CRC, bounds, or decompression.
    Corrupt {
        /// Affected block id.
        block_id: String,
        /// Affected sequence number.
        seq: u64,
        /// Detail.
        detail: String,
    },
    /// Malformed manifest.
    BadManifest(String),
    /// Write attempted on a store opened read-only.
    ReadOnly,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Missing { block_id, seq } => {
                write!(f, "no checkpoint for block {block_id:?} seq {seq}")
            }
            StoreError::Corrupt {
                block_id,
                seq,
                detail,
            } => {
                write!(f, "corrupt checkpoint {block_id:?}.{seq}: {detail}")
            }
            StoreError::BadManifest(d) => write!(f, "bad manifest: {d}"),
            StoreError::ReadOnly => write!(f, "store opened read-only"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Metadata of one stored checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptMeta {
    /// SkipBlock id.
    pub block_id: String,
    /// Execution sequence number of this block (0-based).
    pub seq: u64,
    /// Stored (compressed, delta-framed, or raw when incompressible)
    /// payload size.
    pub stored_bytes: u64,
    /// Uncompressed payload size.
    pub raw_bytes: u64,
    /// Delta-chain depth this checkpoint landed at (0 = full keyframe).
    pub chain_depth: u32,
}

/// When the put path reaches stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Writes are buffered by the OS; no fsync on the put path (the
    /// default — record-phase overhead is the paper's protected quantity).
    #[default]
    Buffered,
    /// Each [`WriteBatch::commit`] fsyncs its segment appends, then the
    /// manifest and its directory once per batch. Durable up to the last
    /// committed batch, at an amortized cost of one barrier per batch
    /// instead of one per checkpoint.
    GroupCommit,
}

/// Open-time knobs. [`StoreOptions::default`] is a buffered store with an
/// 8 MiB segment roll target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Put-path durability policy.
    pub durability: Durability,
    /// Roll the active segment once it grows past this many bytes.
    pub segment_target_bytes: u64,
    /// Inspect without mutating anything on disk: open-time recovery only
    /// *reports* (no manifest repair — clobbering the MANIFEST inode would
    /// sever a concurrent writer process's kept-open appender), and every
    /// write API returns [`StoreError::ReadOnly`]. This is what operator
    /// tooling (`flor store stats`) uses to stay safe against a store
    /// another process is recording into.
    pub read_only: bool,
    /// Delta-chain keyframe interval K: a checkpoint may be stored as a
    /// [`crate::delta`] frame against the previous version of the same
    /// block only while its chain depth stays below K, so every K-th
    /// version is a full keyframe and a restore resolves at most K − 1
    /// links. `0` disables delta encoding entirely (every checkpoint is a
    /// keyframe — the pre-delta pipeline).
    pub delta_keyframe_interval: u32,
    /// Payloads below this size are never delta-encoded (the frame header
    /// and the chain walk aren't worth it, and tiny payloads compress or
    /// store raw just fine).
    pub delta_min_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            durability: Durability::default(),
            segment_target_bytes: DEFAULT_SEGMENT_TARGET_BYTES,
            read_only: false,
            delta_keyframe_interval: DEFAULT_DELTA_KEYFRAME_INTERVAL,
            delta_min_bytes: DEFAULT_DELTA_MIN_BYTES,
        }
    }
}

/// Default segment roll threshold.
pub const DEFAULT_SEGMENT_TARGET_BYTES: u64 = 8 * 1024 * 1024;
/// Default delta keyframe interval (chain length bound).
pub const DEFAULT_DELTA_KEYFRAME_INTERVAL: u32 = 8;
/// Default minimum payload size for delta encoding.
pub const DEFAULT_DELTA_MIN_BYTES: u64 = 1024;
/// Depth buckets in [`StoreStats::chain_depth_hist`] (deeper chains land
/// in the last bucket).
pub const CHAIN_DEPTH_BUCKETS: usize = 16;
/// Byte budget for the per-block last-reconstructed-payload cache that
/// makes sequential chain restores O(1) links each.
const RESTORE_CACHE_BUDGET_BYTES: u64 = 256 << 20;
/// Byte budget for the per-block last-committed-payload write cache (the
/// delta base source). An evicted block's next stage falls back to
/// reading the newest committed version from the index — chains survive,
/// the handle just stops pinning raw payloads it may never need again.
const DELTA_WRITE_BUDGET_BYTES: u64 = 256 << 20;
/// After this many consecutive failed delta-encode attempts for a block,
/// the stage path stops probing (and stops copying payloads into the base
/// cache) for it — a from-scratch training run that rewrites every
/// checkpoint must not pay an XOR pass plus a payload memcpy per submit
/// for deltas that never materialize.
const DELTA_REJECT_THRESHOLD: u32 = 4;
/// A back-off'd block re-probes once per this many sequence numbers, so a
/// regime change (training → fine-tuning) resumes chaining.
const DELTA_RETRY_PERIOD: u64 = 8;

const SEGMENT_MAGIC: &[u8; 8] = b"FLRSEG1\n";
const FOOTER_MAGIC: &[u8; 8] = b"FLRSEGF1";
/// Fixed part of a segment entry header (block id and payload follow).
const ENTRY_HEADER_BYTES: u64 = 2 + 8 + 8 + 4 + 4 + 1;
/// Trailer = footer_len (8) + footer_crc (4) + magic (8).
const TRAILER_BYTES: u64 = 20;
/// Payload stored uncompressed (compression did not shrink it).
const FLAG_RAW: u8 = 1;
/// Payload stored as a delta frame (the frame header carries the base
/// seq/depth, so segments stay self-describing).
const FLAG_DELTA: u8 = 2;
/// Index shards; reads lock exactly one, with no allocation.
const SHARDS: usize = 16;
/// Byte budget for cached whole-segment read buffers, per store handle
/// (a count cap would scale with `segment_target_bytes` and let one
/// handle pin arbitrarily much memory). Mmap buffers are charged at their
/// mapped length too — the budget bounds address-space use, not just heap.
const SEGMENT_CACHE_BUDGET_BYTES: u64 = 256 << 20;
/// Keyframes below this stored size skip content-addressed dedup: the
/// blob-file overhead plus the index entry would exceed the savings, and
/// tiny payloads are exactly the ones delta/compression already handle.
const DEDUP_MIN_BYTES: usize = 1024;
/// Pointer file (store root) naming the shared dedup arena directory.
const DEDUP_POINTER_FILE: &str = "DEDUP";
/// Pointer file (store root) naming the cold-tier spool directory.
const SPOOL_POINTER_FILE: &str = "SPOOL";
/// Artifact persisting the auto-tuned compression effort across reopens.
const EFFORT_ARTIFACT: &str = "compression_effort.txt";

/// CRC32 (IEEE, reflected) — hand-rolled so corruption detection has no
/// external dependency. Slicing-by-8: eight table lookups per 8 input
/// bytes instead of one per byte — the put path CRCs every payload, so
/// this sits on the record hot path (~5× over the byte-at-a-time loop,
/// bit-identical results).
pub fn crc32(data: &[u8]) -> u32 {
    // Build the eight tables once.
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        let mut t0 = [0u32; 256];
        for (i, slot) in t0.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB88320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t[0] = t0;
        for k in 1..8usize {
            let prev_row = t[k - 1];
            for (slot, &prev) in t[k].iter_mut().zip(prev_row.iter()) {
                *slot = (prev >> 8) ^ t0[(prev & 0xff) as usize];
            }
        }
        t
    });
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes(ch[0..4].try_into().expect("4 bytes")) ^ c;
        let hi = u32::from_le_bytes(ch[4..8].try_into().expect("4 bytes"));
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// The byte-at-a-time CRC32 — bit-identical to [`crc32`], kept as the
/// differential-test oracle for the sliced loop.
#[cfg(test)]
fn crc32_reference(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB88320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut c = !0u32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// Where one checkpoint's stored payload lives.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Location {
    /// Legacy v1: a whole file under `ckpt/`, always compressed.
    File(String),
    /// A slice of a segment file.
    Segment {
        /// Segment id (file `seg/<id:08>.seg`).
        seg: u64,
        /// Payload byte offset within the segment file.
        offset: u64,
        /// Stored payload length.
        len: u32,
        /// Stored uncompressed (zero-copy readable).
        raw_stored: bool,
        /// `Some((base_seq, depth))` when the stored bytes are a
        /// [`crate::delta`] frame against the same block's `base_seq`
        /// version; `depth` is this entry's chain depth (keyframes are
        /// `None`). Mutually exclusive with `raw_stored`.
        delta: Option<(u64, u32)>,
    },
    /// A content-addressed reference into the shared dedup arena (MANIFEST
    /// v4): the stored bytes live in a blob keyed by `hash`, shared with
    /// every other run that checkpointed identical content.
    Dup {
        /// FNV-1a 64 content address of the stored representation.
        hash: u64,
        /// Same contract as [`Location::Segment::delta`]: the blob holds a
        /// delta frame against the same block's `base_seq` version.
        delta: Option<(u64, u32)>,
    },
}

impl Location {
    /// Renders the manifest `location` field.
    fn render(&self) -> String {
        match self {
            Location::File(f) => f.clone(),
            Location::Segment {
                seg,
                offset,
                len,
                raw_stored,
                delta,
            } => match (raw_stored, delta) {
                (true, _) => format!("@{seg}:{offset}:{len}:r"),
                (false, Some((base, depth))) => format!("@{seg}:{offset}:{len}:d{base}:{depth}"),
                (false, None) => format!("@{seg}:{offset}:{len}"),
            },
            Location::Dup { hash, delta } => match delta {
                Some((base, depth)) => format!("@dup:{hash:016x}:d{base}:{depth}"),
                None => format!("@dup:{hash:016x}"),
            },
        }
    }

    /// Parses a manifest `location` field. Anything that is not a strict
    /// `@<seg>:<offset>:<len>[:r | :d<base>:<depth>]` is a legacy file
    /// name (legacy names always contain a `.`-separated seq suffix, so
    /// they can never parse as a segment slice). The delta suffix is a
    /// strict extension of the v2 grammar: v2 lines parse unchanged.
    fn parse(s: &str) -> Location {
        if let Some(rest) = s.strip_prefix("@dup:") {
            // MANIFEST v4: `@dup:<hash:016x>[:d<base>:<depth>]`. Malformed
            // variants fall through to the legacy-file arm, same as every
            // other grammar extension.
            let parts: Vec<&str> = rest.split(':').collect();
            let delta = match parts.as_slice() {
                [_] => Some(None),
                [_, d, depth] if d.starts_with('d') && d.len() > 1 => {
                    match (d[1..].parse::<u64>(), depth.parse::<u32>()) {
                        (Ok(base), Ok(depth)) => Some(Some((base, depth))),
                        _ => None,
                    }
                }
                _ => None,
            };
            if let Some(delta) = delta {
                if let Ok(hash) = u64::from_str_radix(parts[0], 16) {
                    return Location::Dup { hash, delta };
                }
            }
        }
        if let Some(rest) = s.strip_prefix('@') {
            let parts: Vec<&str> = rest.split(':').collect();
            let delta = match parts.as_slice() {
                [_, _, _] => Some(None),
                [_, _, _, "r"] => Some(None),
                [_, _, _, d, depth] if d.starts_with('d') && d.len() > 1 => {
                    match (d[1..].parse::<u64>(), depth.parse::<u32>()) {
                        (Ok(base), Ok(depth)) => Some(Some((base, depth))),
                        _ => None,
                    }
                }
                _ => None,
            };
            if let Some(delta) = delta {
                if let (Ok(seg), Ok(offset), Ok(len)) =
                    (parts[0].parse(), parts[1].parse(), parts[2].parse())
                {
                    return Location::Segment {
                        seg,
                        offset,
                        len,
                        raw_stored: parts.len() == 4 && parts[3] == "r",
                        delta,
                    };
                }
            }
        }
        Location::File(s.to_string())
    }

    /// The delta chain link of this location, if any.
    fn delta_link(&self) -> Option<(u64, u32)> {
        match self {
            Location::Segment { delta, .. } | Location::Dup { delta, .. } => *delta,
            Location::File(_) => None,
        }
    }
}

/// Index entry for one stored checkpoint.
#[derive(Debug, Clone)]
struct IndexEntry {
    loc: Location,
    /// Uncompressed payload length.
    raw: u64,
    /// CRC32 of the uncompressed payload.
    crc: u32,
    /// Stored payload length (compressed size, or raw size when stored
    /// uncompressed; for legacy files, the file size).
    stored: u64,
}

/// One record of a segment footer (and of the in-memory pending footer of
/// the active segment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentIndexEntry {
    /// Block id.
    pub block_id: String,
    /// Sequence number.
    pub seq: u64,
    /// Payload offset within the segment file.
    pub offset: u64,
    /// Uncompressed payload length.
    pub raw: u64,
    /// Stored payload length.
    pub stored: u32,
    /// CRC32 of the uncompressed payload.
    pub crc: u32,
    /// True when the payload is stored uncompressed.
    pub raw_stored: bool,
    /// True when the payload is a delta frame (the frame's own header
    /// carries the base seq, depth, and base CRC).
    pub delta_stored: bool,
}

fn entry_flags(raw_stored: bool, delta_stored: bool) -> u8 {
    (if raw_stored { FLAG_RAW } else { 0 }) | (if delta_stored { FLAG_DELTA } else { 0 })
}

fn encode_footer(recs: &[SegmentIndexEntry]) -> Vec<u8> {
    let mut body = Vec::with_capacity(16 + recs.len() * 40);
    body.extend_from_slice(&(recs.len() as u32).to_le_bytes());
    for r in recs {
        body.extend_from_slice(&(r.block_id.len() as u16).to_le_bytes());
        body.extend_from_slice(r.block_id.as_bytes());
        body.extend_from_slice(&r.seq.to_le_bytes());
        body.extend_from_slice(&r.offset.to_le_bytes());
        body.extend_from_slice(&r.raw.to_le_bytes());
        body.extend_from_slice(&r.stored.to_le_bytes());
        body.extend_from_slice(&r.crc.to_le_bytes());
        body.push(entry_flags(r.raw_stored, r.delta_stored));
    }
    let crc = crc32(&body);
    let len = body.len() as u64;
    body.extend_from_slice(&len.to_le_bytes());
    body.extend_from_slice(&crc.to_le_bytes());
    body.extend_from_slice(FOOTER_MAGIC);
    body
}

/// Reads the footer index of a sealed segment file. Returns `Ok(None)` for
/// an unsealed (footerless) segment; errors only on I/O or a corrupt
/// footer. The footer makes segments self-describing — the index can be
/// rebuilt from it without the MANIFEST.
pub fn read_segment_footer(path: &Path) -> Result<Option<Vec<SegmentIndexEntry>>, StoreError> {
    let data = fs::read(path)?;
    parse_segment_footer(&data)
}

fn parse_segment_footer(data: &[u8]) -> Result<Option<Vec<SegmentIndexEntry>>, StoreError> {
    let bad = |d: &str| StoreError::BadManifest(format!("segment footer: {d}"));
    if data.len() < TRAILER_BYTES as usize + SEGMENT_MAGIC.len()
        || &data[data.len() - 8..] != FOOTER_MAGIC
    {
        return Ok(None);
    }
    let t = data.len() - TRAILER_BYTES as usize;
    let footer_len = u64::from_le_bytes(data[t..t + 8].try_into().expect("8 bytes")) as usize;
    let footer_crc = u32::from_le_bytes(data[t + 8..t + 12].try_into().expect("4 bytes"));
    if footer_len > t {
        return Err(bad("declared length exceeds file"));
    }
    let body = &data[t - footer_len..t];
    if crc32(body) != footer_crc {
        return Err(bad("crc mismatch"));
    }
    let mut recs = Vec::new();
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], StoreError> {
        let s = body
            .get(*pos..*pos + n)
            .ok_or_else(|| StoreError::BadManifest("segment footer: truncated body".into()))?;
        *pos += n;
        Ok(s)
    };
    let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
    for _ in 0..count {
        let block_len =
            u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("2 bytes")) as usize;
        let block_id = String::from_utf8(take(&mut pos, block_len)?.to_vec())
            .map_err(|_| bad("non-UTF-8 block id"))?;
        let seq = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
        let offset = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
        let raw = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
        let stored = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
        let flags = take(&mut pos, 1)?[0];
        recs.push(SegmentIndexEntry {
            block_id,
            seq,
            offset,
            raw,
            stored,
            crc,
            raw_stored: flags & FLAG_RAW != 0,
            delta_stored: flags & FLAG_DELTA != 0,
        });
    }
    Ok(Some(recs))
}

/// One checkpoint whose data could not be found at open.
#[derive(Debug, Clone)]
pub struct MissingEntry {
    /// Block id.
    pub block_id: String,
    /// Sequence number.
    pub seq: u64,
    /// The manifest location that had no backing data.
    pub location: String,
}

/// What open-time recovery found and did. The v1 engine silently recorded
/// `stored = 0` for entries whose data file had vanished; the segmented
/// engine drops them, repairs the manifest, and tells you.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Manifest entries dropped because their data (legacy file or whole
    /// segment) is gone.
    pub missing_entries: Vec<MissingEntry>,
    /// Segment ids no manifest line references (the residue of a crashed
    /// compaction, or of a batch whose manifest append never became
    /// durable). Invisible to the index; their disk space is reclaimed by
    /// the next [`CheckpointStore::compact`] — open never deletes files,
    /// so a read-only open of a store another process is writing cannot
    /// destroy an in-flight segment.
    pub orphaned_segments: Vec<u64>,
    /// Legacy `ckpt/` files no manifest line references (reported, left in
    /// place).
    pub orphaned_files: Vec<String>,
    /// Stale temp files in `seg/` (reclaimed by the next compaction).
    pub stale_temp_files: u64,
    /// A torn (unterminated, CRC-failing) final manifest line was dropped.
    pub dropped_torn_tail: bool,
    /// The manifest was rewritten to match the recovered index.
    pub repaired_manifest: bool,
    /// A repair was needed but skipped because the store is open
    /// read-only (the next writable open performs it).
    pub repair_pending: bool,
}

impl RecoveryReport {
    /// True when open found nothing to recover or repair.
    pub fn is_clean(&self) -> bool {
        self.missing_entries.is_empty()
            && self.orphaned_segments.is_empty()
            && self.orphaned_files.is_empty()
            && self.stale_temp_files == 0
            && !self.dropped_torn_tail
            && !self.repaired_manifest
            && !self.repair_pending
    }
}

/// Aggregate counters for `flor store stats` and the registry surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live checkpoints in the index.
    pub entries: u64,
    /// Live checkpoints stored in segments.
    pub segment_entries: u64,
    /// Live checkpoints still in legacy per-checkpoint files.
    pub legacy_entries: u64,
    /// Segment files on disk.
    pub segments: u64,
    /// Segments with a valid footer trailer (sealed).
    pub sealed_segments: u64,
    /// Total bytes of all segment files.
    pub segment_disk_bytes: u64,
    /// Stored payload bytes of live segment entries.
    pub live_segment_bytes: u64,
    /// Estimated reclaimable segment bytes (superseded payloads and torn
    /// tails; segment/entry framing is accounted as live).
    pub dead_segment_bytes: u64,
    /// Total uncompressed bytes across live checkpoints.
    pub raw_bytes: u64,
    /// Total stored payload bytes across live checkpoints.
    pub stored_bytes: u64,
    /// `get`/`get_bytes` calls served.
    pub reads: u64,
    /// Reads satisfied by a zero-copy slice (raw-stored segment entries).
    pub zero_copy_reads: u64,
    /// Segment buffer cache hits.
    pub segment_cache_hits: u64,
    /// Segment buffer cache misses (one `fs::read` each).
    pub segment_cache_misses: u64,
    /// Compactions completed on this handle.
    pub compactions: u64,
    /// Disk bytes reclaimed by those compactions.
    pub compaction_reclaimed_bytes: u64,
    /// Live checkpoints stored as delta frames.
    pub delta_entries: u64,
    /// Live checkpoints stored as full keyframes (chain depth 0).
    pub keyframe_entries: u64,
    /// Live entries per chain depth (bucket 0 = keyframes; depths past
    /// the last bucket clamp into it).
    pub chain_depth_hist: [u64; CHAIN_DEPTH_BUCKETS],
    /// Reads that resolved a delta entry.
    pub delta_reads: u64,
    /// Chain links decoded across all delta reads (frames applied).
    pub chain_links_resolved: u64,
    /// Chain-base resolutions served by the per-block restore cache
    /// instead of a recursive decode.
    pub restore_cache_hits: u64,
    /// Live checkpoints stored as `@dup` references into the shared arena.
    pub dedup_entries: u64,
    /// Stages that resolved to an already-present dedup blob.
    pub dedup_hits: u64,
    /// Segments resident in the spool (cold) tier.
    pub tier_cold_segments: u64,
    /// Segment faults served from the spool tier.
    pub tier_cold_reads: u64,
    /// Sealed segments whose local copy was dropped after a verified
    /// spool copy existed.
    pub tier_demotions: u64,
    /// Segment buffers established via mmap (vs. whole-file heap reads).
    pub mmap_faults: u64,
    /// Current compression effort level (1–3).
    pub compression_effort: u64,
}

impl StoreStats {
    /// Compression ratio: raw bytes over stored bytes (> 1 means the
    /// store shrank the data; 1.0 when nothing is stored).
    pub fn compression_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.stored_bytes as f64
        }
    }

    /// Every scalar counter as `(name, value)`, in presentation order.
    /// Both [`StoreStats::to_json`] and the CLI's pretty printer iterate
    /// this list, so the two surfaces cannot drift.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("entries", self.entries),
            ("segment_entries", self.segment_entries),
            ("legacy_entries", self.legacy_entries),
            ("segments", self.segments),
            ("sealed_segments", self.sealed_segments),
            ("segment_disk_bytes", self.segment_disk_bytes),
            ("live_segment_bytes", self.live_segment_bytes),
            ("dead_segment_bytes", self.dead_segment_bytes),
            ("raw_bytes", self.raw_bytes),
            ("stored_bytes", self.stored_bytes),
            ("reads", self.reads),
            ("zero_copy_reads", self.zero_copy_reads),
            ("segment_cache_hits", self.segment_cache_hits),
            ("segment_cache_misses", self.segment_cache_misses),
            ("compactions", self.compactions),
            (
                "compaction_reclaimed_bytes",
                self.compaction_reclaimed_bytes,
            ),
            ("delta_entries", self.delta_entries),
            ("keyframe_entries", self.keyframe_entries),
            ("delta_reads", self.delta_reads),
            ("chain_links_resolved", self.chain_links_resolved),
            ("restore_cache_hits", self.restore_cache_hits),
            ("dedup_entries", self.dedup_entries),
            ("dedup_hits", self.dedup_hits),
            ("tier_cold_segments", self.tier_cold_segments),
            ("tier_cold_reads", self.tier_cold_reads),
            ("tier_demotions", self.tier_demotions),
            ("mmap_faults", self.mmap_faults),
            ("compression_effort", self.compression_effort),
        ]
    }

    /// Serializes through the shared [`flor_obs::json::JsonWriter`] — the
    /// payload of `flor store stats --json`.
    pub fn to_json(&self) -> String {
        let mut w = flor_obs::json::JsonWriter::new();
        w.begin_obj();
        for (name, v) in self.fields() {
            w.field_u64(name, v);
        }
        w.field_f64("compression_ratio", self.compression_ratio());
        w.key("chain_depth_hist");
        w.begin_arr();
        for b in &self.chain_depth_hist {
            w.u64_val(*b);
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }
}

/// What one [`CheckpointStore::compact`] pass did.
#[derive(Debug, Clone, Default)]
pub struct CompactionReport {
    /// Live entries rewritten into new segments.
    pub rewritten_entries: u64,
    /// Legacy per-checkpoint files migrated into segments.
    pub migrated_files: u64,
    /// Old segment files deleted.
    pub segments_removed: u64,
    /// Migrated legacy files deleted.
    pub legacy_files_removed: u64,
    /// Net disk bytes freed (old bytes − new segment bytes).
    pub reclaimed_bytes: u64,
    /// Delta entries folded into fresh keyframes (their chain depth
    /// dropped to 0 — e.g. the store was reopened with a smaller
    /// keyframe interval, or the chain no longer earns its keep).
    pub chains_folded: u64,
    /// Entries of delta-bearing blocks re-encoded payload-by-payload
    /// (plain blocks move their stored bytes verbatim instead).
    pub reencoded_entries: u64,
    /// Ids of the segments the live data now lives in.
    pub new_segments: Vec<u64>,
}

/// Durably replaces `dest` with `bytes`: write to a temp sibling, fsync
/// it, rename over `dest`, fsync the parent directory. After a power
/// loss the file is either the old content or the complete new content —
/// never empty or truncated (a bare `write` + `rename` can persist the
/// rename before the data blocks).
pub fn write_atomic(dest: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = dest.parent().unwrap_or_else(|| Path::new("."));
    // Unique per invocation, not just per process: concurrent writers of
    // the same destination (e.g. a background spool ship racing an explicit
    // demotion) must not share a temp sibling, or one rename steals the
    // other's half-written file.
    static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        dest.file_name()
            .map(|n| n.to_string_lossy())
            .unwrap_or_default(),
        std::process::id(),
        WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, dest)?;
    // Persist the rename itself (directory entry). Best-effort on
    // platforms where directories cannot be opened for sync.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Reads a tier pointer file (`DEDUP` / `SPOOL`): the trimmed contents
/// name a directory, resolved against the store root when relative.
fn read_pointer_file(path: &Path, root: &Path) -> Option<PathBuf> {
    let text = fs::read_to_string(path).ok()?;
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return None;
    }
    let p = PathBuf::from(trimmed);
    Some(if p.is_absolute() { p } else { root.join(p) })
}

/// Cold-tier path of one segment inside a spool directory.
pub(crate) fn spool_segment_path(spool: &Path, seg: u64) -> PathBuf {
    spool.join("segments").join(format!("{seg:08}.seg"))
}

/// block → seq → entry; one per shard.
type BlockMap = HashMap<String, BTreeMap<u64, IndexEntry>>;

/// Picks the stored representation for one payload: a delta frame when it
/// clearly wins (≤ 50% of raw — compression skipped entirely), otherwise
/// whichever of {marginal frame, compressed bytes, raw payload} is
/// smallest. Shared by [`WriteBatch::stage`] and the compaction re-encode
/// walk so both sides apply exactly one policy. Returns
/// `(stored, raw_stored, delta_link)`.
fn arbitrate_stored(
    encoded: Option<(Vec<u8>, u64, u32)>,
    payload: &[u8],
    effort: u8,
) -> (Vec<u8>, bool, Option<(u64, u32)>) {
    match encoded {
        Some((frame, base_seq, depth)) if delta::is_clear_win(&frame, payload.len()) => {
            (frame, false, Some((base_seq, depth)))
        }
        other => {
            let compressed = compress_auto_effort(payload, effort);
            match other {
                Some((frame, base_seq, depth)) if frame.len() < compressed.len() => {
                    (frame, false, Some((base_seq, depth)))
                }
                _ if compressed.len() >= payload.len() => (payload.to_vec(), true, None),
                _ => (compressed, false, None),
            }
        }
    }
}

/// The active (append-target) segment of this writer session.
struct ActiveSegment {
    id: u64,
    file: fs::File,
    len: u64,
    footer: Vec<SegmentIndexEntry>,
}

#[derive(Default)]
struct WriterState {
    active: Option<ActiveSegment>,
}

#[derive(Default)]
struct ReadCounters {
    reads: AtomicU64,
    zero_copy: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    delta_reads: AtomicU64,
    chain_links: AtomicU64,
    restore_cache_hits: AtomicU64,
}

/// The last committed payload of one block — the base the next version of
/// that block delta-encodes against (the per-name last-payload cache the
/// materializer's write path leans on).
#[derive(Clone)]
struct DeltaBase {
    seq: u64,
    depth: u32,
    crc: u32,
    payload: Bytes,
}

#[derive(Default)]
struct CompactionCounters {
    runs: AtomicU64,
    reclaimed: AtomicU64,
}

/// One resident segment buffer plus its LRU stamp (bumped on every hit,
/// compared under the cache's write lock when the budget forces eviction).
struct SegBuffer {
    bytes: Bytes,
    last_use: AtomicU64,
}

/// Tiered-storage counters (all monotonic; surfaced via [`StoreStats`]).
#[derive(Default)]
struct TierCounters {
    /// Segment reads served by faulting bytes back from the spool tier.
    cold_reads: AtomicU64,
    /// Sealed segments whose local copy was dropped after a verified
    /// durable spool copy existed.
    demotions: AtomicU64,
    /// Segment buffers established via mmap (vs. whole-file heap reads).
    mmap_faults: AtomicU64,
    /// Stages that resolved to an existing dedup blob instead of new bytes.
    dedup_hits: AtomicU64,
}

/// An on-disk checkpoint store (thread-safe; background materializer workers
/// share it, and `flor-registry` pools one open handle per run — all clones
/// of a pooled `Arc<CheckpointStore>` share the same manifest appender,
/// active segment, and segment read cache).
pub struct CheckpointStore {
    root: PathBuf,
    /// Sharded (block, seq) index: readers lock one shard, by `&str`.
    shards: Vec<RwLock<BlockMap>>,
    /// Persistent `O_APPEND` manifest handle, opened lazily and kept open
    /// across appends (invalidated when recovery rewrites the manifest).
    appender: Mutex<Option<fs::File>>,
    opts: StoreOptions,
    /// Running totals, maintained on put so the accessors are O(1).
    stored_total: AtomicU64,
    raw_total: AtomicU64,
    /// Active-segment state; also the lock that serializes writers against
    /// compaction.
    writer: Mutex<WriterState>,
    next_seg: AtomicU64,
    /// seg id → whole-segment shared buffer (the zero-copy backing):
    /// mmap-backed when the platform supports it, heap otherwise.
    seg_cache: RwLock<HashMap<u64, SegBuffer>>,
    /// Total bytes resident in `seg_cache` (updated under its write lock).
    seg_cache_bytes: AtomicU64,
    /// LRU clock for `seg_cache`: bumped per lookup, so eviction demotes
    /// the least-recently-touched buffer instead of an arbitrary victim.
    seg_cache_tick: AtomicU64,
    /// Shared content-addressed keyframe arena, when a `DEDUP` pointer
    /// file (written by the registry at claim time) names one.
    dedup: RwLock<Option<Arc<DedupIndex>>>,
    /// Cold-tier spool directory, when a `SPOOL` pointer file names one
    /// (or [`CheckpointStore::attach_spool`] set it).
    spool_dir: RwLock<Option<PathBuf>>,
    /// Auto-tunable compression effort (clamped to
    /// [`MIN_EFFORT`]..=[`MAX_EFFORT`](crate::compress::MAX_EFFORT)).
    effort: AtomicU8,
    tier: TierCounters,
    /// block → last committed payload: the delta base for the block's
    /// next version (write-path cache; see [`DeltaBase`]).
    delta_write: Mutex<HashMap<String, DeltaBase>>,
    /// Payload bytes resident in `delta_write` (updated under its lock).
    delta_write_bytes: AtomicU64,
    /// block → consecutive failed delta-encode attempts (back-off state;
    /// see [`DELTA_REJECT_THRESHOLD`]).
    delta_rejects: Mutex<HashMap<String, u32>>,
    /// block → (seq, payload crc, reconstructed payload): the most recent
    /// chain resolution per block, so a sequential replay restores each
    /// delta with one link instead of re-walking to the keyframe.
    restore_cache: Mutex<HashMap<String, (u64, u32, Bytes)>>,
    /// Payload bytes resident in `restore_cache` (updated under its lock).
    restore_cache_bytes: AtomicU64,
    reads: ReadCounters,
    gc: CompactionCounters,
    recovery: RecoveryReport,
}

impl CheckpointStore {
    /// Creates (or opens) a store rooted at `root` with default options
    /// (segmented, [`Durability::Buffered`]).
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_opts(root, StoreOptions::default())
    }

    /// Creates (or opens) a store with an explicit durability policy.
    pub fn open_with(root: impl Into<PathBuf>, durability: Durability) -> Result<Self, StoreError> {
        Self::open_opts(
            root,
            StoreOptions {
                durability,
                ..StoreOptions::default()
            },
        )
    }

    /// Opens a store for inspection only: nothing on disk is created,
    /// repaired, or deleted, and every write API fails with
    /// [`StoreError::ReadOnly`]. Safe to run against a store another
    /// process is actively recording into.
    pub fn open_read_only(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_opts(
            root,
            StoreOptions {
                read_only: true,
                ..StoreOptions::default()
            },
        )
    }

    /// Creates (or opens) a store with explicit [`StoreOptions`].
    pub fn open_opts(root: impl Into<PathBuf>, opts: StoreOptions) -> Result<Self, StoreError> {
        let root = root.into();
        if opts.read_only {
            // Inspection of a path that holds no store must error, not
            // report a clean empty store — "entries: 0, recovery: clean"
            // for a typo'd path would read as data loss.
            let looks_like_store = root.join("MANIFEST").exists()
                || root.join("seg").is_dir()
                || root.join("ckpt").is_dir();
            if !looks_like_store {
                return Err(StoreError::Io(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("no checkpoint store at {}", root.display()),
                )));
            }
        } else {
            fs::create_dir_all(root.join("seg"))?;
            fs::create_dir_all(root.join("artifacts"))?;
        }
        let mut store = CheckpointStore {
            root,
            shards: (0..SHARDS).map(|_| RwLock::new(BlockMap::new())).collect(),
            appender: Mutex::new(None),
            opts,
            stored_total: AtomicU64::new(0),
            raw_total: AtomicU64::new(0),
            writer: Mutex::new(WriterState::default()),
            next_seg: AtomicU64::new(0),
            seg_cache: RwLock::new(HashMap::new()),
            seg_cache_bytes: AtomicU64::new(0),
            seg_cache_tick: AtomicU64::new(0),
            dedup: RwLock::new(None),
            spool_dir: RwLock::new(None),
            effort: AtomicU8::new(DEFAULT_EFFORT),
            tier: TierCounters::default(),
            delta_write: Mutex::new(HashMap::new()),
            delta_write_bytes: AtomicU64::new(0),
            delta_rejects: Mutex::new(HashMap::new()),
            restore_cache: Mutex::new(HashMap::new()),
            restore_cache_bytes: AtomicU64::new(0),
            reads: ReadCounters::default(),
            gc: CompactionCounters::default(),
            recovery: RecoveryReport::default(),
        };
        // Tier attachments must land before the manifest loads: spool
        // presence decides whether a referenced-but-locally-absent segment
        // is cold (readable) or missing (dropped), and dedup entries need
        // their arena to restore at all. A named-but-unopenable arena is a
        // loud failure — silently dropping it would turn every dup entry
        // into read-time corruption.
        if let Some(dir) = read_pointer_file(&store.root.join(SPOOL_POINTER_FILE), &store.root) {
            *store.spool_dir.get_mut() = Some(dir);
        }
        if let Some(dir) = read_pointer_file(&store.root.join(DEDUP_POINTER_FILE), &store.root) {
            *store.dedup.get_mut() = Some(DedupIndex::open(&dir)?);
        }
        if let Ok(text) = fs::read_to_string(store.root.join("artifacts").join(EFFORT_ARTIFACT)) {
            if let Ok(e) = text.trim().parse::<u8>() {
                store
                    .effort
                    .store(e.clamp(MIN_EFFORT, MAX_EFFORT), Ordering::Relaxed);
            }
        }
        let report = store.load_manifest()?;
        store.recovery = report;
        Ok(store)
    }

    /// Store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The durability policy this store was opened with.
    pub fn durability(&self) -> Durability {
        self.opts.durability
    }

    /// What open-time recovery found (missing data, orphans, repairs).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    fn manifest_path(&self) -> PathBuf {
        self.root.join("MANIFEST")
    }

    fn seg_dir(&self) -> PathBuf {
        self.root.join("seg")
    }

    fn segment_path(&self, seg: u64) -> PathBuf {
        self.seg_dir().join(format!("{seg:08}.seg"))
    }

    fn shard_of(block: &str) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        block.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }

    // ---- open / recovery ---------------------------------------------------

    fn load_manifest(&mut self) -> Result<RecoveryReport, StoreError> {
        let mut report = RecoveryReport::default();

        // Scan seg/: existing segment ids and sizes (one stat per segment,
        // never per checkpoint), stale temp files from crashed compactions.
        // The directory may not exist under a read-only open of a pure v1
        // store (read-only opens create nothing).
        let mut seg_sizes: HashMap<u64, u64> = HashMap::new();
        if let Ok(rd) = fs::read_dir(self.seg_dir()) {
            for entry in rd {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.starts_with('.') {
                    // A temp sibling from an interrupted compaction or
                    // atomic write. Reported only — another process may own
                    // it right now; the next compaction (which holds the
                    // writer lock) reclaims it.
                    report.stale_temp_files += 1;
                    continue;
                }
                if let Some(id) = name
                    .strip_suffix(".seg")
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    seg_sizes.insert(id, entry.metadata()?.len());
                }
            }
        }
        // Cold tier: segments shipped to the spool are present (readable
        // via fault-back), just not local. One scan, same shape as `seg/`.
        let mut spool_sizes: HashMap<u64, u64> = HashMap::new();
        if let Some(spool) = self.spool_dir.read().clone() {
            if let Ok(rd) = fs::read_dir(spool.join("segments")) {
                for entry in rd.flatten() {
                    let name = entry.file_name().to_string_lossy().into_owned();
                    if let Some(id) = name
                        .strip_suffix(".seg")
                        .and_then(|s| s.parse::<u64>().ok())
                    {
                        if let Ok(m) = entry.metadata() {
                            spool_sizes.insert(id, m.len());
                        }
                    }
                }
            }
        }

        let path = self.manifest_path();
        let mut parsed: Vec<((String, u64), IndexEntry)> = Vec::new();
        let mut tail_unterminated = false;
        if path.exists() {
            let text = fs::read_to_string(&path)?;
            let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
            // A record phase killed mid-append leaves a final line without
            // its terminating newline; only such a tail may be dropped as
            // torn. Any malformed *complete* line is real corruption and
            // stays fatal.
            tail_unterminated = !text.is_empty() && !text.ends_with('\n');
            for (i, line) in lines.iter().enumerate() {
                match Self::parse_manifest_line(line, i + 1) {
                    Ok(pair) => parsed.push(pair),
                    Err(e) => {
                        if i + 1 == lines.len() && tail_unterminated {
                            // Drop the torn tail: its checkpoint data is at
                            // worst dead bytes; the run is not poisoned.
                            report.dropped_torn_tail = true;
                        } else {
                            return Err(e);
                        }
                    }
                }
            }
        }

        // Segments referenced by any manifest line (live *or* superseded —
        // superseded payloads stay until compaction rewrites them away).
        let referenced_segs: HashSet<u64> = parsed
            .iter()
            .filter_map(|(_, e)| match &e.loc {
                Location::Segment { seg, .. } => Some(*seg),
                Location::File(_) | Location::Dup { .. } => None,
            })
            .collect();
        let referenced_files: HashSet<String> = parsed
            .iter()
            .filter_map(|(_, e)| match &e.loc {
                Location::File(f) => Some(f.clone()),
                Location::Segment { .. } | Location::Dup { .. } => None,
            })
            .collect();

        // A fresh writer session must never reuse a segment id that lives
        // only in the spool (demoted) or only in the manifest (local copy
        // lost) — colliding ids would splice two runs' payloads together.
        self.next_seg = AtomicU64::new(
            seg_sizes
                .keys()
                .chain(spool_sizes.keys())
                .chain(referenced_segs.iter())
                .max()
                .map(|m| m + 1)
                .unwrap_or(0),
        );

        // Later manifest lines supersede earlier ones (re-puts): reduce to
        // the last-writer-wins entry per key *before* validating data
        // presence, so a vanished superseded payload is not misreported as
        // a missing live checkpoint.
        let mut winners: Vec<((String, u64), IndexEntry)> = Vec::with_capacity(parsed.len());
        {
            let mut at: HashMap<(String, u64), usize> = HashMap::with_capacity(parsed.len());
            for pair in parsed {
                match at.get(&pair.0) {
                    Some(&i) => winners[i] = pair,
                    None => {
                        at.insert(pair.0.clone(), winners.len());
                        winners.push(pair);
                    }
                }
            }
        }

        // Validate data presence.
        let mut dropped_missing = false;
        let mut alive: Vec<((String, u64), IndexEntry)> = Vec::with_capacity(winners.len());
        for ((block, seq), mut entry) in winners {
            match &entry.loc {
                Location::Segment { seg, .. } => {
                    if !seg_sizes.contains_key(seg) && !spool_sizes.contains_key(seg) {
                        report.missing_entries.push(MissingEntry {
                            block_id: block,
                            seq,
                            location: entry.loc.render(),
                        });
                        dropped_missing = true;
                        continue;
                    }
                    // A spool-only segment is cold, not missing: reads
                    // fault it back through the buffer pool. An in-bounds
                    // check happens at read time: a too-short segment is
                    // corruption and must fail loudly, not be silently
                    // skipped.
                }
                Location::Dup { .. } => {
                    // Blob presence is the dedup arena's contract (blobs
                    // are refcounted and synced before the manifest line
                    // that references them); a missing blob is corruption
                    // and fails loudly at read time, never a droppable
                    // entry here.
                }
                Location::File(file) => {
                    // Legacy entries carry no stored size in the manifest;
                    // stat the file (this is the v1-compat path only — a
                    // segmented store has no such entries).
                    match fs::metadata(self.root.join("ckpt").join(file)) {
                        Ok(m) => entry.stored = m.len(),
                        Err(_) => {
                            report.missing_entries.push(MissingEntry {
                                block_id: block,
                                seq,
                                location: entry.loc.render(),
                            });
                            dropped_missing = true;
                            continue;
                        }
                    }
                }
            }
            alive.push(((block, seq), entry));
        }

        // Cascade-drop delta entries whose chain base is gone (the base's
        // segment vanished, or the base itself was a dropped delta): a
        // delta frame without its base can never restore, so keeping it
        // indexed would turn a recoverable gap into a read-time error.
        // Mark-based fixpoint over borrowed keys — one map build, no
        // String clones, and delta-free stores skip it entirely (cold
        // open stays O(n) with a small constant). Chains are short
        // (≤ keyframe interval), so the fixpoint converges in a handful
        // of rounds even on deep legacy chains.
        let mut dead = vec![false; alive.len()];
        if alive.iter().any(|(_, e)| e.loc.delta_link().is_some()) {
            let mut index_by_block: HashMap<&str, HashMap<u64, usize>> = HashMap::new();
            for (i, ((block, seq), _)) in alive.iter().enumerate() {
                index_by_block
                    .entry(block.as_str())
                    .or_default()
                    .insert(*seq, i);
            }
            loop {
                let mut changed = false;
                for (i, ((block, _), entry)) in alive.iter().enumerate() {
                    if dead[i] {
                        continue;
                    }
                    if let Some((base_seq, _)) = entry.loc.delta_link() {
                        let base_alive = index_by_block
                            .get(block.as_str())
                            .and_then(|seqs| seqs.get(&base_seq))
                            .is_some_and(|&j| !dead[j]);
                        if !base_alive {
                            dead[i] = true;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        // Build the sharded index from the survivors; report the dropped.
        for (i, ((block, seq), entry)) in alive.into_iter().enumerate() {
            if dead[i] {
                report.missing_entries.push(MissingEntry {
                    block_id: block,
                    seq,
                    location: entry.loc.render(),
                });
                dropped_missing = true;
            } else {
                self.index_insert(block, seq, entry);
            }
        }

        // Orphaned segments: on disk, referenced by nothing. These are the
        // residue of a crashed compaction (new segment renamed in, manifest
        // swap never happened — or manifest swapped, old segments never
        // deleted) or of a batch whose manifest append was lost; either
        // way no live checkpoint points into them. Report only — a
        // concurrent writer process may be mid-commit into exactly such a
        // segment, so deletion belongs to compaction, not to open.
        for (&id, _) in seg_sizes.iter() {
            if !referenced_segs.contains(&id) {
                report.orphaned_segments.push(id);
            }
        }
        report.orphaned_segments.sort_unstable();

        // Orphaned legacy files: reported, not deleted.
        if let Ok(rd) = fs::read_dir(self.root.join("ckpt")) {
            for entry in rd.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if !name.starts_with('.') && !referenced_files.contains(name.as_str()) {
                    report.orphaned_files.push(name);
                }
            }
        }
        report.orphaned_files.sort_unstable();

        // Repair whenever entries were dropped or the tail lacks its
        // newline — even if the final line parsed (the crash can cut
        // exactly at the newline). Leaving an unterminated tail would make
        // the next O_APPEND write merge two lines into one, turning
        // recoverable damage into fatal corruption.
        if report.dropped_torn_tail || tail_unterminated || dropped_missing {
            if self.opts.read_only {
                // Never touch the MANIFEST from an inspection open: the
                // writer process that owns this store keeps an O_APPEND
                // handle to the current inode, and a rename here would
                // silently sever it. The in-memory view is still the
                // recovered one; the next writable open repairs the file.
                report.repair_pending = true;
            } else {
                self.rewrite_manifest()?;
                report.repaired_manifest = true;
            }
        }
        Ok(report)
    }

    /// Errors when this handle was opened read-only.
    fn ensure_writable(&self) -> Result<(), StoreError> {
        if self.opts.read_only {
            return Err(StoreError::ReadOnly);
        }
        Ok(())
    }

    /// Renders the manifest line for one entry, with its trailing
    /// self-CRC over the five data fields.
    fn manifest_line(block: &str, seq: u64, location: &str, raw: u64, crc: u32) -> String {
        let payload = format!("{block}\t{seq}\t{location}\t{raw}\t{crc}");
        let line_crc = crc32(payload.as_bytes());
        format!("{payload}\t{line_crc}")
    }

    fn parse_manifest_line(
        line: &str,
        lineno: usize,
    ) -> Result<((String, u64), IndexEntry), StoreError> {
        let parts: Vec<&str> = line.split('\t').collect();
        if parts.len() != 6 {
            return Err(StoreError::BadManifest(format!(
                "line {}: expected 6 fields, got {}",
                lineno,
                parts.len()
            )));
        }
        let (payload, line_crc_str) = line
            .rsplit_once('\t')
            .expect("6 tab-separated fields always split");
        let line_crc: u32 = line_crc_str
            .parse()
            .map_err(|_| StoreError::BadManifest(format!("line {lineno}: bad line crc")))?;
        if crc32(payload.as_bytes()) != line_crc {
            return Err(StoreError::BadManifest(format!(
                "line {lineno}: line crc mismatch (torn or corrupted)"
            )));
        }
        let seq: u64 = parts[1]
            .parse()
            .map_err(|_| StoreError::BadManifest(format!("line {lineno}: bad seq")))?;
        let raw: u64 = parts[3]
            .parse()
            .map_err(|_| StoreError::BadManifest(format!("line {lineno}: bad size")))?;
        let crc: u32 = parts[4]
            .parse()
            .map_err(|_| StoreError::BadManifest(format!("line {lineno}: bad crc")))?;
        let loc = Location::parse(parts[2]);
        let stored = match &loc {
            Location::Segment { len, .. } => *len as u64,
            Location::File(_) => 0, // statted by the caller (v1 compat)
            // Dup bytes live in the shared arena, not this store: charging
            // them here would double-count across every referencing run.
            Location::Dup { .. } => 0,
        };
        Ok((
            (parts[0].to_string(), seq),
            IndexEntry {
                loc,
                raw,
                crc,
                stored,
            },
        ))
    }

    /// All live entries, sorted by (block, seq), with their index data.
    fn sorted_index(&self) -> Vec<(String, u64, IndexEntry)> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let m = shard.read();
            for (block, seqs) in m.iter() {
                for (seq, e) in seqs.iter() {
                    all.push((block.clone(), *seq, e.clone()));
                }
            }
        }
        all.sort_by(|a, b| (a.0.as_str(), a.1).cmp(&(b.0.as_str(), b.1)));
        all
    }

    /// Rewrites the manifest from the in-memory index, crash-safely:
    /// the new content goes to a temp file which is atomically renamed
    /// over the manifest, so a crash leaves either the old or the new
    /// manifest — never a truncated hybrid. Invalidates the kept-open
    /// appender (its fd would point at the renamed-over inode).
    fn rewrite_manifest(&self) -> Result<(), StoreError> {
        let mut appender = self.appender.lock();
        *appender = None;
        let mut text = String::new();
        for (block, seq, e) in self.sorted_index() {
            text.push_str(&Self::manifest_line(
                &block,
                seq,
                &e.loc.render(),
                e.raw,
                e.crc,
            ));
            text.push('\n');
        }
        write_atomic(&self.manifest_path(), text.as_bytes())?;
        Ok(())
    }

    /// Appends pre-rendered, newline-terminated manifest text through the
    /// persistent appender (one `write_all`: `O_APPEND` keeps concurrent
    /// batches from interleaving mid-line).
    fn append_manifest_text(&self, text: &str) -> Result<(), StoreError> {
        let mut guard = self.appender.lock();
        if guard.is_none() {
            *guard = Some(
                fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.manifest_path())?,
            );
        }
        let f = guard.as_mut().expect("appender populated above");
        f.write_all(text.as_bytes())?;
        if self.opts.durability == Durability::GroupCommit {
            f.sync_data()?;
            // The MANIFEST's own directory entry must be durable too (it
            // may have just been created); errors propagate — a failed
            // barrier must not report durability it didn't achieve.
            fs::File::open(&self.root)?.sync_all()?;
        }
        Ok(())
    }

    /// Inserts an entry, maintaining the O(1) byte totals (a replaced
    /// entry's contribution is subtracted).
    fn index_insert(&self, block: String, seq: u64, entry: IndexEntry) {
        self.raw_total.fetch_add(entry.raw, Ordering::Relaxed);
        self.stored_total.fetch_add(entry.stored, Ordering::Relaxed);
        let shard = &self.shards[Self::shard_of(&block)];
        let old = shard.write().entry(block).or_default().insert(seq, entry);
        if let Some(old) = old {
            self.raw_total.fetch_sub(old.raw, Ordering::Relaxed);
            self.stored_total.fetch_sub(old.stored, Ordering::Relaxed);
        }
    }

    fn lookup(&self, block_id: &str, seq: u64) -> Option<IndexEntry> {
        // Borrowed-key lookup: no allocation while holding the shard lock.
        self.shards[Self::shard_of(block_id)]
            .read()
            .get(block_id)
            .and_then(|m| m.get(&seq))
            .cloned()
    }

    // ---- writes ------------------------------------------------------------

    /// Starts an empty write batch against this store.
    pub fn batch(&self) -> WriteBatch<'_> {
        WriteBatch {
            store: self,
            staged: Vec::new(),
            pending_bases: HashMap::new(),
        }
    }

    /// Writes a single checkpoint payload for `(block_id, seq)` — a batch
    /// of one; see [`WriteBatch`] for the durability contract.
    pub fn put(&self, block_id: &str, seq: u64, payload: &[u8]) -> Result<CkptMeta, StoreError> {
        let mut batch = self.batch();
        batch.stage(block_id, seq, payload);
        let mut metas = batch.commit()?;
        Ok(metas.pop().expect("batch of one yields one meta"))
    }

    /// Seals the active segment (writes its footer index), if any. Called
    /// automatically on drop and before rolling to a new segment; safe to
    /// call at any quiescent point (e.g. end of record).
    pub fn seal_active_segment(&self) -> Result<(), StoreError> {
        if self.opts.read_only {
            return Ok(()); // nothing to seal; called unconditionally by Drop
        }
        let mut w = self.writer.lock();
        self.seal_locked(&mut w)
    }

    fn seal_locked(&self, w: &mut WriterState) -> Result<(), StoreError> {
        let Some(active) = w.active.take() else {
            return Ok(());
        };
        let mut file = active.file;
        file.write_all(&encode_footer(&active.footer))?;
        if self.opts.durability == Durability::GroupCommit {
            file.sync_data()?;
        }
        // Cold tier: ship the freshly sealed segment in the background
        // (copy, not move — dropping the local copy is a separate, explicit
        // demotion step). Shipping is incremental: each seal ships exactly
        // one segment, so spool residency tracks commit progress instead of
        // arriving in one end-of-run burst.
        if let Some(spool) = self.spool_dir.read().clone() {
            let src = self.segment_path(active.id);
            let id = active.id;
            crate::exec::spawn(move || {
                let _ = crate::spool::ship_segment_file(&spool, id, &src);
            });
        }
        Ok(())
    }

    // ---- reads -------------------------------------------------------------

    /// Reads, verifies, and returns the checkpoint payload for
    /// `(block_id, seq)` as a refcounted [`Bytes`].
    ///
    /// The zero-copy contract: for raw-stored segment entries the returned
    /// buffer **is** a slice of the shared per-segment read buffer — no
    /// payload bytes are copied, and all readers of one segment share one
    /// backing allocation. Compressed entries pay exactly one decompression
    /// into a fresh buffer. Either way the payload CRC is verified on every
    /// read.
    pub fn get_bytes(&self, block_id: &str, seq: u64) -> Result<Bytes, StoreError> {
        // Disabled tracing costs one atomic load here — this is the ~1µs
        // restore read the replay bench gates.
        let mut span = flor_obs::span(flor_obs::Category::RestoreChain, "store_read");
        span.set_args(seq, 0);
        self.reads.reads.fetch_add(1, Ordering::Relaxed);
        self.read_with_relocation_retry(block_id, seq, |entry| {
            self.read_payload(block_id, seq, entry)
        })
    }

    /// Runs `read` against the entry's current location, re-resolving and
    /// retrying when the data file vanished underneath it — the benign
    /// race where a concurrent [`CheckpointStore::compact`] repointed the
    /// index and deleted the old segment between this reader's lookup and
    /// its `fs::read`. A `NotFound` at an *unchanged* location is a real
    /// error and propagates; each retry requires a fresh location, so the
    /// loop only spins while compactions actually land.
    fn read_with_relocation_retry<T>(
        &self,
        block_id: &str,
        seq: u64,
        read: impl Fn(&IndexEntry) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let missing = || StoreError::Missing {
            block_id: block_id.to_string(),
            seq,
        };
        let mut entry = self.lookup(block_id, seq).ok_or_else(missing)?;
        loop {
            match read(&entry) {
                Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                    let fresh = self.lookup(block_id, seq).ok_or_else(missing)?;
                    if fresh.loc == entry.loc {
                        return Err(StoreError::Io(e));
                    }
                    entry = fresh;
                }
                other => return other,
            }
        }
    }

    /// Zero-copy slice of one segment-resident entry's stored bytes, with
    /// the shared bounds/truncation check (`get_stored` and the verified
    /// read path both go through here, so the truncation contract lives in
    /// one place).
    fn stored_slice(
        &self,
        block_id: &str,
        seq: u64,
        seg: u64,
        offset: u64,
        len: u32,
    ) -> Result<Bytes, StoreError> {
        let need = offset + len as u64;
        let buf = self.segment_bytes(seg, need)?;
        if (buf.len() as u64) < need {
            return Err(StoreError::Corrupt {
                block_id: block_id.to_string(),
                seq,
                detail: format!(
                    "segment {seg} truncated: need {need} bytes, have {}",
                    buf.len()
                ),
            });
        }
        let mut view = buf;
        view.advance(offset as usize);
        Ok(view.copy_to_bytes(len as usize))
    }

    /// Reads and verifies one entry's payload at its recorded location,
    /// resolving delta chains.
    fn read_payload(
        &self,
        block_id: &str,
        seq: u64,
        entry: &IndexEntry,
    ) -> Result<Bytes, StoreError> {
        if entry.loc.delta_link().is_some() {
            self.reads.delta_reads.fetch_add(1, Ordering::Relaxed);
            return self.resolve_delta(block_id, seq, entry);
        }
        self.read_keyframe_payload(block_id, seq, entry)
    }

    /// Reads and verifies a *non-delta* entry's payload.
    fn read_keyframe_payload(
        &self,
        block_id: &str,
        seq: u64,
        entry: &IndexEntry,
    ) -> Result<Bytes, StoreError> {
        let corrupt = |detail: String| StoreError::Corrupt {
            block_id: block_id.to_string(),
            seq,
            detail,
        };
        match &entry.loc {
            Location::File(file) => {
                let compressed = fs::read(self.root.join("ckpt").join(file))?;
                let payload = decompress_any(&compressed).map_err(|e| corrupt(e.message))?;
                if payload.len() as u64 != entry.raw || crc32(&payload) != entry.crc {
                    return Err(corrupt("crc or length mismatch".into()));
                }
                Ok(Bytes::from_vec(payload))
            }
            Location::Segment {
                seg,
                offset,
                len,
                raw_stored,
                ..
            } => {
                let slice = self.stored_slice(block_id, seq, *seg, *offset, *len)?;
                if *raw_stored {
                    if slice.len() as u64 != entry.raw || crc32(slice.as_ref()) != entry.crc {
                        return Err(corrupt("crc or length mismatch".into()));
                    }
                    self.reads.zero_copy.fetch_add(1, Ordering::Relaxed);
                    Ok(slice)
                } else {
                    let payload = decompress_any(slice.as_ref()).map_err(|e| corrupt(e.message))?;
                    if payload.len() as u64 != entry.raw || crc32(&payload) != entry.crc {
                        return Err(corrupt("crc or length mismatch".into()));
                    }
                    Ok(Bytes::from_vec(payload))
                }
            }
            Location::Dup { hash, .. } => {
                let (stored, flags) = self.dedup_read(block_id, seq, *hash)?;
                if flags & FLAG_RAW != 0 {
                    if stored.len() as u64 != entry.raw || crc32(&stored) != entry.crc {
                        return Err(corrupt("crc or length mismatch".into()));
                    }
                    Ok(Bytes::from_vec(stored))
                } else {
                    let payload = decompress_any(&stored).map_err(|e| corrupt(e.message))?;
                    if payload.len() as u64 != entry.raw || crc32(&payload) != entry.crc {
                        return Err(corrupt("crc or length mismatch".into()));
                    }
                    Ok(Bytes::from_vec(payload))
                }
            }
        }
    }

    /// Reads a dup entry's stored bytes (and blob flags) from the shared
    /// dedup arena. A missing arena or blob is loud per-entry corruption:
    /// the arena refcounts blobs and syncs them before the manifest line
    /// that references them, so absence here means real damage — never
    /// something to skip silently.
    fn dedup_read(&self, block_id: &str, seq: u64, hash: u64) -> Result<(Vec<u8>, u8), StoreError> {
        let corrupt = |detail: String| StoreError::Corrupt {
            block_id: block_id.to_string(),
            seq,
            detail,
        };
        let idx =
            self.dedup.read().clone().ok_or_else(|| {
                corrupt(format!("dup entry {hash:016x} but no dedup arena attached"))
            })?;
        let (stored, flags, _raw_len, _payload_crc) = idx
            .read_stored(hash)
            .map_err(|e| corrupt(format!("dedup blob {hash:016x}: {e}")))?;
        Ok((stored, flags))
    }

    /// The stored bytes of a delta-bearing entry (the delta frame itself),
    /// wherever they live — a segment slice or a dedup blob.
    fn delta_frame_bytes(
        &self,
        block_id: &str,
        seq: u64,
        entry: &IndexEntry,
    ) -> Result<Bytes, StoreError> {
        match &entry.loc {
            Location::Segment {
                seg, offset, len, ..
            } => self.stored_slice(block_id, seq, *seg, *offset, *len),
            Location::Dup { hash, .. } => {
                Ok(Bytes::from_vec(self.dedup_read(block_id, seq, *hash)?.0))
            }
            Location::File(_) => unreachable!("delta entries are never legacy files"),
        }
    }

    /// Resolves a delta entry: walks the chain toward its keyframe,
    /// stopping early at a per-block restore-cache hit, then applies the
    /// collected frames newest-last. Every reconstructed level is verified
    /// against its index entry's length and CRC, and every frame's
    /// recorded base CRC is checked against the base entry — a base that
    /// was re-put with different content fails loudly as corruption
    /// instead of silently decoding garbage.
    fn resolve_delta(
        &self,
        block_id: &str,
        seq: u64,
        entry: &IndexEntry,
    ) -> Result<Bytes, StoreError> {
        let corrupt = |s: u64, detail: String| StoreError::Corrupt {
            block_id: block_id.to_string(),
            seq: s,
            detail,
        };
        let mut span = flor_obs::span(flor_obs::Category::RestoreChain, "chain_resolve");
        let t0 = flor_obs::clock::now_ns();
        // The requested seq itself may be the cached reconstruction —
        // repeated reads of one delta entry must not re-walk its chain.
        {
            let cache = self.restore_cache.lock();
            if let Some((cseq, ccrc, cbytes)) = cache.get(block_id) {
                if *cseq == seq && *ccrc == entry.crc {
                    self.reads
                        .restore_cache_hits
                        .fetch_add(1, Ordering::Relaxed);
                    return Ok(cbytes.clone());
                }
            }
        }
        // Walk down: collect (seq, entry, frame) from the target toward
        // the keyframe.
        let mut frames: Vec<(u64, IndexEntry, Bytes)> = Vec::new();
        let mut cur_seq = seq;
        let mut cur = entry.clone();
        let base: Bytes = loop {
            let Some((base_seq, _depth)) = cur.loc.delta_link() else {
                // Keyframe reached: decode it plainly.
                break self.read_keyframe_payload(block_id, cur_seq, &cur)?;
            };
            let frame = self.delta_frame_bytes(block_id, cur_seq, &cur)?;
            let h = delta::header(frame.as_ref())
                .map_err(|e| corrupt(cur_seq, format!("delta frame: {}", e.message)))?;
            if h.base_seq != base_seq || h.raw_len != cur.raw {
                return Err(corrupt(
                    cur_seq,
                    "delta frame header disagrees with manifest".into(),
                ));
            }
            if frames.len() >= 1024 {
                return Err(corrupt(cur_seq, "delta chain implausibly deep".into()));
            }
            let base_entry = self
                .lookup(block_id, base_seq)
                .ok_or_else(|| corrupt(cur_seq, format!("delta base seq {base_seq} is missing")))?;
            if h.base_crc != base_entry.crc {
                return Err(corrupt(
                    cur_seq,
                    format!("delta base seq {base_seq} changed since encode (re-put?)"),
                ));
            }
            frames.push((cur_seq, cur, frame));
            // Restore-cache hit on the base ends the walk.
            {
                let cache = self.restore_cache.lock();
                if let Some((cseq, ccrc, cbytes)) = cache.get(block_id) {
                    if *cseq == base_seq && *ccrc == base_entry.crc {
                        self.reads
                            .restore_cache_hits
                            .fetch_add(1, Ordering::Relaxed);
                        break cbytes.clone();
                    }
                }
            }
            cur_seq = base_seq;
            cur = base_entry;
        };
        // Apply frames keyframe-first.
        let mut payload = base;
        for (fseq, fentry, frame) in frames.iter().rev() {
            let decoded = delta::decode(frame.as_ref(), payload.as_ref())
                .map_err(|e| corrupt(*fseq, format!("delta decode: {}", e.message)))?;
            if decoded.len() as u64 != fentry.raw || crc32(&decoded) != fentry.crc {
                return Err(corrupt(*fseq, "crc or length mismatch".into()));
            }
            self.reads.chain_links.fetch_add(1, Ordering::Relaxed);
            payload = Bytes::from_vec(decoded);
        }
        self.restore_cache_put(block_id, seq, entry.crc, payload.clone());
        span.set_args(frames.len() as u64, payload.len() as u64);
        flor_obs::histogram!("store.chain_resolve_ns").observe(flor_obs::clock::since_ns(t0));
        Ok(payload)
    }

    /// Parks the most recent reconstruction for a block (bounded by
    /// [`RESTORE_CACHE_BUDGET_BYTES`]; one entry per block).
    fn restore_cache_put(&self, block_id: &str, seq: u64, crc: u32, payload: Bytes) {
        let incoming = payload.len() as u64;
        let mut cache = self.restore_cache.lock();
        while self.restore_cache_bytes.load(Ordering::Relaxed) + incoming
            > RESTORE_CACHE_BUDGET_BYTES
            && !cache.is_empty()
        {
            let victim = cache.keys().next().expect("non-empty cache").clone();
            if let Some((_, _, evicted)) = cache.remove(&victim) {
                self.restore_cache_bytes
                    .fetch_sub(evicted.len() as u64, Ordering::Relaxed);
            }
        }
        if let Some((_, _, old)) = cache.insert(block_id.to_string(), (seq, crc, payload)) {
            self.restore_cache_bytes
                .fetch_sub(old.len() as u64, Ordering::Relaxed);
        }
        self.restore_cache_bytes
            .fetch_add(incoming, Ordering::Relaxed);
    }

    /// The delta chain link of a stored checkpoint: `Some((base_seq,
    /// depth))` for delta entries, `None` for keyframes (or when the
    /// checkpoint does not exist). Operator surfaces and the prefetcher
    /// use this to reason about chains without reading payloads.
    pub fn chain_info(&self, block_id: &str, seq: u64) -> Option<(u64, u32)> {
        self.lookup(block_id, seq)?.loc.delta_link()
    }

    /// The newest committed version of `block_id` strictly below
    /// `before_seq`, as a delta base: racing materializer batches commit
    /// out of order, so when the write cache has no usable base the stage
    /// path chains against whatever *is* durable (frames record their
    /// base seq explicitly, so a gap chain — seq 4 on seq 1 — is just as
    /// valid as a dense one).
    fn delta_base_from_index(&self, block_id: &str, before_seq: u64) -> Option<DeltaBase> {
        let (seq, depth, crc) = {
            let shard = self.shards[Self::shard_of(block_id)].read();
            let seqs = shard.get(block_id)?;
            let (seq, entry) = seqs.range(..before_seq).next_back()?;
            (
                *seq,
                entry.loc.delta_link().map_or(0, |(_, d)| d),
                entry.crc,
            )
        };
        let payload = self.get_bytes(block_id, seq).ok()?;
        Some(DeltaBase {
            seq,
            depth,
            crc,
            payload,
        })
    }

    /// O(1) snapshot of the delta read counters: `(delta_reads,
    /// chain_links_resolved, restore_cache_hits)`. Replay wraps its run in
    /// two snapshots to attribute chain work to one replay on a pooled
    /// handle without paying a full [`CheckpointStore::stats`] walk.
    pub fn delta_read_counters(&self) -> (u64, u64, u64) {
        (
            self.reads.delta_reads.load(Ordering::Relaxed),
            self.reads.chain_links.load(Ordering::Relaxed),
            self.reads.restore_cache_hits.load(Ordering::Relaxed),
        )
    }

    /// Reads and verifies the checkpoint payload for `(block_id, seq)`.
    /// Compatibility wrapper over [`CheckpointStore::get_bytes`] (pays one
    /// copy into an owned `Vec`; hot paths should use `get_bytes`).
    pub fn get(&self, block_id: &str, seq: u64) -> Result<Vec<u8>, StoreError> {
        Ok(self.get_bytes(block_id, seq)?.to_vec())
    }

    /// A *self-contained* stored representation of a checkpoint, suitable
    /// for shipping to object storage: non-delta entries return their
    /// on-disk bytes verbatim; delta entries are resolved through their
    /// chain and re-compressed standalone (a delta frame without its base
    /// would be unrestorable in a bucket). The `bool` reports whether a
    /// chain was resolved.
    pub fn export_stored(&self, block_id: &str, seq: u64) -> Result<(Vec<u8>, bool), StoreError> {
        if self.chain_info(block_id, seq).is_some() {
            let payload = self.get_bytes(block_id, seq)?;
            let compressed =
                compress_auto_effort(payload.as_ref(), self.effort.load(Ordering::Relaxed));
            let stored = if compressed.len() >= payload.len() {
                payload.to_vec()
            } else {
                compressed
            };
            return Ok((stored, true));
        }
        Ok((self.get_stored(block_id, seq)?, false))
    }

    /// The stored (possibly compressed; for delta entries, the raw delta
    /// frame) representation of a checkpoint as it sits on disk. Spooling
    /// uses [`CheckpointStore::export_stored`] instead, which resolves
    /// chains into self-contained objects.
    pub fn get_stored(&self, block_id: &str, seq: u64) -> Result<Vec<u8>, StoreError> {
        self.read_with_relocation_retry(block_id, seq, |entry| match &entry.loc {
            Location::File(file) => Ok(fs::read(self.root.join("ckpt").join(file))?),
            Location::Segment {
                seg, offset, len, ..
            } => Ok(self
                .stored_slice(block_id, seq, *seg, *offset, *len)?
                .to_vec()),
            Location::Dup { hash, .. } => Ok(self.dedup_read(block_id, seq, *hash)?.0),
        })
    }

    /// Returns the shared whole-segment buffer, establishing it at most
    /// once per cache residency. `min_len` forces a re-fault when a cached
    /// buffer predates appends to the active segment.
    fn segment_bytes(&self, seg: u64, min_len: u64) -> Result<Bytes, StoreError> {
        {
            let cache = self.seg_cache.read();
            if let Some(b) = cache.get(&seg) {
                if b.bytes.len() as u64 >= min_len {
                    b.last_use.store(
                        self.seg_cache_tick.fetch_add(1, Ordering::Relaxed) + 1,
                        Ordering::Relaxed,
                    );
                    self.reads.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(b.bytes.clone());
                }
            }
        }
        self.reads.cache_misses.fetch_add(1, Ordering::Relaxed);
        let b = self.fault_segment(seg)?;
        let incoming = b.len() as u64;
        let mut cache = self.seg_cache.write();
        // Demote least-recently-used residents until the byte budget fits —
        // never the whole cache, which would periodically cold-start every
        // concurrent reader. (Evicted buffers stay alive for readers still
        // holding slices of them; the budget bounds what the *cache* pins —
        // heap for whole-file reads, address space for mmaps.)
        while self.seg_cache_bytes.load(Ordering::Relaxed) + incoming > SEGMENT_CACHE_BUDGET_BYTES
            && !cache.is_empty()
        {
            let victim = *cache
                .iter()
                .min_by_key(|(_, buf)| buf.last_use.load(Ordering::Relaxed))
                .map(|(id, _)| id)
                .expect("non-empty cache");
            if let Some(evicted) = cache.remove(&victim) {
                self.seg_cache_bytes
                    .fetch_sub(evicted.bytes.len() as u64, Ordering::Relaxed);
            }
        }
        let stamped = SegBuffer {
            bytes: b.clone(),
            last_use: AtomicU64::new(self.seg_cache_tick.fetch_add(1, Ordering::Relaxed) + 1),
        };
        if let Some(old) = cache.insert(seg, stamped) {
            self.seg_cache_bytes
                .fetch_sub(old.bytes.len() as u64, Ordering::Relaxed);
        }
        self.seg_cache_bytes.fetch_add(incoming, Ordering::Relaxed);
        Ok(b)
    }

    /// Establishes a segment's shared buffer: the local file first, then —
    /// when the local copy was demoted — fault-back from the spool tier.
    fn fault_segment(&self, seg: u64) -> Result<Bytes, StoreError> {
        match self.read_segment_file(&self.segment_path(seg)) {
            Ok(b) => Ok(b),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let Some(spool) = self.spool_dir.read().clone() else {
                    return Err(StoreError::Io(e));
                };
                match self.read_segment_file(&spool_segment_path(&spool, seg)) {
                    Ok(b) => {
                        self.tier.cold_reads.fetch_add(1, Ordering::Relaxed);
                        flor_obs::counter!("store.tier_cold_reads").inc();
                        Ok(b)
                    }
                    // Report the *canonical* location's NotFound: the
                    // relocation-retry contract keys off it.
                    Err(ce) if ce.kind() == std::io::ErrorKind::NotFound => Err(StoreError::Io(e)),
                    Err(ce) => Err(StoreError::Io(ce)),
                }
            }
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    /// One segment file → shared buffer: a file-backed mapping (the kernel
    /// faults in only the pages reads touch; the memory stays reclaimable
    /// page cache), with a whole-file heap read as the fallback when
    /// mapping is unsupported or refused. `NotFound` from the open
    /// propagates untouched — both the relocation retry and the spool
    /// fault-back depend on it.
    fn read_segment_file(&self, path: &Path) -> std::io::Result<Bytes> {
        let file = fs::File::open(path)?;
        let len = file.metadata()?.len() as usize;
        if let Ok(region) = MmapRegion::map(&file, len) {
            self.tier.mmap_faults.fetch_add(1, Ordering::Relaxed);
            flor_obs::counter!("store.mmap_faults").inc();
            return Ok(Bytes::from_file_backed_owner(region));
        }
        // Soft miss (no platform backend, or the kernel refused the
        // mapping): read the whole file onto the heap.
        Ok(Bytes::from_vec(fs::read(path)?))
    }

    /// True if a checkpoint exists for `(block_id, seq)`.
    pub fn contains(&self, block_id: &str, seq: u64) -> bool {
        self.shards[Self::shard_of(block_id)]
            .read()
            .get(block_id)
            .is_some_and(|m| m.contains_key(&seq))
    }

    /// Number of checkpoints stored for a block.
    pub fn count(&self, block_id: &str) -> u64 {
        self.shards[Self::shard_of(block_id)]
            .read()
            .get(block_id)
            .map_or(0, |m| m.len() as u64)
    }

    /// Highest stored sequence number for a block, if any.
    pub fn latest_seq(&self, block_id: &str) -> Option<u64> {
        self.shards[Self::shard_of(block_id)]
            .read()
            .get(block_id)
            .and_then(|m| m.keys().next_back().copied())
    }

    /// All `(block_id, seq)` pairs, sorted.
    pub fn entries(&self) -> Vec<(String, u64)> {
        let mut all: Vec<(String, u64)> = Vec::new();
        for shard in &self.shards {
            let m = shard.read();
            for (block, seqs) in m.iter() {
                for seq in seqs.keys() {
                    all.push((block.clone(), *seq));
                }
            }
        }
        all.sort();
        all
    }

    /// Total stored payload bytes across all checkpoints. O(1): a running
    /// counter maintained on put.
    pub fn total_stored_bytes(&self) -> u64 {
        self.stored_total.load(Ordering::Relaxed)
    }

    /// Total uncompressed bytes across all checkpoints. O(1), same scheme.
    pub fn total_raw_bytes(&self) -> u64 {
        self.raw_total.load(Ordering::Relaxed)
    }

    // ---- stats -------------------------------------------------------------

    /// Aggregate storage-engine counters (segments, dead bytes, read/cache
    /// counters, compactions). Walks the index and stats segment files —
    /// cheap (segments are few), but not O(1); intended for `flor store
    /// stats` and operator surfaces, not hot paths.
    pub fn stats(&self) -> StoreStats {
        let mut s = StoreStats {
            raw_bytes: self.total_raw_bytes(),
            stored_bytes: self.total_stored_bytes(),
            reads: self.reads.reads.load(Ordering::Relaxed),
            zero_copy_reads: self.reads.zero_copy.load(Ordering::Relaxed),
            segment_cache_hits: self.reads.cache_hits.load(Ordering::Relaxed),
            segment_cache_misses: self.reads.cache_misses.load(Ordering::Relaxed),
            compactions: self.gc.runs.load(Ordering::Relaxed),
            compaction_reclaimed_bytes: self.gc.reclaimed.load(Ordering::Relaxed),
            delta_reads: self.reads.delta_reads.load(Ordering::Relaxed),
            chain_links_resolved: self.reads.chain_links.load(Ordering::Relaxed),
            restore_cache_hits: self.reads.restore_cache_hits.load(Ordering::Relaxed),
            ..StoreStats::default()
        };
        // Live framing overhead counts as live when estimating dead bytes.
        let mut live_overhead = 0u64;
        for shard in &self.shards {
            let m = shard.read();
            for (block, seqs) in m.iter() {
                for e in seqs.values() {
                    s.entries += 1;
                    match &e.loc {
                        Location::Segment { delta, .. } => {
                            s.segment_entries += 1;
                            s.live_segment_bytes += e.stored;
                            live_overhead += ENTRY_HEADER_BYTES + block.len() as u64;
                            let depth = delta.map_or(0, |(_, d)| d) as usize;
                            s.chain_depth_hist[depth.min(CHAIN_DEPTH_BUCKETS - 1)] += 1;
                            if delta.is_some() {
                                s.delta_entries += 1;
                            } else {
                                s.keyframe_entries += 1;
                            }
                        }
                        Location::Dup { delta, .. } => {
                            s.dedup_entries += 1;
                            let depth = delta.map_or(0, |(_, d)| d) as usize;
                            s.chain_depth_hist[depth.min(CHAIN_DEPTH_BUCKETS - 1)] += 1;
                            if delta.is_some() {
                                s.delta_entries += 1;
                            } else {
                                s.keyframe_entries += 1;
                            }
                        }
                        Location::File(_) => {
                            s.legacy_entries += 1;
                            s.keyframe_entries += 1;
                            s.chain_depth_hist[0] += 1;
                        }
                    }
                }
            }
        }
        if let Ok(rd) = fs::read_dir(self.seg_dir()) {
            for entry in rd.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.starts_with('.') || !name.ends_with(".seg") {
                    continue;
                }
                let Ok(meta) = entry.metadata() else { continue };
                s.segments += 1;
                s.segment_disk_bytes += meta.len();
                live_overhead += SEGMENT_MAGIC.len() as u64;
                // Sealed? Check the trailer magic and charge the footer as
                // live framing.
                if let Ok(Some(footer_len)) = read_trailer_footer_len(&entry.path(), meta.len()) {
                    s.sealed_segments += 1;
                    live_overhead += footer_len + TRAILER_BYTES;
                }
            }
        }
        s.dead_segment_bytes = s
            .segment_disk_bytes
            .saturating_sub(s.live_segment_bytes + live_overhead);
        s.dedup_hits = self.tier.dedup_hits.load(Ordering::Relaxed);
        s.tier_cold_reads = self.tier.cold_reads.load(Ordering::Relaxed);
        s.tier_demotions = self.tier.demotions.load(Ordering::Relaxed);
        s.mmap_faults = self.tier.mmap_faults.load(Ordering::Relaxed);
        s.compression_effort = u64::from(self.effort.load(Ordering::Relaxed));
        s.tier_cold_segments = self.cold_segment_ids().len() as u64;
        s
    }

    // ---- compaction / GC ---------------------------------------------------

    /// Rewrites all live checkpoints into fresh, sealed segments and
    /// deletes the old segments and any migrated legacy files. Crash-safe:
    /// new segments are written to temp siblings, fsynced, and renamed in;
    /// the MANIFEST swap is atomic; old data is deleted only after the new
    /// manifest is in place. A crash at any point leaves either the
    /// pre-compaction or the post-compaction view (the orphaned half is
    /// reported at the next open and reclaimed by the next compaction
    /// pass). Refuses (with
    /// [`StoreError::Corrupt`]) to destroy data it cannot re-read.
    ///
    /// Writers block for the duration (the active segment is consumed);
    /// readers keep going throughout. Those guarantees are *in-process*:
    /// compaction requires exclusive cross-process ownership of the store
    /// directory — it rewrites the MANIFEST and deletes segments, either
    /// of which would sever another process's kept-open handles. Don't
    /// compact a store a different process is actively recording into
    /// (registry-managed runs never share a store directory across
    /// concurrent recorders, so `Registry::compact_run` is safe there).
    pub fn compact(&self) -> Result<CompactionReport, StoreError> {
        self.ensure_writable()?;
        let mut span = flor_obs::span(flor_obs::Category::Compact, "compact");
        let t0 = flor_obs::clock::now_ns();
        let mut w = self.writer.lock();
        // The active segment's live entries get rewritten like everyone
        // else's; stop appending to it.
        w.active = None;

        let live = self.sorted_index();
        // Everything currently in seg/ is an "old" segment (new ids are
        // allocated past next_seg, so the two sets cannot collide) —
        // including orphans a crashed compaction left behind, which open
        // only *reports*. Stale temp siblings are reclaimed here too:
        // compaction holds the writer lock, so unlike open it cannot be
        // racing this store's own writers.
        let mut old_segs: BTreeSet<u64> = BTreeSet::new();
        if let Ok(rd) = fs::read_dir(self.seg_dir()) {
            for entry in rd.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.starts_with('.') {
                    let _ = fs::remove_file(entry.path());
                    continue;
                }
                if let Some(id) = name
                    .strip_suffix(".seg")
                    .and_then(|n| n.parse::<u64>().ok())
                {
                    old_segs.insert(id);
                }
            }
        }

        let mut report = CompactionReport::default();
        let mut old_bytes = 0u64;
        for &id in &old_segs {
            old_bytes += fs::metadata(self.segment_path(id))
                .map(|m| m.len())
                .unwrap_or(0);
        }

        // Blocks holding any delta entry are re-encoded payload-by-payload
        // (chains resolved, then folded or re-chained under the current
        // keyframe policy); every other block's entries move their stored
        // bytes verbatim. Group the verbatim entries by source segment so
        // old segments are read — and freed — one at a time: peak memory
        // is one old segment plus the new segment being assembled, never
        // the whole store.
        let delta_blocks: HashSet<String> = live
            .iter()
            .filter(|(_, _, e)| e.loc.delta_link().is_some())
            .map(|(block, _, _)| block.clone())
            .collect();
        type SegEntryRef = (String, u64, u64, u32, u64, u32, bool);
        let mut by_seg: BTreeMap<u64, Vec<SegEntryRef>> = BTreeMap::new();
        let mut legacy: Vec<(String, u64, String, u64, u32)> = Vec::new();
        let mut reencode: BTreeMap<String, Vec<(u64, IndexEntry)>> = BTreeMap::new();
        let mut reencoded_legacy: Vec<String> = Vec::new();
        for (block, seq, e) in &live {
            if delta_blocks.contains(block) {
                reencode
                    .entry(block.clone())
                    .or_default()
                    .push((*seq, e.clone()));
                // A re-encoded block may still hold legacy v1 files; they
                // migrate through the re-encode walk but must be deleted
                // (and accounted) like any other migrated file.
                if let Location::File(file) = &e.loc {
                    reencoded_legacy.push(file.clone());
                }
                continue;
            }
            match &e.loc {
                Location::Segment {
                    seg,
                    offset,
                    len,
                    raw_stored,
                    ..
                } => {
                    by_seg.entry(*seg).or_default().push((
                        block.clone(),
                        *seq,
                        *offset,
                        *len,
                        e.raw,
                        e.crc,
                        *raw_stored,
                    ));
                }
                Location::File(file) => {
                    legacy.push((block.clone(), *seq, file.clone(), e.raw, e.crc));
                }
                Location::Dup { .. } => {
                    // Dup bytes live in the shared arena, not in any local
                    // segment: there is nothing to rewrite, and touching
                    // the reference would disturb the arena refcount. The
                    // entry survives the manifest swap as-is.
                }
            }
        }

        if live.is_empty() && old_segs.is_empty() {
            return Ok(report);
        }

        // Rolling writer over new sealed segments (no decompression —
        // compaction moves stored representations verbatim): each fills to
        // the target size, then lands via temp sibling + fsync + rename.
        // An interrupted pass leaves only temp junk or unreferenced
        // segments, both invisible to the index and reclaimed by the next
        // compaction.
        struct NewSeg {
            id: u64,
            bytes: Vec<u8>,
            footer: Vec<SegmentIndexEntry>,
        }
        struct SegmentRewriter {
            cur: Option<NewSeg>,
            new_locs: Vec<(String, u64, Location, u64)>,
            new_segments: Vec<u64>,
            bytes_written: u64,
        }
        impl SegmentRewriter {
            // One parameter per on-disk entry field; splitting further
            // would just re-bundle them into an ad-hoc struct.
            #[allow(clippy::too_many_arguments)]
            fn push(
                &mut self,
                store: &CheckpointStore,
                block: &str,
                seq: u64,
                raw: u64,
                crc: u32,
                raw_stored: bool,
                delta: Option<(u64, u32)>,
                stored: &[u8],
            ) -> Result<(), StoreError> {
                let ns = self.cur.get_or_insert_with(|| {
                    let id = store.next_seg.fetch_add(1, Ordering::Relaxed);
                    let mut bytes =
                        Vec::with_capacity((store.opts.segment_target_bytes as usize).min(1 << 20));
                    bytes.extend_from_slice(SEGMENT_MAGIC);
                    NewSeg {
                        id,
                        bytes,
                        footer: Vec::new(),
                    }
                });
                let offset = append_entry(
                    &mut ns.bytes,
                    block,
                    seq,
                    raw,
                    crc,
                    raw_stored,
                    delta.is_some(),
                    stored,
                );
                ns.footer.push(SegmentIndexEntry {
                    block_id: block.to_string(),
                    seq,
                    offset,
                    raw,
                    stored: stored.len() as u32,
                    crc,
                    raw_stored,
                    delta_stored: delta.is_some(),
                });
                self.new_locs.push((
                    block.to_string(),
                    seq,
                    Location::Segment {
                        seg: ns.id,
                        offset,
                        len: stored.len() as u32,
                        raw_stored,
                        delta,
                    },
                    stored.len() as u64,
                ));
                if ns.bytes.len() as u64 >= store.opts.segment_target_bytes {
                    self.flush(store)?;
                }
                Ok(())
            }

            fn flush(&mut self, store: &CheckpointStore) -> Result<(), StoreError> {
                if let Some(full) = self.cur.take() {
                    self.bytes_written +=
                        store.write_compacted_segment(full.id, full.bytes, &full.footer)?;
                    self.new_segments.push(full.id);
                }
                Ok(())
            }
        }
        let mut rewriter = SegmentRewriter {
            cur: None,
            new_locs: Vec::with_capacity(live.len()),
            new_segments: Vec::new(),
            bytes_written: 0,
        };

        for (seg_id, entries) in &by_seg {
            // Through the buffer pool, not a bare `fs::read`: a demoted
            // segment's bytes fault back from the spool tier here exactly
            // like on the read path.
            let need = entries
                .iter()
                .map(|(_, _, offset, len, ..)| offset + *len as u64)
                .max()
                .unwrap_or(0);
            let data = self.segment_bytes(*seg_id, need)?;
            for (block, seq, offset, len, raw, crc, raw_stored) in entries {
                let end = (offset + *len as u64) as usize;
                if data.len() < end {
                    return Err(StoreError::Corrupt {
                        block_id: block.clone(),
                        seq: *seq,
                        detail: format!("segment {seg_id} truncated; refusing to compact"),
                    });
                }
                rewriter.push(
                    self,
                    block,
                    *seq,
                    *raw,
                    *crc,
                    *raw_stored,
                    None,
                    &data.as_ref()[*offset as usize..end],
                )?;
                report.rewritten_entries += 1;
            }
            // `data` (the whole old segment) drops here, before the next
            // segment is read.
        }
        let mut migrated_legacy: Vec<String> = Vec::new();
        for (block, seq, file, raw, crc) in &legacy {
            let path = self.root.join("ckpt").join(file);
            old_bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let stored = fs::read(&path)?;
            // Legacy files are always compressed (raw_stored = false).
            rewriter.push(self, block, *seq, *raw, *crc, false, None, &stored)?;
            migrated_legacy.push(file.clone());
            report.migrated_files += 1;
        }

        // Delta-bearing blocks: resolve every payload through the normal
        // chain-aware read path (the old segments are still in place),
        // then re-encode under the current keyframe policy. Long or
        // orphan-prone chains fold into fresh keyframes here; healthy
        // chains re-chain against their rewritten neighbors. An entry
        // whose payload cannot be reconstructed (bit-rot, a re-put base)
        // is moved *verbatim* — stored bytes and chain link unchanged, so
        // it keeps failing loudly at read time — instead of aborting the
        // whole pass: one corrupt checkpoint must not permanently disable
        // GC for the entire store.
        let k = self.opts.delta_keyframe_interval;
        let min_bytes = self.opts.delta_min_bytes;
        let effort = self.effort.load(Ordering::Relaxed);
        for (block, mut entries) in reencode {
            entries.sort_by_key(|(seq, _)| *seq);
            let mut prev: Option<DeltaBase> = None;
            for (seq, entry) in entries {
                if let Location::Dup { .. } = &entry.loc {
                    // Arena-resident: kept verbatim (see the partition
                    // above), but its payload still serves as the chain
                    // base for the block's later re-encoded entries.
                    if k > 0 {
                        if let Ok(payload) = self.read_payload(&block, seq, &entry) {
                            if payload.len() as u64 >= min_bytes {
                                prev = Some(DeltaBase {
                                    seq,
                                    depth: entry.loc.delta_link().map_or(0, |(_, d)| d),
                                    crc: entry.crc,
                                    payload,
                                });
                            }
                        }
                    }
                    continue;
                }
                let payload = match self.read_payload(&block, seq, &entry) {
                    Ok(p) => p,
                    Err(_) => {
                        let (stored, raw_stored, delta_link) = match &entry.loc {
                            Location::Segment {
                                seg,
                                offset,
                                len,
                                raw_stored,
                                delta,
                            } => (
                                self.stored_slice(&block, seq, *seg, *offset, *len)?
                                    .to_vec(),
                                *raw_stored,
                                *delta,
                            ),
                            Location::File(file) => {
                                (fs::read(self.root.join("ckpt").join(file))?, false, None)
                            }
                            Location::Dup { .. } => {
                                unreachable!("dup entries are skipped before the read")
                            }
                        };
                        rewriter.push(
                            self, &block, seq, entry.raw, entry.crc, raw_stored, delta_link,
                            &stored,
                        )?;
                        report.rewritten_entries += 1;
                        // `prev` stays: the next entry can still chain
                        // against the last successfully decoded payload.
                        continue;
                    }
                };
                let mut encoded: Option<(Vec<u8>, u64, u32)> = None;
                if k > 0 && payload.len() as u64 >= min_bytes {
                    if let Some(p) = &prev {
                        if p.seq < seq && p.depth + 1 < k {
                            if let Some(f) = delta::encode(
                                p.payload.as_ref(),
                                payload.as_ref(),
                                p.seq,
                                p.crc,
                                p.depth + 1,
                            ) {
                                encoded = Some((f, p.seq, p.depth + 1));
                            }
                        }
                    }
                }
                let (stored, raw_stored, delta_link) =
                    arbitrate_stored(encoded, payload.as_ref(), effort);
                let old_depth = entry.loc.delta_link().map_or(0, |(_, d)| d);
                let new_depth = delta_link.map_or(0, |(_, d)| d);
                if old_depth > 0 && new_depth == 0 {
                    report.chains_folded += 1;
                }
                report.reencoded_entries += 1;
                report.rewritten_entries += 1;
                rewriter.push(
                    self, &block, seq, entry.raw, entry.crc, raw_stored, delta_link, &stored,
                )?;
                if k > 0 && payload.len() as u64 >= min_bytes {
                    prev = Some(DeltaBase {
                        seq,
                        depth: new_depth,
                        crc: entry.crc,
                        payload,
                    });
                }
            }
        }
        for file in &reencoded_legacy {
            let path = self.root.join("ckpt").join(file);
            old_bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            migrated_legacy.push(file.clone());
            report.migrated_files += 1;
        }
        rewriter.flush(self)?;
        let new_locs = rewriter.new_locs;
        let new_bytes_total = rewriter.bytes_written;
        report.new_segments = rewriter.new_segments;
        // Persist the renames before the manifest references them.
        if let Ok(d) = fs::File::open(self.seg_dir()) {
            let _ = d.sync_all();
        }

        // Swap the index over to the new locations, then the manifest
        // (atomically). Readers between these two steps see the new
        // segments; readers before see the old ones — both complete views.
        for (block, seq, loc, stored_len) in new_locs {
            let shard = &self.shards[Self::shard_of(&block)];
            let mut m = shard.write();
            if let Some(e) = m.get_mut(&block).and_then(|seqs| seqs.get_mut(&seq)) {
                e.loc = loc;
                // Re-encoded entries may change stored size; keep the O(1)
                // byte totals truthful.
                if e.stored != stored_len {
                    self.stored_total.fetch_add(stored_len, Ordering::Relaxed);
                    self.stored_total.fetch_sub(e.stored, Ordering::Relaxed);
                    e.stored = stored_len;
                }
            }
        }
        self.rewrite_manifest()?;

        // GC: the old segments and migrated legacy files are now
        // unreferenced by the durable manifest.
        for id in &old_segs {
            if fs::remove_file(self.segment_path(*id)).is_ok() {
                report.segments_removed += 1;
            }
        }
        // Every pre-compaction segment — including ones demoted to the
        // spool — was either rewritten into a fresh local segment or dead,
        // so no spool copy is referenced anymore.
        if let Some(spool) = self.spool_dir.read().clone() {
            if let Ok(rd) = fs::read_dir(spool.join("segments")) {
                for entry in rd.flatten() {
                    let name = entry.file_name().to_string_lossy().into_owned();
                    if name
                        .strip_suffix(".seg")
                        .is_some_and(|s| s.parse::<u64>().is_ok())
                    {
                        let _ = fs::remove_file(entry.path());
                    }
                }
            }
        }
        for file in &migrated_legacy {
            if fs::remove_file(self.root.join("ckpt").join(file)).is_ok() {
                report.legacy_files_removed += 1;
            }
        }
        {
            let mut cache = self.seg_cache.write();
            cache.clear();
            self.seg_cache_bytes.store(0, Ordering::Relaxed);
        }
        // Chain shapes changed: the delta caches must not serve stale
        // depths or reconstructions. (Content-wise they'd still be right,
        // but the depth bookkeeping governs future chain growth.)
        {
            let mut wcache = self.delta_write.lock();
            wcache.clear();
            self.delta_write_bytes.store(0, Ordering::Relaxed);
        }
        self.delta_rejects.lock().clear();
        {
            let mut cache = self.restore_cache.lock();
            cache.clear();
            self.restore_cache_bytes.store(0, Ordering::Relaxed);
        }

        report.reclaimed_bytes = old_bytes.saturating_sub(new_bytes_total);
        self.gc.runs.fetch_add(1, Ordering::Relaxed);
        self.gc
            .reclaimed
            .fetch_add(report.reclaimed_bytes, Ordering::Relaxed);
        drop(w);
        span.set_args(report.rewritten_entries, report.reclaimed_bytes);
        flor_obs::histogram!("store.compact_ns").observe(flor_obs::clock::since_ns(t0));
        flor_obs::counter!("store.compactions").inc();
        Ok(report)
    }

    /// Lands one compacted segment: footer appended, written to a temp
    /// sibling, fsynced, renamed into place. Returns the bytes written.
    fn write_compacted_segment(
        &self,
        id: u64,
        mut bytes: Vec<u8>,
        footer: &[SegmentIndexEntry],
    ) -> Result<u64, StoreError> {
        bytes.extend_from_slice(&encode_footer(footer));
        let dest = self.segment_path(id);
        let tmp = self
            .seg_dir()
            .join(format!(".compact-{id:08}.seg.tmp.{}", std::process::id()));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &dest)?;
        Ok(bytes.len() as u64)
    }

    /// Runs [`CheckpointStore::compact`] only when the estimated dead
    /// fraction of segment disk bytes reaches `garbage_ratio` (0.0–1.0).
    pub fn maybe_compact(
        &self,
        garbage_ratio: f64,
    ) -> Result<Option<CompactionReport>, StoreError> {
        let s = self.stats();
        if s.segment_disk_bytes > 0
            && s.dead_segment_bytes > 0
            && (s.dead_segment_bytes as f64) >= garbage_ratio * (s.segment_disk_bytes as f64)
        {
            return Ok(Some(self.compact()?));
        }
        Ok(None)
    }

    /// Spawns [`CheckpointStore::compact`] on a background thread. Writers
    /// queue behind it; readers are unaffected.
    pub fn compact_in_background(
        self: &std::sync::Arc<Self>,
    ) -> std::thread::JoinHandle<Result<CompactionReport, StoreError>> {
        let store = self.clone();
        std::thread::spawn(move || store.compact())
    }

    // ---- tiered storage ----------------------------------------------------

    /// Attaches a cold-tier spool directory: freshly sealed segments ship
    /// there in the background, [`CheckpointStore::demote_cold_segments`]
    /// may drop local copies, and reads fault demoted segments back
    /// through the buffer pool. Persisted via a `SPOOL` pointer file so
    /// reopens resolve demoted segments transparently.
    pub fn attach_spool(&self, dir: impl Into<PathBuf>) -> Result<(), StoreError> {
        self.ensure_writable()?;
        let dir = dir.into();
        fs::create_dir_all(dir.join("segments"))?;
        fs::write(
            self.root.join(SPOOL_POINTER_FILE),
            format!("{}\n", dir.display()),
        )?;
        *self.spool_dir.write() = Some(dir);
        Ok(())
    }

    /// Attaches a shared content-addressed dedup arena: subsequent
    /// commits intern keyframe-sized stored payloads there and write
    /// `@dup` reference entries on hits. Persisted via a `DEDUP` pointer
    /// file so reopens (and read-only inspections) resolve references.
    pub fn attach_dedup(&self, dir: impl Into<PathBuf>) -> Result<(), StoreError> {
        self.ensure_writable()?;
        let dir = dir.into();
        let idx = DedupIndex::open(&dir)?;
        fs::write(
            self.root.join(DEDUP_POINTER_FILE),
            format!("{}\n", dir.display()),
        )?;
        *self.dedup.write() = Some(idx);
        Ok(())
    }

    /// The attached dedup arena, if any.
    pub fn dedup_index(&self) -> Option<Arc<DedupIndex>> {
        self.dedup.read().clone()
    }

    /// Content addresses of every live `@dup` reference in this store's
    /// index (with multiplicity). Retention releases each against the
    /// arena before deleting the store directory, so pruning this run can
    /// never sever a surviving run's reference.
    pub fn dedup_references(&self) -> Vec<u64> {
        let mut hashes = Vec::new();
        for shard in &self.shards {
            let m = shard.read();
            for seqs in m.values() {
                for e in seqs.values() {
                    if let Location::Dup { hash, .. } = &e.loc {
                        hashes.push(*hash);
                    }
                }
            }
        }
        hashes
    }

    /// Demotes sealed local segments to the spool tier until local
    /// segment bytes fit `hot_budget_bytes`, oldest segment first. Each
    /// victim's spool copy is made durable (shipped now if the background
    /// ship hasn't landed) and length-verified *before* the local file is
    /// deleted, so a crash at any point leaves every segment readable
    /// from at least one tier. Returns the demoted segment ids.
    pub fn demote_cold_segments(&self, hot_budget_bytes: u64) -> Result<Vec<u64>, StoreError> {
        self.ensure_writable()?;
        let Some(spool) = self.spool_dir.read().clone() else {
            return Ok(Vec::new());
        };
        let mut span = flor_obs::span(flor_obs::Category::Tier, "demote_cold_segments");
        // Writers park while segments move between tiers (same total
        // order as compaction).
        let w = self.writer.lock();
        let active_id = w.active.as_ref().map(|a| a.id);
        let mut local: Vec<(u64, u64)> = Vec::new();
        if let Ok(rd) = fs::read_dir(self.seg_dir()) {
            for entry in rd.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.starts_with('.') {
                    continue;
                }
                if let Some(id) = name
                    .strip_suffix(".seg")
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    local.push((id, entry.metadata()?.len()));
                }
            }
        }
        local.sort_unstable();
        let mut resident: u64 = local.iter().map(|(_, len)| len).sum();
        let mut demoted = Vec::new();
        for (id, len) in local {
            if resident <= hot_budget_bytes {
                break;
            }
            if Some(id) == active_id {
                continue;
            }
            let path = self.segment_path(id);
            // Only sealed (footer-bearing) segments demote: an unsealed
            // one may belong to a crashed writer session and compaction
            // owns its fate.
            let Ok(Some(_)) = read_trailer_footer_len(&path, len) else {
                continue;
            };
            let data = fs::read(&path)?;
            let cold = spool_segment_path(&spool, id);
            let durable = fs::metadata(&cold)
                .map(|m| m.len() == data.len() as u64)
                .unwrap_or(false);
            if !durable {
                fs::create_dir_all(spool.join("segments"))?;
                write_atomic(&cold, &data)?;
            }
            fs::remove_file(&path)?;
            resident -= len;
            self.tier.demotions.fetch_add(1, Ordering::Relaxed);
            flor_obs::counter!("store.tier_demotions").inc();
            demoted.push(id);
        }
        drop(w);
        span.set_args(demoted.len() as u64, resident);
        Ok(demoted)
    }

    /// Segment ids resident in the spool tier (shipped copies, demoted or
    /// not). Operator/introspection surface.
    pub fn cold_segment_ids(&self) -> Vec<u64> {
        let Some(spool) = self.spool_dir.read().clone() else {
            return Vec::new();
        };
        let mut ids = Vec::new();
        if let Ok(rd) = fs::read_dir(spool.join("segments")) {
            for entry in rd.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Some(id) = name
                    .strip_suffix(".seg")
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        ids
    }

    /// Current compression effort for new stages (1 = fastest, 3 =
    /// smallest; see [`crate::compress`]).
    pub fn compression_effort(&self) -> u8 {
        self.effort.load(Ordering::Relaxed)
    }

    /// Sets the compression effort (clamped), persisting it across
    /// reopens. Best-effort on the artifact write and a no-op when
    /// unchanged — the auto-tuner calls this every adaptivity epoch and
    /// must never fail a record phase over a stats file.
    pub fn set_compression_effort(&self, effort: u8) {
        let e = effort.clamp(MIN_EFFORT, MAX_EFFORT);
        if self.effort.swap(e, Ordering::Relaxed) != e && !self.opts.read_only {
            let _ = fs::write(
                self.root.join("artifacts").join(EFFORT_ARTIFACT),
                format!("{e}\n"),
            );
        }
    }

    // ---- named artifacts ---------------------------------------------------

    /// Writes a named artifact (recorded source, record logs).
    pub fn put_artifact(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.ensure_writable()?;
        assert!(
            !name.contains(['/', '\\']),
            "artifact name {name:?} must be flat"
        );
        fs::write(self.root.join("artifacts").join(name), bytes)?;
        Ok(())
    }

    /// Reads a named artifact.
    pub fn get_artifact(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        Ok(fs::read(self.root.join("artifacts").join(name))?)
    }

    /// True if the named artifact exists.
    pub fn has_artifact(&self, name: &str) -> bool {
        self.root.join("artifacts").join(name).exists()
    }
}

impl Drop for CheckpointStore {
    fn drop(&mut self) {
        // Best-effort seal so cleanly closed stores leave self-describing
        // segments; an unsealed segment is still fully usable.
        let _ = self.seal_active_segment();
    }
}

/// Appends one entry (header + block id + payload) to a segment buffer,
/// returning the payload offset.
// One parameter per on-disk entry field; bundling them would just
// re-invent the header struct ad hoc.
#[allow(clippy::too_many_arguments)]
fn append_entry(
    bytes: &mut Vec<u8>,
    block: &str,
    seq: u64,
    raw: u64,
    crc: u32,
    raw_stored: bool,
    delta_stored: bool,
    stored: &[u8],
) -> u64 {
    assert!(block.len() <= u16::MAX as usize, "block id too long");
    bytes.extend_from_slice(&(block.len() as u16).to_le_bytes());
    bytes.extend_from_slice(&seq.to_le_bytes());
    bytes.extend_from_slice(&raw.to_le_bytes());
    bytes.extend_from_slice(&(stored.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes.push(entry_flags(raw_stored, delta_stored));
    bytes.extend_from_slice(block.as_bytes());
    let offset = bytes.len() as u64;
    bytes.extend_from_slice(stored);
    offset
}

/// Reads a sealed segment's trailer and returns its footer length, or
/// `None` when the file has no (valid-magic) trailer.
fn read_trailer_footer_len(path: &Path, file_len: u64) -> std::io::Result<Option<u64>> {
    use std::io::{Read, Seek, SeekFrom};
    if file_len < TRAILER_BYTES + SEGMENT_MAGIC.len() as u64 {
        return Ok(None);
    }
    let mut f = fs::File::open(path)?;
    f.seek(SeekFrom::End(-(TRAILER_BYTES as i64)))?;
    let mut trailer = [0u8; TRAILER_BYTES as usize];
    f.read_exact(&mut trailer)?;
    if &trailer[12..] != FOOTER_MAGIC {
        return Ok(None);
    }
    Ok(Some(u64::from_le_bytes(
        trailer[..8].try_into().expect("8 bytes"),
    )))
}

/// One staged (compressed, CRC-stamped, not yet written) checkpoint.
struct Staged {
    block_id: String,
    seq: u64,
    raw_len: u64,
    crc: u32,
    /// Stored representation: a delta frame, compressed bytes, or the raw
    /// payload when compression did not shrink it.
    stored: Vec<u8>,
    raw_stored: bool,
    /// `Some((base_seq, depth))` when `stored` is a delta frame.
    delta: Option<(u64, u32)>,
    /// `Some((hash, meta))` when the stored bytes are a dedup candidate
    /// (an arena is attached and the bytes clear the size floor).
    /// Commit interns it; on a verified hit the manifest gets a `@dup`
    /// reference entry instead of duplicate segment bytes.
    dup: Option<(u64, BlobMeta)>,
}

/// A group of checkpoints committed together.
///
/// [`WriteBatch::stage`] does the CPU work (compress + CRC) with no I/O;
/// [`WriteBatch::commit`] performs the batched I/O. See the module docs for
/// the exact ordering and crash-recovery guarantees. Dropping an uncommitted
/// batch discards it without side effects.
pub struct WriteBatch<'a> {
    store: &'a CheckpointStore,
    staged: Vec<Staged>,
    /// Per-block last payload staged *in this batch* — the delta base for
    /// the block's next stage before anything commits. Promoted into the
    /// store's write cache only when the batch commits.
    pending_bases: HashMap<String, DeltaBase>,
}

impl WriteBatch<'_> {
    /// Stages a checkpoint payload for `(block_id, seq)`. Compression,
    /// delta encoding, and CRC stamping happen now; nothing touches disk
    /// until [`WriteBatch::commit`]. Payloads that compression does not
    /// shrink are stored raw, which is what makes their reads zero-copy;
    /// payloads that differ only slightly from the block's previous
    /// version are stored as [`crate::delta`] frames (chain depth bounded
    /// by [`StoreOptions::delta_keyframe_interval`]). Within one batch,
    /// earlier stages serve as delta bases for later stages of the same
    /// block — correct across a crash because commit appends them in
    /// stage order, so any durable manifest prefix contains a delta's
    /// base before the delta itself.
    pub fn stage(&mut self, block_id: &str, seq: u64, payload: &[u8]) {
        assert!(
            !block_id.contains(['\t', '\n', '/']),
            "block id {block_id:?} contains reserved characters"
        );
        let crc = crc32(payload);
        let k = self.store.opts.delta_keyframe_interval;
        let delta_eligible = k > 0 && payload.len() as u64 >= self.store.opts.delta_min_bytes;

        // Back-off: a block whose payloads keep rewriting themselves (a
        // from-scratch training regime) stops paying the probe and the
        // base-cache memcpy after a few consecutive rejections, re-probing
        // periodically so a regime change resumes chaining.
        let probe = delta_eligible
            && (seq.is_multiple_of(DELTA_RETRY_PERIOD)
                || self
                    .store
                    .delta_rejects
                    .lock()
                    .get(block_id)
                    .is_none_or(|&r| r < DELTA_REJECT_THRESHOLD));

        let mut encoded: Option<(Vec<u8>, u64, u32)> = None;
        let mut base_found = false;
        if probe {
            // Strictly forward chains only: a re-put or out-of-order seq
            // takes the keyframe path (and a same-seq re-put is detected
            // at read time via the frame's base CRC). Base priority: this
            // batch's own stages, then the store-wide write cache, then —
            // when racing batches left both behind — the newest committed
            // version from the index.
            let base = self
                .pending_bases
                .get(block_id)
                .cloned()
                .or_else(|| self.store.delta_write.lock().get(block_id).cloned())
                .filter(|b| b.seq < seq && b.depth + 1 < k)
                .or_else(|| {
                    self.store
                        .delta_base_from_index(block_id, seq)
                        .filter(|b| b.depth + 1 < k)
                });
            if let Some(b) = base {
                base_found = true;
                if let Some(frame) =
                    delta::encode(b.payload.as_ref(), payload, b.seq, b.crc, b.depth + 1)
                {
                    encoded = Some((frame, b.seq, b.depth + 1));
                }
            }
        }
        if base_found {
            let mut rejects = self.store.delta_rejects.lock();
            if encoded.is_some() {
                rejects.remove(block_id);
            } else {
                *rejects.entry(block_id.to_string()).or_insert(0) += 1;
            }
        }
        let (stored, raw_stored, delta) =
            arbitrate_stored(encoded, payload, self.store.effort.load(Ordering::Relaxed));
        // Keying the *stored representation* (not the raw payload) lets an
        // identically re-recorded run dedup its delta frames too, not just
        // its keyframes — the same input stream arbitrates to the same
        // bytes.
        let dup = if stored.len() >= DEDUP_MIN_BYTES {
            self.store.dedup.read().as_ref().map(|_| {
                let hash = DedupIndex::hash_of(&stored);
                let meta = BlobMeta {
                    stored_len: stored.len() as u64,
                    stored_crc: crc32(&stored),
                    raw_len: payload.len() as u64,
                    payload_crc: crc,
                    flags: entry_flags(raw_stored, delta.is_some()),
                };
                (hash, meta)
            })
        } else {
            None
        };
        if probe || delta.is_some() {
            self.pending_bases.insert(
                block_id.to_string(),
                DeltaBase {
                    seq,
                    depth: delta.map_or(0, |(_, d)| d),
                    crc,
                    payload: Bytes::copy_from_slice(payload),
                },
            );
        }
        self.staged.push(Staged {
            block_id: block_id.to_string(),
            seq,
            raw_len: payload.len() as u64,
            crc,
            stored,
            raw_stored,
            delta,
            dup,
        });
    }

    /// Checkpoints staged so far.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// Commits the batch: payload data first, then one batched manifest
    /// append (write-ahead of the manifest entries means a crash leaves at
    /// worst dead bytes, never a manifest entry without data). Under
    /// [`Durability::GroupCommit`] this is where the once-per-batch fsyncs
    /// happen.
    pub fn commit(self) -> Result<Vec<CkptMeta>, StoreError> {
        self.store.ensure_writable()?;
        if self.staged.is_empty() {
            return Ok(Vec::new());
        }
        let mut span = flor_obs::span(flor_obs::Category::Commit, "commit");
        span.set_args(self.staged.len() as u64, 0);
        let t0 = flor_obs::clock::now_ns();
        let result = self.commit_segmented();
        if let Ok(metas) = &result {
            flor_obs::histogram!("store.commit_ns").observe(flor_obs::clock::since_ns(t0));
            flor_obs::counter!("store.commits").inc();
            flor_obs::counter!("store.commit_entries").add(metas.len() as u64);
        }
        result
    }

    /// The commit body: one buffered `write_all` appends every staged
    /// payload to the active segment.
    ///
    /// The writer lock is held for the *whole* commit — segment append,
    /// manifest append, and index insert — so a concurrent [`compact`]
    /// (which takes the same lock) can never snapshot the index between a
    /// batch's data landing and its entries becoming visible, and then
    /// delete the segment the batch just wrote to.
    ///
    /// [`compact`]: CheckpointStore::compact
    fn commit_segmented(self) -> Result<Vec<CkptMeta>, StoreError> {
        let store = self.store;
        let sync = store.opts.durability == Durability::GroupCommit;

        // Everything later phases need, minus the payload bytes — those
        // are dropped as soon as they're copied into the batch buffer, so
        // a commit holds one copy of the batch, not two.
        struct PlacedMeta {
            block_id: String,
            seq: u64,
            raw_len: u64,
            crc: u32,
            stored_len: u64,
            chain_depth: u32,
            loc: Location,
        }
        let mut placed: Vec<PlacedMeta> = Vec::with_capacity(self.staged.len());
        let mut w = store.writer.lock();
        if w.active.is_none() {
            let id = store.next_seg.fetch_add(1, Ordering::Relaxed);
            let path = store.segment_path(id);
            let mut file = fs::OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&path)?;
            file.write_all(SEGMENT_MAGIC)?;
            w.active = Some(ActiveSegment {
                id,
                file,
                len: SEGMENT_MAGIC.len() as u64,
                footer: Vec::new(),
            });
        }
        let active = w.active.as_mut().expect("active segment ensured above");
        let mut buf: Vec<u8> = Vec::with_capacity(
            self.staged
                .iter()
                .map(|s| s.stored.len() + s.block_id.len() + ENTRY_HEADER_BYTES as usize)
                .sum(),
        );
        let mut recs: Vec<SegmentIndexEntry> = Vec::with_capacity(self.staged.len());
        let dedup = store.dedup.read().clone();
        let mut interned_any = false;
        for s in self.staged {
            // Dedup candidates first: on a verified hit (or a fresh
            // insert) the checkpoint becomes a `@dup` reference — no
            // segment bytes at all. A collision or arena I/O failure just
            // falls through to the private segment write (dedup is an
            // optimization, never a correctness dependency).
            if let (Some((hash, meta)), Some(idx)) = (&s.dup, dedup.as_ref()) {
                match idx.intern(*hash, *meta, &s.stored) {
                    Ok(outcome @ (Interned::Hit | Interned::Inserted)) => {
                        if outcome == Interned::Hit {
                            store.tier.dedup_hits.fetch_add(1, Ordering::Relaxed);
                        }
                        interned_any = true;
                        placed.push(PlacedMeta {
                            block_id: s.block_id,
                            seq: s.seq,
                            raw_len: s.raw_len,
                            crc: s.crc,
                            // The shared arena owns the bytes; charging
                            // them to this store would double-count across
                            // every referencing run.
                            stored_len: 0,
                            chain_depth: s.delta.map_or(0, |(_, d)| d),
                            loc: Location::Dup {
                                hash: *hash,
                                delta: s.delta,
                            },
                        });
                        continue;
                    }
                    Ok(Interned::Collision) | Err(_) => {}
                }
            }
            // append_entry returns the payload offset within `buf`;
            // rebase it onto the segment file (the batch lands at the
            // current end of the active segment).
            let offset_in_buf = append_entry(
                &mut buf,
                &s.block_id,
                s.seq,
                s.raw_len,
                s.crc,
                s.raw_stored,
                s.delta.is_some(),
                &s.stored,
            );
            let offset = active.len + offset_in_buf;
            let loc = Location::Segment {
                seg: active.id,
                offset,
                len: s.stored.len() as u32,
                raw_stored: s.raw_stored,
                delta: s.delta,
            };
            recs.push(SegmentIndexEntry {
                block_id: s.block_id.clone(),
                seq: s.seq,
                offset,
                raw: s.raw_len,
                stored: s.stored.len() as u32,
                crc: s.crc,
                raw_stored: s.raw_stored,
                delta_stored: s.delta.is_some(),
            });
            placed.push(PlacedMeta {
                stored_len: s.stored.len() as u64,
                block_id: s.block_id,
                seq: s.seq,
                raw_len: s.raw_len,
                crc: s.crc,
                chain_depth: s.delta.map_or(0, |(_, d)| d),
                loc,
            });
            // `s.stored` drops here — the payload now lives only in `buf`.
        }
        let write_result = active.file.write_all(&buf).and_then(|()| {
            if sync {
                active.file.sync_data()
            } else {
                Ok(())
            }
        });
        if let Err(e) = write_result {
            // A failed/partial O_APPEND write leaves the file's true end
            // unknown: `active.len` would be stale and every later offset
            // in this segment wrong. Abandon the segment — its manifested
            // prefix stays readable, the partial bytes are dead space, and
            // the next batch starts a fresh segment.
            w.active = None;
            return Err(e.into());
        }
        // Only a fully-written batch advances the offsets and the pending
        // footer (a failed batch must not leave phantom footer entries).
        active.len += buf.len() as u64;
        active.footer.extend(recs);
        if active.len >= store.opts.segment_target_bytes {
            store.seal_locked(&mut w)?;
        }
        if sync {
            // One directory barrier covers the (possibly new) segment file;
            // errors propagate — commit must not claim durability it
            // didn't get.
            fs::File::open(store.seg_dir())?.sync_all()?;
        }

        // Single write_all for the whole batch: a crash mid-append tears at
        // most one line, and O_APPEND keeps concurrent batches line-atomic.
        let mut lines = String::new();
        for p in &placed {
            lines.push_str(&CheckpointStore::manifest_line(
                &p.block_id,
                p.seq,
                &p.loc.render(),
                p.raw_len,
                p.crc,
            ));
            lines.push('\n');
        }
        // Arena refcount ops must be durable before any manifest line that
        // references them — a crash may then over-count (leak a blob),
        // never leave a reference without its count.
        if interned_any {
            if let Some(idx) = dedup.as_ref() {
                idx.sync()?;
            }
        }
        store.append_manifest_text(&lines)?;

        let mut metas = Vec::with_capacity(placed.len());
        for p in placed {
            metas.push(CkptMeta {
                block_id: p.block_id.clone(),
                seq: p.seq,
                stored_bytes: p.stored_len,
                raw_bytes: p.raw_len,
                chain_depth: p.chain_depth,
            });
            // A re-put over a cached reconstruction would leave the
            // restore cache serving stale bytes to later chain walks.
            {
                let mut cache = store.restore_cache.lock();
                if let Some((cseq, _, _)) = cache.get(&p.block_id) {
                    if *cseq == p.seq {
                        if let Some((_, _, old)) = cache.remove(&p.block_id) {
                            store
                                .restore_cache_bytes
                                .fetch_sub(old.len() as u64, Ordering::Relaxed);
                        }
                    }
                }
            }
            store.index_insert(
                p.block_id,
                p.seq,
                IndexEntry {
                    loc: p.loc,
                    raw: p.raw_len,
                    crc: p.crc,
                    stored: p.stored_len,
                },
            );
        }
        // Promote this batch's last payloads into the store-wide delta
        // base cache (monotonic per block: concurrent batches may commit
        // out of seq order, and the base must only ever move forward).
        // Byte-budgeted like the read-side caches — an evicted block's
        // next stage falls back to the committed index, so a long-lived
        // handle never pins unbounded raw payloads.
        if !self.pending_bases.is_empty() {
            let mut wcache = store.delta_write.lock();
            for (block, base) in self.pending_bases {
                match wcache.get(&block) {
                    Some(existing) if existing.seq > base.seq => {}
                    _ => {
                        let incoming = base.payload.len() as u64;
                        if let Some(old) = wcache.insert(block, base) {
                            store
                                .delta_write_bytes
                                .fetch_sub(old.payload.len() as u64, Ordering::Relaxed);
                        }
                        store
                            .delta_write_bytes
                            .fetch_add(incoming, Ordering::Relaxed);
                    }
                }
            }
            while store.delta_write_bytes.load(Ordering::Relaxed) > DELTA_WRITE_BUDGET_BYTES
                && wcache.len() > 1
            {
                let victim = wcache.keys().next().expect("non-empty cache").clone();
                if let Some(evicted) = wcache.remove(&victim) {
                    store
                        .delta_write_bytes
                        .fetch_sub(evicted.payload.len() as u64, Ordering::Relaxed);
                }
            }
        }
        Ok(metas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flor-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Pseudo-random (xorshift) bytes: incompressible, so they exercise the
    /// raw-stored zero-copy path.
    fn incompressible(n: usize, seed: u32) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    #[test]
    fn put_get_roundtrip() {
        let store = CheckpointStore::open(tmpdir("roundtrip")).unwrap();
        let payload = b"checkpoint payload with zeros \0\0\0\0\0\0".repeat(10);
        let meta = store.put("sb_0", 0, &payload).unwrap();
        assert_eq!(meta.raw_bytes, payload.len() as u64);
        assert_eq!(store.get("sb_0", 0).unwrap(), payload);
        assert_eq!(store.get_bytes("sb_0", 0).unwrap().as_ref(), &payload[..]);
    }

    #[test]
    fn missing_checkpoint_errors() {
        let store = CheckpointStore::open(tmpdir("missing")).unwrap();
        assert!(matches!(
            store.get("sb_0", 0),
            Err(StoreError::Missing { .. })
        ));
        assert!(matches!(
            store.get_bytes("sb_0", 0),
            Err(StoreError::Missing { .. })
        ));
    }

    #[test]
    fn multiple_seqs_per_block() {
        let store = CheckpointStore::open(tmpdir("seqs")).unwrap();
        for seq in 0..5 {
            store
                .put("sb_0", seq, format!("payload{seq}").as_bytes())
                .unwrap();
        }
        assert_eq!(store.count("sb_0"), 5);
        assert_eq!(store.latest_seq("sb_0"), Some(4));
        assert_eq!(store.get("sb_0", 3).unwrap(), b"payload3");
    }

    #[test]
    fn reopen_restores_index() {
        let dir = tmpdir("reopen");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, b"alpha").unwrap();
            store.put("sb_1", 7, b"beta").unwrap();
        }
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(
            store.recovery_report().is_clean(),
            "{:?}",
            store.recovery_report()
        );
        assert_eq!(store.get("sb_0", 0).unwrap(), b"alpha");
        assert_eq!(store.get("sb_1", 7).unwrap(), b"beta");
        assert!(store.contains("sb_1", 7));
        assert!(!store.contains("sb_1", 8));
    }

    #[test]
    fn zero_copy_reads_share_the_segment_buffer() {
        let store = CheckpointStore::open(tmpdir("zerocopy")).unwrap();
        let payload = incompressible(4096, 0xBEEF);
        store.put("sb_0", 0, &payload).unwrap();
        let a = store.get_bytes("sb_0", 0).unwrap();
        let b = store.get_bytes("sb_0", 0).unwrap();
        assert_eq!(a.as_ref(), &payload[..]);
        // Both reads slice the one cached segment buffer: same backing
        // memory, no payload copy.
        assert_eq!(a.as_ref().as_ptr(), b.as_ref().as_ptr());
        let s = store.stats();
        assert!(s.zero_copy_reads >= 2, "{s:?}");
        assert!(s.segment_cache_hits >= 1, "{s:?}");
    }

    #[test]
    fn compressible_payloads_roundtrip_through_segments() {
        let dir = tmpdir("compressible");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, &vec![0u8; 100_000]).unwrap();
        }
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.get("sb_0", 0).unwrap(), vec![0u8; 100_000]);
        // Compressed on disk: the segment file is tiny.
        let s = store.stats();
        assert!(s.segment_disk_bytes < 10_000, "{s:?}");
    }

    #[test]
    fn corruption_is_detected() {
        let dir = tmpdir("corrupt");
        let store = CheckpointStore::open(&dir).unwrap();
        // Structured payload: a flipped byte must change the decompressed
        // content (an all-constant payload can survive offset corruption).
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let meta = store.put("sb_0", 0, &payload).unwrap();
        // Flip a byte inside the stored payload (the entry's tail bytes).
        let file = dir.join("seg").join("00000000.seg");
        let mut bytes = fs::read(&file).unwrap();
        let n = bytes.len();
        let target = n - (meta.stored_bytes as usize) / 2;
        bytes[target] ^= 0xff;
        fs::write(&file, &bytes).unwrap();
        assert!(matches!(
            store.get("sb_0", 0),
            Err(StoreError::Corrupt { .. }) | Err(StoreError::Io(_))
        ));
    }

    #[test]
    fn truncated_segment_is_detected() {
        let dir = tmpdir("trunc");
        let store = CheckpointStore::open(&dir).unwrap();
        store.put("sb_0", 0, &vec![3u8; 5000]).unwrap();
        let file = dir.join("seg").join("00000000.seg");
        let bytes = fs::read(&file).unwrap();
        fs::write(&file, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            store.get("sb_0", 0),
            Err(StoreError::Corrupt { .. })
        ));
        // Truncation stays loud across a reopen, too: the entry is kept
        // (the segment exists), and the read fails its bounds check.
        drop(store);
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.contains("sb_0", 0));
        assert!(matches!(
            store.get("sb_0", 0),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn artifacts_roundtrip() {
        let store = CheckpointStore::open(tmpdir("artifacts")).unwrap();
        store.put_artifact("source.flr", b"import flor\n").unwrap();
        assert!(store.has_artifact("source.flr"));
        assert_eq!(store.get_artifact("source.flr").unwrap(), b"import flor\n");
        assert!(!store.has_artifact("nope"));
    }

    #[test]
    fn byte_accounting() {
        let store = CheckpointStore::open(tmpdir("bytes")).unwrap();
        store.put("sb_0", 0, &vec![0u8; 100_000]).unwrap();
        assert_eq!(store.total_raw_bytes(), 100_000);
        // All zeros compress massively.
        assert!(store.total_stored_bytes() < 5_000);
        assert!(store.total_stored_bytes() > 0);
    }

    #[test]
    fn byte_accounting_survives_reopen_and_overwrite() {
        let dir = tmpdir("bytes-reopen");
        let (raw_before, stored_before) = {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, &vec![1u8; 10_000]).unwrap();
            store.put("sb_0", 1, &vec![2u8; 20_000]).unwrap();
            (store.total_raw_bytes(), store.total_stored_bytes())
        };
        assert_eq!(raw_before, 30_000);
        // Reopen recomputes the same totals from the manifest alone — no
        // per-checkpoint stat.
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.total_raw_bytes(), raw_before);
        assert_eq!(store.total_stored_bytes(), stored_before);
        // Overwriting a seq replaces its contribution instead of adding.
        store.put("sb_0", 1, &vec![3u8; 5_000]).unwrap();
        assert_eq!(store.total_raw_bytes(), 15_000);
    }

    #[test]
    fn batch_commit_is_atomic_in_the_index_and_readable() {
        let store = CheckpointStore::open(tmpdir("batch")).unwrap();
        let mut batch = store.batch();
        for seq in 0..10u64 {
            batch.stage("sb_0", seq, format!("payload-{seq}").as_bytes());
        }
        assert_eq!(batch.len(), 10);
        assert!(!store.contains("sb_0", 0), "stage does no I/O");
        let metas = batch.commit().unwrap();
        assert_eq!(metas.len(), 10);
        for seq in 0..10u64 {
            assert_eq!(
                store.get("sb_0", seq).unwrap(),
                format!("payload-{seq}").as_bytes()
            );
        }
        // Entire batch landed as one manifest append of whole lines.
        let manifest = fs::read_to_string(store.root().join("MANIFEST")).unwrap();
        assert_eq!(manifest.lines().count(), 10);
        assert!(manifest.ends_with('\n'));
        // And as one segment file.
        assert_eq!(store.stats().segments, 1);
    }

    #[test]
    fn dropped_batch_has_no_effect() {
        let store = CheckpointStore::open(tmpdir("batch-drop")).unwrap();
        let mut batch = store.batch();
        batch.stage("sb_0", 0, b"never committed");
        drop(batch);
        assert!(!store.contains("sb_0", 0));
        assert_eq!(store.total_raw_bytes(), 0);
    }

    #[test]
    fn overwrite_keeps_old_payload_readable_until_commit() {
        // A re-put appends the new payload and only then repoints the
        // index: the old payload stays readable right up until commit
        // returns, and no temp files survive.
        let dir = tmpdir("overwrite");
        let store = CheckpointStore::open(&dir).unwrap();
        store.put("sb_0", 0, &vec![1u8; 4000]).unwrap();
        let mut batch = store.batch();
        batch.stage("sb_0", 0, &vec![2u8; 4000]);
        // Staged but uncommitted: old content untouched.
        assert_eq!(store.get("sb_0", 0).unwrap(), vec![1u8; 4000]);
        batch.commit().unwrap();
        assert_eq!(store.get("sb_0", 0).unwrap(), vec![2u8; 4000]);
        let leftovers: Vec<_> = fs::read_dir(dir.join("seg"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with('.'))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }

    #[test]
    fn group_commit_durability_roundtrips() {
        let store = CheckpointStore::open_with(tmpdir("gc"), Durability::GroupCommit).unwrap();
        assert_eq!(store.durability(), Durability::GroupCommit);
        let mut batch = store.batch();
        for seq in 0..4u64 {
            batch.stage("sb_0", seq, &vec![seq as u8; 2000]);
        }
        batch.commit().unwrap();
        for seq in 0..4u64 {
            assert_eq!(store.get("sb_0", seq).unwrap(), vec![seq as u8; 2000]);
        }
    }

    #[test]
    fn torn_manifest_tail_is_recovered_and_repaired() {
        // A record phase killed mid-append leaves a truncated final line;
        // reopening must recover the intact prefix, not poison the run.
        let dir = tmpdir("torn-tail");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, b"alpha").unwrap();
            store.put("sb_0", 1, b"beta").unwrap();
        }
        let manifest = dir.join("MANIFEST");
        let text = fs::read_to_string(&manifest).unwrap();
        fs::write(&manifest, &text[..text.len() - 7]).unwrap();

        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.get("sb_0", 0).unwrap(), b"alpha");
        assert!(!store.contains("sb_0", 1), "torn entry dropped");
        assert!(store.recovery_report().dropped_torn_tail);
        assert!(store.recovery_report().repaired_manifest);
        // The manifest was rewritten clean (temp+rename): reopening again
        // parses every line.
        let repaired = fs::read_to_string(&manifest).unwrap();
        assert!(repaired.lines().all(|l| l.split('\t').count() == 6));
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.count("sb_0"), 1);
    }

    #[test]
    fn tail_cut_exactly_at_newline_is_repaired_before_next_append() {
        // The crash can cut exactly at the trailing newline: the final line
        // parses, but without repair the next append would merge two lines.
        let dir = tmpdir("newline-cut");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, b"alpha").unwrap();
        }
        let manifest = dir.join("MANIFEST");
        let text = fs::read_to_string(&manifest).unwrap();
        assert!(text.ends_with('\n'));
        fs::write(&manifest, &text[..text.len() - 1]).unwrap();
        {
            let store = CheckpointStore::open(&dir).unwrap();
            assert_eq!(store.count("sb_0"), 1, "parseable tail entry kept");
            store.put("sb_0", 1, b"beta").unwrap();
        }
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.count("sb_0"), 2);
        assert_eq!(store.get("sb_0", 0).unwrap(), b"alpha");
        assert_eq!(store.get("sb_0", 1).unwrap(), b"beta");
    }

    #[test]
    fn interior_manifest_corruption_is_fatal() {
        let dir = tmpdir("torn-interior");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, b"alpha").unwrap();
            store.put("sb_0", 1, b"beta").unwrap();
        }
        let manifest = dir.join("MANIFEST");
        let text = fs::read_to_string(&manifest).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[0] = "garbage line";
        fs::write(&manifest, lines.join("\n")).unwrap();
        assert!(matches!(
            CheckpointStore::open(&dir),
            Err(StoreError::BadManifest(_))
        ));
    }

    #[test]
    fn recovery_after_simulated_crash_roundtrips_new_writes() {
        let dir = tmpdir("torn-rewrite");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, b"alpha").unwrap();
        }
        let manifest = dir.join("MANIFEST");
        let text = fs::read_to_string(&manifest).unwrap();
        // Torn mid-line append of a second entry.
        fs::write(&manifest, format!("{text}sb_0\t1\t@0:99")).unwrap();
        let store = CheckpointStore::open(&dir).unwrap();
        // The recovered store accepts new writes and reloads them (the
        // repair invalidated the appender; the next put reopens it).
        store.put("sb_0", 1, b"beta-again").unwrap();
        drop(store);
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.get("sb_0", 1).unwrap(), b"beta-again");
        assert_eq!(store.count("sb_0"), 2);
    }

    #[test]
    fn crc32_known_value() {
        // IEEE CRC32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_reference(b"123456789"), 0xCBF43926);
    }

    #[test]
    fn crc32_sliced_matches_reference_across_lengths() {
        // Slicing-by-8 must be bit-identical to the byte-at-a-time loop
        // for every remainder length and content.
        let mut x = 0xACE1u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        for n in (0..64).chain([255, 1000, 4095, 4096]) {
            assert_eq!(crc32(&data[..n]), crc32_reference(&data[..n]), "len {n}");
        }
    }

    #[test]
    fn concurrent_puts() {
        let store = std::sync::Arc::new(CheckpointStore::open(tmpdir("concurrent")).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for seq in 0..10 {
                    store
                        .put(&format!("sb_{t}"), seq, format!("{t}:{seq}").as_bytes())
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.entries().len(), 40);
        assert_eq!(store.get("sb_2", 9).unwrap(), b"2:9");
    }

    #[test]
    fn concurrent_batches_share_the_appender() {
        let dir = tmpdir("conc-batch");
        let store = std::sync::Arc::new(CheckpointStore::open(&dir).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                let mut batch = store.batch();
                for seq in 0..8 {
                    batch.stage(&format!("sb_{t}"), seq, &vec![t as u8; 512]);
                }
                batch.commit().unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        drop(store);
        // Every appended line is whole (no interleaving) and reloads clean.
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.entries().len(), 32);
        for t in 0..4u8 {
            assert_eq!(store.get(&format!("sb_{t}"), 7).unwrap(), vec![t; 512]);
        }
    }

    #[test]
    fn segments_roll_at_target_and_sealed_footers_index_them() {
        let dir = tmpdir("roll");
        // Delta off: the `seed | 1` fixture makes adjacent payloads
        // identical, which delta would collapse — this test is about
        // rolling, so keep every entry full-size.
        let opts = StoreOptions {
            segment_target_bytes: 4096,
            delta_keyframe_interval: 0,
            ..StoreOptions::default()
        };
        {
            let store = CheckpointStore::open_opts(&dir, opts).unwrap();
            for seq in 0..12u64 {
                store
                    .put("sb_0", seq, &incompressible(1024, seq as u32 + 1))
                    .unwrap();
            }
            let s = store.stats();
            assert!(s.segments >= 3, "expected several rolled segments: {s:?}");
        }
        // Dropping sealed the last active segment: every segment now has a
        // valid footer that indexes exactly its entries.
        let store = CheckpointStore::open_opts(&dir, opts).unwrap();
        let s = store.stats();
        assert_eq!(s.sealed_segments, s.segments, "{s:?}");
        let mut footer_keys = Vec::new();
        for entry in fs::read_dir(dir.join("seg")).unwrap() {
            let recs = read_segment_footer(&entry.unwrap().path())
                .unwrap()
                .unwrap();
            for r in recs {
                footer_keys.push((r.block_id, r.seq));
            }
        }
        footer_keys.sort();
        assert_eq!(footer_keys, store.entries());
        for seq in 0..12u64 {
            assert_eq!(
                store.get_bytes("sb_0", seq).unwrap().as_ref(),
                &incompressible(1024, seq as u32 + 1)[..]
            );
        }
    }

    #[test]
    fn missing_segment_is_reported_and_manifest_repaired() {
        let dir = tmpdir("missing-seg");
        let opts = StoreOptions {
            segment_target_bytes: 2048,
            ..StoreOptions::default()
        };
        {
            let store = CheckpointStore::open_opts(&dir, opts).unwrap();
            for seq in 0..6u64 {
                store
                    .put("sb_0", seq, &incompressible(1024, seq as u32 + 9))
                    .unwrap();
            }
            assert!(store.stats().segments >= 2);
        }
        fs::remove_file(dir.join("seg").join("00000000.seg")).unwrap();
        let store = CheckpointStore::open_opts(&dir, opts).unwrap();
        let report = store.recovery_report().clone();
        assert!(!report.missing_entries.is_empty(), "{report:?}");
        assert!(report.repaired_manifest);
        // Survivors read back; the dropped ones answer Missing (so replay
        // falls back to re-execution, the legitimate gap-filling path).
        let survivors = store.entries();
        assert!(!survivors.is_empty());
        for (block, seq) in &survivors {
            store.get_bytes(block, *seq).unwrap();
        }
        for m in &report.missing_entries {
            assert!(!store.contains(&m.block_id, m.seq));
        }
        // Totals reflect only what is actually there — not undercounted to
        // zero, not overcounted with ghosts.
        let sum: u64 = survivors
            .iter()
            .map(|(b, s)| store.get_bytes(b, *s).unwrap().len() as u64)
            .sum();
        assert_eq!(store.total_raw_bytes(), sum);
        // Repaired manifest reopens clean.
        let store = CheckpointStore::open_opts(&dir, opts).unwrap();
        assert!(
            store.recovery_report().is_clean(),
            "{:?}",
            store.recovery_report()
        );
    }

    /// Golden v1 fixture: writes a file-per-checkpoint store by hand —
    /// `ckpt/<block>.<seq:06>` payload files (always compressed) plus
    /// literal 6-field MANIFEST v1 lines
    /// (`block\tseq\tfile\traw\tcrc\tline_crc`, the line CRC covering the
    /// first five fields).
    fn write_v1_store(dir: &Path, entries: &[(&str, u64, Vec<u8>)]) {
        fs::create_dir_all(dir.join("ckpt")).unwrap();
        let mut manifest = String::new();
        for (block, seq, payload) in entries {
            let file = format!("{block}.{seq:06}");
            fs::write(
                dir.join("ckpt").join(&file),
                crate::compress::compress(payload),
            )
            .unwrap();
            let fields = format!(
                "{block}\t{seq}\t{file}\t{}\t{}",
                payload.len(),
                crc32(payload)
            );
            let line_crc = crc32(fields.as_bytes());
            manifest.push_str(&format!("{fields}\t{line_crc}\n"));
        }
        fs::write(dir.join("MANIFEST"), manifest).unwrap();
    }

    #[test]
    fn legacy_missing_data_file_is_reported_not_undercounted() {
        // The v1 engine recorded stored=0 for a missing data file and let
        // get() fail with a raw Io error later. Now: dropped, reported,
        // manifest repaired, byte totals truthful.
        let dir = tmpdir("legacy-missing");
        write_v1_store(
            &dir,
            &[
                ("sb_0", 0, vec![1u8; 10_000]),
                ("sb_0", 1, vec![2u8; 10_000]),
            ],
        );
        fs::remove_file(dir.join("ckpt").join("sb_0.000001")).unwrap();
        let store = CheckpointStore::open(&dir).unwrap();
        let report = store.recovery_report();
        assert_eq!(report.missing_entries.len(), 1, "{report:?}");
        assert_eq!(report.missing_entries[0].seq, 1);
        assert!(report.repaired_manifest);
        assert!(!store.contains("sb_0", 1));
        assert_eq!(store.total_raw_bytes(), 10_000);
        assert!(store.total_stored_bytes() > 0, "no stored=0 undercount");
        assert_eq!(store.get("sb_0", 0).unwrap(), vec![1u8; 10_000]);
    }

    #[test]
    fn legacy_store_reads_and_compaction_migrates_it() {
        let dir = tmpdir("legacy-migrate");
        let entries: Vec<(&str, u64, Vec<u8>)> = (0..5u64)
            .map(|seq| ("sb_0", seq, format!("legacy-{seq}").repeat(50).into_bytes()))
            .collect();
        write_v1_store(&dir, &entries);
        // Old-format store opens transparently under the segmented engine.
        let store = CheckpointStore::open(&dir).unwrap();
        let s = store.stats();
        assert_eq!(s.legacy_entries, 5);
        assert_eq!(s.segment_entries, 0);
        for seq in 0..5u64 {
            assert_eq!(
                store.get("sb_0", seq).unwrap(),
                format!("legacy-{seq}").repeat(50).into_bytes()
            );
        }
        // Compaction is the migration path: per-checkpoint files move into
        // a sealed segment and are deleted.
        let report = store.compact().unwrap();
        assert_eq!(report.migrated_files, 5);
        assert_eq!(report.legacy_files_removed, 5);
        let s = store.stats();
        assert_eq!(s.legacy_entries, 0);
        assert_eq!(s.segment_entries, 5);
        for seq in 0..5u64 {
            assert_eq!(
                store.get("sb_0", seq).unwrap(),
                format!("legacy-{seq}").repeat(50).into_bytes()
            );
        }
        // And the migrated store reopens clean.
        drop(store);
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(
            store.recovery_report().is_clean(),
            "{:?}",
            store.recovery_report()
        );
        assert_eq!(store.count("sb_0"), 5);
    }

    #[test]
    fn compaction_reclaims_superseded_re_puts() {
        let dir = tmpdir("compact-reclaim");
        let store = CheckpointStore::open(&dir).unwrap();
        // 20 re-puts of the same key: 19 dead payloads in the segments.
        for round in 0..20u32 {
            store
                .put("sb_0", 0, &incompressible(8192, round + 1))
                .unwrap();
        }
        store.put("sb_1", 0, &incompressible(8192, 777)).unwrap();
        let before = store.stats();
        assert!(before.dead_segment_bytes > 100_000, "{before:?}");
        let report = store.compact().unwrap();
        assert_eq!(report.rewritten_entries, 2);
        assert!(report.segments_removed >= 1);
        assert!(report.reclaimed_bytes > 100_000, "{report:?}");
        let after = store.stats();
        assert_eq!(after.dead_segment_bytes, 0, "{after:?}");
        assert!(after.segment_disk_bytes < before.segment_disk_bytes / 5);
        assert_eq!(after.compactions, 1);
        assert_eq!(
            store.get_bytes("sb_0", 0).unwrap().as_ref(),
            &incompressible(8192, 20)[..]
        );
        assert_eq!(
            store.get_bytes("sb_1", 0).unwrap().as_ref(),
            &incompressible(8192, 777)[..]
        );
        // Post-compaction store reopens clean and keeps accepting writes.
        drop(store);
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(
            store.recovery_report().is_clean(),
            "{:?}",
            store.recovery_report()
        );
        store.put("sb_2", 0, b"after compaction").unwrap();
        assert_eq!(store.get("sb_2", 0).unwrap(), b"after compaction");
    }

    #[test]
    fn maybe_compact_respects_threshold() {
        let store = CheckpointStore::open(tmpdir("maybe-compact")).unwrap();
        store.put("sb_0", 0, &incompressible(4096, 1)).unwrap();
        // No garbage yet: below any threshold.
        assert!(store.maybe_compact(0.1).unwrap().is_none());
        for round in 0..10u32 {
            store
                .put("sb_0", 0, &incompressible(4096, round + 2))
                .unwrap();
        }
        assert!(store.maybe_compact(0.5).unwrap().is_some());
        assert!(store.maybe_compact(0.5).unwrap().is_none(), "already clean");
    }

    #[test]
    fn background_compaction_runs_concurrently_with_reads() {
        let store = std::sync::Arc::new(CheckpointStore::open(tmpdir("bg-compact")).unwrap());
        for seq in 0..8u64 {
            for round in 0..4u32 {
                store
                    .put("sb_0", seq, &incompressible(4096, seq as u32 * 31 + round))
                    .unwrap();
            }
        }
        let reader = {
            let store = store.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    for seq in 0..8u64 {
                        let b = store.get_bytes("sb_0", seq).unwrap();
                        assert_eq!(b.as_ref(), &incompressible(4096, seq as u32 * 31 + 3)[..]);
                    }
                }
            })
        };
        let report = store.compact_in_background().join().unwrap().unwrap();
        assert_eq!(report.rewritten_entries, 8);
        reader.join().unwrap();
    }

    #[test]
    fn orphaned_segment_is_reported_at_open_and_reclaimed_by_compaction() {
        let dir = tmpdir("orphan-seg");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, b"live data").unwrap();
        }
        // Fabricate the residue of a crashed compaction: a segment file no
        // manifest line references, plus a stale temp.
        fs::write(dir.join("seg").join("00000099.seg"), b"FLRSEG1\njunk").unwrap();
        fs::write(dir.join("seg").join(".compact-00000007.seg.tmp.1"), b"junk").unwrap();
        let store = CheckpointStore::open(&dir).unwrap();
        let report = store.recovery_report();
        assert_eq!(report.orphaned_segments, vec![99]);
        assert_eq!(report.stale_temp_files, 1);
        // Open never deletes files (a concurrent writer process could own
        // them); the orphans are merely invisible to the index.
        assert!(dir.join("seg").join("00000099.seg").exists());
        assert_eq!(store.get("sb_0", 0).unwrap(), b"live data");
        // New segment ids never collide with the orphan's id range: the
        // next id is allocated past it.
        store.put("sb_1", 0, b"fresh").unwrap();
        assert!(dir.join("seg").join("00000100.seg").exists());
        // Compaction (which holds the writer lock) reclaims both.
        store.compact().unwrap();
        assert!(!dir.join("seg").join("00000099.seg").exists());
        assert!(!dir.join("seg").join(".compact-00000007.seg.tmp.1").exists());
        assert_eq!(store.get("sb_0", 0).unwrap(), b"live data");
        assert_eq!(store.get("sb_1", 0).unwrap(), b"fresh");
    }

    #[test]
    fn orphaned_legacy_file_is_reported_but_kept() {
        let dir = tmpdir("orphan-file");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, b"live").unwrap();
        }
        fs::create_dir_all(dir.join("ckpt")).unwrap();
        fs::write(dir.join("ckpt").join("sb_9.000000"), b"stray").unwrap();
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.recovery_report().orphaned_files, vec!["sb_9.000000"]);
        assert!(
            dir.join("ckpt").join("sb_9.000000").exists(),
            "reported, not deleted"
        );
    }

    #[test]
    fn get_stored_returns_the_on_disk_representation() {
        let store = CheckpointStore::open(tmpdir("get-stored")).unwrap();
        // Compressible payload: stored form is the compressed bytes.
        let payload = vec![7u8; 50_000];
        let meta = store.put("sb_0", 0, &payload).unwrap();
        let stored = store.get_stored("sb_0", 0).unwrap();
        assert_eq!(stored.len() as u64, meta.stored_bytes);
        assert_eq!(decompress_any(&stored).unwrap(), payload);
        // Incompressible payload: stored form is the payload itself.
        let raw = incompressible(2048, 5);
        store.put("sb_0", 1, &raw).unwrap();
        assert_eq!(store.get_stored("sb_0", 1).unwrap(), raw);
    }

    #[test]
    fn read_only_open_inspects_without_repairing_or_writing() {
        let dir = tmpdir("read-only");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            store.put("sb_0", 0, b"alpha").unwrap();
            store.put("sb_0", 1, b"beta").unwrap();
        }
        // Tear the manifest tail (simulating another process mid-append).
        let manifest = dir.join("MANIFEST");
        let torn = {
            let text = fs::read_to_string(&manifest).unwrap();
            let torn = text[..text.len() - 7].to_string();
            fs::write(&manifest, &torn).unwrap();
            torn
        };
        {
            let store = CheckpointStore::open_read_only(&dir).unwrap();
            // In-memory view recovered, on-disk MANIFEST untouched — a
            // writer's kept-open appender would survive this open.
            assert_eq!(store.get("sb_0", 0).unwrap(), b"alpha");
            assert!(!store.contains("sb_0", 1));
            let r = store.recovery_report();
            assert!(
                r.dropped_torn_tail && r.repair_pending && !r.repaired_manifest,
                "{r:?}"
            );
            assert_eq!(
                fs::read_to_string(&manifest).unwrap(),
                torn,
                "no repair on disk"
            );
            // Every write surface refuses.
            assert!(matches!(
                store.put("sb_1", 0, b"x"),
                Err(StoreError::ReadOnly)
            ));
            assert!(matches!(store.compact(), Err(StoreError::ReadOnly)));
            assert!(matches!(
                store.put_artifact("a", b"x"),
                Err(StoreError::ReadOnly)
            ));
            assert!(store.seal_active_segment().is_ok(), "drop-path no-op");
        }
        // A writable open performs the repair the read-only one deferred.
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.recovery_report().repaired_manifest);
        assert_eq!(store.count("sb_0"), 1);
    }

    #[test]
    fn superseded_line_with_missing_data_is_not_reported_missing() {
        // A re-put whose *old* payload vanished must not poison recovery:
        // only the winning (latest) line's data matters.
        let dir = tmpdir("superseded-missing");
        let opts = StoreOptions {
            segment_target_bytes: 1, // roll after every batch
            ..StoreOptions::default()
        };
        {
            let store = CheckpointStore::open_opts(&dir, opts).unwrap();
            store.put("sb_0", 0, &incompressible(512, 1)).unwrap(); // → segment 0
            store.put("sb_0", 0, &incompressible(512, 2)).unwrap(); // → segment 1
        }
        // The superseded payload's segment disappears.
        fs::remove_file(dir.join("seg").join("00000000.seg")).unwrap();
        let store = CheckpointStore::open(&dir).unwrap();
        let r = store.recovery_report();
        assert!(
            r.missing_entries.is_empty(),
            "live checkpoint misreported: {r:?}"
        );
        assert_eq!(
            store.get_bytes("sb_0", 0).unwrap().as_ref(),
            &incompressible(512, 2)[..]
        );
    }

    #[test]
    fn manifest_location_field_roundtrips() {
        for loc in [
            Location::File("sb_0.000007".into()),
            Location::Segment {
                seg: 3,
                offset: 4096,
                len: 128,
                raw_stored: false,
                delta: None,
            },
            Location::Segment {
                seg: 0,
                offset: 8,
                len: 1,
                raw_stored: true,
                delta: None,
            },
            Location::Segment {
                seg: 12,
                offset: 900,
                len: 77,
                raw_stored: false,
                delta: Some((41, 3)),
            },
        ] {
            assert_eq!(Location::parse(&loc.render()), loc);
        }
        // Near-miss strings fall back to legacy file names.
        for s in [
            "@1:2",
            "@1:2:x",
            "@1:2:3:z",
            "@a:b:c",
            "sb.000001",
            "@1:2:3:d",
            "@1:2:3:dx:1",
            "@1:2:3:d4:x",
            "@1:2:3:d4:5:6",
        ] {
            assert_eq!(Location::parse(s), Location::File(s.to_string()));
        }
    }

    // ---- delta chains ------------------------------------------------------

    /// A drifting f32 slab: version `v` perturbs a sliding 5% of the
    /// elements of version `v - 1`, like one optimizer step.
    fn drifting_payload(version: u64, floats: usize) -> Vec<u8> {
        let mut vals: Vec<f32> = (0..floats).map(|i| (i as f32 * 0.37).sin()).collect();
        for v in 1..=version {
            for (i, val) in vals.iter_mut().enumerate() {
                if (i as u64).wrapping_mul(31).wrapping_add(v) % 20 == 0 {
                    *val += 0.001 * v as f32;
                }
            }
        }
        vals.iter().flat_map(|f| f.to_le_bytes()).collect()
    }

    #[test]
    fn delta_chains_shrink_storage_and_roundtrip_across_reopen() {
        let dir = tmpdir("delta-roundtrip");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            for seq in 0..12u64 {
                store
                    .put("sb_0", seq, &drifting_payload(seq, 4096))
                    .unwrap();
            }
            let s = store.stats();
            assert!(s.delta_entries >= 8, "{s:?}");
            assert!(
                s.keyframe_entries >= 2,
                "K=8 forces a second keyframe: {s:?}"
            );
            assert!(
                s.stored_bytes * 3 < s.raw_bytes,
                "delta must shrink the drifting workload ≥3×: {s:?}"
            );
            for seq in 0..12u64 {
                assert_eq!(store.get("sb_0", seq).unwrap(), drifting_payload(seq, 4096));
            }
        }
        // Reopen: chains reload from the manifest and resolve identically.
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.recovery_report().is_clean());
        for seq in (0..12u64).rev() {
            assert_eq!(store.get("sb_0", seq).unwrap(), drifting_payload(seq, 4096));
        }
    }

    #[test]
    fn keyframe_interval_bounds_chain_depth() {
        let store = CheckpointStore::open_opts(
            tmpdir("delta-depth"),
            StoreOptions {
                delta_keyframe_interval: 4,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        for seq in 0..12u64 {
            let meta = store
                .put("sb_0", seq, &drifting_payload(seq, 2048))
                .unwrap();
            assert_eq!(meta.chain_depth as u64, seq % 4, "seq {seq}");
        }
        let s = store.stats();
        assert_eq!(s.keyframe_entries, 3);
        assert_eq!(s.delta_entries, 9);
        assert_eq!(&s.chain_depth_hist[..4], &[3, 3, 3, 3]);
        for seq in 0..12u64 {
            assert_eq!(
                store.chain_info("sb_0", seq),
                if seq % 4 == 0 {
                    None
                } else {
                    Some((seq - 1, (seq % 4) as u32))
                }
            );
        }
    }

    #[test]
    fn sequential_chain_restores_hit_the_restore_cache() {
        let store = CheckpointStore::open(tmpdir("delta-cache")).unwrap();
        for seq in 0..8u64 {
            store
                .put("sb_0", seq, &drifting_payload(seq, 2048))
                .unwrap();
        }
        for seq in 0..8u64 {
            store.get_bytes("sb_0", seq).unwrap();
        }
        let s = store.stats();
        assert!(s.delta_reads >= 7, "{s:?}");
        assert!(s.restore_cache_hits >= 5, "{s:?}");
        // Each sequential delta restore resolves O(1) links, not O(depth).
        assert!(
            s.chain_links_resolved <= s.delta_reads + 4,
            "sequential restores must not re-walk whole chains: {s:?}"
        );
    }

    #[test]
    fn never_chaining_blocks_back_off_and_regime_changes_resume() {
        // A block whose versions rewrite themselves entirely must stop
        // paying the probe + base-cache copy after a few rejections…
        let store = CheckpointStore::open(tmpdir("delta-backoff")).unwrap();
        for seq in 1..6u64 {
            // Avoid retry seqs (multiples of DELTA_RETRY_PERIOD).
            store
                .put("sb_0", seq, &incompressible(4096, seq as u32 * 7 + 1))
                .unwrap();
        }
        assert!(
            *store.delta_rejects.lock().get("sb_0").unwrap() >= DELTA_REJECT_THRESHOLD,
            "rejections must accumulate"
        );
        // Back-off active: non-retry stages stop caching payloads.
        let cached_before = store.delta_write_bytes.load(Ordering::Relaxed);
        store.put("sb_0", 6, &incompressible(4096, 999)).unwrap();
        assert_eq!(
            store.delta_write_bytes.load(Ordering::Relaxed),
            cached_before,
            "backed-off stages must not copy payloads into the base cache"
        );
        assert_eq!(store.stats().delta_entries, 0);
        // …and resume chaining when the content regime changes: a retry
        // seq caches the first new-regime payload, the retry after that
        // chains against it and resets the streak, and dense chains
        // resume from there.
        let drift_base = drifting_payload(0, 1024);
        for seq in 8..24u64 {
            let mut p = drift_base.clone();
            p[seq as usize] ^= 1; // tiny per-version difference
            store.put("sb_0", seq, &p).unwrap();
        }
        let s = store.stats();
        assert!(
            s.delta_entries >= 6,
            "regime change must resume chaining: {s:?}"
        );
        for seq in 8..24u64 {
            let mut p = drift_base.clone();
            p[seq as usize] ^= 1;
            assert_eq!(store.get("sb_0", seq).unwrap(), p);
        }
    }

    #[test]
    fn repeated_reads_of_one_delta_entry_hit_the_restore_cache() {
        let store = CheckpointStore::open(tmpdir("delta-repeat")).unwrap();
        for seq in 0..6u64 {
            store
                .put("sb_0", seq, &drifting_payload(seq, 2048))
                .unwrap();
        }
        store.get_bytes("sb_0", 5).unwrap();
        let links_after_first = store.stats().chain_links_resolved;
        store.get_bytes("sb_0", 5).unwrap();
        let s = store.stats();
        assert_eq!(
            s.chain_links_resolved, links_after_first,
            "second read of the same entry must not re-walk the chain: {s:?}"
        );
        assert!(s.restore_cache_hits >= 1, "{s:?}");
    }

    #[test]
    fn compaction_survives_a_corrupt_chain_member() {
        // One bit-rotted delta frame must not permanently disable GC:
        // compaction moves the broken entry verbatim (still failing
        // loudly at read time) and completes for everything else.
        let dir = tmpdir("delta-compact-corrupt");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            for seq in 0..6u64 {
                store
                    .put("sb_0", seq, &drifting_payload(seq, 2048))
                    .unwrap();
            }
            // Corrupt the middle of seq 3's stored frame on disk.
            let e = store.lookup("sb_0", 3).unwrap();
            let Location::Segment {
                seg, offset, len, ..
            } = e.loc
            else {
                panic!("expected a segment entry");
            };
            assert!(e.loc.delta_link().is_some(), "fixture must corrupt a delta");
            let path = store.segment_path(seg);
            let mut bytes = fs::read(&path).unwrap();
            bytes[(offset + len as u64 / 2) as usize] ^= 0xFF;
            fs::write(&path, &bytes).unwrap();
        }
        // Fresh handle (no warm caches).
        let store = CheckpointStore::open(&dir).unwrap();
        let report = store.compact().expect("compaction must complete");
        assert_eq!(report.rewritten_entries, 6, "{report:?}");
        // Seq 3 (and any chain member that decoded through it) stays
        // loud; everything up-chain of the corruption reads fine.
        for seq in 0..3u64 {
            assert_eq!(
                store.get("sb_0", seq).unwrap(),
                drifting_payload(seq, 2048),
                "seq {seq}"
            );
        }
        assert!(store.get("sb_0", 3).is_err(), "corruption must stay loud");
        // And GC keeps working on later passes.
        store.put("sb_1", 0, &drifting_payload(0, 2048)).unwrap();
        store
            .compact()
            .expect("subsequent compactions keep working");
    }

    #[test]
    fn missing_chain_base_cascades_at_open() {
        let dir = tmpdir("delta-cascade");
        let opts = StoreOptions {
            segment_target_bytes: 1, // roll after every commit
            ..StoreOptions::default()
        };
        {
            let store = CheckpointStore::open_opts(&dir, opts).unwrap();
            for seq in 0..4u64 {
                store
                    .put("sb_0", seq, &drifting_payload(seq, 2048))
                    .unwrap();
            }
            assert!(store.stats().delta_entries >= 3);
        }
        // The keyframe's segment vanishes: every chained descendant is
        // unrestorable and must cascade out of the index, loudly.
        fs::remove_file(dir.join("seg").join("00000000.seg")).unwrap();
        let store = CheckpointStore::open_opts(&dir, opts).unwrap();
        let r = store.recovery_report().clone();
        assert_eq!(r.missing_entries.len(), 4, "{r:?}");
        assert!(r.repaired_manifest);
        assert_eq!(store.entries().len(), 0);
        // The repaired store reopens without missing entries; the dropped
        // chains' segments linger only as reported orphans (reclaimed by
        // the next compaction, as usual).
        drop(store);
        let store = CheckpointStore::open_opts(&dir, opts).unwrap();
        let r = store.recovery_report().clone();
        assert!(r.missing_entries.is_empty(), "{r:?}");
        assert!(!r.repaired_manifest, "{r:?}");
        assert!(!r.orphaned_segments.is_empty(), "{r:?}");
        store.compact().unwrap();
        drop(store);
        let store = CheckpointStore::open_opts(&dir, opts).unwrap();
        assert!(store.recovery_report().is_clean());
    }

    #[test]
    fn re_put_over_a_delta_base_fails_loudly_not_silently() {
        let store = CheckpointStore::open(tmpdir("delta-reput")).unwrap();
        store.put("sb_0", 0, &drifting_payload(0, 2048)).unwrap();
        store.put("sb_0", 1, &drifting_payload(1, 2048)).unwrap();
        assert!(store.chain_info("sb_0", 1).is_some());
        // Re-put the base with different content: the chained child's
        // recorded base CRC no longer matches.
        store.put("sb_0", 0, &drifting_payload(7, 2048)).unwrap();
        match store.get_bytes("sb_0", 1) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains("re-put"), "{detail}");
            }
            other => panic!("expected loud corruption, got {other:?}"),
        }
        // The re-put base itself reads fine.
        assert_eq!(store.get("sb_0", 0).unwrap(), drifting_payload(7, 2048));
    }

    #[test]
    fn compaction_preserves_chains_and_reads() {
        let dir = tmpdir("delta-compact");
        let store = CheckpointStore::open(&dir).unwrap();
        for seq in 0..10u64 {
            store
                .put("sb_0", seq, &drifting_payload(seq, 2048))
                .unwrap();
        }
        // Some dead bytes via a re-put of the newest version (no children).
        store.put("sb_0", 9, &drifting_payload(9, 2048)).unwrap();
        let report = store.compact().unwrap();
        assert_eq!(report.reencoded_entries, 10);
        assert!(store.stats().delta_entries >= 7, "{:?}", store.stats());
        for seq in 0..10u64 {
            assert_eq!(store.get("sb_0", seq).unwrap(), drifting_payload(seq, 2048));
        }
        // Reopen after compaction: still clean, still readable.
        drop(store);
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.recovery_report().is_clean());
        assert_eq!(store.get("sb_0", 9).unwrap(), drifting_payload(9, 2048));
    }

    #[test]
    fn compaction_folds_chains_under_a_smaller_interval() {
        let dir = tmpdir("delta-fold");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            for seq in 0..8u64 {
                store
                    .put("sb_0", seq, &drifting_payload(seq, 2048))
                    .unwrap();
            }
            assert!(store.stats().delta_entries >= 6);
        }
        // Reopen with delta disabled: compaction folds every chain into
        // fresh keyframes.
        let store = CheckpointStore::open_opts(
            &dir,
            StoreOptions {
                delta_keyframe_interval: 0,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        let report = store.compact().unwrap();
        assert!(report.chains_folded >= 6, "{report:?}");
        let s = store.stats();
        assert_eq!(s.delta_entries, 0, "{s:?}");
        for seq in 0..8u64 {
            assert_eq!(store.get("sb_0", seq).unwrap(), drifting_payload(seq, 2048));
        }
    }

    #[test]
    fn delta_stored_form_and_standalone_export() {
        let store = CheckpointStore::open(tmpdir("delta-export")).unwrap();
        store.put("sb_0", 0, &drifting_payload(0, 2048)).unwrap();
        store.put("sb_0", 1, &drifting_payload(1, 2048)).unwrap();
        // On-disk form of the chained entry is a delta frame…
        let stored = store.get_stored("sb_0", 1).unwrap();
        assert!(delta::is_delta(&stored));
        // …but the export is self-contained.
        let (exported, resolved) = store.export_stored("sb_0", 1).unwrap();
        assert!(resolved);
        assert!(!delta::is_delta(&exported));
        let payload =
            crate::compress::decompress_any(&exported).unwrap_or_else(|_| exported.clone());
        assert_eq!(payload, drifting_payload(1, 2048));
        let (key_export, key_resolved) = store.export_stored("sb_0", 0).unwrap();
        assert!(!key_resolved);
        assert_eq!(
            crate::compress::decompress_any(&key_export).unwrap_or(key_export),
            drifting_payload(0, 2048)
        );
    }

    #[test]
    fn delta_disabled_stores_behave_like_before() {
        let store = CheckpointStore::open_opts(
            tmpdir("delta-off"),
            StoreOptions {
                delta_keyframe_interval: 0,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        for seq in 0..6u64 {
            store
                .put("sb_0", seq, &drifting_payload(seq, 2048))
                .unwrap();
        }
        let s = store.stats();
        assert_eq!(s.delta_entries, 0);
        assert_eq!(s.keyframe_entries, 6);
        for seq in 0..6u64 {
            assert_eq!(store.get("sb_0", seq).unwrap(), drifting_payload(seq, 2048));
        }
    }

    #[test]
    fn tiny_payloads_never_chain() {
        let store = CheckpointStore::open(tmpdir("delta-tiny")).unwrap();
        for seq in 0..6u64 {
            store
                .put("sb_0", seq, format!("tiny-{}", seq % 2).as_bytes())
                .unwrap();
        }
        assert_eq!(store.stats().delta_entries, 0);
    }

    #[test]
    fn batch_internal_chains_commit_in_stage_order() {
        // Later stages in one batch delta against earlier stages of the
        // same batch; a crash-recovered prefix always contains a delta's
        // base before the delta (manifest lines land in stage order).
        let dir = tmpdir("delta-batch");
        let store = CheckpointStore::open(&dir).unwrap();
        let mut batch = store.batch();
        for seq in 0..6u64 {
            batch.stage("sb_0", seq, &drifting_payload(seq, 2048));
        }
        batch.commit().unwrap();
        assert!(store.stats().delta_entries >= 5, "{:?}", store.stats());
        for seq in 0..6u64 {
            assert_eq!(store.get("sb_0", seq).unwrap(), drifting_payload(seq, 2048));
        }
        // Every manifest prefix (cut at line granularity) reopens into a
        // store whose surviving chain entries all read back.
        let manifest_text = fs::read_to_string(dir.join("MANIFEST")).unwrap();
        let lines: Vec<&str> = manifest_text.lines().collect();
        for keep in 0..=lines.len() {
            let prefix_dir = tmpdir(&format!("delta-batch-prefix-{keep}"));
            fs::create_dir_all(&prefix_dir).unwrap();
            // Clone the segments, truncate the manifest to `keep` lines.
            let mut text = String::new();
            for l in &lines[..keep] {
                text.push_str(l);
                text.push('\n');
            }
            fs::write(prefix_dir.join("MANIFEST"), text).unwrap();
            fs::create_dir_all(prefix_dir.join("seg")).unwrap();
            for entry in fs::read_dir(dir.join("seg")).unwrap() {
                let entry = entry.unwrap();
                fs::copy(entry.path(), prefix_dir.join("seg").join(entry.file_name())).unwrap();
            }
            let prefix_store = CheckpointStore::open(&prefix_dir).unwrap();
            assert_eq!(prefix_store.entries().len(), keep, "prefix {keep}");
            for seq in 0..keep as u64 {
                assert_eq!(
                    prefix_store.get("sb_0", seq).unwrap(),
                    drifting_payload(seq, 2048),
                    "prefix {keep} seq {seq}"
                );
            }
        }
    }

    // ---- tiered storage ----------------------------------------------------

    #[test]
    fn dup_location_render_parse_roundtrip() {
        for loc in [
            Location::Dup {
                hash: 0xdead_beef_cafe_f00d,
                delta: None,
            },
            Location::Dup {
                hash: 1,
                delta: Some((7, 3)),
            },
        ] {
            assert_eq!(Location::parse(&loc.render()), loc);
        }
        // Malformed v4 variants degrade to legacy-file entries, like every
        // other grammar extension.
        for bad in ["@dup:", "@dup:xyz", "@dup:0123:d:2", "@dup:0123:x7:2"] {
            assert_eq!(Location::parse(bad), Location::File(bad.to_string()));
        }
    }

    #[test]
    fn dedup_across_stores_is_byte_identical_and_single_blob() {
        let arena_dir = tmpdir("dedup-arena");
        let dir_a = tmpdir("dedup-a");
        let dir_b = tmpdir("dedup-b");
        let payload = incompressible(8192, 11);

        let a = CheckpointStore::open(&dir_a).unwrap();
        a.attach_dedup(&arena_dir).unwrap();
        a.put("sb_0", 0, &payload).unwrap();
        let sa = a.stats();
        assert_eq!(sa.dedup_entries, 1, "{sa:?}");
        assert_eq!(sa.dedup_hits, 0);

        // A second run records the identical checkpoint: no new blob, a
        // `@dup` reference only.
        let b = CheckpointStore::open(&dir_b).unwrap();
        b.attach_dedup(&arena_dir).unwrap();
        b.put("sb_0", 0, &payload).unwrap();
        let sb = b.stats();
        assert_eq!(sb.dedup_entries, 1, "{sb:?}");
        assert_eq!(sb.dedup_hits, 1);
        assert_eq!(a.dedup_index().unwrap().entries(), 1);

        assert_eq!(a.get("sb_0", 0).unwrap(), payload);
        assert_eq!(b.get("sb_0", 0).unwrap(), payload);
        assert_eq!(b.get_bytes("sb_0", 0).unwrap().as_ref(), &payload[..]);

        // Reopen from disk: the DEDUP pointer file re-attaches the arena
        // and the v4 manifest line resolves.
        drop(b);
        let b2 = CheckpointStore::open(&dir_b).unwrap();
        assert_eq!(b2.get("sb_0", 0).unwrap(), payload);
        assert_eq!(b2.dedup_references(), a.dedup_references());

        // Refcounted retention: releasing one run's reference must not
        // sever the other's.
        let arena = a.dedup_index().unwrap();
        let hash = a.dedup_references()[0];
        assert_eq!(arena.refs(hash), 2);
        for h in b2.dedup_references() {
            arena.release(h).unwrap();
        }
        assert_eq!(arena.refs(hash), 1);
        assert_eq!(a.get("sb_0", 0).unwrap(), payload);
    }

    #[test]
    fn small_payloads_skip_dedup() {
        let dir = tmpdir("dedup-small");
        let store = CheckpointStore::open(&dir).unwrap();
        store.attach_dedup(tmpdir("dedup-small-arena")).unwrap();
        store
            .put("sb_0", 0, &incompressible(DEDUP_MIN_BYTES / 4, 3))
            .unwrap();
        let s = store.stats();
        assert_eq!(s.dedup_entries, 0, "{s:?}");
        assert_eq!(s.segment_entries, 1);
    }

    #[test]
    fn demoted_segments_fault_back_from_spool() {
        let dir = tmpdir("tier-demote");
        let spool = tmpdir("tier-demote-spool");
        let opts = StoreOptions {
            segment_target_bytes: 1, // seal after every commit
            delta_keyframe_interval: 0,
            ..StoreOptions::default()
        };
        let store = CheckpointStore::open_opts(&dir, opts).unwrap();
        store.attach_spool(&spool).unwrap();
        let payload = |seq: u64| incompressible(4096, seq as u32 + 21);
        for seq in 0..4u64 {
            store.put("sb_0", seq, &payload(seq)).unwrap();
        }
        // Demote everything sealed; every payload must still read, served
        // by fault-back from the cold tier.
        let demoted = store.demote_cold_segments(0).unwrap();
        assert!(demoted.len() >= 3, "{demoted:?}");
        for id in &demoted {
            assert!(!dir.join("seg").join(format!("{id:08}.seg")).exists());
            assert!(spool.join("segments").join(format!("{id:08}.seg")).exists());
        }
        for seq in 0..4u64 {
            assert_eq!(store.get("sb_0", seq).unwrap(), payload(seq));
        }
        let s = store.stats();
        assert!(s.tier_demotions >= 3, "{s:?}");
        assert!(s.tier_cold_reads >= 1, "{s:?}");
        assert!(s.tier_cold_segments >= 3, "{s:?}");

        // Reopen: cold segments are resolvable (not "missing"), and reads
        // still fault back.
        drop(store);
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.recovery_report().missing_entries.is_empty());
        for seq in 0..4u64 {
            assert_eq!(store.get("sb_0", seq).unwrap(), payload(seq));
        }
    }

    #[test]
    fn demotion_never_leaves_a_segment_unreadable() {
        // Simulate the crash window: a cold copy exists but the local file
        // was not yet deleted (ship landed, crash before remove). Demote
        // again — must verify, not re-ship, and still delete exactly once.
        let dir = tmpdir("tier-crashwin");
        let spool = tmpdir("tier-crashwin-spool");
        let opts = StoreOptions {
            segment_target_bytes: 1,
            delta_keyframe_interval: 0,
            ..StoreOptions::default()
        };
        let store = CheckpointStore::open_opts(&dir, opts).unwrap();
        store.attach_spool(&spool).unwrap();
        store.put("sb_0", 0, &incompressible(4096, 5)).unwrap();
        store.put("sb_0", 1, &incompressible(4096, 6)).unwrap();
        // Corrupt (truncate) a pre-existing cold copy: demotion must
        // detect the length mismatch and re-ship before deleting local.
        let cold0 = spool.join("segments").join("00000000.seg");
        // Wait for any background ship of segment 0, then truncate it.
        for _ in 0..200 {
            if cold0.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        if cold0.exists() {
            let data = fs::read(&cold0).unwrap();
            fs::write(&cold0, &data[..data.len() / 2]).unwrap();
        }
        let demoted = store.demote_cold_segments(0).unwrap();
        assert!(demoted.contains(&0), "{demoted:?}");
        assert_eq!(store.get("sb_0", 0).unwrap(), incompressible(4096, 5));
    }

    #[test]
    fn compression_effort_persists_across_reopen() {
        let dir = tmpdir("effort-persist");
        {
            let store = CheckpointStore::open(&dir).unwrap();
            assert_eq!(store.compression_effort(), crate::compress::DEFAULT_EFFORT);
            store.set_compression_effort(crate::compress::MAX_EFFORT);
            store.set_compression_effort(99); // clamps
            assert_eq!(store.compression_effort(), crate::compress::MAX_EFFORT);
        }
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.compression_effort(), crate::compress::MAX_EFFORT);
        store.put("sb_0", 0, &incompressible(2048, 9)).unwrap();
        assert_eq!(store.get("sb_0", 0).unwrap(), incompressible(2048, 9));
        assert_eq!(
            store.stats().compression_effort,
            u64::from(crate::compress::MAX_EFFORT)
        );
    }

    #[test]
    fn segment_buffer_pool_reuses_mapped_segments() {
        let dir = tmpdir("segcache-lru");
        let store = CheckpointStore::open(&dir).unwrap();
        store.put("sb_0", 0, &incompressible(4096, 31)).unwrap();
        let a = store.get_bytes("sb_0", 0).unwrap();
        let before = store.stats().segment_cache_hits;
        let b = store.get_bytes("sb_0", 0).unwrap();
        assert_eq!(a.as_ref(), b.as_ref());
        assert!(store.stats().segment_cache_hits > before);
    }
}
