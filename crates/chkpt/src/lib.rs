//! # flor-chkpt
//!
//! The checkpoint substrate for flor-rs: everything between "here is the
//! state a SkipBlock must memoize" and "the bytes are durably on disk
//! (and spooled to cheap object storage)".
//!
//! Reproduces three pieces of *Hindsight Logging for Model Training*
//! (Garcia et al., VLDB 2020):
//!
//! - **Serialization** ([`codec`]): a hand-rolled, versioned, tagged binary
//!   format standing in for `cloudpickle`. The paper's §5.1 microbenchmark
//!   found serialization ≈ 4.3× the cost of the disk write; `bench_codec`
//!   in `flor-bench` measures the same ratio for this codec.
//! - **Background materialization** ([`background`]): the paper's Figure 5
//!   design space. Four strategies differ in *where serialization happens
//!   relative to the training thread* and whether jobs are batched:
//!   `Baseline` (everything on the caller, à la cloudpickle), `IpcQueue`
//!   (serialize on caller, write in background), `Plasma` (hand the object
//!   to the background immediately), and `ForkBatched` (the paper's fork()
//!   approach: O(1) snapshot on the caller, serialize+compress+write in the
//!   background, batched). Rust has no GIL, so "fork" is realized as cheap
//!   `Arc` snapshot handles consumed by worker threads — same critical-path
//!   economics, different OS mechanism (see DESIGN.md).
//! - **Storage & spooling** ([`store`], [`spool`]): a segmented on-disk
//!   checkpoint store — payloads packed into large append-only segment
//!   files with CRC-protected footer indexes, a sharded in-memory index,
//!   zero-copy [`store::CheckpointStore::get_bytes`] reads, and a
//!   compacting GC — plus the S3 spool cost model behind Table 4. Writes
//!   land through [`store::WriteBatch`] group commits — one batched
//!   segment append and one batched manifest append (and, under
//!   [`store::Durability::GroupCommit`], one fsync barrier) per
//!   materializer batch instead of per checkpoint.

#![warn(missing_docs)]

pub mod background;
pub mod codec;
pub mod compress;
pub mod dedup;
pub mod delta;
pub mod exec;
mod mmap;
pub mod spool;
pub mod store;

pub use background::{Materializer, MaterializerStats, Payload, SerializeSnapshot, Strategy};
pub use codec::{decode, encode, encode_into, ByteSource, CVal, CodecError, EncodePool, LazyBytes};
pub use dedup::DedupIndex;
pub use store::{
    CheckpointStore, CkptMeta, CompactionReport, Durability, RecoveryReport, StoreError,
    StoreOptions, StoreStats, WriteBatch,
};

// Byte-buffer types used in the public API (`ByteSource::write_to`,
// `SerializeSnapshot::serialize_into`), re-exported so downstream crates
// don't need their own `bytes` dependency.
pub use bytes::{Buf, BufMut, Bytes, BytesMut};
