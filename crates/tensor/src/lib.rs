//! # flor-tensor
//!
//! Dense `f32` tensor math and a deterministic, serializable random number
//! generator. This crate is the numeric substrate underneath `flor-ml`'s
//! miniature deep-learning library, which in turn stands in for PyTorch in the
//! flor-rs reproduction of *Hindsight Logging for Model Training* (Garcia et
//! al., VLDB 2020).
//!
//! Two properties matter for hindsight logging and drive the design here:
//!
//! 1. **Determinism.** Flor's replay correctness story (deferred checks that
//!    diff record and replay logs) only works if re-executing a training loop
//!    from a checkpoint reproduces the original computation bit-for-bit. All
//!    randomness therefore flows through [`Pcg64`], whose state is a plain
//!    pair of `u64` words that is captured inside every checkpoint.
//! 2. **Serializability.** Checkpoints must be able to capture any tensor.
//!    [`Tensor`] exposes a stable little-endian byte encoding via
//!    [`Tensor::to_bytes`] / [`Tensor::from_bytes`].
//!
//! The tensor type is intentionally simple — contiguous row-major `Vec<f32>`
//! storage — because the paper's experiments stress checkpoint *volume* and
//! *timing*. Hindsight queries that re-execute training do spend most of
//! their time in the matrix product, so that one kernel is vectorised (with
//! runtime AVX2 dispatch) under a fixed per-element summation order that
//! keeps its results bit-identical on every x86-64 host.

#![warn(missing_docs)]

pub mod init;
mod kernel;
pub mod ops;
pub mod rng;
pub mod shape;
pub mod tensor;

pub use rng::Pcg64;
pub use shape::Shape;
pub use tensor::Tensor;
