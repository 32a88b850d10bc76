//! Shared low-level utilities for the HABF reproduction.
//!
//! This crate provides the storage and measurement substrate that every other
//! crate in the workspace builds on:
//!
//! * [`BitVec`] — a compact bit vector used as the underlying storage of
//!   every filter (Bloom, HABF, Weighted Bloom, …), generic over a word
//!   store: heap-owned words or a zero-copy view into a shared image.
//! * [`PackedCells`] — a fixed-width packed cell array used by the
//!   HashExpressor (cells of 3–5 bits) and the Xor filter (fingerprints),
//!   generic over the same word stores.
//! * [`store`] — the word-store layer itself: the copy-on-write [`Words`]
//!   store, [`SharedWords`] views, [`ImageBytes`] (an 8-aligned shared
//!   image) and its dependency-free mmap shim.
//! * [`poll`] (unix only) — a dependency-free readiness poller (raw
//!   `epoll` syscalls on Linux, `poll(2)` on other unix targets) that the
//!   serve reactor's event loops are built on.
//! * [`prefetch`] — safe software-prefetch wrappers used by the batch
//!   probe pipeline (the filter crates deny `unsafe_code`; the intrinsics
//!   live here behind hint-only safe functions).
//! * [`rng`] — small, fast, deterministic pseudo-random generators
//!   (SplitMix64 / xoshiro256**) so that every experiment in the repository is
//!   reproducible from a seed without external dependencies.
//! * [`alloc`] — a tracking global allocator used by the Fig 15 benchmark to
//!   measure peak construction memory.
//! * [`stats`] — mean/stddev/percentile helpers and a monotonic timer used by
//!   the benchmark harness.

#![warn(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

pub mod alloc;
pub mod bitvec;
pub mod cells;
#[cfg(unix)]
pub mod poll;
pub mod prefetch;
pub mod rng;
pub mod stats;
pub mod store;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) mod sys;

pub use bitvec::BitVec;
pub use cells::{probe_cell_in, PackedCells};
pub use rng::SplitMix64;
pub use rng::Xoshiro256;
pub use store::{Backing, ImageBytes, SharedWords, WordStore, WordStoreMut, Words};
