//! # lazyeye-perfbench — the end-to-end and per-layer benchmark
//!
//! Drives three workloads through the campaign and fleet pipelines at
//! one worker and at the host's available parallelism, checks every
//! report against the shipped `lazyeye` CLI and the paper's findings,
//! and prints one JSON result line. See `README.md` beside this crate.

#![deny(missing_docs)]

pub mod bench;
pub mod check;
pub mod host;
pub mod ledger;
pub mod metrics;
pub mod pipeline;
pub mod workload;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;
