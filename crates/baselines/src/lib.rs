//! Baseline out-of-core engines re-implementing the execution models the
//! paper analyzes (Sections II-D and III):
//!
//! * [`FlashGraphEngine`] — semi-external vertex-centric processing with
//!   **message passing**: edge processing appends messages to per-thread
//!   queues keyed by `dst % nthreads`, and a separate end-of-iteration
//!   phase drains them. On power-law graphs the queue sizes skew badly
//!   (*skewed computation*), stalling IO at each iteration tail
//!   (Figure 2). Includes the page cache that lets FlashGraph win on
//!   high-locality graphs like sk2005 (Section V-B).
//! * [`GrapheneEngine`] — **2-D topology-aware partitioning**: the edge
//!   grid is split into equal-edge blocks distributed over the disk array.
//!   Under selective scheduling the per-disk IO skews (*skewed IO*,
//!   Figure 3), and the one-IO-plus-one-compute-thread-per-disk policy
//!   caps per-disk throughput (*fast IO, slow computation*).
//!
//! Both engines execute queries *functionally* (their results are checked
//! against the same references as Blaze) while recording the per-iteration
//! work traces ([`blaze_types::IterationTrace`]) that the performance
//! model turns into the paper's timing figures.

// The unsafe-audit rule (cargo xtask lint) keys off this: crates that
// need no unsafe code forbid it outright, so the audit scope cannot
// silently grow.
#![forbid(unsafe_code)]

pub mod common;
pub mod flashgraph;
pub mod graphene;
pub mod queries;

pub use common::OocEngine;
pub use flashgraph::{FlashGraphEngine, FlashGraphOptions};
pub use graphene::{GrapheneEngine, GrapheneOptions};
