//! Common identifiers, constants, errors, and work-trace types shared by every
//! crate in the Blaze workspace.
//!
//! The types here are deliberately small and dependency-free so that the
//! storage, graph, engine, baseline, and performance-model crates can all
//! exchange data without depending on each other.

// The unsafe-audit rule (cargo xtask lint) keys off this: crates that
// need no unsafe code forbid it outright, so the audit scope cannot
// silently grow.
#![forbid(unsafe_code)]

pub mod constants;
pub mod counters;
pub mod error;
pub mod ids;
pub mod rng;
pub mod trace;
pub mod util;

pub use constants::*;
pub use counters::{Fold, JobCounter, JobCounters, LATENCY_BUCKETS, LATENCY_BUCKET_UPPER_NS};
pub use error::{BlazeError, Result};
pub use ids::{DeviceId, EdgeOffset, LocalPageId, PageId, VertexId};
pub use rng::SplitMix64;
pub use trace::IterationTrace;
pub use util::CachePadded;
