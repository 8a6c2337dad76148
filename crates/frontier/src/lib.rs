//! Frontier data structures: [`VertexSubset`] and [`PageSubset`].
//!
//! Blaze represents the set of active vertices with a dual sparse/dense
//! structure, as in Ligra: a concurrent list while the set is sparse, a
//! bitmap once it grows past a density threshold (Section IV-C). Both
//! representations share an atomic bitmap for duplicate suppression, so
//! concurrent inserts from gather threads need no locking.
//!
//! [`PageSubset`] is the IO-side frontier: the sorted set of disk pages
//! holding the edges of the active vertices, partitioned per device. It is
//! internal to the engine and never exposed to algorithm code.

// The unsafe-audit rule (cargo xtask lint) keys off this: crates that
// need no unsafe code forbid it outright, so the audit scope cannot
// silently grow.
#![forbid(unsafe_code)]

pub mod bitmap;
pub mod pagesubset;
pub mod subset;

pub use bitmap::AtomicBitmap;
pub use pagesubset::PageSubset;
pub use subset::VertexSubset;
