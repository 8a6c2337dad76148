//! Blaze: an out-of-core graph processing engine for fast NVMe SSDs.
//!
//! This facade crate re-exports the public API of the Blaze workspace. See
//! the README for a quickstart and `DESIGN.md` for the system inventory.

pub use blaze_algorithms as algorithms;
pub use blaze_baselines as baselines;
pub use blaze_binning as binning;
pub use blaze_core as engine;
pub use blaze_frontier as frontier;
pub use blaze_graph as graph;
pub use blaze_perfmodel as perfmodel;
pub use blaze_storage as storage;
pub use blaze_types as types;
