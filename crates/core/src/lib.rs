//! The Blaze out-of-core engine: `EdgeMap` / `VertexMap` over a
//! disk-resident, page-interleaved CSR, powered by online binning.
//!
//! # Architecture (Figure 5)
//!
//! The engine owns a *persistent* pipeline [`Runtime`] of
//! three worker groups, spawned once at engine construction and reused for
//! every call; each `edge_map` is a *job submission* that blocks until the
//! runtime completes it:
//!
//! 1. **IO workers** (one per device) pop local page ids, merge up to four
//!    contiguous pages per request, read them into buffers from the job's
//!    free MPMC queue, and push them to the filled MPMC queue as page
//!    batches; pages already resident in the page cache or in another
//!    job's read travel the same queue by reference (the `supply` module).
//! 2. **Scatter workers** pop page batches, decode each page via the
//!    page→vertex map, evaluate `cond`/`scatter` for every edge whose
//!    source is in the frontier, and stage the resulting `(dst, value)`
//!    records into bins through per-thread staging buffers.
//! 3. **Gather workers** pop full bins and apply the user's `gather`
//!    function to vertex data — each bin exclusively, so updates need no
//!    atomics — inserting activated vertices into the output frontier.
//!
//! Bin spaces and IO buffer pools are per-job, checked out of an
//! [`EngineArena`] and recycled across iterations, so
//! independent jobs submitted from multiple threads interleave through the
//! shared workers without contending on each other's buffers.
//!
//! A synchronization-based variant ([`BlazeEngine::edge_map_sync`]) applies
//! updates directly from scatter workers with compare-and-swap, reproducing
//! the baseline of Figure 8(b).
//!
//! # Quickstart
//!
//! ```
//! use blaze_sync::Arc;
//! use blaze_core::{BlazeEngine, EngineOptions, VertexArray};
//! use blaze_frontier::VertexSubset;
//! use blaze_graph::{gen, DiskGraph};
//! use blaze_storage::StripedStorage;
//!
//! // Build a small graph on one in-memory "SSD".
//! let csr = gen::rmat(&gen::RmatConfig::new(8));
//! let storage = Arc::new(StripedStorage::in_memory(1).unwrap());
//! let graph = Arc::new(DiskGraph::create(&csr, storage).unwrap());
//! let engine = BlazeEngine::new(graph.clone(), EngineOptions::default()).unwrap();
//!
//! // Out-of-core BFS from vertex 0 (Algorithm 1 of the paper).
//! let n = graph.num_vertices();
//! let parent = VertexArray::<i64>::new(n, -1);
//! parent.set(0, 0);
//! let mut frontier = VertexSubset::single(n, 0);
//! while !frontier.is_empty() {
//!     frontier = engine.edge_map(
//!         &frontier,
//!         |src, _dst| src,                       // scatter: propagate parent id
//!         |dst, v| {
//!             if parent.get(dst as usize) == -1 {
//!                 parent.set(dst as usize, v as i64);
//!                 true
//!             } else {
//!                 false
//!             }
//!         },
//!         |dst| parent.get(dst as usize) == -1,  // cond: unvisited only
//!         true,
//!     ).unwrap();
//! }
//! assert_eq!(parent.get(0), 0);
//! ```

pub mod arena;
pub mod engine;
pub mod memory;
pub mod options;
pub mod runtime;
pub mod stats;
mod supply;
pub mod vertex_array;
pub mod vertex_map;

pub use arena::EngineArena;
pub use blaze_storage::PageCache;
pub use engine::BlazeEngine;
pub use memory::MemoryFootprint;
pub use options::EngineOptions;
pub use runtime::{PipelineJob, Runtime};
pub use stats::ExecStats;
pub use vertex_array::VertexArray;
pub use vertex_map::{vertex_map, vertex_map_with_grain};
