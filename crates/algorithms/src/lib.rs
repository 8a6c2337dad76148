//! The paper's five target queries (Section V-A), written against the
//! Blaze `EdgeMap`/`VertexMap` API exactly as in Algorithms 1–3:
//!
//! * [`bfs()`](bfs::bfs) — Breadth-First Search (Algorithm 1),
//! * [`pagerank_delta()`](pagerank::pagerank_delta) — PageRank, delta variant (Algorithm 2),
//! * [`wcc()`](wcc::wcc) — Weakly Connected Components with shortcutting label
//!   propagation (Algorithm 3),
//! * [`spmv()`](spmv::spmv) — Sparse Matrix-Vector multiplication,
//! * [`bc()`](bc::bc) — Betweenness Centrality (Brandes), forward + backward sweeps.
//!
//! Three further monotone queries:
//!
//! * [`sssp()`](sssp::sssp) — shortest paths over deterministic synthetic weights,
//! * [`kcore()`](kcore::kcore) — k-core membership by confluent peeling,
//! * [`label_propagation()`](labelprop::label_propagation) — forward min-label relaxation.
//!
//! Every query runs in either execution mode ([`ExecMode::Binned`] online
//! binning, or [`ExecMode::Sync`] compare-and-swap — the Figure 8 baseline)
//! and has an in-memory reference implementation in [`reference`](mod@reference) used by
//! the test suite to validate the out-of-core results.
//!
//! All queries speak *original* vertex ids at the API boundary. Graphs
//! written with a degree-aware physical layout run internally in physical
//! id space; inputs (roots, vectors) and outputs (parents, ranks, labels,
//! scores) are translated at entry/exit so results are identical to the
//! unreordered run.

// The unsafe-audit rule (cargo xtask lint) keys off this: crates that
// need no unsafe code forbid it outright, so the audit scope cannot
// silently grow.
#![forbid(unsafe_code)]

pub mod bc;
pub mod bfs;
pub mod kcore;
pub mod labelprop;
pub mod mode;
pub mod pagerank;
pub mod reference;
pub mod spmv;
pub mod sssp;
mod translate;
pub mod wcc;

pub use bc::bc;
pub use bfs::bfs;
pub use kcore::kcore;
pub use labelprop::label_propagation;
pub use mode::ExecMode;
pub use pagerank::{pagerank_delta, PageRankConfig};
pub use spmv::spmv;
pub use sssp::sssp;
pub use wcc::wcc;

/// Query identifiers used across the bench harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// Breadth-First Search.
    Bfs,
    /// PageRank (delta variant).
    PageRank,
    /// Weakly Connected Components.
    Wcc,
    /// Sparse matrix-vector multiplication.
    SpMV,
    /// Betweenness centrality.
    Bc,
}

impl Query {
    /// The five queries in the paper's order.
    pub fn all() -> [Query; 5] {
        [
            Query::Bfs,
            Query::PageRank,
            Query::Wcc,
            Query::SpMV,
            Query::Bc,
        ]
    }

    /// Paper abbreviation.
    pub fn short_name(self) -> &'static str {
        match self {
            Query::Bfs => "BFS",
            Query::PageRank => "PR",
            Query::Wcc => "WCC",
            Query::SpMV => "SpMV",
            Query::Bc => "BC",
        }
    }

    /// Whether the query needs the transpose graph as well.
    pub fn needs_transpose(self) -> bool {
        matches!(self, Query::Wcc | Query::Bc)
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.short_name())
    }
}
