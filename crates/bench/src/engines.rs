//! Query execution adapters: run one (engine, query, dataset) combination
//! functionally and return the recorded work traces.

use blaze_sync::Arc;

use blaze_algorithms::{self as algo, ExecMode, Query};
use blaze_baselines::{
    queries as base_queries, FlashGraphEngine, FlashGraphOptions, GrapheneEngine, GrapheneOptions,
};
use blaze_core::{BlazeEngine, EngineOptions};
use blaze_graph::{Csr, DiskGraph};
use blaze_storage::StripedStorage;
use blaze_types::{IterationTrace, VertexId};

use crate::datasets::PreparedGraph;

/// Options shared by the query runners.
#[derive(Debug, Clone)]
pub struct BenchQueryOptions {
    /// Devices in the Blaze RAID-0 array.
    pub blaze_devices: usize,
    /// Real threads used by the functional Blaze engine (does not affect
    /// traces; kept small because trace collection is what matters).
    pub blaze_threads: usize,
    /// FlashGraph computation threads (affects the message-skew trace).
    pub flashgraph_threads: usize,
    /// FlashGraph page-cache capacity in pages; 0 = auto (1/8 of the
    /// graph's pages, min 64) — proportional to the paper's multi-GB SAFS
    /// cache against multi-GB graphs.
    pub flashgraph_cache_pages: usize,
    /// Graphene disk-array size.
    pub graphene_disks: usize,
    /// PageRank-delta threshold.
    pub pr_epsilon: f64,
    /// PageRank-delta iteration cap.
    pub pr_max_iters: usize,
}

impl Default for BenchQueryOptions {
    fn default() -> Self {
        Self {
            blaze_devices: 1,
            blaze_threads: 2,
            flashgraph_threads: 16,
            flashgraph_cache_pages: 0,
            graphene_disks: 8,
            pr_epsilon: 0.01,
            pr_max_iters: 30,
        }
    }
}

/// Root choice for traversal queries: the highest-out-degree vertex, which
/// reaches the giant component.
pub fn traversal_root(g: &Csr) -> VertexId {
    (0..g.num_vertices() as VertexId)
        .max_by_key(|&v| g.degree(v))
        .unwrap_or(0)
}

fn blaze_engine(csr: &Csr, opts: &BenchQueryOptions) -> BlazeEngine {
    let storage = Arc::new(StripedStorage::in_memory(opts.blaze_devices).expect("storage"));
    let graph = Arc::new(DiskGraph::create(csr, storage).expect("disk graph"));
    // Depth 1: the paper-figure traces are defined by the published request
    // stream, one read at a time in submission order.
    let engine_opts = EngineOptions::default()
        .with_compute_workers(opts.blaze_threads.max(2), 0.5)
        .with_queue_depth(1);
    BlazeEngine::new(graph, engine_opts).expect("engine")
}

/// Runs `query` on the Blaze engine (binned or sync) and returns the
/// per-iteration traces.
pub fn run_blaze_query(
    query: Query,
    g: &PreparedGraph,
    mode: ExecMode,
    opts: &BenchQueryOptions,
) -> Vec<IterationTrace> {
    let engine = blaze_engine(&g.csr, opts);
    match query {
        Query::Bfs => {
            algo::bfs(&engine, traversal_root(&g.csr), mode).expect("bfs");
            engine.take_traces()
        }
        Query::PageRank => {
            let cfg = algo::PageRankConfig {
                epsilon: opts.pr_epsilon,
                max_iters: opts.pr_max_iters,
                ..Default::default()
            };
            algo::pagerank_delta(&engine, cfg, mode).expect("pagerank");
            engine.take_traces()
        }
        Query::SpMV => {
            let x: Vec<f64> = (0..g.csr.num_vertices())
                .map(|i| 1.0 / (i + 1) as f64)
                .collect();
            algo::spmv(&engine, &x, mode).expect("spmv");
            engine.take_traces()
        }
        Query::Wcc => {
            let in_engine = blaze_engine(&g.transpose, opts);
            algo::wcc(&engine, &in_engine, mode).expect("wcc");
            let mut traces = Vec::new();
            // Interleave out/in traces in execution order (one per EdgeMap).
            let a = engine.take_traces();
            let b = in_engine.take_traces();
            for (x, y) in a.into_iter().zip(b) {
                traces.push(x);
                traces.push(y);
            }
            traces
        }
        Query::Bc => {
            let in_engine = blaze_engine(&g.transpose, opts);
            algo::bc(&engine, &in_engine, traversal_root(&g.csr), mode).expect("bc");
            let mut traces = engine.take_traces();
            traces.extend(in_engine.take_traces());
            traces
        }
    }
}

fn flashgraph_engine(csr: &Csr, opts: &BenchQueryOptions) -> FlashGraphEngine {
    let storage = Arc::new(StripedStorage::in_memory(1).expect("storage"));
    let graph = Arc::new(DiskGraph::create(csr, storage).expect("disk graph"));
    let cache_pages = if opts.flashgraph_cache_pages > 0 {
        opts.flashgraph_cache_pages
    } else {
        (graph.num_pages() as usize / 8).max(64)
    };
    FlashGraphEngine::new(
        graph,
        FlashGraphOptions {
            num_threads: opts.flashgraph_threads,
            cache_pages,
        },
    )
}

/// Runs `query` on the FlashGraph-like engine.
pub fn run_flashgraph_query(
    query: Query,
    g: &PreparedGraph,
    opts: &BenchQueryOptions,
) -> Vec<IterationTrace> {
    let engine = flashgraph_engine(&g.csr, opts);
    let degree = |v: VertexId| g.csr.degree(v);
    match query {
        Query::Bfs => {
            base_queries::bfs(&engine, traversal_root(&g.csr)).expect("bfs");
            engine.take_traces()
        }
        Query::PageRank => {
            base_queries::pagerank_delta(
                &engine,
                &degree,
                0.85,
                opts.pr_epsilon,
                opts.pr_max_iters,
            )
            .expect("pagerank");
            engine.take_traces()
        }
        Query::SpMV => {
            let x: Vec<f64> = (0..g.csr.num_vertices())
                .map(|i| 1.0 / (i + 1) as f64)
                .collect();
            base_queries::spmv(&engine, &x).expect("spmv");
            engine.take_traces()
        }
        Query::Wcc => {
            let in_engine = flashgraph_engine(&g.transpose, opts);
            base_queries::wcc(&engine, &in_engine).expect("wcc");
            let mut traces = Vec::new();
            let a = engine.take_traces();
            let b = in_engine.take_traces();
            for (x, y) in a.into_iter().zip(b) {
                traces.push(x);
                traces.push(y);
            }
            traces
        }
        Query::Bc => {
            let in_engine = flashgraph_engine(&g.transpose, opts);
            base_queries::bc(&engine, &in_engine, traversal_root(&g.csr)).expect("bc");
            let mut traces = engine.take_traces();
            traces.extend(in_engine.take_traces());
            traces
        }
    }
}

/// Runs `query` on the Graphene-like engine. Returns `None` for BC
/// (Graphene does not implement it — Section V-B) and runs a single
/// full-frontier iteration for PR (Graphene lacks selective scheduling
/// for PR).
pub fn run_graphene_query(
    query: Query,
    g: &PreparedGraph,
    opts: &BenchQueryOptions,
) -> Option<Vec<IterationTrace>> {
    let graphene_opts = GrapheneOptions {
        num_disks: opts.graphene_disks,
        ..Default::default()
    };
    let engine = GrapheneEngine::new(&g.csr, graphene_opts.clone()).expect("graphene");
    let degree = |v: VertexId| g.csr.degree(v);
    match query {
        Query::Bfs => {
            base_queries::bfs(&engine, traversal_root(&g.csr)).expect("bfs");
            Some(engine.take_traces())
        }
        Query::PageRank => {
            base_queries::pagerank_one_iteration(&engine, &degree).expect("pagerank");
            Some(engine.take_traces())
        }
        Query::SpMV => {
            let x: Vec<f64> = (0..g.csr.num_vertices())
                .map(|i| 1.0 / (i + 1) as f64)
                .collect();
            base_queries::spmv(&engine, &x).expect("spmv");
            Some(engine.take_traces())
        }
        Query::Wcc => {
            let in_engine = GrapheneEngine::new(&g.transpose, graphene_opts).expect("graphene");
            base_queries::wcc(&engine, &in_engine).expect("wcc");
            let mut traces = Vec::new();
            let a = engine.take_traces();
            let b = in_engine.take_traces();
            for (x, y) in a.into_iter().zip(b) {
                traces.push(x);
                traces.push(y);
            }
            Some(traces)
        }
        Query::Bc => None,
    }
}
