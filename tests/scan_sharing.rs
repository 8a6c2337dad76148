//! Cross-job scan sharing must be invisible to query semantics: K mixed
//! queries running concurrently on one sharing engine return exactly what
//! each returns solo on a private engine, while the flight table quietly
//! collapses their overlapping device reads into single flights.

#![allow(clippy::needless_range_loop)] // vertex-id indexing reads clearer here

use std::sync::Arc;
use std::thread;

use proptest::prelude::*;

use blaze::algorithms::{self as algo, ExecMode, PageRankConfig};
use blaze::engine::{BlazeEngine, EngineOptions};
use blaze::graph::{Csr, DiskGraph, GraphBuilder};
use blaze::storage::StripedStorage;

fn engine_over(csr: &Csr, devices: usize, options: EngineOptions) -> BlazeEngine {
    let storage = Arc::new(StripedStorage::in_memory(devices).unwrap());
    let graph = Arc::new(DiskGraph::create(csr, storage).unwrap());
    BlazeEngine::new(graph, options).unwrap()
}

fn sharing() -> EngineOptions {
    EngineOptions::default().with_scan_sharing(4)
}

/// Strategy: a random connected-ish edge list over `n` vertices, with at
/// least one edge so every query actually touches the device.
fn arb_graph() -> impl Strategy<Value = Csr> {
    (
        2usize..48,
        proptest::collection::vec((0u32..48, 0u32..48), 1..256),
    )
        .prop_map(|(n, edges)| {
            let n = n.max(
                edges
                    .iter()
                    .map(|&(s, d)| s.max(d) as usize + 1)
                    .max()
                    .unwrap_or(0),
            );
            let mut b = GraphBuilder::new(n).dedup(true);
            b.extend(edges);
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// BFS + PageRank + WCC from three threads against one sharing engine
    /// (plus a sharing transpose engine for WCC) match their solo runs on
    /// private engines: BFS reachability identical, WCC labels identical,
    /// PageRank within 1e-6. With more than one job in the mix, at least
    /// one page must have been served from another flight (shared_hits >
    /// 0) whenever the queries iterate over the graph more than once.
    #[test]
    fn concurrent_mixed_queries_with_sharing_match_solo_runs(csr in arb_graph()) {
        let t = csr.transpose();
        let pr_cfg = PageRankConfig { max_iters: 5, ..Default::default() };

        // Solo baselines, each on its own engine with sharing off.
        let solo_parent = algo::bfs(
            &engine_over(&csr, 2, EngineOptions::default()), 0, ExecMode::Binned,
        ).unwrap();
        let solo_ranks = algo::pagerank_delta(
            &engine_over(&csr, 2, EngineOptions::default()), pr_cfg, ExecMode::Binned,
        ).unwrap();
        let solo_labels = algo::wcc(
            &engine_over(&csr, 2, EngineOptions::default()),
            &engine_over(&t, 2, EngineOptions::default()),
            ExecMode::Binned,
        ).unwrap();

        // K = 3 mixed jobs concurrently on one sharing engine.
        let engine = engine_over(&csr, 2, sharing());
        let in_engine = engine_over(&t, 2, sharing());
        let (parent, ranks, labels) = thread::scope(|s| {
            let bfs = s.spawn(|| algo::bfs(&engine, 0, ExecMode::Binned).unwrap());
            let pr = s.spawn(|| algo::pagerank_delta(&engine, pr_cfg, ExecMode::Binned).unwrap());
            let wcc = s.spawn(|| algo::wcc(&engine, &in_engine, ExecMode::Binned).unwrap());
            (bfs.join().unwrap(), pr.join().unwrap(), wcc.join().unwrap())
        });

        for v in 0..csr.num_vertices() {
            prop_assert_eq!(
                parent.get(v) == -1,
                solo_parent.get(v) == -1,
                "bfs reachability diverged at vertex {}", v
            );
            prop_assert!(
                (ranks.get(v) - solo_ranks.get(v)).abs() < 1e-6,
                "pagerank diverged at vertex {}: {} vs {}",
                v, ranks.get(v), solo_ranks.get(v)
            );
            prop_assert_eq!(
                labels.get(v), solo_labels.get(v),
                "wcc label diverged at vertex {}", v
            );
        }

        // PageRank and WCC iterate; their repeat scans must have joined
        // pending or retained flights (their own earlier iterations' at
        // minimum) instead of re-reading the device.
        let stats = engine.stats();
        if stats.iterations > 1 && stats.io_bytes > 0 {
            prop_assert!(
                stats.shared_hit_pages > 0,
                "concurrent jobs over {} iterations shared nothing", stats.iterations
            );
        }
    }
}
