//! Every page reaches scatter exactly once, whichever route supplies it.
//!
//! A page of the frontier is read from the device, served from a cache
//! frame, or taken from another job's flight. These tests run BFS and a
//! two-iteration PageRank under every combination of cache size, scan
//! sharing and IO backend, check the answers against the in-memory
//! references, and check page conservation per `edge_map`: device pages +
//! cache-hit pages + shared pages equals the pages the same superstep reads
//! on a plain engine (no cache, no sharing, synchronous backend).

use std::sync::Arc;
use std::thread;

use blaze::algorithms::{self as algo, reference, ExecMode, PageRankConfig};
use blaze::engine::{BlazeEngine, EngineOptions};
use blaze::graph::gen::{rmat, RmatConfig};
use blaze::graph::{Csr, DiskGraph};
use blaze::storage::StripedStorage;
use blaze::types::{IterationTrace, PAGE_SIZE};

const DEVICES: usize = 2;
const ROOT: u32 = 0;
const PR: PageRankConfig = PageRankConfig {
    damping: 0.85,
    epsilon: 0.01,
    max_iters: 2,
};

fn engine_over(csr: &Csr, options: EngineOptions) -> BlazeEngine {
    let storage = Arc::new(StripedStorage::in_memory(DEVICES).unwrap());
    let graph = Arc::new(DiskGraph::create(csr, storage).unwrap());
    BlazeEngine::new(graph, options).unwrap()
}

/// Pages each traced `edge_map` was supplied with, over all three routes.
fn pages_supplied(traces: &[IterationTrace]) -> Vec<u64> {
    traces
        .iter()
        .map(|t| t.total_io_bytes() / PAGE_SIZE as u64 + t.cache_hit_pages + t.shared_hit_pages)
        .collect()
}

fn run_bfs(engine: &BlazeEngine, csr: &Csr) {
    let parent = algo::bfs(engine, ROOT, ExecMode::Binned).unwrap();
    let levels = reference::bfs_levels(csr, ROOT);
    for v in 0..csr.num_vertices() {
        let p = parent.get(v);
        assert_eq!(p == -1, levels[v] == -1, "reachability of {v}");
        if p != -1 && v != ROOT as usize {
            assert_eq!(levels[p as usize] + 1, levels[v], "parent level of {v}");
        }
    }
}

fn run_pagerank(engine: &BlazeEngine, csr: &Csr) {
    let ranks = algo::pagerank_delta(engine, PR, ExecMode::Binned).unwrap();
    let expect = reference::pagerank_delta(csr, PR.damping, PR.epsilon, PR.max_iters);
    for (v, want) in expect.iter().enumerate() {
        assert!((ranks.get(v) - want).abs() < 1e-6, "rank of {v}");
    }
}

/// Runs `query` under every configuration and checks conservation against
/// the plain engine's per-superstep page counts.
fn check_every_route(csr: &Csr, query: fn(&BlazeEngine, &Csr)) {
    let plain = engine_over(csr, EngineOptions::default());
    query(&plain, csr);
    let solo = pages_supplied(&plain.take_traces());
    assert!(solo.iter().sum::<u64>() > 0, "query reads no page");
    let graph_pages = plain.graph().num_pages() as usize;
    assert!(graph_pages > 8, "the 8-page cache must be a partial cache");

    for cache_pages in [0, 8, 2 * graph_pages] {
        for sharing in [false, true] {
            for queue_depth in [1, 4] {
                let what = format!("cache {cache_pages} sharing {sharing} qd {queue_depth}");
                let options = EngineOptions::default()
                    .with_page_cache(cache_pages)
                    .with_scan_sharing(sharing)
                    .with_queue_depth(queue_depth);
                let engine = engine_over(csr, options);
                let jobs = if sharing { 2 } else { 1 };
                thread::scope(|s| {
                    for _ in 0..jobs {
                        s.spawn(|| query(&engine, csr));
                    }
                });
                // Both jobs run the same deterministic supersteps, so
                // whatever order their traces interleave in, each solo
                // superstep's page count must appear once per job.
                let mut got = pages_supplied(&engine.take_traces());
                let mut want = solo.repeat(jobs);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "pages per superstep, {what}");
                let stats = engine.stats();
                if cache_pages == 0 {
                    assert_eq!(stats.cache_hit_pages, 0, "{what}");
                }
                if !sharing {
                    assert_eq!(stats.shared_hit_pages, 0, "{what}");
                }
                // Every job returned its pool and bin space; one more
                // query checks them out and puts them back.
                let idle = engine.arena().idle_len();
                assert!(idle >= 2, "arena lost its pieces, {what}");
                query(&engine, csr);
                assert_eq!(engine.arena().idle_len(), idle, "{what}");
            }
        }
    }
}

#[test]
fn bfs_conserves_pages_over_every_supply_route() {
    check_every_route(&rmat(&RmatConfig::new(12)), run_bfs);
}

#[test]
fn pagerank_conserves_pages_over_every_supply_route() {
    check_every_route(&rmat(&RmatConfig::new(12)), run_pagerank);
}
