//! Every page reaches scatter exactly once, whichever route supplies it.
//!
//! A page of the frontier is read from the device, served from a cache
//! frame, or taken from another job's flight. These tests run BFS and a
//! two-iteration PageRank under every combination of cache size, scan
//! sharing and IO window, check the answers against the in-memory
//! references, and check page conservation per `edge_map`: device pages +
//! cache-hit pages + shared pages equals the pages the same superstep reads
//! on a plain engine (no cache, no sharing, queue depth 1).

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use blaze::algorithms::{self as algo, reference, ExecMode, PageRankConfig};
use blaze::engine::{BlazeEngine, EngineOptions};
use blaze::graph::gen::{rmat, RmatConfig};
use blaze::graph::{Csr, DiskGraph};
use blaze::storage::{BlockDevice, MemDevice, SlowDevice, StripedStorage};
use blaze::types::{IterationTrace, PAGE_SIZE};

const DEVICES: usize = 2;
const ROOT: u32 = 0;
const PR: PageRankConfig = PageRankConfig {
    damping: 0.85,
    epsilon: 0.01,
    max_iters: 2,
};

/// How the device side is set up: the queue-depth cap (`None` = the
/// engine's default) and whether the devices take 50 µs a read. A fast
/// device is read inline whatever the cap; a slow one gets the deep window
/// (helper threads, out-of-order completions) once the backend has seen two
/// windows of its reads.
#[derive(Debug, Clone, Copy)]
struct Io {
    queue_depth: Option<usize>,
    slow_device: bool,
}

const FAST_DEVICE_ROWS: [Io; 2] = [
    Io {
        queue_depth: Some(1),
        slow_device: false,
    },
    Io {
        queue_depth: None,
        slow_device: false,
    },
];

const SLOW_DEVICE_ROWS: [Io; 2] = [
    Io {
        queue_depth: Some(4),
        slow_device: true,
    },
    Io {
        queue_depth: None,
        slow_device: true,
    },
];

fn engine_over(csr: &Csr, options: EngineOptions, io: Io) -> BlazeEngine {
    let devices = (0..DEVICES)
        .map(|_| -> Arc<dyn BlockDevice> {
            if io.slow_device {
                Arc::new(SlowDevice::new(MemDevice::new(), Duration::from_micros(50)))
            } else {
                Arc::new(MemDevice::new())
            }
        })
        .collect();
    let storage = Arc::new(StripedStorage::new(devices).unwrap());
    let graph = Arc::new(DiskGraph::create(csr, storage).unwrap());
    let options = match io.queue_depth {
        Some(depth) => options.with_queue_depth(depth),
        None => options,
    };
    BlazeEngine::new(graph, options).unwrap()
}

/// Pages each traced `edge_map` was supplied with, over all three routes.
fn pages_supplied(traces: &[IterationTrace]) -> Vec<u64> {
    traces
        .iter()
        .map(|t| t.total_io_bytes() / PAGE_SIZE as u64 + t.cache_hit_pages + t.shared_hit_pages)
        .collect()
}

/// A BFS from `ROOT` checked against the reference levels of `csr`, which
/// are computed once however many engines run the query.
fn bfs_query(csr: &Csr) -> impl Fn(&BlazeEngine) + Sync {
    let levels = reference::bfs_levels(csr, ROOT);
    move |engine| {
        let parent = algo::bfs(engine, ROOT, ExecMode::Binned).unwrap();
        for (v, &level) in levels.iter().enumerate() {
            let p = parent.get(v);
            assert_eq!(p == -1, level == -1, "reachability of {v}");
            if p != -1 && v != ROOT as usize {
                assert_eq!(levels[p as usize] + 1, level, "parent level of {v}");
            }
        }
    }
}

/// Two iterations of PageRank checked against the reference ranks of `csr`.
fn pagerank_query(csr: &Csr) -> impl Fn(&BlazeEngine) + Sync {
    let expect = reference::pagerank_delta(csr, PR.damping, PR.epsilon, PR.max_iters);
    move |engine| {
        let ranks = algo::pagerank_delta(engine, PR, ExecMode::Binned).unwrap();
        for (v, want) in expect.iter().enumerate() {
            assert!((ranks.get(v) - want).abs() < 1e-6, "rank of {v}");
        }
    }
}

/// Runs `query` under every cache and sharing configuration of every row
/// of `ios` and checks conservation against the plain engine's
/// per-superstep page counts.
fn check_every_route(csr: &Csr, query: &(impl Fn(&BlazeEngine) + Sync), ios: &[Io]) {
    let plain = engine_over(csr, EngineOptions::default(), FAST_DEVICE_ROWS[0]);
    query(&plain);
    let solo = pages_supplied(&plain.take_traces());
    assert!(solo.iter().sum::<u64>() > 0, "query reads no page");
    let graph_pages = plain.graph().num_pages() as usize;
    assert!(graph_pages > 8, "the 8-page cache must be a partial cache");

    for cache_pages in [0, 8, 2 * graph_pages] {
        for sharing in [false, true] {
            for &io in ios {
                let what = format!("cache {cache_pages} sharing {sharing} {io:?}");
                let options = EngineOptions::default()
                    .with_page_cache(cache_pages)
                    .with_scan_sharing(if sharing { 4 } else { 1 });
                let engine = engine_over(csr, options, io);
                let jobs = if sharing { 2 } else { 1 };
                thread::scope(|s| {
                    for _ in 0..jobs {
                        s.spawn(|| query(&engine));
                    }
                });
                // Both jobs run the same deterministic supersteps, so
                // whatever order their traces interleave in, each solo
                // superstep's page count must appear once per job.
                let traces = engine.take_traces();
                let mut got = pages_supplied(&traces);
                let mut want = solo.repeat(jobs);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "pages per superstep, {what}");
                // On a slow device the deep window must have carried part of
                // these reads in every cell — behind a cache, and with two
                // jobs' leases resolved as completions come back out of
                // order — or the row proves nothing.
                if io.slow_device {
                    let deep = traces.iter().any(|t| t.io_max_in_flight > 1);
                    assert!(deep, "window stayed shut, {what}");
                }
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
                query(&engine);
                assert_eq!(engine.arena().idle_len(), idle, "{what}");
            }
        }
    }
}

/// The slow-device rows need a graph whose first pass alone reads well over
/// the two windows of 64 requests per device that the backend wants to see
/// before it hands any to its helpers: 256 a device here, so that every
/// cell, a cache of twice the graph included, reads its second half deep.
const SLOW_ROWS_SCALE: u32 = 17;

#[test]
fn bfs_conserves_pages_over_every_supply_route() {
    let small = rmat(&RmatConfig::new(12));
    check_every_route(&small, &bfs_query(&small), &FAST_DEVICE_ROWS);
    let big = rmat(&RmatConfig::new(SLOW_ROWS_SCALE));
    check_every_route(&big, &bfs_query(&big), &SLOW_DEVICE_ROWS);
}

#[test]
fn pagerank_conserves_pages_over_every_supply_route() {
    let small = rmat(&RmatConfig::new(12));
    check_every_route(&small, &pagerank_query(&small), &FAST_DEVICE_ROWS);
    let big = rmat(&RmatConfig::new(SLOW_ROWS_SCALE));
    check_every_route(&big, &pagerank_query(&big), &SLOW_DEVICE_ROWS);
}
