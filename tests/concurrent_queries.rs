//! Concurrent job submission against one engine: the persistent runtime
//! must let independent queries from multiple caller threads interleave
//! safely (per-job bin/buffer arenas, shared worker pool) and produce the
//! same answers as sequential execution.

#![allow(clippy::needless_range_loop)] // vertex-id indexing reads clearer here

use std::sync::Arc;
use std::thread;

use blaze::algorithms::{self as algo, reference, ExecMode, PageRankConfig};
use blaze::binning::BinningConfig;
use blaze::engine::{BlazeEngine, EngineOptions};
use blaze::graph::{gen, Csr, DiskGraph};
use blaze::storage::StripedStorage;

fn engine_over(csr: &Csr, devices: usize, options: EngineOptions) -> BlazeEngine {
    let storage = Arc::new(StripedStorage::in_memory(devices).unwrap());
    let graph = Arc::new(DiskGraph::create(csr, storage).unwrap());
    BlazeEngine::new(graph, options).unwrap()
}

/// BFS and PageRank submitted simultaneously from two threads against a
/// single engine match their sequential runs. Exercises the type-scanned
/// arena cache too: BFS checks out a `BinSpace<u32>`, PageRank a
/// `BinSpace<f64>`, concurrently.
#[test]
fn bfs_and_pagerank_from_two_threads_match_sequential() {
    let csr = gen::rmat(&gen::RmatConfig::new(10));
    let engine = engine_over(&csr, 2, EngineOptions::default());

    let seq_parent = algo::bfs(&engine, 0, ExecMode::Binned).unwrap();
    let pr_cfg = PageRankConfig {
        max_iters: 10,
        ..Default::default()
    };
    let seq_ranks = algo::pagerank_delta(&engine, pr_cfg, ExecMode::Binned).unwrap();

    let (par_parent, par_ranks) = thread::scope(|s| {
        let bfs_handle = s.spawn(|| algo::bfs(&engine, 0, ExecMode::Binned).unwrap());
        let pr_handle =
            s.spawn(|| algo::pagerank_delta(&engine, pr_cfg, ExecMode::Binned).unwrap());
        (bfs_handle.join().unwrap(), pr_handle.join().unwrap())
    });

    for v in 0..csr.num_vertices() {
        assert_eq!(
            seq_parent.get(v) == -1,
            par_parent.get(v) == -1,
            "bfs reachability diverged at vertex {v}"
        );
        assert!(
            (seq_ranks.get(v) - par_ranks.get(v)).abs() < 1e-9,
            "pagerank diverged at vertex {v}: {} vs {}",
            seq_ranks.get(v),
            par_ranks.get(v)
        );
    }
}

/// Stress: several threads hammer one engine configured with a tiny bin
/// count and bin space, so jobs constantly cycle buffers through the
/// back-pressure path while interleaving in the shared worker mailboxes.
/// Every thread's answer must match the single-threaded reference.
#[test]
fn stress_small_bins_many_threads() {
    let csr = gen::rmat(&gen::RmatConfig::new(9));
    let options =
        EngineOptions::default().with_binning(BinningConfig::new(4, 64 << 10, 8).unwrap());
    let engine = engine_over(&csr, 2, options);

    let roots: Vec<u32> = vec![0, 1, 7, 42];
    let expected: Vec<Vec<i64>> = roots
        .iter()
        .map(|&r| reference::bfs_levels(&csr, r))
        .collect();

    thread::scope(|s| {
        for (i, &root) in roots.iter().enumerate() {
            let engine = &engine;
            let levels = &expected[i];
            let csr = &csr;
            s.spawn(move || {
                // Two rounds per thread so arenas recycle mid-stress.
                for round in 0..2 {
                    let parent = algo::bfs(engine, root, ExecMode::Binned).unwrap();
                    for v in 0..csr.num_vertices() {
                        assert_eq!(
                            parent.get(v) == -1,
                            levels[v] == -1,
                            "root {root} round {round}: reachability mismatch at {v}"
                        );
                    }
                }
            });
        }
    });
}

/// Sync-variant (CAS) jobs — which skip the gather stage — interleave with
/// binned jobs on the same worker pool without losing either.
#[test]
fn mixed_mode_submissions_interleave() {
    let csr = gen::rmat(&gen::RmatConfig::new(9));
    let engine = engine_over(&csr, 1, EngineOptions::default());
    let levels = reference::bfs_levels(&csr, 3);

    thread::scope(|s| {
        for mode in [ExecMode::Binned, ExecMode::Sync] {
            let engine = &engine;
            let levels = &levels;
            let csr = &csr;
            s.spawn(move || {
                let parent = algo::bfs(engine, 3, mode).unwrap();
                for v in 0..csr.num_vertices() {
                    assert_eq!(
                        parent.get(v) == -1,
                        levels[v] == -1,
                        "{mode:?}: reachability mismatch at {v}"
                    );
                }
            });
        }
    });
}

/// The two stall counters name the slow side. Over the small-bin
/// configuration above, a gather that sleeps leaves scatter blocked on a bin
/// whose two buffers are both out (`bin_stall_ns`, a part of `scatter_ns`);
/// the same scan with the sleep in scatter leaves gather with nothing to
/// process (`gather_idle_ns`). Each bin receives about eight buffers of
/// records and a sleeping gather needs 4 ms a buffer, so scatter cannot
/// avoid running two buffers ahead.
#[test]
fn stall_counters_name_the_slow_side() {
    use blaze::frontier::VertexSubset;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    let csr = gen::rmat(&gen::RmatConfig::new(11));
    let options =
        EngineOptions::default().with_binning(BinningConfig::new(4, 64 << 10, 8).unwrap());
    let engine = engine_over(&csr, 2, options);
    let frontier = VertexSubset::full(csr.num_vertices());
    let calls = AtomicU64::new(0);
    let nap = || {
        if calls.fetch_add(1, Ordering::Relaxed).is_multiple_of(256) {
            thread::sleep(Duration::from_millis(1));
        }
    };

    let slow_gather = |_d: u32, _v: u32| {
        nap();
        false
    };
    engine
        .edge_map(&frontier, |s, _d| s, slow_gather, |_| true, false)
        .unwrap();
    let slow_scatter = |s: u32, _d: u32| {
        nap();
        s
    };
    engine
        .edge_map(
            &frontier,
            slow_scatter,
            |_d, _v: u32| false,
            |_| true,
            false,
        )
        .unwrap();

    let traces = engine.take_traces();
    let (blocked, starved) = (&traces[0], &traces[1]);
    assert!(blocked.bin_stall_ns > 0, "scatter never waited for a bin");
    assert!(blocked.bin_stall_ns <= blocked.scatter_ns, "{blocked:?}");
    assert!(starved.gather_idle_ns > 0, "gather never ran dry");
    let stats = engine.stats();
    assert_eq!(
        stats.bin_stall_ns,
        blocked.bin_stall_ns + starved.bin_stall_ns
    );
    assert_eq!(
        stats.gather_idle_ns,
        blocked.gather_idle_ns + starved.gather_idle_ns
    );
}
