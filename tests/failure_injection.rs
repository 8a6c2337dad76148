//! Failure-injection tests: IO errors must propagate out of the
//! multi-threaded EdgeMap pipeline as `Err`, without hangs, panics, or
//! silent data corruption, and the engine must remain usable afterwards.

use std::sync::Arc;

use blaze::algorithms::{self as algo, ExecMode};
use blaze::engine::{BlazeEngine, EngineOptions};
use blaze::frontier::VertexSubset;
use blaze::graph::{gen, Csr, DiskGraph};
use blaze::storage::{BlockDevice, FaultyDevice, MemDevice, StripedStorage};
use blaze::types::BlazeError;

/// Builds a graph whose storage fails after `ok_reads` successful reads.
fn flaky_engine(g: &Csr, ok_reads: u64) -> BlazeEngine {
    // Write through a pristine device first, then wrap.
    let good = Arc::new(StripedStorage::in_memory(1).unwrap());
    let _ = DiskGraph::create(g, good.clone()).unwrap();
    // Copy pages into a fresh MemDevice wrapped with fault injection.
    let mem = MemDevice::new();
    let mut buf = vec![0u8; blaze::types::PAGE_SIZE];
    for p in 0..good.num_pages() {
        good.read_page(p, &mut buf).unwrap();
        mem.write_at(p * blaze::types::PAGE_SIZE as u64, &buf)
            .unwrap();
    }
    mem.stats().reset();
    let faulty: Arc<dyn BlockDevice> = Arc::new(FaultyDevice::fail_after(mem, ok_reads));
    let storage = Arc::new(StripedStorage::new(vec![faulty]).unwrap());
    let graph = Arc::new(DiskGraph::open_with_index(g, storage));
    BlazeEngine::new(graph, EngineOptions::default()).unwrap()
}

/// Helper: DiskGraph from a CSR whose pages already live in `storage`.
trait OpenWithIndex {
    fn open_with_index(g: &Csr, storage: Arc<StripedStorage>) -> DiskGraph;
}

impl OpenWithIndex for DiskGraph {
    fn open_with_index(g: &Csr, storage: Arc<StripedStorage>) -> DiskGraph {
        // Rebuild metadata from the CSR (pages are already on the device).
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("idx");
        blaze::graph::disk::write_index_file(&path, &blaze::graph::GraphIndex::from_csr(g))
            .unwrap();
        DiskGraph::open(&path, storage).unwrap()
    }
}

#[test]
fn edge_map_surfaces_io_errors() {
    let g = gen::rmat(&gen::RmatConfig::new(9));
    let engine = flaky_engine(&g, 0);
    let frontier = VertexSubset::full(g.num_vertices());
    let result = engine.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| true, false);
    match result {
        Err(BlazeError::Io(e)) => assert!(e.to_string().contains("injected"), "{e}"),
        other => panic!("expected injected IO error, got {other:?}"),
    }
}

#[test]
fn bfs_fails_cleanly_not_silently() {
    let g = gen::rmat(&gen::RmatConfig::new(9));
    let engine = flaky_engine(&g, 1);
    let err = algo::bfs(&engine, 0, ExecMode::Binned);
    assert!(
        err.is_err(),
        "BFS over failing storage must report the failure"
    );
}

#[test]
fn error_in_one_stripe_of_many_is_still_reported() {
    let g = gen::rmat(&gen::RmatConfig::new(9));
    // Stripe over 3 devices; device 1 fails immediately.
    let good = Arc::new(StripedStorage::in_memory(3).unwrap());
    let _ = DiskGraph::create(&g, good.clone()).unwrap();
    let devices: Vec<Arc<dyn BlockDevice>> = (0..3)
        .map(|d| -> Arc<dyn BlockDevice> {
            let mem = MemDevice::new();
            let mut buf = vec![0u8; blaze::types::PAGE_SIZE];
            let src = good.device(d);
            for p in 0..src.num_pages() {
                src.read_at(p * blaze::types::PAGE_SIZE as u64, &mut buf)
                    .unwrap();
                mem.write_at(p * blaze::types::PAGE_SIZE as u64, &buf)
                    .unwrap();
            }
            mem.stats().reset();
            if d == 1 {
                Arc::new(FaultyDevice::fail_after(mem, 0))
            } else {
                Arc::new(mem)
            }
        })
        .collect();
    let storage = Arc::new(StripedStorage::new(devices).unwrap());
    let graph = Arc::new(DiskGraph::open_with_index(&g, storage));
    let engine = BlazeEngine::new(graph, EngineOptions::default()).unwrap();
    let frontier = VertexSubset::full(g.num_vertices());
    let result = engine.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| true, false);
    assert!(result.is_err());
}

#[test]
fn engine_recovers_after_transient_failures() {
    let g = gen::rmat(&gen::RmatConfig::new(8));
    // fail_every(7): most requests succeed, some fail.
    let good = Arc::new(StripedStorage::in_memory(1).unwrap());
    let _ = DiskGraph::create(&g, good.clone()).unwrap();
    let mem = MemDevice::new();
    let mut buf = vec![0u8; blaze::types::PAGE_SIZE];
    for p in 0..good.num_pages() {
        good.read_page(p, &mut buf).unwrap();
        mem.write_at(p * blaze::types::PAGE_SIZE as u64, &buf)
            .unwrap();
    }
    mem.stats().reset();
    let faulty: Arc<dyn BlockDevice> = Arc::new(FaultyDevice::fail_every(mem, 1000));
    let storage = Arc::new(StripedStorage::new(vec![faulty]).unwrap());
    let graph = Arc::new(DiskGraph::open_with_index(&g, storage));
    let engine = BlazeEngine::new(graph, EngineOptions::default()).unwrap();
    let frontier = VertexSubset::full(g.num_vertices());
    // The scan issues far fewer than 1000 requests: it must succeed, and a
    // repeat run on the same engine must succeed too (no poisoned state).
    for _ in 0..2 {
        let out = engine
            .edge_map(&frontier, |s, _d| s, |_d, _v| true, |_| true, true)
            .unwrap();
        assert!(!out.is_empty());
    }
}

/// A destination id past the vertex count would index out of the query's
/// vertex arrays (in scatter for `bfs` under CAS, in gather for `pr`): the
/// run is refused before scatter reads it, the job fails with a format
/// error naming the page, its arena comes back whole, and once the page is
/// good again the same engine answers correctly.
#[test]
fn out_of_range_destination_fails_the_job_cleanly() {
    use blaze::algorithms::{reference, PageRankConfig};
    use blaze::types::PAGE_SIZE;

    let g = gen::rmat(&gen::RmatConfig::new(9));
    let storage = Arc::new(StripedStorage::in_memory(1).unwrap());
    let graph = Arc::new(DiskGraph::create(&g, storage.clone()).unwrap());
    let mut good = vec![0u8; PAGE_SIZE];
    storage.read_page(0, &mut good).unwrap();
    let mut bad = good.clone();
    bad[..4].copy_from_slice(&0x7fff_ffffu32.to_le_bytes());

    for (mode, idle_pieces) in [(ExecMode::Binned, 2), (ExecMode::Sync, 1)] {
        let engine = BlazeEngine::new(graph.clone(), EngineOptions::default()).unwrap();
        storage.write_page(0, &bad).unwrap();
        let refused = |result: blaze::types::Result<()>, query: &str| match result {
            Err(BlazeError::Format(m)) => {
                assert!(m.contains("page 0") && m.contains("2147483647"), "{m}")
            }
            other => panic!("{query} -mode {mode}: expected a format error, got {other:?}"),
        };
        refused(algo::bfs(&engine, 0, mode).map(drop), "bfs");
        // The pool (and, binned, the bin space) went back to the arena,
        // which keeps a pool only if every buffer returned to it.
        assert_eq!(engine.arena().idle_len(), idle_pieces, "-mode {mode}");
        let config = PageRankConfig::default();
        refused(algo::pagerank_delta(&engine, config, mode).map(drop), "pr");

        storage.write_page(0, &good).unwrap();
        let parent = algo::bfs(&engine, 0, mode).unwrap();
        let levels = reference::bfs_levels(&g, 0);
        for (v, &level) in levels.iter().enumerate() {
            assert_eq!(parent.get(v) == -1, level == -1, "-mode {mode}, vertex {v}");
        }
    }
}

/// A `cond` that panics kills the one scatter worker of a job whose graph is
/// at least 16 times its IO pool, with most pages still to read: in both modes the
/// job ends, `edge_map` / `edge_map_sync` re-raise the panic, the job's
/// arena (which may have lost buffers on the unwound stack) is not cached
/// for reuse, and the next BFS on the same engine matches its reference
/// and returns a whole arena. A watchdog turns a hang into a failure.
#[test]
fn panicking_cond_fails_its_job_in_both_modes() {
    use blaze::algorithms::reference;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::time::Duration;

    let (finished, done) = channel();
    let run = std::thread::spawn(move || {
        let g = gen::rmat(&gen::RmatConfig::new(15));
        let storage = Arc::new(StripedStorage::in_memory(1).unwrap());
        let graph = Arc::new(DiskGraph::create(&g, storage).unwrap());
        // Four buffers of four pages: with scatter gone, the pump runs out
        // of them long before it runs out of pages.
        let mut options = EngineOptions::default().with_compute_workers(2, 0.5);
        options.io_buffer_bytes = 4 * options.merge_window * blaze::types::PAGE_SIZE;
        assert!(graph.storage_bytes() >= 16 * options.io_buffer_bytes as u64);
        let levels = reference::bfs_levels(&g, 0);
        let bfs_matches = |engine: &BlazeEngine, mode: ExecMode| {
            let parent = algo::bfs(engine, 0, mode).unwrap();
            for (v, &level) in levels.iter().enumerate() {
                assert_eq!(parent.get(v) == -1, level == -1, "-mode {mode}, vertex {v}");
            }
        };
        // Binned jobs cache a pool and a bin space, sync jobs a pool.
        for (mode, pieces) in [(ExecMode::Binned, 2), (ExecMode::Sync, 1)] {
            let engine = BlazeEngine::new(graph.clone(), options.clone()).unwrap();
            bfs_matches(&engine, mode);
            assert_eq!(engine.arena().idle_len(), pieces, "-mode {mode}");

            let frontier = VertexSubset::full(g.num_vertices());
            let tested = AtomicU64::new(0);
            let cond = |_d: u32| {
                if tested.fetch_add(1, Ordering::Relaxed) == 100 {
                    panic!("cond exploded at its 101st destination");
                }
                true
            };
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match mode {
                ExecMode::Binned => {
                    engine.edge_map(&frontier, |s, _d| s, |_d, _v| false, cond, false)
                }
                ExecMode::Sync => {
                    engine.edge_map_sync(&frontier, |s, _d| s, |_d, _v| false, cond, false)
                }
            }));
            let payload = caught.expect_err("the cond panic reaches the submitter");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"cond exploded at its 101st destination"),
                "-mode {mode}"
            );
            assert_eq!(
                engine.arena().idle_len(),
                0,
                "-mode {mode}: a poisoned arena was cached"
            );

            bfs_matches(&engine, mode);
            assert_eq!(engine.arena().idle_len(), pieces, "-mode {mode}");
        }
        finished.send(()).unwrap();
    });
    if let Err(RecvTimeoutError::Timeout) = done.recv_timeout(Duration::from_secs(60)) {
        panic!("edge_map hung after its cond panicked");
    }
    run.join().unwrap();
}

/// A gather worker whose closure panics loses the full bin it held, so that
/// bin's pair is one buffer short for good. With one gather worker, a scatter
/// stalled on that bin would wait for the lost buffer forever; the bin
/// space is poisoned instead, the stalled append gives up, the job
/// finishes and `edge_map` re-raises the panic, and the next job on the
/// same engine is right. A watchdog turns a hang into a failure.
#[test]
fn panicking_gather_fails_its_job_instead_of_hanging_it() {
    use blaze::algorithms::reference;
    use blaze::binning::BinningConfig;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    let (finished, done) = channel();
    let run = std::thread::spawn(move || {
        let g = gen::rmat(&gen::RmatConfig::new(10));
        // One device and one scatter worker: edges reach scatter in
        // adjacency order. Four bins over 1,024 vertices own 256 each, and
        // every buffer holds one staging batch of 8 records, so the first
        // full bin goes to the gather worker right after the first bin
        // has been sent 8 records, and no append can stall before some bin
        // has been sent 24.
        let mut sent = [0u32; 4];
        let first_full = (0..g.num_vertices() as u32)
            .flat_map(|v| g.neighbors(v))
            .position(|&d| {
                sent[(d >> 8) as usize] += 1;
                sent[(d >> 8) as usize] == 8
            })
            .unwrap()
            + 1;
        let storage = Arc::new(StripedStorage::in_memory(1).unwrap());
        let graph = Arc::new(DiskGraph::create(&g, storage).unwrap());
        let options = EngineOptions::default()
            .with_binning(BinningConfig::new(4, 1, 8).unwrap())
            .with_compute_workers(2, 0.5);
        let engine = BlazeEngine::new(graph, options).unwrap();
        let frontier = VertexSubset::full(g.num_vertices());

        // Scatter waits at that point until the gather worker has died
        // applying the first full bin, then runs into the bin it lost.
        let gather_died = (Mutex::new(false), Condvar::new());
        let edges = AtomicU64::new(0);
        let scatter = |s: u32, _d: u32| {
            if edges.fetch_add(1, Ordering::Relaxed) == first_full as u64 {
                let (died, wake) = &gather_died;
                let timeout = Duration::from_secs(30);
                let died = wake.wait_timeout_while(died.lock().unwrap(), timeout, |d| !*d);
                assert!(
                    *died.unwrap().0,
                    "the gather worker never got the first bin"
                );
            }
            s
        };
        let applied = AtomicU64::new(0);
        let gather = |_d: u32, _v: u32| {
            if applied.fetch_add(1, Ordering::Relaxed) == 3 {
                *gather_died.0.lock().unwrap() = true;
                gather_died.1.notify_all();
                panic!("gather exploded at its 4th record");
            }
            false
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.edge_map(&frontier, scatter, gather, |_| true, false)
        }));
        assert!(caught.is_err(), "the gather panic reaches the submitter");
        let parent = algo::bfs(&engine, 0, ExecMode::Binned).unwrap();
        let levels = reference::bfs_levels(&g, 0);
        for (v, &level) in levels.iter().enumerate() {
            assert_eq!(parent.get(v) == -1, level == -1, "vertex {v}");
        }
        finished.send(()).unwrap();
    });
    if let Err(RecvTimeoutError::Timeout) = done.recv_timeout(Duration::from_secs(60)) {
        panic!("edge_map hung after its gather panicked");
    }
    run.join().unwrap();
}
