//! IO-backend equivalence and robustness tests.
//!
//! The submission/completion pump must not change what reaches the devices:
//!
//! * queue depth 1 (the synchronous backend) must produce byte-for-byte the
//!   request stream of the published blocking IO path — same offsets, same
//!   lengths, same order — and so must the default options on a device that
//!   answers at once;
//! * the threaded backend at depth 1 serializes to the identical stream,
//!   inline or through its helpers;
//! * a deep window may reorder but must read the same request multiset;
//! * the default options open that window on a slow device, by themselves,
//!   and close it again when the device stops being slow;
//! * a failing device fails the query with the injected error in either
//!   mode — no hang, no lost buffers, engine usable afterwards.

use blaze_core::{BlazeEngine, EngineOptions, VertexArray};
use blaze_frontier::VertexSubset;
use blaze_graph::gen::{rmat, uniform, RmatConfig};
use blaze_graph::{Csr, DiskGraph};
use blaze_storage::recorder::RecordedRead;
use blaze_storage::request::merge_pages_with_window;
use blaze_storage::{
    BlockDevice, FaultyDevice, IoBackend, IoBuffer, IoRequest, MemDevice, RecordingDevice,
    SlowDevice, StripedStorage, ThreadedBackend,
};
use blaze_sync::Arc;
use blaze_types::{BlazeError, EDGES_PER_PAGE, MAX_MERGED_PAGES, PAGE_SIZE};
use std::time::{Duration, Instant};

/// Builds an engine whose stripe devices log every read.
fn recording_engine(
    g: &Csr,
    devices: usize,
    options: EngineOptions,
) -> (BlazeEngine, Vec<Arc<RecordingDevice<MemDevice>>>) {
    recording_engine_over(g, devices, options, MemDevice::new)
}

/// [`recording_engine`] over devices built by `device`.
fn recording_engine_over<D: BlockDevice + 'static>(
    g: &Csr,
    devices: usize,
    options: EngineOptions,
    device: impl Fn() -> D,
) -> (BlazeEngine, Vec<Arc<RecordingDevice<D>>>) {
    let recs: Vec<Arc<RecordingDevice<D>>> = (0..devices)
        .map(|_| Arc::new(RecordingDevice::new(device())))
        .collect();
    let devs: Vec<Arc<dyn BlockDevice>> = recs
        .iter()
        .map(|r| r.clone() as Arc<dyn BlockDevice>)
        .collect();
    let storage = Arc::new(StripedStorage::new(devs).unwrap());
    let graph = Arc::new(DiskGraph::create(g, storage).unwrap());
    let engine = BlazeEngine::new(graph, options).unwrap();
    // Graph creation only writes; reads start with the first query.
    for r in &recs {
        assert!(r.read_log().is_empty());
    }
    (engine, recs)
}

/// An engine over one device built by `device`.
fn engine_over(g: &Csr, device: Arc<dyn BlockDevice>, options: EngineOptions) -> BlazeEngine {
    let storage = Arc::new(StripedStorage::new(vec![device]).unwrap());
    let graph = Arc::new(DiskGraph::create(g, storage).unwrap());
    BlazeEngine::new(graph, options).unwrap()
}

/// Runs `query` on its own thread and fails the test if it has not returned
/// within 120 s — a wedged IO worker never would.
fn watchdog<T: Send + 'static>(query: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(query()));
    rx.recv_timeout(Duration::from_secs(120))
        .expect("query did not return: the page supply is wedged")
}

fn full_scan(e: &BlazeEngine) {
    let frontier = VertexSubset::full(e.num_vertices());
    e.edge_map(
        &frontier,
        |s: u32, _d: u32| s,
        |_d, _v| false,
        |_| true,
        false,
    )
    .unwrap();
}

/// In-degree of every vertex by a full scan: one record per edge, so the
/// result doubles as an exactly-once delivery check.
fn in_degrees(e: &BlazeEngine) -> blaze_types::Result<Vec<u64>> {
    let n = e.num_vertices();
    let frontier = VertexSubset::full(n);
    let count = VertexArray::<u64>::new(n, 0);
    e.edge_map(
        &frontier,
        |_s: u32, _d: u32| 1u32,
        |dst, v| {
            count.set(dst as usize, count.get(dst as usize) + u64::from(v));
            false
        },
        |_| true,
        false,
    )?;
    Ok(count.to_vec())
}

/// BFS levels via edge_map, for the robustness tests.
fn bfs(e: &BlazeEngine, root: u32) -> blaze_types::Result<Vec<i64>> {
    let n = e.num_vertices();
    let level = VertexArray::<i64>::new(n, -1);
    level.set(root as usize, 0);
    let mut frontier = VertexSubset::single(n, root);
    let mut depth: i64 = 0;
    while !frontier.is_empty() {
        depth += 1;
        let d = depth;
        frontier = e.edge_map(
            &frontier,
            |_s: u32, _d: u32| 0u32,
            |dst: u32, _v: u32| {
                if level.get(dst as usize) == -1 {
                    level.set(dst as usize, d);
                    true
                } else {
                    false
                }
            },
            |dst: u32| level.get(dst as usize) == -1,
            true,
        )?;
    }
    Ok(level.to_vec())
}

/// The published request stream of a full scan: every adjacency page,
/// partitioned to its stripe device, merged into runs of at most
/// `MAX_MERGED_PAGES`, issued in ascending order at depth 1.
fn merge_oracle(e: &BlazeEngine, g: &Csr) -> Vec<Vec<RecordedRead>> {
    let total_pages = g.num_edges().div_ceil(EDGES_PER_PAGE as u64);
    let all_pages: Vec<u64> = (0..total_pages).collect();
    let storage = e.graph().storage();
    storage
        .partition_pages(&all_pages)
        .iter()
        .map(|locals| {
            merge_pages_with_window(locals, MAX_MERGED_PAGES)
                .into_iter()
                .map(|r| {
                    (
                        r.first_page * PAGE_SIZE as u64,
                        r.num_pages as usize * PAGE_SIZE,
                        1,
                    )
                })
                .collect()
        })
        .collect()
}

#[test]
fn default_sync_stream_matches_the_published_io_path() {
    let g = uniform(11, 12, 5);
    for devices in [1, 3] {
        // Depth 1 is the published stream by construction. The default
        // options must match it on a device that answers at once — and
        // this scan is shorter than the two windows the backend wants to
        // see before it would hand a read to another thread, so it does.
        for options in [
            EngineOptions::default().with_queue_depth(1),
            EngineOptions::default(),
        ] {
            let depth = options.queue_depth;
            let (e, recs) = recording_engine(&g, devices, options);
            full_scan(&e);
            let oracle = merge_oracle(&e, &g);
            for (dev, rec) in recs.iter().enumerate() {
                assert_eq!(
                    rec.read_log(),
                    oracle[dev],
                    "device {dev} of {devices}, depth {depth}: stream must match the merge \
                     oracle exactly"
                );
            }
        }
    }
}

#[test]
fn threaded_depth_one_issues_the_identical_stream() {
    let g = uniform(11, 12, 5);
    let (sync_e, sync_recs) = recording_engine(&g, 2, EngineOptions::default().with_queue_depth(1));
    full_scan(&sync_e);
    // The same requests pumped through the threaded backend at depth 1,
    // first inline, then with every read handed to a helper thread.
    for deep in [false, true] {
        let (thr_e, thr_recs) =
            recording_engine(&g, 2, EngineOptions::default().with_queue_depth(1));
        let backend = ThreadedBackend::new(thr_e.graph().storage().clone(), 1);
        for (dev, requests) in merge_oracle(&thr_e, &g).iter().enumerate() {
            backend.force_mode(dev, deep);
            for (tag, &(offset, len, _)) in requests.iter().enumerate() {
                let request = IoRequest {
                    first_page: offset / PAGE_SIZE as u64,
                    num_pages: (len / PAGE_SIZE) as u32,
                };
                backend.submit(dev, request, IoBuffer::new(), tag as u64);
                backend.reap(dev).result.unwrap();
            }
        }
        for dev in 0..2 {
            let sync_log = sync_recs[dev].read_log();
            let thr_log = thr_recs[dev].read_log();
            assert_eq!(
                sync_log, thr_log,
                "device {dev}, deep {deep}: a depth-1 window serializes to the sync stream, \
                 including order and depth hints"
            );
        }
    }
}

#[test]
fn deep_queue_reads_the_same_request_multiset() {
    // Large enough (64 requests a device per full superstep) that the BFS
    // on the slow devices runs most of its reads through the deep window.
    let g = uniform(15, 16, 5);
    let (sync_e, sync_recs) = recording_engine(&g, 2, EngineOptions::default().with_queue_depth(1));
    let sync_levels = bfs(&sync_e, 1).unwrap();
    let (thr_e, thr_recs) = recording_engine_over(&g, 2, EngineOptions::default(), || {
        SlowDevice::new(MemDevice::new(), Duration::from_micros(50))
    });
    let thr_levels = bfs(&thr_e, 1).unwrap();
    assert_eq!(sync_levels, thr_levels, "same BFS result either way");
    assert!(
        thr_e.stats().io_max_in_flight > 1,
        "the slow devices must have opened the window"
    );
    for dev in 0..2 {
        // Completions reorder, so drop the depth hint and compare sorted
        // (offset, len) multisets across the whole multi-iteration run.
        let strip = |log: Vec<RecordedRead>| {
            let mut reqs: Vec<(u64, usize)> = log.into_iter().map(|(o, l, _)| (o, l)).collect();
            reqs.sort_unstable();
            reqs
        };
        assert_eq!(
            strip(sync_recs[dev].read_log()),
            strip(thr_recs[dev].read_log()),
            "device {dev}: deep queue must request exactly the same bytes"
        );
    }
}

#[test]
fn a_slow_device_gets_a_deep_window_by_default() {
    // 1 ms a read, about a thousand merged requests: one at a time a scan
    // takes a second. The default options must notice within the first two
    // windows and overlap the rest.
    let g = rmat(&RmatConfig::new(18));
    let reference = in_degrees(&engine_over(
        &g,
        Arc::new(MemDevice::new()),
        EngineOptions::default().with_queue_depth(1),
    ))
    .unwrap();
    let slow = SlowDevice::new(MemDevice::new(), Duration::from_millis(1));
    let e = engine_over(&g, Arc::new(slow), EngineOptions::default());
    let (degrees, traces, elapsed) = watchdog(move || {
        let degrees = in_degrees(&e).unwrap();
        // Timed on a scan whose scatter only decodes, so that an
        // unoptimized build measures the reads and not the binning.
        let t0 = Instant::now();
        let frontier = VertexSubset::full(e.num_vertices());
        e.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| false, false)
            .unwrap();
        (degrees, e.take_traces(), t0.elapsed())
    });
    assert_eq!(degrees, reference, "bit for bit the depth-1 result");
    assert!(traces[0].io_max_in_flight > 1, "the window never opened");
    let requests = traces[1].total_io_requests();
    assert!(requests > 900, "scan too short");
    assert!(
        elapsed < Duration::from_millis(requests) / 2,
        "{requests} requests of 1 ms took {elapsed:?}: not overlapped"
    );
}

#[test]
fn a_device_that_stops_being_slow_is_read_inline_again() {
    // A cold file: the first 256 reads take 100 µs, the rest come from
    // memory. The scan must go deep, and must have come back by its end —
    // which shows in the next job, read one request at a time.
    let g = rmat(&RmatConfig::new(18));
    let warming = SlowDevice::slow_for(MemDevice::new(), Duration::from_micros(100), 256);
    let e = engine_over(&g, Arc::new(warming), EngineOptions::default());
    let traces = watchdog(move || {
        full_scan(&e);
        full_scan(&e);
        e.take_traces()
    });
    assert!(traces[0].total_io_requests() > 512, "scan too short");
    assert!(traces[0].io_max_in_flight > 1, "the cold scan went deep");
    assert_eq!(traces[1].io_max_in_flight, 1, "the warm scan is inline");
    assert!((traces[1].io_mean_in_flight() - 1.0).abs() < 1e-9);
}

#[test]
fn faulty_device_fails_cleanly_and_heals_in_either_mode() {
    // 64 merged requests a scan, so that "every 50th" fails every scan.
    let g = uniform(14, 16, 3);
    // (device slow enough to go deep, fail every n-th read)
    for (deep, fail_every) in [(false, 1), (false, 3), (true, 1), (true, 50)] {
        let what = format!("deep {deep}, every {fail_every}");
        let faulty = Arc::new(FaultyDevice::fail_every(MemDevice::new(), 0));
        let device: Arc<dyn BlockDevice> = if deep {
            Arc::new(SlowDevice::new(faulty.clone(), Duration::from_micros(50)))
        } else {
            faulty.clone()
        };
        let e = engine_over(&g, device, EngineOptions::default());
        watchdog(move || {
            let healthy = in_degrees(&e).unwrap();
            while deep && e.io_backend().window(0) == 1 {
                full_scan(&e);
            }
            // First request, every third, or mid-run with the window full.
            faulty.set_fail_every(fail_every);
            for round in 0..3 {
                let r = in_degrees(&e).map(|degrees| degrees.len());
                assert!(
                    matches!(r, Err(BlazeError::Io(_))),
                    "{what}, round {round}: expected the injected IO error, got {r:?}"
                );
                assert_eq!(e.arena().idle_len(), 2, "{what}: arena not recycled");
            }
            assert!(faulty.injected_failures() >= 3, "{what}");
            faulty.set_fail_every(0);
            assert_eq!(in_degrees(&e).unwrap(), healthy, "{what}: healed");
        });
    }
}

#[test]
fn faulty_device_fails_bfs_cleanly_across_devices() {
    // Two slow devices with their windows open (32 merged requests a device
    // per scan, up to 16 in flight), one of them failing every other read:
    // the failures come back among successes, out of order, on one of two
    // pumps that share the scatter side.
    let g = uniform(14, 16, 3);
    let faulty = Arc::new(FaultyDevice::fail_every(MemDevice::new(), 0));
    let delay = Duration::from_micros(50);
    let devs: Vec<Arc<dyn BlockDevice>> = vec![
        Arc::new(SlowDevice::new(faulty.clone(), delay)),
        Arc::new(SlowDevice::new(MemDevice::new(), delay)),
    ];
    let storage = Arc::new(StripedStorage::new(devs).unwrap());
    let graph = Arc::new(DiskGraph::create(&g, storage).unwrap());
    let e = BlazeEngine::new(graph, EngineOptions::default()).unwrap();
    let e = watchdog(move || {
        while (0..2).any(|dev| e.io_backend().window(dev) == 1) {
            full_scan(&e);
        }
        full_scan(&e);
        let deep_scan = e.take_traces().pop().unwrap();
        assert!(deep_scan.io_max_in_flight > 1, "the windows are open");
        faulty.set_fail_every(2);
        // The injected error must surface as the job's failure; repeated
        // runs must keep failing promptly — a lost buffer would wedge a
        // later run on the free queue instead.
        for round in 0..3 {
            let r = bfs(&e, 0);
            assert!(
                matches!(r, Err(BlazeError::Io(_))),
                "round {round}: expected the injected IO error, got {r:?}"
            );
            assert_eq!(e.arena().idle_len(), 2, "round {round}: arena not recycled");
        }
        assert!(faulty.injected_failures() >= 3);
        assert!(
            e.io_backend().window(0) > 1,
            "failed reads are slow reads too"
        );
        e
    });
    // The engine itself stays usable: a query that needs no IO succeeds.
    let mut empty = VertexSubset::new(g.num_vertices());
    empty.seal();
    let out = e
        .edge_map(
            &empty,
            |_s: u32, _d: u32| 0u32,
            |_d, _v| true,
            |_| true,
            true,
        )
        .unwrap();
    assert!(out.is_empty());
}
