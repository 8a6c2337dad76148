//! Queue-depth sweep: modeled device bandwidth of sk2005 PageRank as the
//! IO backend's per-device window grows.
//!
//! Every run reads queue-depth-aware simulated devices, so the service
//! model prices each request with the in-flight depth at submission
//! (`DeviceProfile::read_service_ns_at_depth`): the fixed device latency is
//! shared by the requests overlapping it, while the transfer term never
//! overlaps. A deeper window therefore drives the modeled bandwidth up —
//! the QD→bandwidth behaviour behind the paper's claim that graph engines
//! must keep fast SSDs saturated — and the sweep asserts the curve is
//! monotonically non-decreasing.
//!
//! The engine opens its window only on a device that takes real time to
//! answer, and a simulated device over memory does not, so each one is
//! wrapped in a `SlowDevice` that sleeps 50 µs a read, and the run starts
//! with untimed scans until the window is open. The `wall s` column is
//! therefore a measurement too: the same PageRank with the sleeps
//! overlapped.
//!
//! At depth 1 the engine reads through the published one-at-a-time path,
//! which a simulated device prices by its sequential-cursor heuristic
//! instead; `PricedAtDepth` routes those reads to the depth-aware entry
//! point at depth 1, so that every row of the sweep is priced by the same
//! model and only the depth differs.

use blaze_algorithms::{pagerank_delta, ExecMode, PageRankConfig};
use blaze_bench::datasets::{prepare, scale_from_env};
use blaze_bench::report::{print_table, write_csv};
use blaze_core::{BlazeEngine, EngineOptions};
use blaze_frontier::VertexSubset;
use blaze_graph::{Dataset, DiskGraph};
use blaze_storage::{
    BlockDevice, DeviceProfile, IoStats, MemDevice, SimDevice, SlowDevice, StripedStorage,
};
use blaze_types::PAGE_SIZE;
use std::sync::Arc;
use std::time::Duration;

const ITERS: usize = 3;
const DEVICES: usize = 2;
const DEPTHS: [usize; 4] = [1, 4, 16, 32];

/// Prices a plain read as a depth-aware read at depth 1 (see the module
/// docs); everything else goes to the wrapped device as it is.
struct PricedAtDepth<D>(D);

impl<D: BlockDevice> BlockDevice for PricedAtDepth<D> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> blaze_types::Result<()> {
        self.0
            .read_pages_at_depth(offset / PAGE_SIZE as u64, buf, 1)
    }

    fn read_pages_at_depth(
        &self,
        first_page: u64,
        buf: &mut [u8],
        depth: u32,
    ) -> blaze_types::Result<()> {
        self.0.read_pages_at_depth(first_page, buf, depth)
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> blaze_types::Result<()> {
        self.0.write_at(offset, buf)
    }

    fn len(&self) -> u64 {
        self.0.len()
    }

    fn stats(&self) -> &IoStats {
        self.0.stats()
    }
}

struct Sample {
    io_bytes: u64,
    busy_ns: u64,
    max_in_flight: u64,
    wall_s: f64,
}

impl Sample {
    /// Modeled aggregate read bandwidth in bytes/s: engine bytes over the
    /// time the simulated devices were busy serving them.
    fn bandwidth(&self) -> f64 {
        self.io_bytes as f64 / (self.busy_ns as f64 / 1e9)
    }
}

fn run_at_depth(g: &blaze_bench::PreparedGraph, queue_depth: usize) -> Sample {
    let sims: Vec<Arc<SimDevice<MemDevice>>> = (0..DEVICES)
        .map(|_| {
            Arc::new(SimDevice::new(
                MemDevice::new(),
                DeviceProfile::optane_p4800x(),
            ))
        })
        .collect();
    let devs: Vec<Arc<dyn BlockDevice>> = sims
        .iter()
        .map(|s| {
            let priced = PricedAtDepth(s.clone());
            Arc::new(SlowDevice::new(priced, Duration::from_micros(50))) as Arc<dyn BlockDevice>
        })
        .collect();
    let storage = Arc::new(StripedStorage::new(devs).expect("storage"));
    let graph = Arc::new(DiskGraph::create(&g.csr, storage).expect("graph"));
    let options = EngineOptions::default().with_queue_depth(queue_depth);
    let engine = BlazeEngine::new(graph, options).expect("engine");
    // The backend wants two windows of slow reads per device before it
    // opens its window, more than this graph's PageRank issues: scan until
    // it has, then start the accounts afresh. (Depth 1 never opens one.)
    let frontier = VertexSubset::full(engine.num_vertices());
    while queue_depth > 1 && (0..DEVICES).any(|d| engine.io_backend().window(d) == 1) {
        engine
            .edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| false, false)
            .expect("warm-up scan");
    }
    let warm = engine.stats();
    for sim in &sims {
        sim.stats().reset();
    }
    let config = PageRankConfig {
        max_iters: ITERS,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    pagerank_delta(&engine, config, ExecMode::Binned).expect("pagerank");
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = engine.stats();
    Sample {
        io_bytes: stats.io_bytes - warm.io_bytes,
        busy_ns: sims.iter().map(|s| s.stats().busy_ns()).sum(),
        max_in_flight: stats.io_max_in_flight,
        wall_s,
    }
}

fn main() {
    let scale = scale_from_env();
    let g = prepare(Dataset::Sk2005, scale);

    let mut rows = Vec::new();
    let mut prev: Option<(usize, f64)> = None;
    for &qd in &DEPTHS {
        let s = run_at_depth(&g, qd);
        assert!(s.io_bytes > 0, "qd {qd}: PageRank must touch the devices");
        assert!(
            s.busy_ns > 0,
            "qd {qd}: simulated devices must accrue busy time"
        );
        assert!(
            s.max_in_flight <= qd as u64,
            "qd {qd}: window overflowed to {} in flight",
            s.max_in_flight
        );
        let bw = s.bandwidth();
        if let Some((prev_qd, prev_bw)) = prev {
            assert!(
                bw >= prev_bw,
                "bandwidth must not regress with depth: qd {qd} modeled \
                 {bw:.0} B/s < qd {prev_qd} modeled {prev_bw:.0} B/s"
            );
        }
        prev = Some((qd, bw));
        rows.push(vec![
            qd.to_string(),
            s.io_bytes.to_string(),
            s.max_in_flight.to_string(),
            format!("{:.3}", s.busy_ns as f64 / 1e6),
            format!("{:.0}", bw / 1e6),
            format!("{:.3}", s.wall_s),
        ]);
    }

    print_table(
        &format!("IO queue-depth sweep: sk2005 PageRank x{ITERS}, {DEVICES}-device stripe"),
        &[
            "queue depth",
            "io bytes",
            "max in flight",
            "device busy ms",
            "modeled MB/s",
            "wall s",
        ],
        &rows,
    );
    let path = write_csv(
        "qd_sweep",
        &[
            "queue_depth",
            "io_bytes",
            "max_in_flight",
            "busy_ms",
            "modeled_mbps",
            "wall_s",
        ],
        &rows,
    );
    println!("\nwrote {}", path.display());
    println!(
        "deeper windows amortize the fixed device latency; the transfer term is depth-invariant"
    );
}
