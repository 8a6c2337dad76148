//! The system under test. Every call the benchmark makes into the
//! `blaze-*` crates is in this file, because this surface is frozen for
//! every change that is not a benchmark change (see `bench/README.md`):
//! a later PR may rewrite anything behind these functions, and whatever
//! it improves must show through them.
//!
//! Options the benchmark does not name stay at their defaults, and modes
//! are always `ExecMode::default()`, so a better default shows up here and
//! a deleted knob does not break the build.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use blaze_algorithms::{reference, ExecMode, PageRankConfig};
use blaze_binning::{BinSpace, BinningConfig, ScatterStaging};
use blaze_core::{vertex_map, BlazeEngine, EngineOptions, ExecStats, VertexArray};
use blaze_frontier::VertexSubset;
use blaze_graph::gen::{self, RmatConfig};
use blaze_graph::{disk, DiskGraph};
use blaze_storage::{
    BlockDevice, FileDevice, IoBackend, IoBackendKind, IoBuffer, IoRequest, IoStats, PageCache,
    StripedStorage,
};
use blaze_types::PAGE_SIZE;

use crate::host::now_ns;
use crate::paced::{PaceModel, Pacer};
use crate::trace::ReadLog;
use crate::workload::splitmix;
use crate::Res;

pub use blaze_graph::Csr;

/// Scatter + gather threads of every engine the benchmark builds (plus one
/// IO thread per device): the box has two cores.
pub const SCATTER_WORKERS: usize = 1;
pub const GATHER_WORKERS: usize = 1;
pub const COMPUTE_WORKERS: usize = SCATTER_WORKERS + GATHER_WORKERS;

/// PageRank-delta runs this many iterations per query: two dense scans.
pub const PAGERANK_ITERS: usize = 2;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------- inputs

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// Power-law (Graph500 R-MAT, edge factor 16).
    Rmat,
    /// Uniform random, edge factor 16: no hubs, no locality.
    Uniform,
}

impl GraphKind {
    pub fn name(self) -> &'static str {
        match self {
            GraphKind::Rmat => "rmat",
            GraphKind::Uniform => "uniform",
        }
    }
}

pub fn generate(kind: GraphKind, scale: u32, seed: u64) -> Csr {
    match kind {
        GraphKind::Rmat => gen::rmat(&RmatConfig::new(scale).seed(seed)),
        GraphKind::Uniform => gen::uniform(scale, 16, seed),
    }
}

/// FNV-1a over the degree and neighbour list of every vertex.
pub fn graph_checksum(g: &Csr) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u32| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for v in 0..g.num_vertices() as u32 {
        mix(g.degree(v));
        g.neighbors(v).iter().copied().for_each(&mut mix);
    }
    h
}

/// The on-disk file set of one graph direction.
#[derive(Debug, Clone)]
pub struct GraphFiles {
    pub index: PathBuf,
    pub adj: Vec<PathBuf>,
}

impl GraphFiles {
    pub fn adj_bytes(&self) -> u64 {
        self.adj
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }
}

/// Writes `g` as one stripe with the identity layout.
pub fn save_graph(g: &Csr, dir: &Path, base: &str) -> Res<GraphFiles> {
    let (index, adj) = disk::save_files(g, dir, base, 1).map_err(err)?;
    Ok(GraphFiles { index, adj })
}

// --------------------------------------------------------------- devices

/// A file behind the NVMe pacing model (see `paced.rs`).
pub struct PacedDevice {
    inner: FileDevice,
    pacer: Pacer,
}

impl PacedDevice {
    pub fn open(path: &Path, model: PaceModel) -> Res<Self> {
        Ok(Self {
            inner: FileDevice::open(path).map_err(err)?,
            pacer: Pacer::new(model),
        })
    }
}

impl BlockDevice for PacedDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> blaze_types::Result<()> {
        self.inner.read_at(offset, buf)?;
        self.pacer.charge(buf.len() as u64);
        Ok(())
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> blaze_types::Result<()> {
        self.inner.write_at(offset, buf)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

/// Records one span per `read_at` of the device it wraps (traced runs).
pub struct ProbeDevice {
    inner: Arc<dyn BlockDevice>,
    log: Arc<ReadLog>,
}

impl BlockDevice for ProbeDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> blaze_types::Result<()> {
        let t0 = now_ns();
        let result = self.inner.read_at(offset, buf);
        self.log.record(t0, now_ns(), offset, buf.len() as u64);
        result
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> blaze_types::Result<()> {
        self.inner.write_at(offset, buf)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// The bare `FileDevice`: buffered `pread` through the OS page cache.
    File,
    /// `FileDevice` behind [`PaceModel::NVME`].
    Paced,
}

pub type Graph = Arc<DiskGraph>;

/// Opens a saved graph. An unpaced, untraced graph goes through
/// `DiskGraph::open_files` exactly as a user of the library would.
pub fn open_graph(files: &GraphFiles, kind: DeviceKind, log: Option<Arc<ReadLog>>) -> Res<Graph> {
    if kind == DeviceKind::File && log.is_none() {
        return DiskGraph::open_files(&files.index, &files.adj)
            .map(Arc::new)
            .map_err(err);
    }
    let mut devices: Vec<Arc<dyn BlockDevice>> = Vec::new();
    for path in &files.adj {
        let mut device: Arc<dyn BlockDevice> = match kind {
            DeviceKind::File => Arc::new(FileDevice::open(path).map_err(err)?),
            DeviceKind::Paced => Arc::new(PacedDevice::open(path, PaceModel::NVME)?),
        };
        if let Some(log) = &log {
            device = Arc::new(ProbeDevice {
                inner: device,
                log: log.clone(),
            });
        }
        devices.push(device);
    }
    let storage = Arc::new(StripedStorage::new(devices).map_err(err)?);
    DiskGraph::open(&files.index, storage)
        .map(Arc::new)
        .map_err(err)
}

pub fn graph_vertices(graph: &Graph) -> usize {
    graph.num_vertices()
}

// ---------------------------------------------------------------- engine

pub type Engine = BlazeEngine;

/// An engine with one scatter and one gather thread and a clock cache of
/// `cache_bytes` (0 = no cache, the default).
pub fn new_engine(graph: &Graph, cache_bytes: u64) -> Res<Engine> {
    let mut options = EngineOptions::default().with_compute_workers(COMPUTE_WORKERS, 0.5);
    if cache_bytes > 0 {
        options = options.with_cache_bytes(cache_bytes as usize);
    }
    BlazeEngine::new(graph.clone(), options).map_err(err)
}

/// The cumulative engine counters the traced metrics are deltas of.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub supersteps: u64,
    pub edges: u64,
    pub records: u64,
    pub io_bytes: u64,
    pub io_requests: u64,
    pub edge_map_ns: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub shared_pages: u64,
    pub scatter_ns: u64,
    pub gather_ns: u64,
    pub io_wait_ns: u64,
}

impl Counters {
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            supersteps: self.supersteps - earlier.supersteps,
            edges: self.edges - earlier.edges,
            records: self.records - earlier.records,
            io_bytes: self.io_bytes - earlier.io_bytes,
            io_requests: self.io_requests - earlier.io_requests,
            edge_map_ns: self.edge_map_ns - earlier.edge_map_ns,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            shared_pages: self.shared_pages - earlier.shared_pages,
            scatter_ns: self.scatter_ns - earlier.scatter_ns,
            gather_ns: self.gather_ns - earlier.gather_ns,
            io_wait_ns: self.io_wait_ns - earlier.io_wait_ns,
        }
    }

    pub fn add(&mut self, d: &Counters) {
        self.supersteps += d.supersteps;
        self.edges += d.edges;
        self.records += d.records;
        self.io_bytes += d.io_bytes;
        self.io_requests += d.io_requests;
        self.edge_map_ns += d.edge_map_ns;
        self.cache_hits += d.cache_hits;
        self.cache_misses += d.cache_misses;
        self.cache_evictions += d.cache_evictions;
        self.shared_pages += d.shared_pages;
        self.scatter_ns += d.scatter_ns;
        self.gather_ns += d.gather_ns;
        self.io_wait_ns += d.io_wait_ns;
    }
}

pub fn counters(engine: &Engine) -> Counters {
    let s: ExecStats = engine.stats();
    Counters {
        supersteps: s.iterations as u64,
        edges: s.edges_processed,
        records: s.records_produced,
        io_bytes: s.io_bytes,
        io_requests: s.io_requests,
        edge_map_ns: s.wall_ns,
        cache_hits: s.cache_hit_pages,
        cache_misses: s.cache_miss_pages,
        cache_evictions: s.cache_evictions,
        shared_pages: s.shared_hit_pages,
        scatter_ns: s.scatter_ns,
        gather_ns: s.gather_ns,
        io_wait_ns: s.io_wait_ns,
    }
}

/// One `edge_map` iteration as the engine's own trace reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRow {
    pub frontier: u64,
    pub edges: u64,
    pub records: u64,
    pub io_bytes: u64,
}

/// Takes (and clears) the engine's per-iteration rows. Also called in
/// untraced runs, where the rows are dropped, so the engine's trace
/// buffer never grows across queries.
pub fn take_iteration_rows(engine: &Engine) -> Vec<IterationRow> {
    engine
        .take_traces()
        .iter()
        .map(|t| IterationRow {
            frontier: t.frontier_size,
            edges: t.edges_processed,
            records: t.records_produced,
            io_bytes: t.io_bytes_per_device.iter().sum(),
        })
        .collect()
}

// --------------------------------------------------------------- queries

/// BFS parents; `parent(root) == root`, `-1` where unreached.
pub struct BfsResult(VertexArray<i64>);

impl BfsResult {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn parent(&self, v: usize) -> i64 {
        self.0.get(v)
    }
}

/// A per-vertex `f64` result (ranks, or `y` of SpMV).
pub struct FloatResult(VertexArray<f64>);

impl FloatResult {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn get(&self, v: usize) -> f64 {
        self.0.get(v)
    }
}

pub fn run_bfs(engine: &Engine, root: u32) -> Res<BfsResult> {
    blaze_algorithms::bfs(engine, root, ExecMode::default())
        .map(BfsResult)
        .map_err(err)
}

fn pagerank_config() -> PageRankConfig {
    PageRankConfig {
        max_iters: PAGERANK_ITERS,
        ..PageRankConfig::default()
    }
}

pub fn run_pagerank(engine: &Engine) -> Res<FloatResult> {
    blaze_algorithms::pagerank_delta(engine, pagerank_config(), ExecMode::default())
        .map(FloatResult)
        .map_err(err)
}

pub fn run_spmv(engine: &Engine, x: &[f64]) -> Res<FloatResult> {
    blaze_algorithms::spmv(engine, x, ExecMode::default())
        .map(FloatResult)
        .map_err(err)
}

pub fn reference_bfs_levels(g: &Csr, root: u32) -> Vec<i64> {
    reference::bfs_levels(g, root)
}

pub fn reference_pagerank(g: &Csr) -> Vec<f64> {
    let c = pagerank_config();
    reference::pagerank_delta(g, c.damping, c.epsilon, c.max_iters)
}

pub fn reference_spmv(g: &Csr, x: &[f64]) -> Vec<f64> {
    reference::spmv(g, x)
}

// ---------------------------------------------------------- layer probes
//
// Each probe is a short isolated measurement of one layer through its
// public functions, repeated `reps` times; the caller takes the median.

fn mb_per_s(bytes: u64, t0: Instant) -> f64 {
    bytes as f64 / 1e6 / t0.elapsed().as_secs_f64()
}

/// `storage.seq_read_mb_s` (4-page requests in order) and
/// `storage.rand_read_mb_s` (1-page requests at random pages) on the bare
/// `FileDevice`.
pub fn probe_file_reads(files: &GraphFiles, seed: u64, reps: usize) -> Res<(Vec<f64>, Vec<f64>)> {
    let device = FileDevice::open(&files.adj[0]).map_err(err)?;
    let pages = device.num_pages();
    let mut buf = vec![0u8; 4 * PAGE_SIZE];
    let (mut seq, mut rand) = (Vec::new(), Vec::new());
    let mut rng = seed;
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut page = 0;
        while page < pages {
            let n = (pages - page).min(4) as usize;
            device
                .read_pages(page, &mut buf[..n * PAGE_SIZE])
                .map_err(err)?;
            page += n as u64;
        }
        seq.push(mb_per_s(pages * PAGE_SIZE as u64, t0));

        let count = pages.min(8192);
        let t0 = Instant::now();
        for _ in 0..count {
            let page = splitmix(&mut rng) % pages;
            device
                .read_pages(page, &mut buf[..PAGE_SIZE])
                .map_err(err)?;
        }
        rand.push(mb_per_s(count * PAGE_SIZE as u64, t0));
    }
    std::hint::black_box(&buf);
    Ok((seq, rand))
}

/// `storage.backend_paced_mb_s.qd1` / `.qd8`: random 4-page requests on a
/// `PacedDevice` through the synchronous backend at depth 1 and the
/// threaded backend at depth 8.
pub fn probe_backend_paced(
    files: &GraphFiles,
    seed: u64,
    reps: usize,
) -> Res<(Vec<f64>, Vec<f64>)> {
    let device = PacedDevice::open(&files.adj[0], PaceModel::NVME)?;
    let pages = device.num_pages();
    let storage = Arc::new(StripedStorage::new(vec![Arc::new(device)]).map_err(err)?);
    let mut rng = seed;
    let mut requests = |count: usize| -> Vec<IoRequest> {
        (0..count)
            .map(|_| IoRequest {
                first_page: splitmix(&mut rng) % (pages.saturating_sub(4).max(1)),
                num_pages: pages.min(4) as u32,
            })
            .collect()
    };
    let mut run = |kind: IoBackendKind, depth: usize, count: usize| -> Res<Vec<f64>> {
        let backend = kind.build(storage.clone(), depth);
        (0..reps)
            .map(|_| {
                let reqs = requests(count);
                let bytes: u64 =
                    reqs.iter().map(|r| u64::from(r.num_pages)).sum::<u64>() * PAGE_SIZE as u64;
                let t0 = Instant::now();
                drive_backend(backend.as_ref(), depth, &reqs)?;
                Ok(mb_per_s(bytes, t0))
            })
            .collect()
    };
    Ok((
        run(IoBackendKind::Sync, 1, 256)?,
        run(IoBackendKind::Threaded, 8, 1024)?,
    ))
}

/// Keeps up to `depth` requests in flight on device 0 until all are done.
fn drive_backend(backend: &dyn IoBackend, depth: usize, requests: &[IoRequest]) -> Res<()> {
    let mut free: Vec<IoBuffer> = (0..depth).map(|_| IoBuffer::with_pages(4)).collect();
    let (mut next, mut in_flight) = (0, 0);
    while next < requests.len() || in_flight > 0 {
        while next < requests.len() {
            let Some(buffer) = free.pop() else { break };
            backend.submit(0, requests[next], buffer, next as u64);
            next += 1;
            in_flight += 1;
        }
        let done = backend.reap(0);
        done.result.map_err(err)?;
        free.push(done.buffer);
        in_flight -= 1;
    }
    Ok(())
}

/// `storage.cache_get_mpages_s` (lookups of resident pages) and
/// `storage.cache_insert_mpages_s` (inserts into a full cache, each
/// evicting a page).
pub fn probe_page_cache(reps: usize) -> (Vec<f64>, Vec<f64>) {
    const RESIDENT: u64 = 8192;
    let frame: Arc<[u8]> = Arc::from(vec![0u8; PAGE_SIZE]);
    let warm = PageCache::new(2 * RESIDENT as usize * PAGE_SIZE);
    for page in 0..RESIDENT {
        warm.insert(page, frame.clone());
    }
    let small = PageCache::new(RESIDENT as usize / 4 * PAGE_SIZE);
    let (mut get, mut insert) = (Vec::new(), Vec::new());
    let mut next_page = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut hits = 0u64;
        for round in 0..4 {
            for i in 0..RESIDENT {
                // An odd stride visits every page once, out of order.
                let page = (i * 4099 + round) % RESIDENT;
                hits += u64::from(warm.get(page).is_some());
            }
        }
        get.push(hits as f64 / 1e6 / t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        for _ in 0..4 * RESIDENT {
            small.insert(next_page, frame.clone());
            next_page += 1;
        }
        insert.push(4.0 * RESIDENT as f64 / 1e6 / t0.elapsed().as_secs_f64());
    }
    (get, insert)
}

/// `graph.decode_mb_s`: `for_each_vertex_in_page` over memory-resident
/// pages on one thread (at most the first 64 MiB of the adjacency).
pub fn probe_decode(files: &GraphFiles, graph: &Graph, reps: usize) -> Res<Vec<f64>> {
    let device = FileDevice::open(&files.adj[0]).map_err(err)?;
    let pages = device.num_pages().min(16_384);
    let mut data = vec![0u8; pages as usize * PAGE_SIZE];
    device.read_pages(0, &mut data).map_err(err)?;
    let mut scratch = Vec::new();
    Ok((0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let mut acc = 0u64;
            for (page, bytes) in data.chunks_exact(PAGE_SIZE).enumerate() {
                graph.for_each_vertex_in_page(page as u64, bytes, &mut scratch, |v, dsts| {
                    acc = acc
                        .wrapping_add(u64::from(v))
                        .wrapping_add(u64::from(dsts[dsts.len() - 1]));
                });
            }
            std::hint::black_box(acc);
            mb_per_s(data.len() as u64, t0)
        })
        .collect())
}

/// `frontier.insert_mops`: concurrent-safe inserts of distinct vertices
/// into an empty subset, then `seal`.
pub fn probe_frontier_insert(n: usize, seed: u64, reps: usize) -> Vec<f64> {
    let count = (n / 8).max(1);
    let mut rng = seed;
    let vertices: Vec<u32> = (0..count)
        .map(|_| (splitmix(&mut rng) % n as u64) as u32)
        .collect();
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let mut subset = VertexSubset::new(n);
            for &v in &vertices {
                subset.insert(v);
            }
            subset.seal();
            std::hint::black_box(&subset);
            count as f64 / 1e6 / t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// `binning.stage_drain_mrec_s`: one scatter thread stages `f64` records
/// into the bins while one gather thread drains full bins into a vertex
/// array, as the engine pairs them.
pub fn probe_binning(n: usize, adj_bytes: u64, reps: usize) -> Vec<f64> {
    let records = (adj_bytes / 16).clamp(1 << 16, 4 << 20);
    (0..reps)
        .map(|_| {
            let space = BinSpace::<f64>::new(BinningConfig::for_graph(adj_bytes));
            let mut sums = vec![0.0f64; n];
            let scatter_done = AtomicBool::new(false);
            let t0 = Instant::now();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut staging = ScatterStaging::new(&space);
                    let mut rng = 1u64;
                    for _ in 0..records {
                        // An LCG keeps the generator out of the measurement.
                        rng = rng
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        staging.push(&space, ((rng >> 33) % n as u64) as u32, 1.0);
                    }
                    staging.flush(&space);
                    space.flush_partials();
                    // SeqCst: publishes "no more records" to the gatherer.
                    scatter_done.store(true, Ordering::SeqCst);
                });
                loop {
                    let drained = space.process_one_full(|_, batch| {
                        for r in batch {
                            sums[r.dst as usize] += r.value;
                        }
                    });
                    if drained {
                        continue;
                    }
                    if scatter_done.load(Ordering::SeqCst) && space.full_queue_is_empty() {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
            let rate = records as f64 / 1e6 / t0.elapsed().as_secs_f64();
            debug_assert_eq!(sums.iter().sum::<f64>(), records as f64);
            std::hint::black_box(&sums);
            rate
        })
        .collect()
}

/// What the engine-level probes report, `reps` samples each.
#[derive(Debug, Default)]
pub struct EngineProbes {
    pub pump_cold_mb_s: Vec<f64>,
    pub pump_hot_mb_s: Vec<f64>,
    pub pump_paced_mb_s: Vec<f64>,
    pub scatter_bin_medges_s: Vec<f64>,
    pub dispatch_us: Vec<f64>,
    pub vertex_map_mvert_s: Vec<f64>,
    pub page_subset_sparse_ms: Vec<f64>,
    pub page_subset_dense_ms: Vec<f64>,
}

/// Reads every page of `frontier` and scatters nothing: `cond` is false
/// for every destination, so only frontier transform, IO pump and page
/// decode run.
fn pump(engine: &Engine, frontier: &VertexSubset) -> Res<()> {
    engine
        .edge_map(
            frontier,
            |_s, _d| 0u32,
            |_d, _v: u32| false,
            |_d| false,
            false,
        )
        .map(drop)
        .map_err(err)
}

/// The `core.*` and `frontier.page_subset_ms.*` probes: `edge_map`,
/// `build_page_subset` and `vertex_map` on engines over the saved graph.
pub fn probe_engine(files: &GraphFiles, num_edges: u64, reps: usize) -> Res<EngineProbes> {
    let mut out = EngineProbes::default();
    let graph = open_graph(files, DeviceKind::File, None)?;
    let n = graph.num_vertices();
    let bytes = graph.num_pages() * PAGE_SIZE as u64;
    let full = VertexSubset::full(n);

    let cold = new_engine(&graph, 0)?;
    pump(&cold, &full)?;
    for _ in 0..reps {
        let t0 = Instant::now();
        pump(&cold, &full)?;
        out.pump_cold_mb_s.push(mb_per_s(bytes, t0));
    }

    // Scatter + staging + bins with a gather that does nothing.
    for _ in 0..reps {
        let t0 = Instant::now();
        cold.edge_map(
            &full,
            |_s, _d| 1.0f64,
            |_d, _v: f64| false,
            |_d| true,
            false,
        )
        .map_err(err)?;
        out.scatter_bin_medges_s
            .push(num_edges as f64 / 1e6 / t0.elapsed().as_secs_f64());
    }

    // The fixed cost of one superstep: a frontier with no page to read.
    let idle = match (0..n as u32).find(|&v| graph.degree(v) == 0) {
        Some(v) => VertexSubset::single(n, v),
        None => {
            let mut empty = VertexSubset::new(n);
            empty.seal();
            empty
        }
    };
    for _ in 0..reps {
        const STEPS: u32 = 50;
        let t0 = Instant::now();
        for _ in 0..STEPS {
            pump(&cold, &idle)?;
        }
        out.dispatch_us
            .push(t0.elapsed().as_secs_f64() * 1e6 / f64::from(STEPS));
    }

    let mut sparse = VertexSubset::new(n);
    for v in (0..n as u32).step_by(100) {
        sparse.insert(v);
    }
    sparse.seal();
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(cold.build_page_subset(&sparse));
        out.page_subset_sparse_ms
            .push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        std::hint::black_box(cold.build_page_subset(&full));
        out.page_subset_dense_ms
            .push(t0.elapsed().as_secs_f64() * 1e3);
    }

    let values = VertexArray::<f64>::new(n, 1.0);
    for _ in 0..reps {
        let t0 = Instant::now();
        let kept = vertex_map(
            &full,
            |v| {
                let x = values.get(v as usize) * 0.85;
                values.set(v as usize, x);
                x > 0.0
            },
            COMPUTE_WORKERS,
        );
        std::hint::black_box(kept);
        out.vertex_map_mvert_s
            .push(n as f64 / 1e6 / t0.elapsed().as_secs_f64());
    }
    drop(cold);

    // Every page from cache frames: a cache of twice the graph, warmed.
    let hot = new_engine(&graph, 2 * bytes)?;
    pump(&hot, &full)?;
    for _ in 0..reps {
        let t0 = Instant::now();
        pump(&hot, &full)?;
        out.pump_hot_mb_s.push(mb_per_s(bytes, t0));
    }
    drop(hot);

    // The same pump behind the paced device, over the first quarter of the
    // vertices so five repetitions stay short.
    let paced_graph = open_graph(files, DeviceKind::Paced, None)?;
    let paced = new_engine(&paced_graph, 0)?;
    let mut quarter = VertexSubset::new(n);
    for v in 0..(n / 4).max(1) as u32 {
        quarter.insert(v);
    }
    quarter.seal();
    let before = counters(&paced);
    pump(&paced, &quarter)?;
    let quarter_bytes = counters(&paced).since(&before).io_bytes;
    for _ in 0..reps {
        let t0 = Instant::now();
        pump(&paced, &quarter)?;
        out.pump_paced_mb_s.push(mb_per_s(quarter_bytes, t0));
    }
    Ok(out)
}
