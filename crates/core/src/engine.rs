//! The out-of-core `EdgeMap` engine (Section IV-C, Figure 5).
//!
//! Since the persistent-runtime refactor, `edge_map` no longer spawns a
//! scoped thread pipeline per call. The engine owns a long-lived
//! [`Runtime`] — one IO worker per device plus standing scatter/gather
//! pools — and each `edge_map` is packaged as an `EdgeMapJob` and
//! *submitted* to it, blocking on the job's completion handle. Bin spaces
//! and IO buffer pools are checked out of an [`EngineArena`] per job and
//! recycled after a clean finish, so a 20-iteration BFS reuses one set of
//! buffers instead of allocating twenty, and independent jobs submitted
//! from different threads interleave through the shared workers.

use blaze_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use blaze_sync::Arc;
use std::time::Instant;

use blaze_sync::Backoff;
use blaze_sync::Mutex;

use blaze_binning::{BinSpace, BinValue, BinningConfig, ScatterStaging};
use blaze_frontier::{PageSubset, VertexSubset};
use blaze_graph::DiskGraph;
use blaze_storage::{
    BufferPool, FlightTable, IoBackend, JobIoStats, PageCache, StatsRow, SyncBackend,
    ThreadedBackend,
};
use blaze_types::{BlazeError, IterationTrace, JobCounter, Result, VertexId};

use crate::arena::EngineArena;
use crate::options::EngineOptions;
use crate::runtime::{PipelineJob, Runtime};
use crate::stats::{fill_io_trace_from_job, ExecStats};
use crate::supply::PageSupply;

/// Idle bin/buffer arenas the engine keeps cached between jobs. One serves
/// a sequential algorithm; concurrent submitters each check out their own,
/// checkouts beyond the cache allocate fresh arenas, and returned ones
/// beyond it are dropped.
const MAX_IDLE_ARENAS: usize = 2;

/// Fraction of each cache shard's frames reservable as hot-region admission
/// credits (see `PageCache::set_hot_region`). Only takes effect when the
/// graph was written with a degree-aware layout (its page map reports a
/// non-zero hot region).
const CACHE_HOT_FRACTION: f64 = 0.5;

/// Completed flights the scan-sharing table retains per device for
/// trailing subscribers (each at most `merge_window` pages).
const SCAN_SHARE_RETAIN: usize = 128;

/// Increments a counter when dropped — even if the owning worker panics in
/// user code, so peers waiting on the counter cannot spin forever.
struct CompletionGuard<'a> {
    counter: &'a AtomicUsize,
}

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        self.counter.fetch_add(1, Ordering::Release); // sync-audit: trace counter; read only after the job completes.
    }
}

/// The Blaze engine: binds a [`DiskGraph`] to its persistent pipeline
/// runtime and binning configuration and executes `EdgeMap`s over it.
pub struct BlazeEngine {
    graph: Arc<DiskGraph>,
    options: EngineOptions,
    binning: BinningConfig,
    arena: EngineArena,
    runtime: Runtime,
    cache: Option<PageCache>,
    /// The submission/completion IO engines the per-device IO workers
    /// pump — one per IO lane, because the backends' per-device
    /// submit/reap queues assume a single pumper per device and a lane is
    /// exactly that: the one worker pumping a given device for its jobs.
    /// A single entry without scan sharing.
    backends: Vec<Arc<dyn IoBackend>>,
    /// Cross-job scan-sharing registry (single-flight miss coalescing);
    /// `None` leaves the IO path byte-identical to the unshared engine.
    flights: Option<FlightTable>,
    traces: Mutex<Vec<IterationTrace>>,
    stats: Mutex<ExecStats>,
}

impl BlazeEngine {
    /// Creates an engine over `graph`. Binning defaults to the paper's
    /// heuristics (5% of graph size, 1024 bins) unless overridden. The
    /// persistent worker set (one IO worker per device, plus the scatter
    /// and gather pools) is spawned here and lives until the engine drops.
    pub fn new(graph: Arc<DiskGraph>, options: EngineOptions) -> Result<Self> {
        options.validate()?;
        let binning = options
            .binning
            .clone()
            .unwrap_or_else(|| BinningConfig::for_graph(graph.storage_bytes()));
        let arena = EngineArena::new(
            binning.clone(),
            options.io_buffer_bytes,
            options.merge_window.max(blaze_types::MAX_MERGED_PAGES),
            options.num_gather,
            MAX_IDLE_ARENAS,
        );
        // Scan sharing needs concurrent jobs' IO phases to overlap on each
        // device, so it widens the runtime to several IO lanes per device;
        // one lane reproduces the paper's pipeline exactly.
        let io_lanes = options.io_lanes;
        let runtime = Runtime::new(
            graph.storage().num_devices(),
            io_lanes,
            options.num_scatter,
            options.num_gather,
        );
        // A budget below one page yields zero frames; skip the cache
        // entirely so the IO path stays identical to the uncached engine.
        let cache = Some(PageCache::new(options.cache_bytes))
            .filter(|c| c.capacity_pages() > 0)
            .map(|mut c| {
                // Degree-aware layouts record a hot (hub) page prefix in the
                // page map; hand it to the cache for heat-informed admission
                // before the cache is shared. Identity graphs report zero
                // hot pages and leave admission untouched.
                c.set_hot_region(graph.pagemap().hot_pages(), CACHE_HOT_FRACTION);
                c
            });
        // Depth 1 is the published stream: strictly inline, in submission
        // order. Any deeper cap gets the adaptive backend, whose lanes share
        // one helper pool and one view of how fast each device is.
        let backends: Vec<Arc<dyn IoBackend>> = if options.queue_depth == 1 {
            (0..io_lanes)
                .map(|_| Arc::new(SyncBackend::new(graph.storage().clone())) as _)
                .collect()
        } else {
            ThreadedBackend::lanes(graph.storage().clone(), options.queue_depth, io_lanes)
                .into_iter()
                .map(|lane| Arc::new(lane) as _)
                .collect()
        };
        let flights = (io_lanes > 1)
            .then(|| FlightTable::new(graph.storage().num_devices(), SCAN_SHARE_RETAIN));
        Ok(Self {
            graph,
            options,
            binning,
            arena,
            runtime,
            cache,
            backends,
            flights,
            traces: Mutex::new(Vec::new()),
            stats: Mutex::new(ExecStats::default()),
        })
    }

    /// The IO backend serving this engine's device reads (lane 0's when
    /// scan sharing runs several lanes).
    pub fn io_backend(&self) -> &Arc<dyn IoBackend> {
        &self.backends[0]
    }

    /// The clock page cache, when enabled via
    /// [`EngineOptions::cache_bytes`].
    pub fn page_cache(&self) -> Option<&PageCache> {
        self.cache.as_ref()
    }

    /// The graph this engine operates on.
    pub fn graph(&self) -> &Arc<DiskGraph> {
        &self.graph
    }

    /// Engine options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The effective binning configuration.
    pub fn binning(&self) -> &BinningConfig {
        &self.binning
    }

    /// The cache of idle per-job buffer pools and bin spaces. A job that
    /// finished cleanly (or failed with a drained IO path) leaves its
    /// pieces here; [`EngineArena::idle_len`] lets tests see that it did.
    pub fn arena(&self) -> &EngineArena {
        &self.arena
    }

    /// The persistent pipeline runtime serving this engine's jobs.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Number of vertices of the underlying graph.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Takes the recorded per-iteration work traces (and clears them).
    pub fn take_traces(&self) -> Vec<IterationTrace> {
        std::mem::take(&mut self.traces.lock())
    }

    /// Cumulative execution statistics.
    pub fn stats(&self) -> ExecStats {
        self.stats.lock().clone()
    }

    /// Transforms the vertex frontier into the per-device page frontier
    /// (Figure 5, step 1), in parallel over frontier chunks.
    pub fn build_page_subset(&self, frontier: &VertexSubset) -> PageSubset {
        let members = frontier.members();
        let num_devices = self.graph.storage().num_devices();
        let threads = self.options.compute_workers().max(1);
        if members.len() < 4096 || threads == 1 {
            let ranges = members
                .iter()
                .filter_map(|&v| self.graph.pages_of_vertex(v));
            return PageSubset::from_page_ranges(ranges, num_devices);
        }
        let chunk = members.len().div_ceil(threads);
        let parts: Vec<PageSubset> = blaze_sync::thread::scope(|s| {
            let handles: Vec<_> = members
                .chunks(chunk)
                .map(|slice| {
                    s.spawn(move || {
                        let ranges = slice.iter().filter_map(|&v| self.graph.pages_of_vertex(v));
                        PageSubset::from_page_ranges(ranges, num_devices)
                    })
                })
                .collect();
            handles
                .into_iter()
                // panic-audit: re-raises a worker thread's panic on the caller
                // (the same propagation std::thread::scope performs).
                .map(|h| h.join().expect("page transform panicked"))
                .collect()
        });
        PageSubset::merge(parts, num_devices)
    }

    /// Out-of-core `EdgeMap` with online binning.
    ///
    /// Runs `scatter(src, dst) -> value` for every edge `(src, dst)` with
    /// `src` in `frontier` and `cond(dst)` true; gather threads then apply
    /// `gather(dst, value) -> activate` to accumulate values into vertex
    /// data. When `output` is true, destinations for which `gather` returns
    /// `true` form the returned frontier.
    ///
    /// `gather` may update [`VertexArray`](crate::VertexArray)s with plain
    /// `get`/`set` — bin exclusivity guarantees a destination vertex is
    /// only touched by one gather thread at a time.
    ///
    /// The call is a *job submission*: it may be issued from any number of
    /// threads concurrently against one engine, and blocks until the
    /// persistent runtime has completed this job.
    pub fn edge_map<V, FS, FG, FC>(
        &self,
        frontier: &VertexSubset,
        scatter: FS,
        gather: FG,
        cond: FC,
        output: bool,
    ) -> Result<VertexSubset>
    where
        V: BinValue,
        FS: Fn(VertexId, VertexId) -> V + Sync,
        FG: Fn(VertexId, V) -> bool + Sync,
        FC: Fn(VertexId) -> bool + Sync,
    {
        self.run_edge_map(frontier, &scatter, &gather, &cond, output, false)
    }

    /// The synchronization-based variant (Figure 8b): no bins — scatter
    /// threads apply `gather` directly, so `gather` must perform its
    /// updates with atomic read-modify-write operations
    /// ([`VertexArray::fetch_update`](crate::VertexArray::fetch_update) /
    /// [`fetch_add`](crate::VertexArray::fetch_add)).
    pub fn edge_map_sync<V, FS, FG, FC>(
        &self,
        frontier: &VertexSubset,
        scatter: FS,
        gather: FG,
        cond: FC,
        output: bool,
    ) -> Result<VertexSubset>
    where
        V: BinValue,
        FS: Fn(VertexId, VertexId) -> V + Sync,
        FG: Fn(VertexId, V) -> bool + Sync,
        FC: Fn(VertexId) -> bool + Sync,
    {
        self.run_edge_map(frontier, &scatter, &gather, &cond, output, true)
    }

    fn run_edge_map<V, FS, FG, FC>(
        &self,
        frontier: &VertexSubset,
        scatter: &FS,
        gather: &FG,
        cond: &FC,
        output: bool,
        sync_variant: bool,
    ) -> Result<VertexSubset>
    where
        V: BinValue,
        FS: Fn(VertexId, VertexId) -> V + Sync,
        FG: Fn(VertexId, V) -> bool + Sync,
        FC: Fn(VertexId) -> bool + Sync,
    {
        let t0 = Instant::now();
        let num_devices = self.graph.storage().num_devices();

        let pages = self.build_page_subset(frontier);
        let out = VertexSubset::new(self.graph.num_vertices());

        // Check out this job's private arena: never shared with another
        // in-flight job, which is what lets independent submissions
        // interleave through the shared workers without entangling their
        // buffer queues or bin back-pressure.
        let pool = self.arena.checkout_pool();
        let space: Option<BinSpace<V>> = (!sync_variant).then(|| self.arena.checkout_space());

        let job = EdgeMapJob {
            engine: self,
            frontier,
            pages: &pages,
            out: &out,
            pool: &pool,
            space: space.as_ref(),
            scatter,
            gather,
            cond,
            output,
            num_devices,
            num_scatter: self.options.num_scatter,
            io_done: AtomicUsize::new(0),
            scatters_done: AtomicUsize::new(0),
            all_scatter_done: AtomicBool::new(false),
            error: Mutex::new(None),
            order: AtomicU64::new(u64::MAX),
            io_stats: JobIoStats::new(num_devices),
        };

        // Blocks until every participating worker finished its role; a
        // panic in a user closure is re-raised here (unwinding drops the
        // checked-out pool/space without recycling them).
        self.runtime.submit(&job, !sync_variant);

        let error = job.error.lock().take();
        let mut trace = IterationTrace::new(num_devices);
        if let Some(space) = &space {
            // What the bin space counted for the job joins the job's own.
            trace.records_per_bin = space.take_record_counts();
            let records = trace.records_per_bin.iter().sum();
            let row = StatsRow::Compute;
            job.io_stats
                .record(row, JobCounter::RecordsProduced, records);
            job.io_stats
                .record(row, JobCounter::BinStallNs, space.take_stall_ns());
        }
        fill_io_trace_from_job(&mut trace, &job.io_stats);
        drop(job);

        if let Some(e) = error {
            // A job that failed cleanly (IO error, not a panic) has drained
            // its submission and completion queues and returned every
            // buffer, so its arena is reusable. `recycle_pool` re-verifies
            // with `is_intact` and drops any pool that lost buffers;
            // `recycle_space` resets bins. Panics never reach here — they
            // re-raise out of `submit` above and drop the arena unrecycled.
            if let Some(space) = space {
                self.arena.recycle_space(space);
            }
            self.arena.recycle_pool(pool);
            return Err(e);
        }

        // Record the iteration's work trace.
        let wall_ns = t0.elapsed().as_nanos() as u64;
        trace.frontier_size = frontier.len() as u64;
        if sync_variant {
            trace.atomic_ops = trace.records_produced;
        } else {
            trace.bin_buffer_capacity = self
                .binning
                .buffer_capacity(std::mem::size_of::<blaze_binning::BinRecord<V>>())
                as u64;
        }
        // Clean finish: return the arena for the next job.
        if let Some(space) = space {
            self.arena.recycle_space(space);
        }
        self.arena.recycle_pool(pool);

        self.stats.lock().absorb(&trace, wall_ns);
        self.traces.lock().push(trace);

        let mut out = out;
        out.seal();
        Ok(out)
    }
}

/// One `edge_map` submission travelling through the persistent runtime:
/// the user closures, the frontier, the job's private arena (buffer pool
/// and bin space), and all per-job coordination state. The runtime's
/// workers call the [`PipelineJob`] roles below; nothing here is shared
/// with any other in-flight job, so per-job counters and the first-error
/// slot cannot be polluted by concurrent submissions.
struct EdgeMapJob<'a, V, FS, FG, FC>
where
    V: BinValue,
{
    engine: &'a BlazeEngine,
    frontier: &'a VertexSubset,
    pages: &'a PageSubset,
    out: &'a VertexSubset,
    pool: &'a BufferPool,
    /// `None` in the synchronization-based variant (no bins).
    space: Option<&'a BinSpace<V>>,
    scatter: &'a FS,
    gather: &'a FG,
    cond: &'a FC,
    output: bool,
    num_devices: usize,
    num_scatter: usize,
    /// IO workers that have finished this job (panics included, via guard).
    io_done: AtomicUsize,
    /// Scatter workers that have finished this job.
    scatters_done: AtomicUsize,
    /// Set by the last departing scatter worker, releasing gather.
    all_scatter_done: AtomicBool,
    /// First error of the job (a failed read, or a run scatter refused);
    /// later errors are dropped (the first one is the cause, the rest are
    /// downstream noise).
    error: Mutex<Option<BlazeError>>,
    /// Submission sequence number, assigned by the runtime under its queue
    /// lock before any worker sees the job (`u64::MAX` until then). Scan
    /// sharing compares it against a flight's leader to decide between
    /// parking and a non-blocking probe (see `PageSupply::read_shared`).
    order: AtomicU64,
    io_stats: JobIoStats,
}

impl<V, FS, FG, FC> PipelineJob for EdgeMapJob<'_, V, FS, FG, FC>
where
    V: BinValue,
    FS: Fn(VertexId, VertexId) -> V + Sync,
    FG: Fn(VertexId, V) -> bool + Sync,
    FC: Fn(VertexId) -> bool + Sync,
{
    /// Records the submission sequence number the runtime assigned under
    /// its queue lock; the page supply reads it for the park/probe decision.
    fn set_order(&self, seq: u64) {
        self.order.store(seq, Ordering::Release); // sync-audit: happens-before every worker via the runtime queue lock.
    }

    /// IO role (Figure 5, steps 2-4): one worker per device (per lane when
    /// scan sharing widens the pump).
    fn run_io(&self, device: usize, lane: usize) {
        // Guard: even a panic inside the IO path must count the worker as
        // done, or scatter workers would spin on `io_done` forever.
        let _done = CompletionGuard {
            counter: &self.io_done,
        };
        let engine = self.engine;
        let supply = PageSupply {
            storage: engine.graph.storage(),
            cache: engine.cache.as_ref(),
            flights: engine.flights.as_ref(),
            backend: engine.backends[lane].as_ref(),
            pool: self.pool,
            stats: &self.io_stats,
            dev: device,
            merge_window: engine.options.merge_window,
            hot_pages: engine.graph.pagemap().hot_pages(),
            seq: self.order.load(Ordering::Acquire), // sync-audit: written once by Runtime::submit under its queue lock before any worker runs this job.
        };
        if let Err(e) = supply.run(self.pages.local_pages(device)) {
            // First error wins, so a root-cause device error is not
            // clobbered by the knock-on errors of other devices.
            self.error.lock().get_or_insert(e);
        }
    }

    /// Scatter role (steps 5-7).
    fn run_scatter(&self, _worker: usize) {
        // Guard: a panic in the user's scatter/cond closures still counts
        // this worker as done; the last departing scatter (panicked or not)
        // releases the gather side.
        struct ScatterGuard<'a, V: BinValue> {
            counter: &'a AtomicUsize,
            total: usize,
            space: Option<&'a BinSpace<V>>,
            all_done: &'a AtomicBool,
        }
        impl<V: BinValue> Drop for ScatterGuard<'_, V> {
            fn drop(&mut self) {
                if self.counter.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
                    if let Some(space) = self.space {
                        space.flush_partials();
                    }
                    self.all_done.store(true, Ordering::Release);
                }
            }
        }
        let _done = ScatterGuard {
            counter: &self.scatters_done,
            total: self.num_scatter,
            space: self.space,
            all_done: &self.all_scatter_done,
        };
        let mut staging = self.space.map(ScatterStaging::new);
        let mut scratch = Vec::new();
        let mut local_edges = 0u64;
        let mut local_records = 0u64;
        let mut busy_ns = 0u64;
        let mut wait_ns = 0u64;
        // A frontier built by `VertexSubset::full` contains every vertex by
        // construction, so the per-source membership probe is pure overhead
        // in dense iterations (PageRank, WCC) — hoist it out of the loop.
        let all_active = self.frontier.is_complete();
        let graph = &self.engine.graph;
        let backoff = Backoff::new();
        loop {
            let Some(batch) = self.pool.pop_filled() else {
                if self.io_done.load(Ordering::Acquire) == self.num_devices // sync-audit: completion counter; guarded by the filled-queue recheck below.
                    && self.pool.filled_len() == 0
                {
                    break;
                }
                let t = Instant::now();
                backoff.snooze();
                wait_ns += t.elapsed().as_nanos() as u64;
                continue;
            };
            backoff.reset();
            let t = Instant::now();
            for i in 0..batch.num_pages() {
                batch.prefetch(i + 1);
                let page = batch.page_id(i);
                let body = |src: VertexId, dsts: &[VertexId]| {
                    if !all_active && !self.frontier.contains(src) {
                        return;
                    }
                    if let Err(e) = graph.check_destinations(page, dsts) {
                        // A destination past the vertex count would index
                        // out of the caller's arrays: fail the job, skip
                        // the run.
                        self.error.lock().get_or_insert(e);
                        return;
                    }
                    for &dst in dsts {
                        local_edges += 1;
                        if !(self.cond)(dst) {
                            continue;
                        }
                        let value = (self.scatter)(src, dst);
                        match (&mut staging, self.space) {
                            (Some(staging), Some(space)) => staging.push(space, dst, value),
                            _ => {
                                // Sync variant: apply directly with the
                                // user's atomic gather — the CAS path.
                                local_records += 1;
                                if (self.gather)(dst, value) && self.output {
                                    self.out.insert(dst);
                                }
                            }
                        }
                    }
                };
                graph.for_each_vertex_in_page(page, batch.page_data(i), &mut scratch, body);
            }
            self.pool.finish(batch);
            busy_ns += t.elapsed().as_nanos() as u64;
        }
        if let (Some(staging), Some(space)) = (&mut staging, self.space) {
            let t = Instant::now();
            staging.flush(space);
            busy_ns += t.elapsed().as_nanos() as u64;
        }
        let row = StatsRow::Compute;
        self.io_stats.record(row, JobCounter::ScatterNs, busy_ns);
        self.io_stats.record(row, JobCounter::IoWaitNs, wait_ns);
        self.io_stats
            .record(row, JobCounter::EdgesProcessed, local_edges);
        self.io_stats
            .record(row, JobCounter::RecordsProduced, local_records);
    }

    /// Gather role (steps 8-9); not dispatched in the sync variant. Each
    /// worker drains its *home* full-bin queue (`bin_id % num_gather`)
    /// before stealing from peers, so repeated fills of one bin keep
    /// landing on the same worker's cache-warm vertex range.
    fn run_gather(&self, worker: usize) {
        let Some(space) = self.space else {
            return;
        };
        let mut busy_ns = 0u64;
        let mut idle_ns = 0u64;
        let backoff = Backoff::new();
        loop {
            let t = Instant::now();
            let progressed = space.process_one_full_for(worker, |_, records| {
                for r in records {
                    if (self.gather)(r.dst, r.value) && self.output {
                        self.out.insert(r.dst);
                    }
                }
            });
            if progressed {
                busy_ns += t.elapsed().as_nanos() as u64;
                backoff.reset();
                continue;
            }
            if self.all_scatter_done.load(Ordering::Acquire) // sync-audit: completion flag; guarded by the full-queue recheck below.
                && space.full_queue_is_empty()
            {
                break;
            }
            backoff.snooze();
            // From `t`: the poll that found nothing is idle time as well,
            // and the idle path reads the clock once more, not twice.
            idle_ns += t.elapsed().as_nanos() as u64;
        }
        let row = StatsRow::Compute;
        self.io_stats.record(row, JobCounter::GatherNs, busy_ns);
        self.io_stats.record(row, JobCounter::GatherIdleNs, idle_ns);
    }
}

impl std::fmt::Debug for BlazeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlazeEngine")
            .field("graph", &self.graph)
            .field("scatter", &self.options.num_scatter)
            .field("gather", &self.options.num_gather)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::vertex_array::VertexArray;
    use blaze_graph::gen::{rmat, uniform, RmatConfig};
    use blaze_graph::Csr;
    use blaze_storage::StripedStorage;

    pub(crate) fn engine(g: &Csr, devices: usize, options: EngineOptions) -> BlazeEngine {
        let storage = Arc::new(StripedStorage::in_memory(devices).unwrap());
        let graph = Arc::new(DiskGraph::create(g, storage).unwrap());
        BlazeEngine::new(graph, options).unwrap()
    }

    /// In-memory BFS parents -> levels for comparison.
    pub(crate) fn bfs_levels_ref(g: &Csr, root: u32) -> Vec<i64> {
        let mut level = vec![-1i64; g.num_vertices()];
        level[root as usize] = 0;
        let mut frontier = vec![root];
        let mut depth = 0;
        while !frontier.is_empty() {
            depth += 1;
            let mut next = Vec::new();
            for &v in &frontier {
                for &d in g.neighbors(v) {
                    if level[d as usize] == -1 {
                        level[d as usize] = depth;
                        next.push(d);
                    }
                }
            }
            frontier = next;
        }
        level
    }

    /// Out-of-core BFS levels via edge_map.
    pub(crate) fn bfs_levels_engine(engine: &BlazeEngine, root: u32, sync: bool) -> Vec<i64> {
        let n = engine.num_vertices();
        let level = VertexArray::<i64>::new(n, -1);
        level.set(root as usize, 0);
        let mut frontier = VertexSubset::single(n, root);
        let mut depth: i64 = 0;
        while !frontier.is_empty() {
            depth += 1;
            let d = depth;
            let scatter = |_s: u32, _d: u32| 0u32;
            let cond = |dst: u32| level.get(dst as usize) == -1;
            frontier = if sync {
                engine
                    .edge_map_sync(
                        &frontier,
                        scatter,
                        |dst: u32, _v: u32| {
                            level
                                .fetch_update(dst as usize, |cur| (cur == -1).then_some(d))
                                .is_ok()
                        },
                        cond,
                        true,
                    )
                    .unwrap()
            } else {
                engine
                    .edge_map(
                        &frontier,
                        scatter,
                        |dst: u32, _v: u32| {
                            if level.get(dst as usize) == -1 {
                                level.set(dst as usize, d);
                                true
                            } else {
                                false
                            }
                        },
                        cond,
                        true,
                    )
                    .unwrap()
            };
        }
        level.to_vec()
    }

    #[test]
    fn edge_map_bfs_matches_reference_single_device() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 1, EngineOptions::default());
        assert_eq!(bfs_levels_engine(&e, 0, false), bfs_levels_ref(&g, 0));
    }

    #[test]
    fn edge_map_bfs_matches_reference_striped() {
        let g = uniform(9, 8, 3);
        let e = engine(&g, 4, EngineOptions::default());
        assert_eq!(bfs_levels_engine(&e, 1, false), bfs_levels_ref(&g, 1));
    }

    #[test]
    fn sync_variant_matches_reference() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 2, EngineOptions::default());
        assert_eq!(bfs_levels_engine(&e, 0, true), bfs_levels_ref(&g, 0));
    }

    #[test]
    fn edge_map_with_many_threads() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 2, EngineOptions::default().with_compute_workers(8, 0.5));
        assert_eq!(bfs_levels_engine(&e, 0, false), bfs_levels_ref(&g, 0));
    }

    #[test]
    fn full_frontier_touches_every_edge() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 1, EngineOptions::default());
        let frontier = VertexSubset::full(g.num_vertices());
        let sum = VertexArray::<u64>::new(g.num_vertices(), 0);
        e.edge_map(
            &frontier,
            |_s, _d| 1u32,
            |dst, v| {
                sum.set(dst as usize, sum.get(dst as usize) + v as u64);
                true
            },
            |_| true,
            false,
        )
        .unwrap();
        let total: u64 = (0..g.num_vertices()).map(|i| sum.get(i)).sum();
        assert_eq!(total, g.num_edges(), "every edge delivered exactly once");
        let stats = e.stats();
        assert_eq!(stats.edges_processed, g.num_edges());
        assert_eq!(stats.records_produced, g.num_edges());
    }

    #[test]
    fn cond_filters_scatter() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 1, EngineOptions::default());
        let frontier = VertexSubset::full(g.num_vertices());
        // cond rejects everything: no records, no gather calls.
        let out = e
            .edge_map(
                &frontier,
                |_s, _d| 0u32,
                |_dst, _v| panic!("gather must not run"),
                |_| false,
                true,
            )
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(e.stats().records_produced, 0);
        assert_eq!(e.stats().edges_processed, g.num_edges());
    }

    #[test]
    fn output_false_returns_empty_frontier() {
        let g = rmat(&RmatConfig::new(7));
        let e = engine(&g, 1, EngineOptions::default());
        let frontier = VertexSubset::full(g.num_vertices());
        let out = e
            .edge_map(&frontier, |_s, _d| 0u32, |_d, _v| true, |_| true, false)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn empty_frontier_is_a_no_op() {
        let g = rmat(&RmatConfig::new(7));
        let e = engine(&g, 1, EngineOptions::default());
        let mut frontier = VertexSubset::new(g.num_vertices());
        frontier.seal();
        let out = e
            .edge_map(&frontier, |_s, _d| 0u32, |_d, _v| true, |_| true, true)
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(e.stats().io_bytes, 0);
    }

    #[test]
    fn traces_record_io_and_work() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 2, EngineOptions::default());
        let frontier = VertexSubset::full(g.num_vertices());
        e.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| true, false)
            .unwrap();
        let traces = e.take_traces();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.io_bytes_per_device.len(), 2);
        assert!(
            t.total_io_bytes() >= g.num_edges() * 4,
            "every edge byte read"
        );
        assert_eq!(t.edges_processed, g.num_edges());
        assert_eq!(t.records_per_bin.iter().sum::<u64>(), t.records_produced);
        // Page interleaving keeps the per-device IO balanced (Section IV-E).
        let max = *t.io_bytes_per_device.iter().max().unwrap();
        let min = *t.io_bytes_per_device.iter().min().unwrap();
        assert!(max - min <= 8 * 4096, "skew {max}-{min}");
        // A full-frontier scan reads contiguous pages: merging must produce
        // mostly multi-page (sequential) requests.
        assert!(
            t.total_io_requests() < t.total_io_bytes() / 4096,
            "requests should cover merged pages"
        );
    }

    #[test]
    fn sparse_frontier_reads_only_needed_pages() {
        let g = rmat(&RmatConfig::new(10));
        let e = engine(&g, 1, EngineOptions::default());
        // One low-degree vertex: IO should be a handful of pages, not the
        // whole graph.
        let v = (0..g.num_vertices() as u32)
            .find(|&v| g.degree(v) >= 1 && g.degree(v) <= 8)
            .unwrap();
        let frontier = VertexSubset::single(g.num_vertices(), v);
        e.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| true, false)
            .unwrap();
        let io = e.stats().io_bytes;
        assert!(io <= 4 * 4096, "sparse frontier read {io} bytes");
        assert!(io >= 4096);
    }

    #[test]
    fn atomic_ops_counted_only_in_sync_variant() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 1, EngineOptions::default());
        let frontier = VertexSubset::full(g.num_vertices());
        e.edge_map(&frontier, |_s, _d| 0u32, |_d, _v| false, |_| true, false)
            .unwrap();
        let t = e.take_traces().pop().unwrap();
        assert_eq!(t.atomic_ops, 0);
        e.edge_map_sync(&frontier, |_s, _d| 0u32, |_d, _v| false, |_| true, false)
            .unwrap();
        let t = e.take_traces().pop().unwrap();
        assert_eq!(t.atomic_ops, g.num_edges());
    }

    #[test]
    fn arena_is_reused_across_iterations() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 1, EngineOptions::default());
        let frontier = VertexSubset::full(g.num_vertices());
        e.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| true, false)
            .unwrap();
        // A clean job recycles its pool and bin space into the arena cache.
        assert_eq!(e.arena().idle_len(), 2);
        e.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| true, false)
            .unwrap();
        assert_eq!(
            e.arena().idle_len(),
            2,
            "second job reused the cached arena"
        );
    }

    #[test]
    fn traces_record_compute_stage_timings() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 1, EngineOptions::default());
        let frontier = VertexSubset::full(g.num_vertices());
        e.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| true, false)
            .unwrap();
        let t = e.take_traces().pop().unwrap();
        assert!(t.scatter_ns > 0, "scatter walked every page");
        assert!(t.gather_ns > 0, "gather applied full bins");
        let s = e.stats();
        assert_eq!(s.scatter_ns, t.scatter_ns);
        assert_eq!(s.gather_ns, t.gather_ns);
        // The sync variant never runs gather workers.
        e.edge_map_sync(&frontier, |s, _d| s, |_d, _v| false, |_| true, false)
            .unwrap();
        let t = e.take_traces().pop().unwrap();
        assert!(t.scatter_ns > 0);
        assert_eq!(t.gather_ns, 0);
    }

    #[test]
    fn panicking_job_leaves_engine_usable() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 1, EngineOptions::default());
        let frontier = VertexSubset::full(g.num_vertices());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.edge_map(
                &frontier,
                |_s, _d| -> u32 { panic!("user scatter exploded") },
                |_d, _v| false,
                |_| true,
                false,
            )
        }));
        assert!(caught.is_err(), "scatter panic must reach the submitter");
        // The persistent workers survive a poisoned job; the same engine
        // serves the next query correctly.
        assert_eq!(bfs_levels_engine(&e, 0, false), bfs_levels_ref(&g, 0));
    }
}
