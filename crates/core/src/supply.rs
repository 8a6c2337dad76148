//! Page supply: the one path by which a page reaches scatter (Figure 5,
//! steps 2–4).
//!
//! An IO worker runs [`PageSupply::run`] over its device's share of the
//! page frontier. The layers sit in storage-stack order — device → backend
//! → flight table → page cache → scatter — and each resolves what it can
//! and passes the rest down:
//!
//! 1. **Cache.** Every page is looked up; hits are handed to scatter as
//!    batches of the cache's own frames, and only the misses go on. A hit
//!    in the middle of a contiguous run therefore splits what would have
//!    been one merged request.
//! 2. **Flight table** (scan sharing). Each merged miss request is split
//!    into subranges this job *leads* and subranges another job is already
//!    reading (or just read); the latter are handed to scatter as batches
//!    of the leader's frames once the leads are done.
//! 3. **Backend.** What is left is read from the device into pool buffers
//!    with up to a window of requests in flight.
//!
//! Every route ends in [`PageSupply::emit`]. A resident page is never
//! copied and takes no pool buffer; a page read from the device is copied
//! at most once, buffer → frame in [`page_frames`], and only when the cache
//! or a flight's subscribers need the frame. Nothing here depends on the
//! `edge_map` closures, so it is compiled once, not per algorithm.

use std::collections::BTreeMap;

use blaze_storage::request::merge_pages_with_window;
use blaze_storage::{
    BufferPool, FlightLease, FlightPart, FlightTable, IoBackend, IoBuffer, IoRequest, JobIoStats,
    PageBatch, PageCache, PageFrame, StatsRow, StripedStorage,
};
use blaze_types::{BlazeError, JobCounter, LocalPageId, PageId, Result, PAGE_SIZE};

/// The pages of one device read and their frames, on their way into the
/// cache.
type Admission = (Vec<PageId>, Vec<PageFrame>);

/// One IO worker's view of one job: the engine's storage stack for device
/// `dev` plus the job's pool, counters and submission seniority.
pub(crate) struct PageSupply<'a> {
    pub storage: &'a StripedStorage,
    pub cache: Option<&'a PageCache>,
    pub flights: Option<&'a FlightTable>,
    /// This worker's lane's backend (one pumper per device per backend).
    pub backend: &'a dyn IoBackend,
    pub pool: &'a BufferPool,
    pub stats: &'a JobIoStats,
    pub dev: usize,
    pub merge_window: usize,
    /// Pages below this global id belong to the layout's hot region.
    pub hot_pages: PageId,
    /// The job's submission sequence number (see [`Self::read_shared`]).
    pub seq: u64,
}

impl PageSupply<'_> {
    /// Delivers `local_pages` (ascending local page ids of this device) to
    /// scatter. Without a cache or scan sharing this is the published IO
    /// path: contiguous pages merge into requests of up to `merge_window`
    /// pages, byte-for-byte the same device traffic under the synchronous
    /// backend. The whole cache pass finishes before the first miss is
    /// submitted.
    pub(crate) fn run(&self, local_pages: &[LocalPageId]) -> Result<()> {
        let misses;
        let to_read = match self.cache {
            Some(cache) => {
                misses = self.serve_hits(cache, local_pages);
                &misses
            }
            None => local_pages,
        };
        let requests = merge_pages_with_window(to_read, self.merge_window);
        match self.flights {
            Some(table) => self.read_shared(table, requests),
            None => self.read(&requests, Vec::new()),
        }
    }

    /// Hands one batch to scatter. Blocks while the pool's filled queue is
    /// at its bound, which only this job's scatter relieves — the same
    /// dependency a wait for a free buffer has, so the deadlock discipline
    /// of [`Self::read_shared`] covers both.
    fn emit(&self, batch: PageBatch) {
        self.pool.push_filled(batch);
    }

    /// Folds `value` into one of the job's counters, on this device's row.
    fn count(&self, counter: JobCounter, value: u64) {
        self.stats
            .record(StatsRow::Device(self.dev), counter, value);
    }

    fn global(&self, local: LocalPageId) -> PageId {
        self.storage.global_page(self.dev, local)
    }

    /// Global ids of the `n` consecutive local pages starting at `first`.
    fn global_run(&self, first: LocalPageId, n: usize) -> Vec<PageId> {
        (0..n as u64).map(|i| self.global(first + i)).collect()
    }

    /// Cache layer: emits the resident pages as frame batches of up to one
    /// buffer's worth of pages each (so the filled-queue bound caps pinned
    /// frames at the pool's byte budget) and returns the misses.
    fn serve_hits(&self, cache: &PageCache, local_pages: &[LocalPageId]) -> Vec<LocalPageId> {
        let capacity = self.pool.pages_per_buffer();
        let mut frames: Vec<PageFrame> = Vec::new();
        let mut pages: Vec<PageId> = Vec::new();
        let mut misses = Vec::new();
        let mut hits = 0u64;
        let mut hot_hits = 0u64;
        for &local in local_pages {
            let global = self.global(local);
            let Some(frame) = cache.get(global) else {
                misses.push(local);
                continue;
            };
            hits += 1;
            hot_hits += u64::from(global < self.hot_pages);
            frames.push(frame);
            pages.push(global);
            if pages.len() == capacity {
                self.emit(PageBatch::shared(
                    std::mem::take(&mut frames),
                    std::mem::take(&mut pages),
                ));
            }
        }
        if !pages.is_empty() {
            self.emit(PageBatch::shared(frames, pages));
        }
        if hits > 0 {
            self.count(JobCounter::CacheHitPages, hits);
        }
        if hot_hits > 0 {
            self.count(JobCounter::CacheHotHitPages, hot_hits);
        }
        misses
    }

    /// Flight layer (single-flight miss coalescing): each merged request is
    /// split against the [`FlightTable`]. Subranges nobody else is reading
    /// become *lead* parts — registered before `plan` returns, so
    /// concurrent planners of the same pages join instead of double-reading
    /// — and go to the device exactly once, carrying their leases so the
    /// completed frames fan out to every subscriber. Subranges already in
    /// flight (or retained from a recent flight) become *join* parts and
    /// are served from the leader's frames without touching the device.
    ///
    /// Deadlock discipline: leases are all resolved (the lead read returns)
    /// before any ticket is consulted, so a parked subscriber never holds a
    /// flight another job is parked on. A ticket is *waited* on only when
    /// its leader is strictly older (smaller submission seq) than this job;
    /// the runtime serves every worker's mailbox in submission order, so an
    /// older leader's IO role is never queued behind this job and the
    /// cross-job wait graph stays acyclic. Younger leaders are only probed
    /// (`try_wait`); on a miss the subrange is re-read here — a duplicate
    /// device read, never a correctness hazard.
    fn read_shared(&self, table: &FlightTable, requests: Vec<IoRequest>) -> Result<()> {
        let mut leads: Vec<IoRequest> = Vec::new();
        let mut leases: Vec<Option<FlightLease>> = Vec::new();
        let mut tickets = Vec::new();
        for request in requests {
            for part in table.plan(self.dev, request, self.seq) {
                match part {
                    FlightPart::Lead(lease) => {
                        leads.push(lease.request());
                        leases.push(Some(lease));
                    }
                    FlightPart::Join(ticket) => tickets.push(ticket),
                }
            }
        }
        if !leads.is_empty() {
            self.count(JobCounter::FlightsLed, leads.len() as u64);
        }
        self.read(&leads, leases)?;
        let mut fallback: Vec<IoRequest> = Vec::new();
        let mut shared_pages = 0u64;
        let mut first_error: Option<BlazeError> = None;
        for ticket in tickets {
            let outcome = if ticket.leader_seq() < self.seq {
                Some(ticket.wait())
            } else {
                ticket.try_wait()
            };
            match outcome {
                // A ticket claims part of one flight, and a flight is one
                // merged request: never more than a buffer's worth of pages.
                Some(Ok(frames)) => {
                    shared_pages += frames.len() as u64;
                    let pages = self.global_run(ticket.first_page(), frames.len());
                    self.emit(PageBatch::shared(frames, pages));
                }
                Some(Err(e)) => {
                    first_error = Some(e);
                    break;
                }
                None => fallback.push(IoRequest {
                    first_page: ticket.first_page(),
                    num_pages: ticket.num_pages(),
                }),
            }
        }
        if shared_pages > 0 {
            self.count(JobCounter::SharedHitPages, shared_pages);
        }
        match first_error {
            Some(e) => Err(e),
            None => self.read(&fallback, Vec::new()),
        }
    }

    /// Backend layer: pumps `requests` through the lane's IO backend with a
    /// window of submissions in flight, reaps completions (possibly out of
    /// order), and delivers successful reads. On an error it stops
    /// submitting but keeps reaping until the queue drains, so no buffer is
    /// lost and the pool stays intact — first error wins.
    ///
    /// Reads complete out of order once the window is deep, but the cache
    /// admits them in submission order: which pages its clock evicts then
    /// follows the page stream alone, not which helper thread finished
    /// first, so a query's device reads repeat from run to run. With a
    /// cache, a read stays in the window until it is admitted, so the
    /// frames held back for admission never exceed a window's worth.
    ///
    /// The window is what the backend asks for (1 while it reads inline, its
    /// queue depth once the device is slow), capped at this device's share
    /// of the pool: every in-flight request owns a buffer until it is
    /// reaped, so a window the pool cannot cover would leave the pump
    /// waiting for a free buffer with its own completions unreaped. With
    /// the cap, a pump short of a buffer is below its window, so some
    /// buffer is with scatter or on its way there and will come back.
    ///
    /// With scan sharing, `leases[i]` is the flight lease for `requests[i]`
    /// (the submit tag indexes both): a successful completion fans its
    /// frames out to the flight's subscribers, a failed one propagates the
    /// error to them, and leases never submitted (pump stopped early) are
    /// failed by their `Drop` when the vector falls off the end — no
    /// subscriber is ever left parked. Without sharing, pass an empty
    /// vector.
    fn read(&self, requests: &[IoRequest], mut leases: Vec<Option<FlightLease>>) -> Result<()> {
        let share = self.pool.capacity() / self.storage.num_devices();
        let mut next = 0usize;
        let mut in_flight = 0usize;
        let mut first_error: Option<BlazeError> = None;
        // Delivered reads the cache has not admitted yet, by submit tag.
        let mut unadmitted: BTreeMap<usize, Admission> = BTreeMap::new();
        let mut next_admit = 0usize;
        while next < requests.len() || in_flight > 0 {
            // Asked again on every refill: the backend widens the window
            // when the device turns out slow and narrows it to 1 when it
            // does not (the first scan of a cold file, then the second).
            let window = self.backend.window(self.dev).min(share).max(1);
            // With a cache a read keeps its place in the window until it
            // is admitted, not only while it is in flight.
            let settled = match self.cache {
                Some(_) => next_admit,
                None => next - in_flight,
            };
            while first_error.is_none() && next - settled < window && next < requests.len() {
                let buffer = self.pool.acquire_free();
                in_flight += 1;
                self.stats
                    .record_submit(self.dev, requests[next], in_flight as u64);
                self.backend
                    .submit(self.dev, requests[next], buffer, next as u64);
                next += 1;
            }
            if in_flight == 0 {
                break;
            }
            let completion = self.backend.reap(self.dev);
            in_flight -= 1;
            self.stats.record_latency(self.dev, completion.service_ns);
            let buffer = completion.buffer;
            let n = completion.request.num_pages as usize;
            let lease = leases
                .get_mut(completion.tag as usize)
                .and_then(Option::take);
            match completion.result {
                Err(e) => {
                    if let Some(lease) = lease {
                        lease.fail(&e.to_string());
                    }
                    self.pool.release(buffer);
                    first_error.get_or_insert(e);
                }
                Ok(()) if first_error.is_some() => {
                    // Draining after an error: the data is good but this
                    // job is failing. Subscribers still get their frames
                    // (their jobs are not the ones failing); scatter and
                    // the cache get nothing.
                    if let Some(lease) = lease {
                        lease.complete(page_frames(&buffer, n));
                    }
                    self.pool.release(buffer);
                }
                Ok(()) => {
                    let admission = self.deliver(completion.request, buffer, lease);
                    if let (Some(cache), Some(admission)) = (self.cache, admission) {
                        unadmitted.insert(completion.tag as usize, admission);
                        while let Some((pages, frames)) = unadmitted.remove(&next_admit) {
                            self.admit(cache, &pages, &frames);
                            next_admit += 1;
                        }
                    }
                }
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// A successful device read of `request`: resolves its flight, emits
    /// the buffer itself, and returns what the cache is to admit (`None`
    /// without a cache). Frames are built only if the cache or the flight
    /// wants them, and both share the same allocations.
    fn deliver(
        &self,
        request: IoRequest,
        buffer: IoBuffer,
        lease: Option<FlightLease>,
    ) -> Option<Admission> {
        self.stats.record_read(self.dev, request);
        let n = request.num_pages as usize;
        let pages = self.global_run(request.first_page, n);
        let mut admission = None;
        if self.cache.is_some() || lease.is_some() {
            let frames = page_frames(&buffer, n);
            if self.cache.is_some() {
                admission = Some((pages.clone(), frames.clone()));
            }
            if let Some(lease) = lease {
                lease.complete(frames);
            }
        }
        self.emit(PageBatch::owned(buffer, pages));
        admission
    }

    /// Inserts freshly read pages into the cache and counts the outcome.
    fn admit(&self, cache: &PageCache, pages: &[PageId], frames: &[PageFrame]) {
        self.count(JobCounter::CacheMissPages, pages.len() as u64);
        let mut evictions = 0u64;
        let mut hot_admits = 0u64;
        for (&page, frame) in pages.iter().zip(frames) {
            let outcome = cache.insert(page, frame.clone());
            evictions += u64::from(outcome.evicted);
            hot_admits += u64::from(outcome.hot_admitted);
        }
        if evictions > 0 {
            self.count(JobCounter::CacheEvictions, evictions);
        }
        if hot_admits > 0 {
            self.count(JobCounter::CacheHotAdmits, hot_admits);
        }
    }
}

/// Per-page `Arc` frames of `buffer`'s first `n` pages — the currency of
/// the page cache and the flight fan-out, and the only place page bytes
/// are copied once they have left the device.
fn page_frames(buffer: &IoBuffer, n: usize) -> Vec<PageFrame> {
    buffer
        .pages(n)
        .chunks_exact(PAGE_SIZE)
        .map(PageFrame::from)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{bfs_levels_engine, bfs_levels_ref, engine};
    use crate::{BlazeEngine, EngineOptions, VertexArray};
    use blaze_frontier::VertexSubset;
    use blaze_graph::gen::{rmat, uniform, RmatConfig};
    use blaze_graph::DiskGraph;
    use blaze_storage::{BlockDevice, FaultyDevice, MemDevice, SlowDevice};
    use blaze_sync::Arc;
    use std::time::Duration;

    /// An engine over `devices` stripe devices that each take at least 50 µs
    /// a read — slow enough that the adaptive backend opens its window.
    fn slow_engine(g: &blaze_graph::Csr, devices: usize, options: EngineOptions) -> BlazeEngine {
        let devs = (0..devices).map(|_| slow(MemDevice::new())).collect();
        let storage = Arc::new(StripedStorage::new(devs).unwrap());
        let graph = Arc::new(DiskGraph::create(g, storage).unwrap());
        BlazeEngine::new(graph, options).unwrap()
    }

    fn slow<D: BlockDevice + 'static>(inner: D) -> Arc<dyn BlockDevice> {
        Arc::new(SlowDevice::new(inner, Duration::from_micros(50)))
    }

    /// Scans until the backend has seen enough slow reads on every device
    /// to hand them to its helpers, then clears the traces.
    fn scan_until_deep(e: &BlazeEngine) {
        let devices = e.graph().storage().num_devices();
        let frontier = VertexSubset::full(e.num_vertices());
        for _ in 0..10_000 {
            if (0..devices).all(|d| e.io_backend().window(d) > 1) {
                e.take_traces();
                return;
            }
            e.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| true, false)
                .unwrap();
        }
        panic!("the backend never opened its window on a slow device");
    }

    #[test]
    fn page_cache_serves_repeated_iterations() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 2, EngineOptions::default().with_page_cache(1 << 16));
        let frontier = VertexSubset::full(g.num_vertices());
        for _ in 0..2 {
            e.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| true, false)
                .unwrap();
        }
        let traces = e.take_traces();
        assert_eq!(traces[0].cache_hit_pages, 0, "cold cache");
        let pages = traces[0].total_io_bytes() / 4096;
        assert_eq!(traces[0].cache_miss_pages, pages, "cold pass all misses");
        assert_eq!(traces[1].cache_hit_pages, pages, "second pass fully cached");
        assert_eq!(traces[1].cache_miss_pages, 0);
        assert_eq!(traces[1].total_io_bytes(), 0, "no device reads when cached");
        let stats = e.stats();
        assert_eq!(stats.cache_hit_pages, pages);
        assert_eq!(stats.cache_miss_pages, pages);
    }

    #[test]
    fn zero_budget_bypasses_cache_entirely() {
        let g = rmat(&RmatConfig::new(9));
        let uncached = engine(&g, 2, EngineOptions::default());
        let bypassed = engine(&g, 2, EngineOptions::default().with_cache_bytes(0));
        assert!(bypassed.page_cache().is_none(), "0 bytes means no cache");
        // Sub-page budgets round down to zero frames and are also bypassed.
        let tiny = engine(&g, 2, EngineOptions::default().with_cache_bytes(100));
        assert!(tiny.page_cache().is_none());
        let frontier = VertexSubset::full(g.num_vertices());
        for e in [&uncached, &bypassed] {
            for _ in 0..2 {
                e.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| true, false)
                    .unwrap();
            }
        }
        let a = uncached.take_traces();
        let b = bypassed.take_traces();
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta.io_bytes_per_device, tb.io_bytes_per_device);
            assert_eq!(ta.io_requests_per_device, tb.io_requests_per_device);
            assert_eq!(
                ta.io_sequential_requests_per_device,
                tb.io_sequential_requests_per_device
            );
            assert_eq!(tb.cache_hit_pages, 0);
            assert_eq!(tb.cache_miss_pages, 0);
            assert_eq!(tb.cache_evictions, 0);
        }
    }

    #[test]
    fn cache_hit_splits_merged_runs() {
        // Prime only the middle page of a contiguous three-page run: the
        // next scan must serve it from the cache and read the two
        // neighbors as two separate single-page requests.
        let g = rmat(&RmatConfig::new(10));
        let e = engine(&g, 1, EngineOptions::default().with_page_cache(1));
        let n = g.num_vertices();
        // A vertex whose single page sits strictly inside the page range of
        // a full scan.
        let v = (0..n as u32)
            .find(|&v| {
                e.graph()
                    .pages_of_vertex(v)
                    .is_some_and(|r| r.start() == r.end() && *r.start() > 0)
            })
            .unwrap();
        e.edge_map(
            &VertexSubset::single(n, v),
            |s, _d| s,
            |_d, _v| false,
            |_| true,
            false,
        )
        .unwrap();
        let frontier = VertexSubset::full(n);
        e.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| true, false)
            .unwrap();
        let traces = e.take_traces();
        let t = &traces[1];
        assert!(t.cache_hit_pages >= 1, "primed page must hit");
        // The hole forces at least one extra request versus unbroken
        // merging of the same page count.
        let pages = (t.total_io_bytes() / 4096) as usize;
        let window = e.options().merge_window as u64;
        assert!(
            t.total_io_requests() > (pages as u64).div_ceil(window),
            "a mid-run hit must split a merged request"
        );
    }

    #[test]
    fn cached_bfs_matches_reference() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 1, EngineOptions::default().with_page_cache(128));
        assert_eq!(bfs_levels_engine(&e, 0, false), bfs_levels_ref(&g, 0));
        let s = e.page_cache().unwrap().stats();
        assert!(s.hits + s.misses > 0);
    }

    #[test]
    fn tiny_cache_partially_serves() {
        let g = rmat(&RmatConfig::new(10));
        let e = engine(&g, 1, EngineOptions::default().with_page_cache(4));
        let frontier = VertexSubset::full(g.num_vertices());
        for _ in 0..2 {
            e.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| true, false)
                .unwrap();
        }
        let traces = e.take_traces();
        let pages = traces[0].total_io_bytes() / 4096;
        assert!(
            traces[1].cache_hit_pages < pages / 2,
            "4-page cache cannot serve a scan"
        );
        assert!(traces[1].total_io_bytes() > 0);
    }

    #[test]
    fn deep_window_bfs_matches_reference() {
        let g = uniform(12, 16, 7);
        for devices in [1, 4] {
            let e = slow_engine(&g, devices, EngineOptions::default());
            scan_until_deep(&e);
            assert_eq!(bfs_levels_engine(&e, 1, false), bfs_levels_ref(&g, 1));
            assert!(e.take_traces().iter().any(|t| t.io_max_in_flight > 1));
            // And with the cache in the loop (frame-batch hits + deep queue
            // on the miss path): a quarter of the graph, so that the scans
            // which open the window keep reading the device.
            let e = slow_engine(&g, devices, EngineOptions::default().with_page_cache(16));
            scan_until_deep(&e);
            assert_eq!(bfs_levels_engine(&e, 1, false), bfs_levels_ref(&g, 1));
            let traces = e.take_traces();
            assert!(traces.iter().any(|t| t.io_max_in_flight > 1));
            assert!(traces.iter().any(|t| t.cache_hit_pages > 0));
        }
    }

    #[test]
    fn a_deep_window_fills_the_cache_in_submission_order() {
        // Full scans through a cache of a quarter of the graph, so every
        // scan evicts. A clock cache fed the same lookups and inserts one
        // after another, in page order, must end each scan with the same
        // misses and the same residents, however the helpers completed.
        let g = uniform(12, 16, 7);
        let e = slow_engine(&g, 1, EngineOptions::default().with_page_cache(16));
        let cache = e.page_cache().unwrap();
        let model = PageCache::with_capacity_pages(cache.capacity_pages());
        let pages = e.graph().num_pages();
        let frontier = VertexSubset::full(e.num_vertices());
        let mut deep_scans = 0;
        for _ in 0..10_000 {
            e.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| true, false)
                .unwrap();
            deep_scans += usize::from(e.io_backend().window(0) > 1);
            if deep_scans == 4 {
                break;
            }
        }
        assert_eq!(deep_scans, 4, "the backend never opened its window");
        let traces = e.take_traces();
        assert!(traces.iter().any(|t| t.io_max_in_flight > 1));
        for (scan, trace) in traces.iter().enumerate() {
            let misses: Vec<PageId> = (0..pages).filter(|&p| model.get(p).is_none()).collect();
            for &p in &misses {
                model.insert(p, PageFrame::from(vec![0u8; PAGE_SIZE]));
            }
            assert_eq!(trace.cache_miss_pages, misses.len() as u64, "scan {scan}");
        }
        for p in 0..pages {
            assert_eq!(cache.get(p).is_some(), model.get(p).is_some(), "page {p}");
        }
    }

    #[test]
    fn traces_record_in_flight_depth() {
        // Big enough that one device sees well over `queue_depth` merged
        // requests (4096 vertices × 16 edges ≈ 64 pages ≈ 16 requests).
        let g = uniform(12, 16, 3);
        let frontier = VertexSubset::full(g.num_vertices());
        // Depth 1: exactly one request in flight, ever.
        let e = engine(&g, 2, EngineOptions::default().with_queue_depth(1));
        e.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| true, false)
            .unwrap();
        let t = e.take_traces().pop().unwrap();
        assert_eq!(t.io_max_in_flight, 1);
        assert!((t.io_mean_in_flight() - 1.0).abs() < 1e-9);
        assert_eq!(
            t.io_latency_buckets.iter().sum::<u64>(),
            t.total_io_requests(),
            "every request lands in one latency bucket"
        );
        assert_eq!(e.stats().io_max_in_flight, 1);
        // The default on a slow device: once the window is open the pump
        // fills it before reaping, so a scan with enough requests per
        // device must reach the full depth.
        let e = slow_engine(&g, 1, EngineOptions::default());
        scan_until_deep(&e);
        e.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| true, false)
            .unwrap();
        let t = e.take_traces().pop().unwrap();
        let depth = e.options().queue_depth as u64;
        assert!(
            t.total_io_requests() >= depth,
            "scan too small for the window"
        );
        assert_eq!(t.io_max_in_flight, depth);
        assert!(t.io_mean_in_flight() > 1.0);
        assert!(t.io_mean_in_flight() <= depth as f64);
        assert_eq!(
            t.io_latency_buckets.iter().sum::<u64>(),
            t.total_io_requests()
        );
        assert_eq!(
            t.io_latency_buckets[..2].iter().sum::<u64>(),
            0,
            "service time is the device's: no read of it is under 16 µs"
        );
        assert_eq!(e.stats().io_max_in_flight, depth);
    }

    #[test]
    fn sequentiality_is_counted_in_submission_order() {
        // The same scan and the same BFS read one request at a time and
        // through a full window of out-of-order completions: bytes,
        // requests and — what completion-order counting got wrong —
        // sequential requests per device must agree superstep by superstep.
        let g = uniform(12, 16, 3);
        let run = |e: &BlazeEngine| {
            let frontier = VertexSubset::full(g.num_vertices());
            e.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| true, false)
                .unwrap();
            bfs_levels_engine(e, 1, false);
            e.take_traces()
        };
        let inline = engine(&g, 2, EngineOptions::default().with_queue_depth(1));
        let deep = slow_engine(&g, 2, EngineOptions::default());
        scan_until_deep(&deep);
        let (a, b) = (run(&inline), run(&deep));
        assert_eq!(a.len(), b.len());
        assert!(b.iter().any(|t| t.io_max_in_flight > 1), "never overlapped");
        assert!(
            a.iter()
                .any(|t| t.io_sequential_requests_per_device.iter().sum::<u64>() > 0),
            "nothing sequential to count"
        );
        for (step, (ta, tb)) in a.iter().zip(&b).enumerate() {
            assert_eq!(ta.io_bytes_per_device, tb.io_bytes_per_device, "{step}");
            assert_eq!(
                ta.io_requests_per_device, tb.io_requests_per_device,
                "{step}"
            );
            assert_eq!(
                ta.io_sequential_requests_per_device, tb.io_sequential_requests_per_device,
                "superstep {step}"
            );
        }
    }

    #[test]
    fn frame_batch_cache_hits_deliver_every_edge() {
        // A fully-cached second scan serves hits as frame batches (many
        // frames per batch); every edge must still be delivered exactly
        // once through the page_data(i) ↔ page_id(i) mapping.
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 2, EngineOptions::default().with_page_cache(1 << 16));
        for pass in 0..2 {
            assert_eq!(
                edge_sum(&e),
                g.num_edges(),
                "pass {pass} delivered every edge"
            );
        }
        let traces = e.take_traces();
        let pages = traces[0].total_io_bytes() / 4096;
        assert_eq!(traces[1].cache_hit_pages, pages, "second pass fully cached");
        assert_eq!(traces[1].total_io_bytes(), 0);
    }

    #[test]
    fn io_error_fails_job_and_recycles_arena() {
        let g = rmat(&RmatConfig::new(8));
        let storage = Arc::new(
            StripedStorage::new(vec![Arc::new(FaultyDevice::fail_every(
                MemDevice::new(),
                1,
            ))])
            .unwrap(),
        );
        let graph = Arc::new(DiskGraph::create(&g, storage).unwrap());
        let e = BlazeEngine::new(graph, EngineOptions::default()).unwrap();
        let frontier = VertexSubset::full(g.num_vertices());
        let r = e.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| true, false);
        assert!(matches!(r, Err(BlazeError::Io(_))), "got {r:?}");
        // The job drained cleanly: its pool returned every buffer and both
        // arena pieces were recycled for the next job.
        assert_eq!(e.arena().idle_len(), 2, "failed job must recycle its arena");
    }

    #[test]
    fn io_error_in_a_deep_window_drains_and_fails() {
        let g = uniform(12, 16, 3);
        let dev = Arc::new(FaultyDevice::fail_every(MemDevice::new(), 0));
        let storage = Arc::new(StripedStorage::new(vec![slow(dev.clone())]).unwrap());
        let graph = Arc::new(DiskGraph::create(&g, storage).unwrap());
        let e = BlazeEngine::new(graph, EngineOptions::default()).unwrap();
        scan_until_deep(&e);
        // Every third read fails: successes and failures interleave in the
        // completion stream of a full window, exercising the drain path.
        dev.set_fail_every(3);
        let frontier = VertexSubset::full(g.num_vertices());
        let r = e.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| true, false);
        assert!(matches!(r, Err(BlazeError::Io(_))), "got {r:?}");
        assert_eq!(
            e.arena().idle_len(),
            2,
            "drained job must recycle its arena"
        );
    }

    /// Full-frontier edge-count scan: delivers every edge exactly once
    /// when correct, so the returned sum doubles as a delivery check.
    fn edge_sum(e: &BlazeEngine) -> u64 {
        let n = e.num_vertices();
        let frontier = VertexSubset::full(n);
        let sum = VertexArray::<u64>::new(n, 0);
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
        (0..n).map(|i| sum.get(i)).sum()
    }

    #[test]
    fn retained_flights_serve_back_to_back_scans() {
        // With scan sharing on and no page cache, the retention ring alone
        // must serve a repeat scan: every page of the second pass joins a
        // retained flight and zero device bytes move.
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 2, EngineOptions::default().with_scan_sharing(4));
        assert_eq!(edge_sum(&e), g.num_edges(), "first pass delivery");
        assert_eq!(edge_sum(&e), g.num_edges(), "shared-frame pass delivery");
        let traces = e.take_traces();
        let pages = traces[0].total_io_bytes() / PAGE_SIZE as u64;
        assert!(traces[0].flights_led > 0, "cold pass leads its reads");
        assert_eq!(
            traces[0].shared_hit_pages, 0,
            "cold pass has nothing to join"
        );
        assert_eq!(traces[1].total_io_bytes(), 0, "repeat scan fully shared");
        assert_eq!(traces[1].shared_hit_pages, pages);
        assert_eq!(traces[1].flights_led, 0);
        let stats = e.stats();
        assert_eq!(stats.shared_hit_pages, pages);
        assert_eq!(stats.shared_bytes(), pages * PAGE_SIZE as u64);
        assert!(stats.flights_led > 0);
    }

    #[test]
    fn concurrent_shared_scans_conserve_pages_and_deliver_every_edge() {
        // K identical concurrent full scans under sharing: each job's
        // device pages + shared pages must equal the solo page count (every
        // planned page lands in exactly one flight part), every job's edge
        // delivery must be exact, and — with flights either pending or
        // retained whenever a later planner arrives — somebody shares.
        let g = rmat(&RmatConfig::new(9));
        let solo = engine(&g, 2, EngineOptions::default());
        assert_eq!(edge_sum(&solo), g.num_edges());
        let solo_pages = solo.take_traces()[0].total_io_bytes() / PAGE_SIZE as u64;
        let e = engine(&g, 2, EngineOptions::default().with_scan_sharing(4));
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(|| edge_sum(&e))).collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), g.num_edges());
            }
        });
        let traces = e.take_traces();
        assert_eq!(traces.len(), 4);
        for t in &traces {
            let device_pages = t.total_io_bytes() / PAGE_SIZE as u64;
            assert_eq!(
                device_pages + t.shared_hit_pages,
                solo_pages,
                "every page read once or shared"
            );
        }
        let stats = e.stats();
        assert!(stats.shared_hit_pages > 0, "concurrent scans must share");
        assert!(stats.flights_led > 0);
        // N tenants cost about one job of device IO (the unshared engine
        // above paid `solo_pages` for its one job, and pays it per job).
        assert!(
            stats.io_bytes <= 2 * solo_pages * PAGE_SIZE as u64,
            "four sharing jobs read {} bytes, one job reads {}",
            stats.io_bytes,
            solo_pages * PAGE_SIZE as u64
        );
    }

    #[test]
    fn failed_leader_wave_does_not_wedge_the_next_wave() {
        // Wave 1: every device read fails, so leaders fail their flights
        // and subscribers see the propagated error — all jobs fail. Heal
        // the device; wave 2 on the same engine must succeed: no wedged
        // waiters, no leaked flights, arena fully recycled.
        let g = rmat(&RmatConfig::new(8));
        let dev = Arc::new(FaultyDevice::fail_every(MemDevice::new(), 1));
        let storage = Arc::new(StripedStorage::new(vec![dev.clone()]).unwrap());
        let graph = Arc::new(DiskGraph::create(&g, storage).unwrap());
        let e = BlazeEngine::new(graph, EngineOptions::default().with_scan_sharing(4)).unwrap();
        let frontier = VertexSubset::full(g.num_vertices());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| e.edge_map(&frontier, |s, _d| s, |_d, _v| false, |_| true, false))
                })
                .collect();
            for h in handles {
                let r = h.join().unwrap();
                assert!(matches!(r, Err(BlazeError::Io(_))), "got {r:?}");
            }
        });
        assert!(dev.injected_failures() > 0);
        // Concurrent jobs may have forced extra arenas into existence, but
        // every piece checked out must be back (pool + space pairs).
        let idle = e.arena().idle_len();
        assert!(
            idle >= 2 && idle.is_multiple_of(2),
            "failed wave recycled its arenas, idle {idle}"
        );
        dev.set_fail_every(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(|| edge_sum(&e))).collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), g.num_edges(), "healed wave delivers");
            }
        });
    }

    #[test]
    fn shared_scans_match_unshared_byte_identical_traces() {
        // Sharing off vs a solo job with sharing on: identical request
        // streams — the flight table must be IO-invisible to a lone first
        // scan, which finds nothing pending and nothing retained to join.
        let g = rmat(&RmatConfig::new(9));
        let plain = engine(&g, 2, EngineOptions::default());
        let shared = engine(&g, 2, EngineOptions::default().with_scan_sharing(4));
        assert_eq!(edge_sum(&plain), g.num_edges());
        assert_eq!(edge_sum(&shared), g.num_edges());
        let a = plain.take_traces();
        let b = shared.take_traces();
        assert_eq!(a[0].io_bytes_per_device, b[0].io_bytes_per_device);
        assert_eq!(a[0].io_requests_per_device, b[0].io_requests_per_device);
        assert_eq!(b[0].shared_hit_pages, 0);
    }

    #[test]
    fn cache_hits_reach_scatter_as_the_cache_frames() {
        // Drive the supply by hand over a primed cache and play scatter:
        // every page must arrive as the cache's own frame (same address,
        // no copy) and no pool buffer may leave the free queue.
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 1, EngineOptions::default().with_page_cache(1 << 16));
        assert_eq!(edge_sum(&e), g.num_edges());
        let cache = e.page_cache().unwrap();
        let pool = e.arena().checkout_pool();
        let stats = JobIoStats::new(1);
        let supply = PageSupply {
            storage: e.graph().storage(),
            cache: Some(cache),
            flights: None,
            backend: e.io_backend().as_ref(),
            pool: &pool,
            stats: &stats,
            dev: 0,
            merge_window: e.options().merge_window,
            hot_pages: 0,
            seq: 0,
        };
        let pages: Vec<LocalPageId> = (0..e.graph().num_pages()).collect();
        assert!(pages.len() > pool.pages_per_buffer(), "more than one batch");
        supply.run(&pages).unwrap();
        assert!(pool.is_intact(), "a hit takes no pool buffer");
        let mut delivered = Vec::new();
        while let Some(batch) = pool.pop_filled() {
            assert!(batch.num_pages() <= pool.pages_per_buffer());
            for i in 0..batch.num_pages() {
                let frame = cache.get(batch.page_id(i)).unwrap();
                assert_eq!(batch.page_data(i).as_ptr(), frame.as_ptr());
                delivered.push(batch.page_id(i));
            }
            pool.finish(batch);
        }
        assert_eq!(delivered, pages, "every page once, in order");
        assert_eq!(stats.totals().cache_hit_pages, pages.len() as u64);
        assert_eq!(stats.snapshots()[0].read_ops, 0, "no device read");
    }

    /// Runs `query` on its own thread and fails the test if it has not
    /// returned within `secs` — a wedged IO worker never would.
    fn within_secs<T: Send + 'static>(secs: u64, query: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(query()));
        rx.recv_timeout(std::time::Duration::from_secs(secs))
            .expect("query did not return: the page supply is wedged")
    }

    #[test]
    fn queue_deeper_than_the_pool_does_not_wedge_the_pump() {
        // qd 300 against the default pool of 256 buffers, and a scan with
        // more merged requests than either: a pump that acquired a buffer
        // per submission before reaping would wait for a 257th forever.
        let g = rmat(&RmatConfig::new(18));
        let num_edges = g.num_edges();
        let e = slow_engine(&g, 1, EngineOptions::default().with_queue_depth(300));
        let (sum, trace) = within_secs(120, move || {
            let sum = edge_sum(&e);
            (sum, e.take_traces().pop().unwrap())
        });
        assert_eq!(sum, num_edges);
        assert!(trace.total_io_requests() > 300, "scan too small to fill qd");
        assert_eq!(trace.io_max_in_flight, 256, "window = the pool's share");
    }

    #[test]
    fn small_pool_under_a_deep_queue_and_a_cache_does_not_wedge() {
        // Four buffers, qd 8, two devices, cache on: the window per device
        // is its share of the pool (2) and hits take no buffer. The cache
        // never evicts here, so what hits is exact: priming vertex 0 makes
        // the first full scan a mix of hits and misses, the second all hits.
        // Big enough (256 requests a device) that the backend opens its
        // window part-way through the first full scan.
        let g = rmat(&RmatConfig::new(17));
        let (n, num_edges) = (g.num_vertices(), g.num_edges());
        let mut options = EngineOptions::default()
            .with_queue_depth(8)
            .with_page_cache(1 << 16);
        options.io_buffer_bytes = 4 * options.merge_window * PAGE_SIZE;
        let e = slow_engine(&g, 2, options);
        let traces = within_secs(120, move || {
            let primer = VertexSubset::single(n, 0);
            e.edge_map(&primer, |s, _d| s, |_d, _v| false, |_| true, false)
                .unwrap();
            assert_eq!(edge_sum(&e), num_edges);
            assert_eq!(edge_sum(&e), num_edges);
            assert_eq!(e.arena().idle_len(), 2, "pool came back intact");
            e.take_traces()
        });
        let primed = traces[0].cache_miss_pages;
        assert!(primed > 0);
        assert_eq!(traces[1].cache_hit_pages, primed, "primed pages hit");
        assert!(traces[1].cache_miss_pages > 0, "the rest is read");
        assert_eq!(traces[1].io_max_in_flight, 2, "window = the pool's share");
        assert_eq!(traces[2].total_io_bytes(), 0, "all frame batches");
    }
}
