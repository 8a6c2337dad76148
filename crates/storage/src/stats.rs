//! Per-device IO accounting.

use blaze_sync::atomic::{AtomicU64, Ordering};

use blaze_types::CachePadded;

use crate::request::IoRequest;

/// Thread-safe IO counters attached to every device.
///
/// All counters use relaxed atomics: they are statistics, not
/// synchronization. `busy_ns` is only populated by [`SimDevice`] and holds
/// the modeled device service time in nanoseconds.
///
/// [`SimDevice`]: crate::SimDevice
#[derive(Debug, Default)]
pub struct IoStats {
    read_ops: AtomicU64,
    read_bytes: AtomicU64,
    write_ops: AtomicU64,
    write_bytes: AtomicU64,
    sequential_reads: AtomicU64,
    busy_ns: AtomicU64,
}

impl IoStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one read of `bytes`; `sequential` marks whether the request
    /// started exactly where the previous one ended.
    pub fn record_read(&self, bytes: u64, sequential: bool) {
        // sync-audit: Relaxed — monotonic statistics counters; readers are
        // either post-join or tolerate a slightly stale snapshot, so only
        // per-op atomicity matters (each line below, and the other counter
        // methods of this impl, inherit this argument).
        self.read_ops.fetch_add(1, Ordering::Relaxed); // sync-audit: see above.
        self.read_bytes.fetch_add(bytes, Ordering::Relaxed); // sync-audit: stats counter; see record_read.
        if sequential {
            self.sequential_reads.fetch_add(1, Ordering::Relaxed); // sync-audit: stats counter; see record_read.
        }
    }

    /// Counts one read as sequential, for callers that classify a request
    /// before they know its outcome ([`JobIoStats::record_submit`]).
    pub fn record_sequential_read(&self) {
        self.sequential_reads.fetch_add(1, Ordering::Relaxed); // sync-audit: stats counter; see record_read.
    }

    /// Records one write of `bytes`.
    pub fn record_write(&self, bytes: u64) {
        self.write_ops.fetch_add(1, Ordering::Relaxed); // sync-audit: stats counter; see record_read.
        self.write_bytes.fetch_add(bytes, Ordering::Relaxed); // sync-audit: stats counter; see record_read.
    }

    /// Adds modeled device busy time.
    pub fn add_busy_ns(&self, ns: u64) {
        self.busy_ns.fetch_add(ns, Ordering::Relaxed); // sync-audit: stats counter; see record_read.
    }

    /// Number of read requests served.
    pub fn read_ops(&self) -> u64 {
        self.read_ops.load(Ordering::Relaxed) // sync-audit: stats counter; see record_read.
    }

    /// Bytes read.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes.load(Ordering::Relaxed) // sync-audit: stats counter; see record_read.
    }

    /// Number of write requests served.
    pub fn write_ops(&self) -> u64 {
        self.write_ops.load(Ordering::Relaxed) // sync-audit: stats counter; see record_read.
    }

    /// Bytes written.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes.load(Ordering::Relaxed) // sync-audit: stats counter; see record_read.
    }

    /// Read requests that continued the previous request's offset.
    pub fn sequential_reads(&self) -> u64 {
        self.sequential_reads.load(Ordering::Relaxed) // sync-audit: stats counter; see record_read.
    }

    /// Modeled device busy time in nanoseconds (zero for functional devices).
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed) // sync-audit: stats counter; see record_read.
    }

    /// Modeled average read bandwidth in bytes/second over the busy period.
    /// Returns `None` when no busy time has been recorded.
    pub fn modeled_read_bandwidth(&self) -> Option<f64> {
        let ns = self.busy_ns();
        if ns == 0 {
            return None;
        }
        Some(self.read_bytes() as f64 / (ns as f64 / 1e9))
    }

    /// Resets every counter to zero. Used between bench phases.
    pub fn reset(&self) {
        self.read_ops.store(0, Ordering::Relaxed); // sync-audit: stats counter; see record_read.
        self.read_bytes.store(0, Ordering::Relaxed); // sync-audit: stats counter; see record_read.
        self.write_ops.store(0, Ordering::Relaxed); // sync-audit: stats counter; see record_read.
        self.write_bytes.store(0, Ordering::Relaxed); // sync-audit: stats counter; see record_read.
        self.sequential_reads.store(0, Ordering::Relaxed); // sync-audit: stats counter; see record_read.
        self.busy_ns.store(0, Ordering::Relaxed); // sync-audit: stats counter; see record_read.
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            read_ops: self.read_ops(),
            read_bytes: self.read_bytes(),
            write_ops: self.write_ops(),
            write_bytes: self.write_bytes(),
            sequential_reads: self.sequential_reads(),
            busy_ns: self.busy_ns(),
        }
    }
}

/// Number of log-scale per-request latency buckets tracked per job.
/// Bucket `i` counts requests with service time in `[4^i, 4^(i+1))`
/// microseconds (bucket 0 additionally absorbs sub-microsecond requests,
/// the last bucket absorbs everything ≥ ~16 ms).
pub const LATENCY_BUCKETS: usize = 8;

/// Exclusive upper bound of every latency bucket but the last, which is
/// open, in nanoseconds.
pub const LATENCY_BUCKET_UPPER_NS: [u64; LATENCY_BUCKETS - 1] = {
    let mut bounds = [0; LATENCY_BUCKETS - 1];
    let mut bucket = 0;
    while bucket < bounds.len() {
        bounds[bucket] = 4_000 << (2 * bucket);
        bucket += 1;
    }
    bounds
};

/// Bucket index for a request that took `ns` nanoseconds.
fn latency_bucket(ns: u64) -> usize {
    LATENCY_BUCKET_UPPER_NS
        .iter()
        .position(|&upper| ns < upper)
        .unwrap_or(LATENCY_BUCKETS - 1)
}

/// Per-device counters of one job, cache-padded so the per-device IO
/// workers never share a line.
#[derive(Debug)]
struct JobDeviceStats {
    stats: IoStats,
    /// Local page index where the next sequential read would start;
    /// `u64::MAX` before the first read.
    next_local: AtomicU64,
    /// Pages this job's IO role served from the page cache (no device IO).
    cache_hit_pages: AtomicU64,
    /// Pages that missed the cache and were fetched from the device.
    cache_miss_pages: AtomicU64,
    /// Resident pages the cache evicted while absorbing this job's fills.
    cache_evictions: AtomicU64,
    /// Cache-hit pages that lie in the graph's hot (hub) page region.
    cache_hot_hit_pages: AtomicU64,
    /// Fills the cache admitted with a hot-region second-chance credit.
    cache_hot_admit_pages: AtomicU64,
    /// Pages this job received from another job's flight (scan sharing)
    /// instead of its own device read.
    shared_hit_pages: AtomicU64,
    /// Flights this job led: device reads it performed whose frames were
    /// published for concurrent and trailing subscribers.
    flights_led: AtomicU64,
    /// Requests submitted to the IO backend by this job.
    submits: AtomicU64,
    /// Sum over submits of the in-flight depth at submission time, for the
    /// mean in-flight depth of the trace.
    depth_sum: AtomicU64,
    /// Maximum in-flight depth observed at any submission.
    depth_max: AtomicU64,
    /// Per-request service-time histogram (log-scale, [`LATENCY_BUCKETS`]).
    latency_buckets: [AtomicU64; LATENCY_BUCKETS],
}

/// Per-*job* IO accounting, scoped to one pipeline submission.
///
/// The device-global [`IoStats`] keep accumulating across every job that
/// touches a device, which is right for lifetime totals but wrong for
/// per-iteration traces once independent jobs interleave on the same
/// engine: a before/after snapshot of the device counters would charge one
/// job with another job's IO. Each pipeline job therefore carries its own
/// `JobIoStats`, fed by the job's IO role alongside the device counters,
/// and the iteration trace is built from these instead of device deltas.
#[derive(Debug)]
pub struct JobIoStats {
    devices: Vec<CachePadded<JobDeviceStats>>,
    /// Compute-side per-stage totals, padded away from the device counters.
    compute: CachePadded<JobComputeStats>,
}

/// Job-wide compute-stage counters, accumulated by the scatter and gather
/// workers of one pipeline submission.
#[derive(Debug, Default)]
struct JobComputeStats {
    /// Nanoseconds scatter workers spent decoding pages and staging records.
    scatter_ns: AtomicU64,
    /// Nanoseconds gather workers spent applying full bins.
    gather_ns: AtomicU64,
    /// Nanoseconds scatter workers spent idle waiting for filled buffers.
    io_wait_ns: AtomicU64,
}

impl JobIoStats {
    /// Zeroed counters for `num_devices` devices.
    pub fn new(num_devices: usize) -> Self {
        Self {
            compute: CachePadded::new(JobComputeStats::default()),
            devices: (0..num_devices)
                .map(|_| {
                    CachePadded::new(JobDeviceStats {
                        stats: IoStats::new(),
                        next_local: AtomicU64::new(u64::MAX),
                        cache_hit_pages: AtomicU64::new(0),
                        cache_miss_pages: AtomicU64::new(0),
                        cache_evictions: AtomicU64::new(0),
                        cache_hot_hit_pages: AtomicU64::new(0),
                        cache_hot_admit_pages: AtomicU64::new(0),
                        shared_hit_pages: AtomicU64::new(0),
                        flights_led: AtomicU64::new(0),
                        submits: AtomicU64::new(0),
                        depth_sum: AtomicU64::new(0),
                        depth_max: AtomicU64::new(0),
                        latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                    })
                })
                .collect(),
        }
    }

    /// Number of devices tracked.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Records the submission of `request` to the IO backend with
    /// `in_flight` requests outstanding on `device` (including this one).
    /// Sequentiality is decided here, in submission order: which of several
    /// in-flight requests completes first is scheduling, not access
    /// pattern.
    pub fn record_submit(&self, device: usize, request: IoRequest, in_flight: u64) {
        // sync-audit: Relaxed — per-job statistics written by the one IO
        // worker pumping this device and read only after the job's roles
        // have finished; no cross-thread ordering is needed (the cursor
        // swap, record_latency and the readers below inherit this
        // argument).
        let dev = &self.devices[device];
        if dev.next_local.swap(request.end_page(), Ordering::Relaxed) == request.first_page {
            dev.stats.record_sequential_read();
        }
        dev.submits.fetch_add(1, Ordering::Relaxed); // sync-audit: see record_submit.
        dev.depth_sum.fetch_add(in_flight, Ordering::Relaxed); // sync-audit: see record_submit.
        dev.depth_max.fetch_max(in_flight, Ordering::Relaxed); // sync-audit: see record_submit.
    }

    /// Records the successful completion of `request` on `device`. Bytes
    /// and requests are counted here so a failed read adds none.
    pub fn record_read(&self, device: usize, request: IoRequest) {
        self.devices[device]
            .stats
            .record_read(request.len_bytes() as u64, false);
    }

    /// Adds modeled device busy time for `device`.
    pub fn add_busy_ns(&self, device: usize, ns: u64) {
        self.devices[device].stats.add_busy_ns(ns);
    }

    /// Records the service time of one reaped completion on `device`.
    pub fn record_latency(&self, device: usize, service_ns: u64) {
        self.devices[device].latency_buckets[latency_bucket(service_ns)]
            .fetch_add(1, Ordering::Relaxed); // sync-audit: see record_submit.
    }

    /// `(max, mean)` in-flight depth across all devices' submissions. The
    /// mean is over submissions, not time. `(0, 0.0)` before any submit.
    pub fn depth_stats(&self) -> (u64, f64) {
        let mut max = 0u64;
        let mut sum = 0u64;
        let mut submits = 0u64;
        for dev in &self.devices {
            max = max.max(dev.depth_max.load(Ordering::Relaxed)); // sync-audit: see record_submit.
            sum += dev.depth_sum.load(Ordering::Relaxed); // sync-audit: see record_submit.
            submits += dev.submits.load(Ordering::Relaxed); // sync-audit: see record_submit.
        }
        if submits == 0 {
            (0, 0.0)
        } else {
            (max, sum as f64 / submits as f64)
        }
    }

    /// Per-request latency histogram summed across devices
    /// ([`LATENCY_BUCKETS`] log-scale buckets).
    pub fn latency_histogram(&self) -> Vec<u64> {
        let mut out = vec![0u64; LATENCY_BUCKETS];
        for dev in &self.devices {
            for (slot, bucket) in out.iter_mut().zip(dev.latency_buckets.iter()) {
                *slot += bucket.load(Ordering::Relaxed); // sync-audit: see record_submit.
            }
        }
        out
    }

    /// Records `pages` page-cache hits attributed to `device`'s IO role.
    pub fn record_cache_hits(&self, device: usize, pages: u64) {
        // sync-audit: Relaxed — the three cache counters are monotonic
        // per-job statistics written by one IO worker per device and read
        // only after the job's roles have finished; no ordering with other
        // memory is required (the methods below inherit this argument).
        self.devices[device]
            .cache_hit_pages
            .fetch_add(pages, Ordering::Relaxed); // sync-audit: see record_cache_hits.
    }

    /// Records `pages` page-cache misses attributed to `device`'s IO role.
    pub fn record_cache_misses(&self, device: usize, pages: u64) {
        self.devices[device]
            .cache_miss_pages
            .fetch_add(pages, Ordering::Relaxed); // sync-audit: see record_cache_hits.
    }

    /// Records `pages` cache evictions caused by `device`'s fills.
    pub fn record_cache_evictions(&self, device: usize, pages: u64) {
        self.devices[device]
            .cache_evictions
            .fetch_add(pages, Ordering::Relaxed); // sync-audit: see record_cache_hits.
    }

    /// Records `pages` cache hits that fell in the hot page region.
    pub fn record_cache_hot_hits(&self, device: usize, pages: u64) {
        self.devices[device]
            .cache_hot_hit_pages
            .fetch_add(pages, Ordering::Relaxed); // sync-audit: see record_cache_hits.
    }

    /// Records `pages` fills admitted with a hot-region credit.
    pub fn record_cache_hot_admits(&self, device: usize, pages: u64) {
        self.devices[device]
            .cache_hot_admit_pages
            .fetch_add(pages, Ordering::Relaxed); // sync-audit: see record_cache_hits.
    }

    /// Records `pages` served to `device`'s IO role by another job's
    /// flight (scan sharing) instead of a device read of its own.
    pub fn record_shared_hits(&self, device: usize, pages: u64) {
        self.devices[device]
            .shared_hit_pages
            .fetch_add(pages, Ordering::Relaxed); // sync-audit: see record_cache_hits.
    }

    /// Records `flights` scan-sharing flights led by `device`'s IO role.
    pub fn record_flights_led(&self, device: usize, flights: u64) {
        self.devices[device]
            .flights_led
            .fetch_add(flights, Ordering::Relaxed); // sync-audit: see record_cache_hits.
    }

    /// `(shared_hit_pages, flights_led)` scan-sharing totals across all
    /// devices. Only authoritative once the job's IO roles have finished.
    pub fn shared_totals(&self) -> (u64, u64) {
        let mut totals = (0, 0);
        for dev in &self.devices {
            totals.0 += dev.shared_hit_pages.load(Ordering::Relaxed); // sync-audit: see record_cache_hits.
            totals.1 += dev.flights_led.load(Ordering::Relaxed); // sync-audit: see record_cache_hits.
        }
        totals
    }

    /// `(hits, misses, evictions)` page totals across all devices. Only
    /// authoritative once the job's IO roles have finished.
    pub fn cache_totals(&self) -> (u64, u64, u64) {
        let mut totals = (0, 0, 0);
        for dev in &self.devices {
            totals.0 += dev.cache_hit_pages.load(Ordering::Relaxed); // sync-audit: see record_cache_hits.
            totals.1 += dev.cache_miss_pages.load(Ordering::Relaxed); // sync-audit: see record_cache_hits.
            totals.2 += dev.cache_evictions.load(Ordering::Relaxed); // sync-audit: see record_cache_hits.
        }
        totals
    }

    /// `(hot_hits, hot_admits)` page totals across all devices. Only
    /// authoritative once the job's IO roles have finished.
    pub fn cache_hot_totals(&self) -> (u64, u64) {
        let mut totals = (0, 0);
        for dev in &self.devices {
            totals.0 += dev.cache_hot_hit_pages.load(Ordering::Relaxed); // sync-audit: see record_cache_hits.
            totals.1 += dev.cache_hot_admit_pages.load(Ordering::Relaxed); // sync-audit: see record_cache_hits.
        }
        totals
    }

    /// Per-device snapshots, for building an iteration trace. Only
    /// authoritative once the job's IO roles have finished.
    pub fn snapshots(&self) -> Vec<IoStatsSnapshot> {
        self.devices.iter().map(|d| d.stats.snapshot()).collect()
    }

    /// Adds time one scatter worker spent decoding pages and staging.
    pub fn add_scatter_ns(&self, ns: u64) {
        // sync-audit: Relaxed — per-stage compute totals are monotonic
        // statistics written by the job's compute workers and read only
        // after the job completes; no cross-thread ordering is needed (the
        // other compute-stage methods inherit this argument).
        self.compute.scatter_ns.fetch_add(ns, Ordering::Relaxed); // sync-audit: see add_scatter_ns.
    }

    /// Adds time one gather worker spent applying full bins.
    pub fn add_gather_ns(&self, ns: u64) {
        self.compute.gather_ns.fetch_add(ns, Ordering::Relaxed); // sync-audit: see add_scatter_ns.
    }

    /// Adds time one scatter worker spent idle waiting for filled buffers.
    pub fn add_io_wait_ns(&self, ns: u64) {
        self.compute.io_wait_ns.fetch_add(ns, Ordering::Relaxed); // sync-audit: see add_scatter_ns.
    }

    /// `(scatter_ns, gather_ns, io_wait_ns)` totals. Only authoritative
    /// once the job's compute roles have finished.
    pub fn compute_totals(&self) -> (u64, u64, u64) {
        (
            self.compute.scatter_ns.load(Ordering::Relaxed), // sync-audit: see add_scatter_ns.
            self.compute.gather_ns.load(Ordering::Relaxed),  // sync-audit: see add_scatter_ns.
            self.compute.io_wait_ns.load(Ordering::Relaxed), // sync-audit: see add_scatter_ns.
        )
    }
}

/// A plain-data copy of [`IoStats`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    pub read_ops: u64,
    pub read_bytes: u64,
    pub write_ops: u64,
    pub write_bytes: u64,
    pub sequential_reads: u64,
    pub busy_ns: u64,
}

impl IoStatsSnapshot {
    /// Difference between two snapshots (`self` taken after `earlier`).
    pub fn since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            read_ops: self.read_ops - earlier.read_ops,
            read_bytes: self.read_bytes - earlier.read_bytes,
            write_ops: self.write_ops - earlier.write_ops,
            write_bytes: self.write_bytes - earlier.write_bytes,
            sequential_reads: self.sequential_reads - earlier.sequential_reads,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_types::PAGE_SIZE;

    fn req(first_page: u64, num_pages: u32) -> IoRequest {
        IoRequest {
            first_page,
            num_pages,
        }
    }

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.record_read(4096, true);
        s.record_read(8192, false);
        s.record_write(4096);
        assert_eq!(s.read_ops(), 2);
        assert_eq!(s.read_bytes(), 12288);
        assert_eq!(s.sequential_reads(), 1);
        assert_eq!(s.write_ops(), 1);
        assert_eq!(s.write_bytes(), 4096);
    }

    #[test]
    fn bandwidth_requires_busy_time() {
        let s = IoStats::new();
        s.record_read(1 << 20, false);
        assert!(s.modeled_read_bandwidth().is_none());
        s.add_busy_ns(1_000_000_000);
        let bw = s.modeled_read_bandwidth().unwrap();
        assert!((bw - (1 << 20) as f64).abs() < 1.0);
    }

    #[test]
    fn reset_clears_everything() {
        let s = IoStats::new();
        s.record_read(4096, true);
        s.add_busy_ns(5);
        s.reset();
        assert_eq!(s.snapshot(), IoStatsSnapshot::default());
    }

    #[test]
    fn snapshot_diff() {
        let s = IoStats::new();
        s.record_read(4096, false);
        let a = s.snapshot();
        s.record_read(4096, true);
        s.record_read(4096, true);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.read_ops, 2);
        assert_eq!(d.read_bytes, 8192);
        assert_eq!(d.sequential_reads, 2);
    }

    #[test]
    fn job_stats_track_sequential_runs_per_device() {
        let j = JobIoStats::new(2);
        // Device 0: two back-to-back runs, then a seek. All three are in
        // flight before the first completes, and they complete backwards.
        j.record_submit(0, req(0, 4), 1);
        j.record_submit(0, req(4, 2), 2);
        j.record_submit(0, req(100, 1), 3);
        j.record_read(0, req(100, 1));
        j.record_read(0, req(4, 2));
        j.record_read(0, req(0, 4));
        // Device 1: first read is never sequential.
        j.record_submit(1, req(0, 8), 1);
        j.record_read(1, req(0, 8));
        let snaps = j.snapshots();
        assert_eq!(snaps[0].read_ops, 3);
        assert_eq!(snaps[0].read_bytes, 7 * PAGE_SIZE as u64);
        assert_eq!(snaps[0].sequential_reads, 1);
        assert_eq!(snaps[1].read_ops, 1);
        assert_eq!(snaps[1].sequential_reads, 0);
    }

    #[test]
    fn job_cache_counters_total_across_devices() {
        let j = JobIoStats::new(3);
        j.record_cache_hits(0, 5);
        j.record_cache_hits(2, 7);
        j.record_cache_misses(1, 11);
        j.record_cache_evictions(1, 2);
        j.record_cache_evictions(2, 3);
        assert_eq!(j.cache_totals(), (12, 11, 5));
        assert_eq!(j.cache_hot_totals(), (0, 0));
        j.record_cache_hot_hits(0, 4);
        j.record_cache_hot_hits(1, 1);
        j.record_cache_hot_admits(2, 6);
        assert_eq!(j.cache_hot_totals(), (5, 6));
        assert_eq!(j.cache_totals(), (12, 11, 5), "hot counters are separate");
    }

    #[test]
    fn shared_scan_counters_total_across_devices() {
        let j = JobIoStats::new(2);
        assert_eq!(j.shared_totals(), (0, 0));
        j.record_shared_hits(0, 8);
        j.record_shared_hits(1, 4);
        j.record_flights_led(0, 3);
        assert_eq!(j.shared_totals(), (12, 3));
        assert_eq!(j.cache_totals(), (0, 0, 0), "shared counters are separate");
    }

    #[test]
    fn depth_stats_track_max_and_mean_across_devices() {
        let j = JobIoStats::new(2);
        assert_eq!(j.depth_stats(), (0, 0.0));
        j.record_submit(0, req(0, 1), 1);
        j.record_submit(0, req(1, 1), 2);
        j.record_submit(0, req(2, 1), 3);
        j.record_submit(1, req(0, 1), 2);
        let (max, mean) = j.depth_stats();
        assert_eq!(max, 3);
        assert!((mean - 2.0).abs() < 1e-12, "mean {mean}");
    }

    #[test]
    fn latency_buckets_are_log_scale() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(3_999), 0);
        assert_eq!(latency_bucket(4_000), 1);
        assert_eq!(latency_bucket(15_999), 1);
        assert_eq!(latency_bucket(16_000), 2);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
        let j = JobIoStats::new(2);
        j.record_latency(0, 100); // bucket 0
        j.record_latency(0, 10_000); // bucket 1
        j.record_latency(1, 10_000); // bucket 1
        j.record_latency(1, 100_000); // bucket 3
        let hist = j.latency_histogram();
        assert_eq!(hist.len(), LATENCY_BUCKETS);
        assert_eq!(hist[0], 1);
        assert_eq!(hist[1], 2);
        assert_eq!(hist[3], 1);
        assert_eq!(hist.iter().sum::<u64>(), 4);
    }

    #[test]
    fn compute_stage_totals_accumulate() {
        let j = JobIoStats::new(1);
        assert_eq!(j.compute_totals(), (0, 0, 0));
        j.add_scatter_ns(10);
        j.add_scatter_ns(5);
        j.add_gather_ns(7);
        j.add_io_wait_ns(3);
        assert_eq!(j.compute_totals(), (15, 7, 3));
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let s = blaze_sync::Arc::new(IoStats::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.record_read(4096, false);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.read_ops(), 4000);
        assert_eq!(s.read_bytes(), 4000 * 4096);
    }
}
