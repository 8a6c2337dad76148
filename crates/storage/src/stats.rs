//! Per-device IO accounting.

use blaze_sync::atomic::{AtomicU64, Ordering};

use blaze_types::{
    CachePadded, Fold, JobCounter, JobCounters, LATENCY_BUCKETS, LATENCY_BUCKET_UPPER_NS,
};

use crate::request::IoRequest;

/// Adds to a statistics cell.
fn add(cell: &AtomicU64, value: u64) {
    // sync-audit: Relaxed — every atomic in this module is a monotonic
    // statistic that publishes no other memory: a reader runs after the
    // writers have been joined (a job's counters are read once its roles
    // have finished), or tolerates a slightly stale device total, so only
    // per-operation atomicity matters. `load`, the `fetch_max` of
    // `JobIoStats::record`, the cursor swap of `record_submit` and
    // `IoStats::reset` rest on the same argument.
    cell.fetch_add(value, Ordering::Relaxed);
}

/// Reads a statistics cell.
fn load(cell: &AtomicU64) -> u64 {
    cell.load(Ordering::Relaxed) // sync-audit: statistics cell; see `add`.
}

/// Thread-safe IO counters attached to every device: lifetime totals over
/// every job that reads it. `busy_ns` is only populated by [`SimDevice`]
/// and holds the modeled device service time in nanoseconds.
///
/// [`SimDevice`]: crate::SimDevice
#[derive(Debug, Default)]
pub struct IoStats {
    read_ops: AtomicU64,
    read_bytes: AtomicU64,
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
        add(&self.read_ops, 1);
        add(&self.read_bytes, bytes);
        if sequential {
            add(&self.sequential_reads, 1);
        }
    }

    /// Counts one read as sequential, for callers that classify a request
    /// before they know its outcome ([`JobIoStats::record_submit`]).
    pub fn record_sequential_read(&self) {
        add(&self.sequential_reads, 1);
    }

    /// Adds modeled device busy time.
    pub fn add_busy_ns(&self, ns: u64) {
        add(&self.busy_ns, ns);
    }

    /// Number of read requests served.
    pub fn read_ops(&self) -> u64 {
        load(&self.read_ops)
    }

    /// Bytes read.
    pub fn read_bytes(&self) -> u64 {
        load(&self.read_bytes)
    }

    /// Read requests that continued the previous request's offset.
    pub fn sequential_reads(&self) -> u64 {
        load(&self.sequential_reads)
    }

    /// Modeled device busy time in nanoseconds (zero for functional devices).
    pub fn busy_ns(&self) -> u64 {
        load(&self.busy_ns)
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
        for cell in [
            &self.read_ops,
            &self.read_bytes,
            &self.sequential_reads,
            &self.busy_ns,
        ] {
            cell.store(0, Ordering::Relaxed); // sync-audit: statistics cell; see `add`.
        }
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            read_ops: self.read_ops(),
            read_bytes: self.read_bytes(),
            sequential_reads: self.sequential_reads(),
            busy_ns: self.busy_ns(),
        }
    }
}

/// Bucket index for a request that took `ns` nanoseconds.
fn latency_bucket(ns: u64) -> usize {
    LATENCY_BUCKET_UPPER_NS
        .iter()
        .position(|&upper| ns < upper)
        .unwrap_or(LATENCY_BUCKETS - 1)
}

/// One slot per entry of `blaze_types::job_counter_table!`.
type CounterSlots = [AtomicU64; JobCounter::COUNT];

fn counter_slots() -> CounterSlots {
    std::array::from_fn(|_| AtomicU64::new(0))
}

/// Whose slots a [`JobIoStats::record`] call writes. Workers of different
/// rows never share a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsRow {
    /// The IO worker of this device.
    Device(usize),
    /// The job's scatter and gather workers.
    Compute,
}

/// Per-device counters of one job, cache-padded so the per-device IO
/// workers never share a line.
#[derive(Debug)]
struct JobDeviceStats {
    stats: IoStats,
    /// Local page index where the next sequential read would start;
    /// `u64::MAX` before the first read.
    next_local: AtomicU64,
    /// What this device's IO worker recorded of the table counters.
    counters: CounterSlots,
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
/// `JobIoStats`, fed by the job's workers alongside the device counters,
/// and the iteration trace is built from these instead of device deltas.
///
/// The scalar counters are the entries of `blaze_types::job_counter_table!`:
/// [`record`](Self::record) writes one, [`totals`](Self::totals) reads them
/// all. What does more than add a number to a slot has its own method.
#[derive(Debug)]
pub struct JobIoStats {
    devices: Vec<CachePadded<JobDeviceStats>>,
    /// The row the scatter and gather workers record into, padded away from
    /// the per-device rows.
    compute: CachePadded<CounterSlots>,
}

impl JobIoStats {
    /// Zeroed counters for `num_devices` devices.
    pub fn new(num_devices: usize) -> Self {
        Self {
            compute: CachePadded::new(counter_slots()),
            devices: (0..num_devices)
                .map(|_| {
                    CachePadded::new(JobDeviceStats {
                        stats: IoStats::new(),
                        next_local: AtomicU64::new(u64::MAX),
                        counters: counter_slots(),
                        latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                    })
                })
                .collect(),
        }
    }

    /// Folds `value` into `row`'s `counter`: added to it, or its new maximum,
    /// as the table says. Call it once per batch, request or role, never per
    /// edge or per record.
    pub fn record(&self, row: StatsRow, counter: JobCounter, value: u64) {
        let slots = match row {
            StatsRow::Compute => &*self.compute,
            StatsRow::Device(device) => &self.devices[device].counters,
        };
        let cell = &slots[counter as usize];
        match counter.fold() {
            Fold::Sum => add(cell, value),
            Fold::Max => {
                cell.fetch_max(value, Ordering::Relaxed); // sync-audit: statistics cell; see `add`.
            }
        }
    }

    /// Every table counter folded over all rows. Only authoritative once
    /// the job's roles have finished.
    pub fn totals(&self) -> JobCounters {
        let rows = self.devices.iter().map(|d| &d.counters);
        let mut totals = JobCounters::default();
        for row in rows.chain([&*self.compute]) {
            totals.merge(&JobCounters::from_fn(|c| load(&row[c as usize])));
        }
        totals
    }

    /// Records the submission of `request` to the IO backend with
    /// `in_flight` requests outstanding on `device` (including this one).
    /// Sequentiality is decided here, in submission order: which of several
    /// in-flight requests completes first is scheduling, not access
    /// pattern.
    pub fn record_submit(&self, device: usize, request: IoRequest, in_flight: u64) {
        let dev = &self.devices[device];
        // sync-audit: statistics cell; see `add`.
        if dev.next_local.swap(request.end_page(), Ordering::Relaxed) == request.first_page {
            dev.stats.record_sequential_read();
        }
        let row = StatsRow::Device(device);
        self.record(row, JobCounter::IoSubmits, 1);
        self.record(row, JobCounter::IoInFlightSum, in_flight);
        self.record(row, JobCounter::IoMaxInFlight, in_flight);
    }

    /// Records the successful completion of `request` on `device`. Bytes
    /// and requests are counted here so a failed read adds none.
    pub fn record_read(&self, device: usize, request: IoRequest) {
        self.devices[device]
            .stats
            .record_read(request.len_bytes() as u64, false);
    }

    /// Records the service time of one reaped completion on `device`.
    pub fn record_latency(&self, device: usize, service_ns: u64) {
        add(
            &self.devices[device].latency_buckets[latency_bucket(service_ns)],
            1,
        );
    }

    /// Per-request latency histogram summed across devices.
    pub fn latency_histogram(&self) -> [u64; LATENCY_BUCKETS] {
        let mut out = [0u64; LATENCY_BUCKETS];
        for dev in &self.devices {
            for (slot, bucket) in out.iter_mut().zip(&dev.latency_buckets) {
                *slot += load(bucket);
            }
        }
        out
    }

    /// Per-device snapshots, for building an iteration trace. Only
    /// authoritative once the job's IO roles have finished.
    pub fn snapshots(&self) -> Vec<IoStatsSnapshot> {
        self.devices.iter().map(|d| d.stats.snapshot()).collect()
    }
}

/// A plain-data copy of [`IoStats`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    pub read_ops: u64,
    pub read_bytes: u64,
    pub sequential_reads: u64,
    pub busy_ns: u64,
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
        assert_eq!(s.read_ops(), 2);
        assert_eq!(s.read_bytes(), 12288);
        assert_eq!(s.sequential_reads(), 1);
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
    fn depth_stats_track_max_and_mean_across_devices() {
        let j = JobIoStats::new(2);
        assert_eq!(j.totals().io_max_in_flight, 0);
        assert_eq!(j.totals().io_mean_in_flight(), 0.0);
        j.record_submit(0, req(0, 1), 1);
        j.record_submit(0, req(1, 1), 2);
        j.record_submit(0, req(2, 1), 3);
        j.record_submit(1, req(0, 1), 2);
        let totals = j.totals();
        let mean = totals.io_mean_in_flight();
        assert_eq!(totals.io_max_in_flight, 3);
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
