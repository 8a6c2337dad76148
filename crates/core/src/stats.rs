//! Execution statistics and work-trace recording.

use blaze_storage::stats::IoStatsSnapshot;
use blaze_storage::{JobIoStats, StripedStorage};
use blaze_types::IterationTrace;

/// Cumulative statistics of a query execution on the functional engine.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Number of `edge_map` iterations executed.
    pub iterations: usize,
    /// Total edges examined by scatter.
    pub edges_processed: u64,
    /// Total bin records produced.
    pub records_produced: u64,
    /// Total bytes read from storage.
    pub io_bytes: u64,
    /// Total IO requests issued.
    pub io_requests: u64,
    /// Wall time spent inside `edge_map`, nanoseconds (real, machine-local —
    /// shape comparisons use the performance model instead).
    pub wall_ns: u64,
    /// Pages served from the clock page cache (no device IO).
    pub cache_hit_pages: u64,
    /// Pages that missed the cache and were read from the devices. Zero
    /// when the cache is disabled (misses are only counted on the cached
    /// IO path).
    pub cache_miss_pages: u64,
    /// Resident pages evicted from the cache to make room for fills.
    pub cache_evictions: u64,
    /// Cache hits that fell in the graph's hot (hub) page region.
    pub cache_hot_hit_pages: u64,
    /// Fills admitted with a hot-region second-chance credit.
    pub cache_hot_admits: u64,
    /// Pages received from other jobs' device reads via the scan-sharing
    /// flight table (no device IO charged to this query).
    pub shared_hit_pages: u64,
    /// Bytes corresponding to `shared_hit_pages`.
    pub shared_bytes: u64,
    /// Scan-sharing flights this query's jobs led.
    pub flights_led: u64,
    /// Maximum per-device in-flight IO depth observed across all
    /// iterations (1 under the synchronous backend; 0 when no IO was
    /// issued).
    pub io_max_in_flight: u64,
    /// Sum over all IO requests of the in-flight depth at their submission
    /// (see [`io_mean_in_flight`](Self::io_mean_in_flight)).
    pub io_in_flight_sum: f64,
    /// Per-request device service-time histogram over all iterations
    /// (log-scale buckets, `blaze_storage::stats::LATENCY_BUCKETS`).
    pub io_latency_buckets: Vec<u64>,
    /// Nanoseconds scatter workers spent decoding pages and staging
    /// records, summed across workers and iterations.
    pub scatter_ns: u64,
    /// Nanoseconds gather workers spent applying full bins, summed across
    /// workers and iterations (zero for the sync variant).
    pub gather_ns: u64,
    /// Nanoseconds scatter workers spent idle waiting for filled buffers.
    pub io_wait_ns: u64,
}

impl ExecStats {
    /// Mean per-device in-flight depth over all IO requests, sampled at
    /// each submission: 1.0 when every read was issued alone, up to the
    /// queue depth when the window was kept full. 0.0 without IO.
    pub fn io_mean_in_flight(&self) -> f64 {
        if self.io_requests == 0 {
            0.0
        } else {
            self.io_in_flight_sum / self.io_requests as f64
        }
    }

    /// Folds one iteration trace into the totals.
    pub fn absorb(&mut self, it: &IterationTrace, wall_ns: u64) {
        self.iterations += 1;
        self.edges_processed += it.edges_processed;
        self.records_produced += it.records_produced;
        self.io_bytes += it.total_io_bytes();
        self.io_requests += it.total_io_requests();
        self.wall_ns += wall_ns;
        self.cache_hit_pages += it.cache_hit_pages;
        self.cache_miss_pages += it.cache_miss_pages;
        self.cache_evictions += it.cache_evictions;
        self.cache_hot_hit_pages += it.cache_hot_hit_pages;
        self.cache_hot_admits += it.cache_hot_admits;
        self.shared_hit_pages += it.shared_hit_pages;
        self.shared_bytes += it.shared_bytes;
        self.flights_led += it.flights_led;
        self.io_max_in_flight = self.io_max_in_flight.max(it.io_max_in_flight);
        self.io_in_flight_sum += it.io_mean_in_flight * it.total_io_requests() as f64;
        let buckets = self
            .io_latency_buckets
            .len()
            .max(it.io_latency_buckets.len());
        self.io_latency_buckets.resize(buckets, 0);
        for (total, count) in self
            .io_latency_buckets
            .iter_mut()
            .zip(&it.io_latency_buckets)
        {
            *total += count;
        }
        self.scatter_ns += it.scatter_ns;
        self.gather_ns += it.gather_ns;
        self.io_wait_ns += it.io_wait_ns;
    }
}

/// Computes the per-device IO delta between two snapshot vectors and fills
/// the corresponding fields of `trace`.
pub fn fill_io_trace(
    trace: &mut IterationTrace,
    before: &[IoStatsSnapshot],
    after: &[IoStatsSnapshot],
) {
    debug_assert_eq!(before.len(), after.len());
    trace.io_bytes_per_device = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.read_bytes - b.read_bytes)
        .collect();
    trace.io_requests_per_device = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.read_ops - b.read_ops)
        .collect();
    trace.io_sequential_requests_per_device = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.sequential_reads - b.sequential_reads)
        .collect();
}

/// Fills `trace`'s IO fields from one job's own counters. Traces must be
/// scoped per job, not derived from device-counter deltas: once independent
/// jobs interleave on the same engine, a before/after snapshot of the
/// shared device stats would charge one job with another's IO.
pub fn fill_io_trace_from_job(trace: &mut IterationTrace, job: &JobIoStats) {
    let after = job.snapshots();
    let before = vec![IoStatsSnapshot::default(); after.len()];
    fill_io_trace(trace, &before, &after);
    let (hits, misses, evictions) = job.cache_totals();
    trace.cache_hit_pages = hits;
    trace.cache_miss_pages = misses;
    trace.cache_evictions = evictions;
    let (hot_hits, hot_admits) = job.cache_hot_totals();
    trace.cache_hot_hit_pages = hot_hits;
    trace.cache_hot_admits = hot_admits;
    let (shared_hits, flights_led) = job.shared_totals();
    trace.shared_hit_pages = shared_hits;
    trace.shared_bytes = shared_hits * blaze_types::PAGE_SIZE as u64;
    trace.flights_led = flights_led;
    let (depth_max, depth_mean) = job.depth_stats();
    trace.io_max_in_flight = depth_max;
    trace.io_mean_in_flight = depth_mean;
    trace.io_latency_buckets = job.latency_histogram();
    let (scatter_ns, gather_ns, io_wait_ns) = job.compute_totals();
    trace.scatter_ns = scatter_ns;
    trace.gather_ns = gather_ns;
    trace.io_wait_ns = io_wait_ns;
}

/// Snapshots every device's stats.
pub fn snapshot_devices(storage: &StripedStorage) -> Vec<IoStatsSnapshot> {
    storage
        .devices()
        .iter()
        .map(|d| d.stats().snapshot())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut s = ExecStats::default();
        let mut it = IterationTrace::new(2);
        it.io_bytes_per_device = vec![4096, 8192];
        it.io_requests_per_device = vec![1, 2];
        it.edges_processed = 100;
        it.records_produced = 60;
        it.cache_hit_pages = 3;
        it.cache_miss_pages = 4;
        it.cache_evictions = 1;
        it.cache_hot_hit_pages = 2;
        it.cache_hot_admits = 1;
        s.absorb(&it, 5000);
        s.absorb(&it, 5000);
        assert_eq!(s.iterations, 2);
        assert_eq!(s.io_bytes, 2 * 12288);
        assert_eq!(s.io_requests, 6);
        assert_eq!(s.edges_processed, 200);
        assert_eq!(s.wall_ns, 10_000);
        assert_eq!(s.cache_hit_pages, 6);
        assert_eq!(s.cache_miss_pages, 8);
        assert_eq!(s.cache_evictions, 2);
        assert_eq!(s.cache_hot_hit_pages, 4);
        assert_eq!(s.cache_hot_admits, 2);
    }

    #[test]
    fn absorb_weights_the_in_flight_mean_and_sums_the_histogram() {
        let mut s = ExecStats::default();
        assert_eq!(s.io_mean_in_flight(), 0.0);
        let mut inline = IterationTrace::new(1);
        inline.io_requests_per_device = vec![30];
        inline.io_mean_in_flight = 1.0;
        inline.io_latency_buckets = vec![30, 0, 0];
        let mut deep = IterationTrace::new(1);
        deep.io_requests_per_device = vec![10];
        deep.io_mean_in_flight = 5.0;
        deep.io_latency_buckets = vec![0, 4, 6];
        s.absorb(&inline, 0);
        s.absorb(&deep, 0);
        assert!((s.io_mean_in_flight() - 2.0).abs() < 1e-12);
        assert_eq!(s.io_latency_buckets, vec![30, 4, 6]);
    }

    #[test]
    fn job_trace_carries_cache_totals() {
        let j = JobIoStats::new(2);
        j.record_read(
            0,
            blaze_storage::IoRequest {
                first_page: 0,
                num_pages: 2,
            },
        );
        j.record_cache_hits(1, 5);
        j.record_cache_misses(0, 2);
        j.record_cache_evictions(0, 1);
        j.record_cache_hot_hits(1, 3);
        j.record_cache_hot_admits(0, 2);
        let mut t = IterationTrace::new(2);
        fill_io_trace_from_job(&mut t, &j);
        assert_eq!(t.cache_hit_pages, 5);
        assert_eq!(t.cache_miss_pages, 2);
        assert_eq!(t.cache_evictions, 1);
        assert_eq!(t.cache_hot_hit_pages, 3);
        assert_eq!(t.cache_hot_admits, 2);
        assert_eq!(t.total_io_bytes(), 2 * 4096);
    }

    #[test]
    fn job_trace_carries_shared_scan_totals() {
        let j = JobIoStats::new(2);
        j.record_shared_hits(0, 3);
        j.record_shared_hits(1, 4);
        j.record_flights_led(0, 2);
        let mut t = IterationTrace::new(2);
        fill_io_trace_from_job(&mut t, &j);
        assert_eq!(t.shared_hit_pages, 7);
        assert_eq!(t.shared_bytes, 7 * blaze_types::PAGE_SIZE as u64);
        assert_eq!(t.flights_led, 2);
        let mut s = ExecStats::default();
        s.absorb(&t, 0);
        s.absorb(&t, 0);
        assert_eq!(s.shared_hit_pages, 14);
        assert_eq!(s.shared_bytes, 14 * blaze_types::PAGE_SIZE as u64);
        assert_eq!(s.flights_led, 4);
    }

    #[test]
    fn job_trace_carries_compute_stage_totals() {
        let j = JobIoStats::new(1);
        j.add_scatter_ns(100);
        j.add_gather_ns(50);
        j.add_io_wait_ns(25);
        let mut t = IterationTrace::new(1);
        fill_io_trace_from_job(&mut t, &j);
        assert_eq!(t.scatter_ns, 100);
        assert_eq!(t.gather_ns, 50);
        assert_eq!(t.io_wait_ns, 25);
        let mut s = ExecStats::default();
        s.absorb(&t, 0);
        s.absorb(&t, 0);
        assert_eq!(s.scatter_ns, 200);
        assert_eq!(s.gather_ns, 100);
        assert_eq!(s.io_wait_ns, 50);
    }

    #[test]
    fn io_trace_is_the_snapshot_delta() {
        let mut before = vec![IoStatsSnapshot::default(); 2];
        before[0].read_bytes = 100;
        before[0].read_ops = 1;
        let mut after = before.clone();
        after[0].read_bytes = 4196;
        after[0].read_ops = 2;
        after[1].read_bytes = 8192;
        after[1].read_ops = 2;
        after[1].sequential_reads = 1;
        let mut t = IterationTrace::new(2);
        fill_io_trace(&mut t, &before, &after);
        assert_eq!(t.io_bytes_per_device, vec![4096, 8192]);
        assert_eq!(t.io_requests_per_device, vec![1, 2]);
        assert_eq!(t.io_sequential_requests_per_device, vec![0, 1]);
    }
}
