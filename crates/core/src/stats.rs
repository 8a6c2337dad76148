//! Execution statistics and work-trace recording.

use blaze_storage::stats::IoStatsSnapshot;
use blaze_storage::{JobIoStats, StripedStorage};
use blaze_types::{IterationTrace, LATENCY_BUCKETS};

blaze_types::job_counter_table! { blaze_types::struct_with_job_counters, {
    /// Cumulative statistics of a query execution on the functional engine.
    /// The table counters of `blaze_types::job_counter_table!`, folded over
    /// all iterations, follow the fields written out here.
    #[derive(Debug, Clone, Default)]
    pub struct ExecStats {
        /// Number of `edge_map` iterations executed.
        pub iterations: usize,
        /// Total bytes read from storage.
        pub io_bytes: u64,
        /// Total IO requests issued.
        pub io_requests: u64,
        /// Wall time spent inside `edge_map`, nanoseconds (real,
        /// machine-local — shape comparisons use the performance model
        /// instead).
        pub wall_ns: u64,
        /// Per-request device service-time histogram over all iterations
        /// (log-scale buckets, [`LATENCY_BUCKETS`]).
        pub io_latency_buckets: [u64; LATENCY_BUCKETS],
    }
}}

impl ExecStats {
    /// Folds one iteration trace into the totals.
    pub fn absorb(&mut self, it: &IterationTrace, wall_ns: u64) {
        self.iterations += 1;
        self.io_bytes += it.total_io_bytes();
        self.io_requests += it.total_io_requests();
        self.wall_ns += wall_ns;
        let mut counters = self.job_counters();
        counters.merge(&it.job_counters());
        self.set_job_counters(&counters);
        let totals = self.io_latency_buckets.iter_mut();
        for (total, count) in totals.zip(it.io_latency_buckets) {
            *total += count;
        }
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
    trace.set_job_counters(&job.totals());
    trace.io_latency_buckets = job.latency_histogram();
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
    use blaze_storage::StatsRow;
    use blaze_types::{Fold, JobCounter, JobCounters};

    /// Every table counter takes a distinct value on each of two devices,
    /// then travels `JobIoStats::totals` → `IterationTrace` → two
    /// `ExecStats::absorb`s: a counter dropped, swapped or folded the wrong
    /// way at any hop shows up in the snapshot comparison, by name.
    #[test]
    fn every_table_counter_survives_every_hop() {
        let recorded = |device: u64, c: JobCounter| 100 * (device + 1) + c as u64;
        let job = JobIoStats::new(2);
        assert_eq!(job.totals(), JobCounters::default());
        for &c in JobCounter::ALL {
            job.record(StatsRow::Device(0), c, recorded(0, c));
            job.record(StatsRow::Device(1), c, recorded(1, c));
        }
        // A second value on one row folds in; one on the compute row too.
        job.record(StatsRow::Device(0), JobCounter::ScatterNs, 5);
        job.record(StatsRow::Compute, JobCounter::ScatterNs, 7);
        job.record(StatsRow::Device(0), JobCounter::IoMaxInFlight, 1);
        let request = blaze_storage::IoRequest {
            first_page: 0,
            num_pages: 2,
        };
        job.record_read(0, request);
        job.record_read(1, request);
        job.record_read(1, request);

        let per_job = JobCounters::from_fn(|c| match (c, c.fold()) {
            (JobCounter::ScatterNs, _) => recorded(0, c) + recorded(1, c) + 12,
            (_, Fold::Sum) => recorded(0, c) + recorded(1, c),
            (_, Fold::Max) => recorded(1, c),
        });
        let mut twice = per_job;
        twice.merge(&per_job);
        assert_eq!(twice.cache_hit_pages, 2 * per_job.cache_hit_pages);
        assert_eq!(twice.io_max_in_flight, per_job.io_max_in_flight);

        assert_eq!(job.totals(), per_job);
        let mut trace = IterationTrace::new(2);
        fill_io_trace_from_job(&mut trace, &job);
        assert_eq!(trace.job_counters(), per_job);
        let mut stats = ExecStats::default();
        stats.absorb(&trace, 5000);
        stats.absorb(&trace, 5000);
        assert_eq!(stats.job_counters(), twice);
        // The generated fields are the ones callers read by name.
        assert_eq!(trace.cache_hit_pages, per_job.cache_hit_pages);
        assert_eq!(stats.cache_hot_admits, twice.cache_hot_admits);
        // What is not in the table still adds up beside it.
        assert_eq!(trace.io_bytes_per_device, vec![8192, 16384]);
        assert_eq!(trace.io_requests_per_device, vec![1, 2]);
        assert_eq!(stats.iterations, 2);
        assert_eq!(stats.io_bytes, 2 * 24576);
        assert_eq!(stats.io_requests, 6);
        assert_eq!(stats.edges_processed, twice.edges_processed);
        assert_eq!(stats.wall_ns, 10_000);
    }

    #[test]
    fn absorb_weights_the_in_flight_mean_and_sums_the_histogram() {
        let mut s = ExecStats::default();
        assert_eq!(s.io_mean_in_flight(), 0.0);
        let mut inline = IterationTrace::new(1);
        inline.io_requests_per_device = vec![30];
        inline.io_submits = 30;
        inline.io_in_flight_sum = 30;
        inline.io_latency_buckets[0] = 30;
        let mut deep = IterationTrace::new(1);
        deep.io_requests_per_device = vec![10];
        deep.io_submits = 10;
        deep.io_in_flight_sum = 50;
        deep.io_latency_buckets[1] = 4;
        deep.io_latency_buckets[2] = 6;
        s.absorb(&inline, 0);
        s.absorb(&deep, 0);
        assert!((s.io_mean_in_flight() - 2.0).abs() < 1e-12);
        assert_eq!(s.io_latency_buckets, [30, 4, 6, 0, 0, 0, 0, 0]);
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
