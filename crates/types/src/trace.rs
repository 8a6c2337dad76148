//! Work traces emitted by the functional engines and consumed by the
//! performance model (`blaze-perfmodel`).
//!
//! The reproduction runs on arbitrary CI hardware, where wall-clock times of a
//! multi-threaded pipeline are meaningless (a single-core box serializes every
//! schedule, hiding all load-imbalance phenomena). Instead, each engine
//! records *how much work of each kind* every iteration performed — IO bytes
//! and request counts per device, edges scattered, bin records gathered,
//! messages per thread — and the performance model replays those quantities
//! on a virtual machine with the paper's core count and device profiles.
//! All quantities in these structs are **measured** from real executions of
//! the real algorithms; only the time axis is modeled.

use crate::counters::LATENCY_BUCKETS;

crate::job_counter_table! { crate::struct_with_job_counters, {
    /// Work performed by one iteration (one `EdgeMap` round) of a query. The
    /// table counters of [`job_counter_table!`](crate::job_counter_table!)
    /// follow the fields written out here.
    #[derive(Debug, Clone, Default)]
    pub struct IterationTrace {
        /// Bytes read from each device during this iteration.
        pub io_bytes_per_device: Vec<u64>,
        /// Number of IO requests issued to each device.
        pub io_requests_per_device: Vec<u64>,
        /// Of the requests above, how many were sequential with their
        /// predecessor (per device). Drives the seq/rand bandwidth split of
        /// the device model.
        pub io_sequential_requests_per_device: Vec<u64>,
        /// Number of frontier vertices at the start of the iteration.
        pub frontier_size: u64,
        /// Records destined to each bin. Gather work is balanced across
        /// threads at bin granularity, so the max/mean of this vector
        /// measures residual gather imbalance.
        pub records_per_bin: Vec<u64>,
        /// FlashGraph only: messages queued to each computation thread
        /// (`thread = dst % nthreads`). The max of this vector is the straggler.
        pub messages_per_thread: Vec<u64>,
        /// Number of vertices touched by the in-memory vertex-map phase.
        pub vertex_map_size: u64,
        /// Number of atomic read-modify-write operations issued (sync variant
        /// and FlashGraph-style engines; zero for online binning).
        pub atomic_ops: u64,
        /// Records per bin buffer in the binning configuration that produced
        /// this trace (0 when binning was not used). Drives the bin-handoff
        /// cost of the performance model.
        pub bin_buffer_capacity: u64,
        /// Per-request service-time histogram across devices, log-scale:
        /// bucket `i` counts requests that took `[4^i, 4^(i+1))` µs.
        pub io_latency_buckets: [u64; LATENCY_BUCKETS],
    }
}}

impl IterationTrace {
    /// Creates an empty trace for an engine running over `num_devices`.
    pub fn new(num_devices: usize) -> Self {
        Self {
            io_bytes_per_device: vec![0; num_devices],
            io_requests_per_device: vec![0; num_devices],
            io_sequential_requests_per_device: vec![0; num_devices],
            ..Default::default()
        }
    }

    /// Total bytes read across all devices.
    pub fn total_io_bytes(&self) -> u64 {
        self.io_bytes_per_device.iter().sum()
    }

    /// Total IO requests across all devices.
    pub fn total_io_requests(&self) -> u64 {
        self.io_requests_per_device.iter().sum()
    }

    /// Max − min of per-device IO bytes: the skewed-IO metric of Figure 3.
    pub fn io_skew_bytes(&self) -> u64 {
        match (
            self.io_bytes_per_device.iter().max(),
            self.io_bytes_per_device.iter().min(),
        ) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        }
    }

    /// Ratio of the busiest thread's messages to the mean: the
    /// skewed-computation metric of Section III-A. Returns 1.0 when no
    /// messages were recorded.
    pub fn message_skew(&self) -> f64 {
        let total: u64 = self.messages_per_thread.iter().sum();
        let n = self.messages_per_thread.len();
        if total == 0 || n == 0 {
            return 1.0;
        }
        let max = self.messages_per_thread.iter().max().copied().unwrap_or(0) as f64;
        max / (total as f64 / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_skew_is_max_minus_min() {
        let mut t = IterationTrace::new(3);
        t.io_bytes_per_device = vec![100, 40, 70];
        assert_eq!(t.io_skew_bytes(), 60);
    }

    #[test]
    fn message_skew_of_balanced_load_is_one() {
        let mut t = IterationTrace::new(1);
        t.messages_per_thread = vec![50, 50, 50, 50];
        assert!((t.message_skew() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn message_skew_detects_straggler() {
        let mut t = IterationTrace::new(1);
        t.messages_per_thread = vec![10, 10, 10, 70];
        assert!((t.message_skew() - 2.8).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_defaults() {
        let t = IterationTrace::new(2);
        assert_eq!(t.total_io_bytes(), 0);
        assert_eq!(t.io_skew_bytes(), 0);
        assert_eq!(t.message_skew(), 1.0);
    }
}
