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

/// A named phase of engine execution, used to attribute modeled time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePhase {
    /// Transforming the vertex frontier into the page frontier.
    FrontierTransform,
    /// Reading pages from the device array.
    Io,
    /// Scatter: decoding pages and appending bin records.
    Scatter,
    /// Gather: applying bin records to vertex data.
    Gather,
    /// FlashGraph-style end-of-iteration message processing.
    MessageProcessing,
    /// In-memory vertex map.
    VertexMap,
}

/// Work performed by one iteration (one `EdgeMap` round) of a query.
#[derive(Debug, Clone, Default)]
pub struct IterationTrace {
    /// Bytes read from each device during this iteration.
    pub io_bytes_per_device: Vec<u64>,
    /// Number of IO requests issued to each device.
    pub io_requests_per_device: Vec<u64>,
    /// Of the requests above, how many were sequential with their predecessor
    /// (per device). Drives the seq/rand bandwidth split of the device model.
    pub io_sequential_requests_per_device: Vec<u64>,
    /// Number of frontier vertices at the start of the iteration.
    pub frontier_size: u64,
    /// Total edges examined by scatter (i.e. `scatter`+`cond` evaluations).
    pub edges_processed: u64,
    /// Total bin records produced (edges that passed `cond`).
    pub records_produced: u64,
    /// Records destined to each bin. Gather work is balanced across threads
    /// at bin granularity, so the max/mean of this vector measures residual
    /// gather imbalance.
    pub records_per_bin: Vec<u64>,
    /// FlashGraph only: messages queued to each computation thread
    /// (`thread = dst % nthreads`). The max of this vector is the straggler.
    pub messages_per_thread: Vec<u64>,
    /// Number of vertices touched by the in-memory vertex-map phase.
    pub vertex_map_size: u64,
    /// Number of atomic read-modify-write operations issued (sync variant
    /// and FlashGraph-style engines; zero for online binning).
    pub atomic_ops: u64,
    /// Number of page-cache hits (the engine's clock cache or FlashGraph's
    /// LRU cache); these pages cost no IO.
    pub cache_hit_pages: u64,
    /// Number of page-cache lookups that missed and went to the device.
    /// Zero when no cache is configured.
    pub cache_miss_pages: u64,
    /// Number of resident pages the cache evicted while absorbing this
    /// iteration's fills.
    pub cache_evictions: u64,
    /// Cache hits that fell in the graph's hot (hub) page region — the
    /// pages a degree-aware layout packed to the front of the stream.
    pub cache_hot_hit_pages: u64,
    /// Fills the cache admitted with a hot-region second-chance credit.
    pub cache_hot_admits: u64,
    /// Pages this job received from another job's in-flight (or recently
    /// retained) device read via the scan-sharing flight table; these
    /// pages cost no device IO for this job.
    pub shared_hit_pages: u64,
    /// Bytes corresponding to `shared_hit_pages` — the device IO this job
    /// avoided by subscribing to other jobs' flights.
    pub shared_bytes: u64,
    /// Scan-sharing flights this job led (device reads it issued on
    /// behalf of itself plus any subscribers).
    pub flights_led: u64,
    /// Records per bin buffer in the binning configuration that produced
    /// this trace (0 when binning was not used). Drives the bin-handoff
    /// cost of the performance model.
    pub bin_buffer_capacity: u64,
    /// Maximum in-flight IO depth observed on any device at submission
    /// time (1 for the synchronous backend; 0 when no requests were
    /// issued).
    pub io_max_in_flight: u64,
    /// Mean in-flight IO depth over submissions (0.0 when no requests
    /// were issued).
    pub io_mean_in_flight: f64,
    /// Per-request service-time histogram across devices, log-scale:
    /// bucket `i` counts requests that took `[4^i, 4^(i+1))` µs. Empty
    /// when no requests were issued.
    pub io_latency_buckets: Vec<u64>,
    /// Nanoseconds scatter workers spent decoding pages and staging
    /// records, summed across workers (so it can exceed wall time).
    pub scatter_ns: u64,
    /// Nanoseconds gather workers spent applying full bins, summed across
    /// workers (zero for the sync variant, which gathers inline).
    pub gather_ns: u64,
    /// Nanoseconds scatter workers spent idle waiting for filled buffers —
    /// the compute-side view of an IO-bound iteration.
    pub io_wait_ns: u64,
}

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

/// The complete trace of one query execution: one entry per iteration.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    /// Human-readable query name, e.g. `"bfs"`.
    pub query: String,
    /// Dataset short name, e.g. `"r2"`.
    pub dataset: String,
    /// Per-iteration work records, in execution order.
    pub iterations: Vec<IterationTrace>,
}

impl QueryTrace {
    /// Creates an empty trace for `query` over `dataset`.
    pub fn new(query: impl Into<String>, dataset: impl Into<String>) -> Self {
        Self {
            query: query.into(),
            dataset: dataset.into(),
            iterations: Vec::new(),
        }
    }

    /// Total bytes read across the whole query.
    pub fn total_io_bytes(&self) -> u64 {
        self.iterations
            .iter()
            .map(IterationTrace::total_io_bytes)
            .sum()
    }

    /// Total edges examined across the whole query.
    pub fn total_edges(&self) -> u64 {
        self.iterations.iter().map(|i| i.edges_processed).sum()
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

    #[test]
    fn query_trace_accumulates() {
        let mut q = QueryTrace::new("bfs", "r2");
        let mut i1 = IterationTrace::new(1);
        i1.io_bytes_per_device = vec![4096];
        i1.edges_processed = 10;
        let mut i2 = IterationTrace::new(1);
        i2.io_bytes_per_device = vec![8192];
        i2.edges_processed = 20;
        q.iterations.push(i1);
        q.iterations.push(i2);
        assert_eq!(q.total_io_bytes(), 12288);
        assert_eq!(q.total_edges(), 30);
    }

    #[test]
    fn traces_clone_deeply() {
        let mut q = QueryTrace::new("pr", "r3");
        q.iterations.push(IterationTrace::new(2));
        let back = q.clone();
        assert_eq!(back.query, "pr");
        assert_eq!(back.iterations.len(), 1);
        assert_eq!(back.iterations[0].io_bytes_per_device.len(), 2);
    }
}
