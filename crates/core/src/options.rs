//! Engine configuration.

use blaze_binning::BinningConfig;
use blaze_storage::DEFAULT_QUEUE_DEPTH;
use blaze_types::{
    BlazeError, Result, DEFAULT_IO_BUFFER_BYTES, MAX_COMPUTE_WORKERS, MAX_JOBS, MAX_MERGED_PAGES,
};

/// Configuration of one [`BlazeEngine`](crate::BlazeEngine).
///
/// Mirrors the knobs of the artifact binaries: compute workers split into
/// scatter and gather threads (`-computeWorkers`, `-binningRatio`), bin
/// space and count (`-binSpace`, `-binCount`), plus the IO-buffer budget.
/// IO threads are always one per device, as in the paper.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Number of scatter threads.
    pub num_scatter: usize,
    /// Number of gather threads.
    pub num_gather: usize,
    /// Total memory for IO buffers (64 MiB in the paper; scaled here).
    pub io_buffer_bytes: usize,
    /// Max contiguous pages merged per IO request (4 in the paper).
    pub merge_window: usize,
    /// Binning parameters; `None` applies the paper's heuristics for the
    /// graph at engine construction.
    pub binning: Option<BinningConfig>,
    /// Byte budget of the clock page cache consulted by the IO workers;
    /// 0 (the default, matching the published system) bypasses the cache
    /// and leaves the IO path identical to the uncached engine. Budgets
    /// below one 4 KiB page round down to zero. Enabling it implements the
    /// paper's stated future work and recovers the sk2005 loss to
    /// FlashGraph (Section V-B).
    pub cache_bytes: usize,
    /// Cap on the per-device in-flight request window (the CLI's `-qd`).
    /// The default, [`DEFAULT_QUEUE_DEPTH`], lets the IO backend adapt to
    /// the device: it reads inline, one request at a time, while the device
    /// answers faster than a hand-off to another thread costs, and keeps up
    /// to this many requests in flight once it does not. 1 pins the
    /// synchronous backend: strictly inline and in submission order,
    /// byte-for-byte the published engine's device traffic.
    pub queue_depth: usize,
    /// IO lanes (workers) a device, at most [`MAX_JOBS`]. 1 (the default)
    /// is the published pipeline: each job re-reads for itself, no flight
    /// table exists, and the IO path is byte-for-byte the published
    /// engine's. N > 1 is cross-job scan sharing (single-flight miss
    /// coalescing) over N lanes, so that N concurrent jobs' IO phases
    /// overlap on each device: the first job to miss a page run leads the
    /// device read, overlapping concurrent misses subscribe to its
    /// completed frames, and a bounded per-device window of recently
    /// completed runs serves slightly trailing scans. FlashGraph's
    /// page-request merging shows this is the decisive lever for
    /// concurrent SSD graph workloads. Size it to the expected number of
    /// concurrent jobs (the CLI passes `-jobs`).
    pub io_lanes: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            num_scatter: 2,
            num_gather: 2,
            io_buffer_bytes: DEFAULT_IO_BUFFER_BYTES,
            merge_window: MAX_MERGED_PAGES,
            binning: None,
            cache_bytes: 0,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            io_lanes: 1,
        }
    }
}

impl EngineOptions {
    /// Splits `compute_workers` threads into scatter/gather at
    /// `scatter_ratio` (the artifact's `-binningRatio`, default 0.5).
    pub fn with_compute_workers(mut self, workers: usize, scatter_ratio: f64) -> Self {
        let workers = workers.max(2);
        let scatter = ((workers as f64 * scatter_ratio).round() as usize).clamp(1, workers - 1);
        self.num_scatter = scatter;
        self.num_gather = workers - scatter;
        self
    }

    /// Overrides the binning configuration.
    pub fn with_binning(mut self, binning: BinningConfig) -> Self {
        self.binning = Some(binning);
        self
    }

    /// Overrides the merge window.
    pub fn with_merge_window(mut self, window: usize) -> Self {
        self.merge_window = window.max(1);
        self
    }

    /// Enables the clock page cache with the given byte budget (0 bypasses
    /// the cache entirely).
    pub fn with_cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Enables the clock page cache with the given capacity in 4 KiB pages.
    pub fn with_page_cache(self, pages: usize) -> Self {
        self.with_cache_bytes(pages * blaze_types::PAGE_SIZE)
    }

    /// Caps the per-device IO window (the CLI's `-qd N`, clamped to ≥ 1).
    /// 1 reproduces the published request stream exactly; see
    /// [`queue_depth`](Self::queue_depth).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Sets the IO lanes a device (clamped to ≥ 1): above 1, concurrent
    /// jobs' overlapping page reads coalesce into single device reads
    /// through the engine's flight table; 1 turns sharing off. See
    /// [`io_lanes`](Self::io_lanes).
    pub fn with_scan_sharing(mut self, lanes: usize) -> Self {
        self.io_lanes = lanes.max(1);
        self
    }

    /// Total compute threads.
    pub fn compute_workers(&self) -> usize {
        self.num_scatter + self.num_gather
    }

    /// Validates thread counts and the other numeric options.
    pub fn validate(&self) -> Result<()> {
        if self.num_scatter == 0 || self.num_gather == 0 {
            return Err(BlazeError::Config(
                "need at least one scatter and one gather thread".into(),
            ));
        }
        let workers = self.num_scatter.saturating_add(self.num_gather);
        if workers > MAX_COMPUTE_WORKERS {
            return Err(BlazeError::Config(format!(
                "{workers} compute workers asked for, at most {MAX_COMPUTE_WORKERS} are supported"
            )));
        }
        if self.merge_window == 0 {
            return Err(BlazeError::Config("merge_window must be >= 1".into()));
        }
        if self.queue_depth == 0 {
            return Err(BlazeError::Config("queue_depth must be >= 1".into()));
        }
        if self.io_lanes == 0 {
            return Err(BlazeError::Config("io_lanes must be >= 1".into()));
        }
        if self.io_lanes > MAX_JOBS {
            return Err(BlazeError::Config(format!(
                "{} IO lanes a device asked for, at most {MAX_JOBS} are supported",
                self.io_lanes
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(EngineOptions::default().validate().is_ok());
    }

    #[test]
    fn compute_worker_split() {
        let o = EngineOptions::default().with_compute_workers(16, 0.5);
        assert_eq!(o.num_scatter, 8);
        assert_eq!(o.num_gather, 8);
        let o = EngineOptions::default().with_compute_workers(16, 0.25);
        assert_eq!(o.num_scatter, 4);
        assert_eq!(o.num_gather, 12);
    }

    #[test]
    fn split_never_zeroes_a_side() {
        let o = EngineOptions::default().with_compute_workers(4, 0.0);
        assert_eq!(o.num_scatter, 1);
        let o = EngineOptions::default().with_compute_workers(4, 1.0);
        assert_eq!(o.num_gather, 1);
    }

    #[test]
    fn page_cache_helper_converts_pages_to_bytes() {
        let o = EngineOptions::default().with_page_cache(16);
        assert_eq!(o.cache_bytes, 16 * blaze_types::PAGE_SIZE);
        let o = EngineOptions::default().with_cache_bytes(1 << 20);
        assert_eq!(o.cache_bytes, 1 << 20);
        assert_eq!(EngineOptions::default().cache_bytes, 0);
    }

    #[test]
    fn queue_depth_defaults_clamps_and_validates() {
        let o = EngineOptions::default();
        assert_eq!(o.queue_depth, DEFAULT_QUEUE_DEPTH);
        assert!(o.queue_depth > 1, "the default overlaps IO");
        assert_eq!(EngineOptions::default().with_queue_depth(1).queue_depth, 1);
        let o = EngineOptions::default().with_queue_depth(16);
        assert_eq!(o.queue_depth, 16);
        assert!(o.validate().is_ok());
        // Zero clamps rather than erroring through the builder...
        assert_eq!(EngineOptions::default().with_queue_depth(0).queue_depth, 1);
        // ...but a hand-built zero is rejected.
        let o = EngineOptions {
            queue_depth: 0,
            ..Default::default()
        };
        assert!(o.validate().is_err());
    }

    #[test]
    fn scan_sharing_defaults_clamp_and_validate() {
        let o = EngineOptions::default();
        assert_eq!(o.io_lanes, 1, "sharing is opt-in");
        let o = EngineOptions::default().with_scan_sharing(0);
        assert_eq!(o.io_lanes, 1, "builder clamps rather than erroring");
        assert!(o.validate().is_ok());
        assert_eq!(EngineOptions::default().with_scan_sharing(4).io_lanes, 4);
        let o = EngineOptions {
            io_lanes: 0,
            ..Default::default()
        };
        assert!(o.validate().is_err(), "hand-built zero lanes accepted");
        let at = EngineOptions::default().with_scan_sharing(MAX_JOBS);
        assert!(at.validate().is_ok());
        let over = EngineOptions::default().with_scan_sharing(MAX_JOBS + 1);
        let err = over.validate().unwrap_err().to_string();
        assert!(err.contains("IO lanes"), "{err}");
    }

    #[test]
    fn zero_threads_rejected() {
        let o = EngineOptions {
            num_gather: 0,
            ..Default::default()
        };
        assert!(o.validate().is_err());
    }

    #[test]
    fn worker_count_is_bounded() {
        let at = EngineOptions::default().with_compute_workers(MAX_COMPUTE_WORKERS, 0.5);
        assert!(at.validate().is_ok());
        let over = EngineOptions::default().with_compute_workers(MAX_COMPUTE_WORKERS + 1, 0.5);
        let err = over.validate().unwrap_err().to_string();
        assert!(err.contains("compute workers"), "{err}");
    }
}
