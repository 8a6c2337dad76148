//! Engine configuration.

use blaze_binning::BinningConfig;
use blaze_storage::DEFAULT_QUEUE_DEPTH;
use blaze_types::{
    BlazeError, Result, DEFAULT_IO_BUFFER_BYTES, DEFAULT_VERTEX_MAP_GRAIN, MAX_MERGED_PAGES,
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
    /// Fraction of each cache shard's frames reservable as hot-region
    /// admission credits (see `PageCache::set_hot_region`). Only takes
    /// effect when the graph was written with a degree-aware layout (its
    /// page map reports a non-zero hot region); 0.0 disables heat-informed
    /// admission even then. Must lie in `0.0..=1.0`.
    pub cache_hot_fraction: f64,
    /// Whether to record per-iteration work traces for the performance
    /// model.
    pub record_trace: bool,
    /// Maximum number of idle bin/buffer arenas the engine keeps cached
    /// between jobs. One suffices for a sequential algorithm; concurrent
    /// submitters each check out their own, and checkouts beyond the cache
    /// simply allocate fresh arenas (returned ones beyond the cap are
    /// dropped).
    pub max_idle_arenas: usize,
    /// Cap on the per-device in-flight request window (the CLI's `-qd`).
    /// The default, [`DEFAULT_QUEUE_DEPTH`], lets the IO backend adapt to
    /// the device: it reads inline, one request at a time, while the device
    /// answers faster than a hand-off to another thread costs, and keeps up
    /// to this many requests in flight once it does not. 1 pins the
    /// synchronous backend: strictly inline and in submission order,
    /// byte-for-byte the published engine's device traffic.
    pub queue_depth: usize,
    /// Per-thread grain of the in-memory vertex-map phase: a frontier with
    /// fewer than `vertex_map_grain * compute_workers` members runs
    /// serially instead of forking scoped threads. Lower it to force the
    /// parallel path on tiny graphs (loom and smoke builds), raise it to
    /// pin small maps to one thread.
    pub vertex_map_grain: usize,
    /// Cross-job scan sharing (single-flight miss coalescing): the first
    /// job to miss a page run leads the device read, overlapping
    /// concurrent misses subscribe to its completed frames, and a bounded
    /// per-device window of recently completed runs serves slightly
    /// trailing scans. Off by default — the published engine re-reads per
    /// job, and with sharing off the IO path is byte-for-byte identical
    /// to it. FlashGraph's page-request merging shows this is the
    /// decisive lever for concurrent SSD graph workloads.
    pub scan_sharing: bool,
    /// IO lanes (workers) per device when `scan_sharing` is on. One lane
    /// serializes concurrent jobs' IO phases per device (nothing to
    /// share); size it at least to the expected number of concurrent
    /// jobs. Ignored (forced to 1) when sharing is off.
    pub scan_share_lanes: usize,
    /// Completed flights retained per device for trailing subscribers
    /// (each at most `merge_window` pages). 0 coalesces only
    /// instantaneously overlapping misses.
    pub scan_share_retain: usize,
    /// Maximum vertices `edge_map_async` drains from the priority frontier
    /// per round. Smaller batches follow the priority order more closely
    /// (fewer wasted relaxations) at the cost of more, smaller IO rounds.
    pub async_batch_max: usize,
    /// Number of priority buckets of the async frontier. Priorities at or
    /// beyond the last bucket saturate into it.
    pub async_buckets: usize,
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
            cache_hot_fraction: 0.5,
            record_trace: true,
            max_idle_arenas: 2,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            vertex_map_grain: DEFAULT_VERTEX_MAP_GRAIN,
            scan_sharing: false,
            scan_share_lanes: 4,
            scan_share_retain: 128,
            async_batch_max: 4096,
            async_buckets: 256,
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

    /// Overrides the protected hot-region budget fraction of the page
    /// cache (`0.0..=1.0`; 0.0 disables heat-informed admission).
    pub fn with_cache_hot_fraction(mut self, fraction: f64) -> Self {
        self.cache_hot_fraction = fraction;
        self
    }

    /// Caps the per-device IO window (the CLI's `-qd N`, clamped to ≥ 1).
    /// 1 reproduces the published request stream exactly; see
    /// [`queue_depth`](Self::queue_depth).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Overrides the per-thread vertex-map serial grain (clamped to ≥ 1).
    pub fn with_vertex_map_grain(mut self, grain: usize) -> Self {
        self.vertex_map_grain = grain.max(1);
        self
    }

    /// Enables (or disables) cross-job scan sharing: concurrent jobs'
    /// overlapping page reads coalesce into single device reads through
    /// the engine's flight table.
    pub fn with_scan_sharing(mut self, sharing: bool) -> Self {
        self.scan_sharing = sharing;
        self
    }

    /// Overrides the IO lanes per device used when scan sharing is on
    /// (clamped to ≥ 1).
    pub fn with_scan_share_lanes(mut self, lanes: usize) -> Self {
        self.scan_share_lanes = lanes.max(1);
        self
    }

    /// Overrides the per-device retention window of completed flights
    /// (0 disables retention).
    pub fn with_scan_share_retain(mut self, retain: usize) -> Self {
        self.scan_share_retain = retain;
        self
    }

    /// Overrides the per-round batch cap of `edge_map_async` (clamped to
    /// ≥ 1).
    pub fn with_async_batch_max(mut self, max: usize) -> Self {
        self.async_batch_max = max.max(1);
        self
    }

    /// Overrides the bucket count of the async priority frontier (clamped
    /// to ≥ 1).
    pub fn with_async_buckets(mut self, buckets: usize) -> Self {
        self.async_buckets = buckets.max(1);
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
        if self.merge_window == 0 {
            return Err(BlazeError::Config("merge_window must be >= 1".into()));
        }
        if self.queue_depth == 0 {
            return Err(BlazeError::Config("queue_depth must be >= 1".into()));
        }
        if self.vertex_map_grain == 0 {
            return Err(BlazeError::Config("vertex_map_grain must be >= 1".into()));
        }
        if self.async_batch_max == 0 {
            return Err(BlazeError::Config("async_batch_max must be >= 1".into()));
        }
        if self.async_buckets == 0 {
            return Err(BlazeError::Config("async_buckets must be >= 1".into()));
        }
        if !(0.0..=1.0).contains(&self.cache_hot_fraction) {
            return Err(BlazeError::Config(format!(
                "cache_hot_fraction {} outside 0.0..=1.0",
                self.cache_hot_fraction
            )));
        }
        if self.scan_share_lanes == 0 {
            return Err(BlazeError::Config("scan_share_lanes must be >= 1".into()));
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
    fn vertex_map_grain_defaults_and_clamps() {
        let o = EngineOptions::default();
        assert_eq!(o.vertex_map_grain, DEFAULT_VERTEX_MAP_GRAIN);
        // Default workers (2) × default grain reproduce the historical
        // serial threshold of 2048.
        assert_eq!(o.vertex_map_grain * o.compute_workers(), 2048);
        assert_eq!(
            EngineOptions::default()
                .with_vertex_map_grain(0)
                .vertex_map_grain,
            1
        );
        let o = EngineOptions {
            vertex_map_grain: 0,
            ..Default::default()
        };
        assert!(o.validate().is_err());
    }

    #[test]
    fn cache_hot_fraction_defaults_and_validates() {
        let o = EngineOptions::default();
        assert!((o.cache_hot_fraction - 0.5).abs() < 1e-12);
        assert!(o.validate().is_ok());
        let o = EngineOptions::default().with_cache_hot_fraction(1.0);
        assert!(o.validate().is_ok());
        for bad in [-0.1, 1.5, f64::NAN] {
            let o = EngineOptions::default().with_cache_hot_fraction(bad);
            assert!(o.validate().is_err(), "fraction {bad} accepted");
        }
    }

    #[test]
    fn async_knobs_default_clamp_and_validate() {
        let o = EngineOptions::default();
        assert_eq!(o.async_batch_max, 4096);
        assert_eq!(o.async_buckets, 256);
        let o = EngineOptions::default()
            .with_async_batch_max(0)
            .with_async_buckets(0);
        assert_eq!(o.async_batch_max, 1, "builder clamps rather than erroring");
        assert_eq!(o.async_buckets, 1);
        assert!(o.validate().is_ok());
        for bad in [
            EngineOptions {
                async_batch_max: 0,
                ..Default::default()
            },
            EngineOptions {
                async_buckets: 0,
                ..Default::default()
            },
        ] {
            assert!(bad.validate().is_err(), "hand-built zero knob accepted");
        }
    }

    #[test]
    fn scan_sharing_defaults_clamp_and_validate() {
        let o = EngineOptions::default();
        assert!(!o.scan_sharing, "sharing is opt-in");
        assert_eq!(o.scan_share_lanes, 4);
        assert_eq!(o.scan_share_retain, 128);
        let o = EngineOptions::default()
            .with_scan_sharing(true)
            .with_scan_share_lanes(0)
            .with_scan_share_retain(0);
        assert!(o.scan_sharing);
        assert_eq!(o.scan_share_lanes, 1, "builder clamps rather than erroring");
        assert_eq!(o.scan_share_retain, 0, "zero retention is a valid mode");
        assert!(o.validate().is_ok());
        let o = EngineOptions {
            scan_share_lanes: 0,
            ..Default::default()
        };
        assert!(o.validate().is_err(), "hand-built zero lanes accepted");
    }

    #[test]
    fn zero_threads_rejected() {
        let o = EngineOptions {
            num_gather: 0,
            ..Default::default()
        };
        assert!(o.validate().is_err());
    }
}
