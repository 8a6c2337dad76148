//! Binning configuration and the paper's tuning heuristics (Section V-E).

use blaze_types::{
    BlazeError, Result, DEFAULT_BIN_COUNT, DEFAULT_BIN_SPACE_RATIO, DEFAULT_STAGING_RECORDS,
    MAX_BIN_COUNT,
};

/// Parameters of the online-binning machinery.
///
/// The paper finds performance robust across a wide range: ~1000 bins,
/// total bin space ≈ 5% of the input graph (equivalently ≈ `5·|E|·4` bytes
/// ÷ 16, see Figure 10), and an equal number of scatter and gather threads
/// are good defaults, with careful tuning worth at most ~5%.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinningConfig {
    /// Number of bins. Records route to `dst % bin_count`.
    pub bin_count: usize,
    /// Total bytes across all bin buffers (both halves of every pair).
    pub bin_space_bytes: usize,
    /// Records a scatter thread stages per bin before flushing in batch.
    pub staging_records: usize,
}

/// The bound both ways of setting a bin count share; [`MAX_BIN_COUNT`] says
/// why there is an upper one.
fn check_bin_count(n: usize) -> Result<()> {
    if (1..=MAX_BIN_COUNT).contains(&n) {
        Ok(())
    } else {
        Err(BlazeError::Config(format!(
            "bin_count {n} is outside 1..={MAX_BIN_COUNT}"
        )))
    }
}

impl BinningConfig {
    /// Validated constructor.
    pub fn new(bin_count: usize, bin_space_bytes: usize, staging_records: usize) -> Result<Self> {
        check_bin_count(bin_count)?;
        if staging_records == 0 {
            return Err(BlazeError::Config("staging_records must be >= 1".into()));
        }
        Ok(Self {
            bin_count,
            bin_space_bytes,
            staging_records,
        })
    }

    /// The paper's default heuristic for a graph of `graph_bytes` on disk:
    /// bin space = 5% of the graph, 1024 bins.
    pub fn for_graph(graph_bytes: u64) -> Self {
        let space = ((graph_bytes as f64 * DEFAULT_BIN_SPACE_RATIO) as usize).max(64 << 10);
        Self {
            bin_count: DEFAULT_BIN_COUNT,
            bin_space_bytes: space,
            staging_records: DEFAULT_STAGING_RECORDS,
        }
    }

    /// Overrides the bin count (`1..=MAX_BIN_COUNT`, as in [`new`](Self::new)).
    pub fn with_bin_count(mut self, n: usize) -> Result<Self> {
        check_bin_count(n)?;
        self.bin_count = n;
        Ok(self)
    }

    /// Overrides the total bin space.
    pub fn with_bin_space(mut self, bytes: usize) -> Self {
        self.bin_space_bytes = bytes;
        self
    }

    /// Records per *single* bin buffer for record size `record_bytes`: the
    /// space is divided over `bin_count` bins × 2 buffers each. Never below
    /// the staging batch so one flush always fits.
    pub fn buffer_capacity(&self, record_bytes: usize) -> usize {
        let per_buffer = self.bin_space_bytes / self.bin_count / 2 / record_bytes.max(1);
        per_buffer.max(self.staging_records)
    }

    /// Actual bytes the bin space will occupy after rounding.
    pub fn allocated_bytes(&self, record_bytes: usize) -> u64 {
        (self.buffer_capacity(record_bytes) * 2 * self.bin_count * record_bytes) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bins_rejected() {
        assert!(BinningConfig::new(0, 1024, 8).is_err());
        assert!(BinningConfig::new(4, 1024, 0).is_err());
        assert!(BinningConfig::new(4, 1024, 8).is_ok());
    }

    #[test]
    fn bin_count_is_bounded_by_both_entry_points() {
        assert!(BinningConfig::new(MAX_BIN_COUNT, 1024, 8).is_ok());
        assert!(BinningConfig::new(MAX_BIN_COUNT + 1, 1024, 8).is_err());
        let heuristic = BinningConfig::for_graph(1 << 20);
        assert_eq!(heuristic.clone().with_bin_count(16).unwrap().bin_count, 16);
        assert!(heuristic.clone().with_bin_count(0).is_err());
        assert!(heuristic.with_bin_count(100_000_000).is_err());
    }

    #[test]
    fn heuristic_is_five_percent() {
        let c = BinningConfig::for_graph(100 << 20);
        assert_eq!(c.bin_space_bytes, 5 << 20);
        assert_eq!(c.bin_count, 1024);
    }

    #[test]
    fn heuristic_has_floor() {
        let c = BinningConfig::for_graph(1024);
        assert!(c.bin_space_bytes >= 64 << 10);
    }

    #[test]
    fn buffer_capacity_divides_space() {
        let c = BinningConfig::new(8, 8 * 2 * 100 * 8, 16).unwrap();
        // 8 bins x 2 buffers x 100 records x 8 bytes.
        assert_eq!(c.buffer_capacity(8), 100);
    }

    #[test]
    fn buffer_capacity_never_below_staging() {
        let c = BinningConfig::new(1024, 1024, 64).unwrap();
        assert_eq!(c.buffer_capacity(8), 64);
    }
}
