//! Workspace-wide constants.
//!
//! Blaze reads disk-resident graphs in fixed-size pages and merges at most a
//! small number of contiguous pages per IO request; these constants pin the
//! values used throughout the paper (Section IV-C).

/// Size of one disk page in bytes. All on-disk layouts, IO requests, and the
/// RAID-0 stripe unit use this granularity.
pub const PAGE_SIZE: usize = 4096;

/// Number of 4-byte edge entries (neighbor vertex ids) that fit in one page.
pub const EDGES_PER_PAGE: usize = PAGE_SIZE / 4;

/// Maximum number of contiguous pages merged into a single IO request.
///
/// The paper finds that on fast NVMe drives merging beyond four pages stops
/// paying off: 4 KiB random IO is already fast, and large requests inflate
/// asynchronous-IO submission time (Section IV-C).
pub const MAX_MERGED_PAGES: usize = 4;

/// Cache line size assumed by the indirection-based graph index (Figure 6).
pub const CACHE_LINE: usize = 64;

/// Number of 4-byte vertex degrees packed into one cache line of the
/// indirection index (Figure 6).
pub const DEGREES_PER_LINE: usize = CACHE_LINE / 4;

/// The most bins the default binning derives from a bin space: the paper's
/// count (Section V-E: "one thousand bins ... will provide good performance
/// in general"), reached at 16 MiB of bin space. The paper tuned it on
/// graphs whose bin space is about 1,000 times this repository's, where a
/// buffer holds megabytes; below 16 MiB the count falls so that every
/// buffer keeps [`MIN_BIN_BUFFER_BYTES`] (`BinningConfig::for_space`). An
/// explicit count may still be anything up to [`MAX_BIN_COUNT`].
pub const DEFAULT_BIN_COUNT: usize = 1024;

/// The fewest bytes of records a derived bin count leaves in each of a bin's
/// two buffers: two pages. A full buffer costs one hand-off to gather (a
/// queue push and pop, the bin and gather locks, a buffer return), so
/// smaller buffers pay it more often per record, and every bin costs every
/// scatter thread a staging window of [`DEFAULT_STAGING_RECORDS`] records.
pub const MIN_BIN_BUFFER_BYTES: usize = 8 << 10;

/// The fewest bins a bin count derived from a bin space gets, however small
/// the space. At 64 KiB of bin space the modeled Figure 11 sweep runs
/// PageRank fastest at 16 to 64 bins (3.6 ms, against 4.8 ms at 256 and
/// 15.3 ms at 1,024), and 64 is the top of that valley: the most bins,
/// so the best gather balance, before per-bin costs show. With range
/// routing the largest of 64 bins holds 18 % of a scale-20 R-MAT
/// PageRank's records, which keeps up to five gather threads busy.
pub const MIN_DERIVED_BIN_COUNT: usize = 64;

/// Most bins a configuration may ask for: the top of the paper's Figure 11
/// sweep. Every bin holds two buffers of at least one staging batch
/// whatever the bin space, and every scatter thread a staging window per
/// bin, so the count is bounded where it enters, before anything is sized
/// by it.
pub const MAX_BIN_COUNT: usize = 131_072;

/// Default ratio of total bin space to input graph size (Section IV-A:
/// "0.05x of the input graph size for bin space").
pub const DEFAULT_BIN_SPACE_RATIO: f64 = 0.05;

/// Default capacity of the per-thread staging buffer, in records per bin.
/// Mirrors the "small fixed size, per-CPU buffer" of propagation blocking.
pub const DEFAULT_STAGING_RECORDS: usize = 64;

/// Default amount of memory reserved for IO buffers (Section IV-F uses
/// 64 MiB for all workloads; we scale with the 1/1024-scale datasets).
pub const DEFAULT_IO_BUFFER_BYTES: usize = 4 << 20;

/// Most compute threads (scatter plus gather) one engine may be asked for.
/// The runtime spawns them all when the engine is built, and a thread that
/// cannot be spawned aborts the process; sixty-four times the paper's
/// sixteen is far beyond any machine this runs on and still starts.
pub const MAX_COMPUTE_WORKERS: usize = 1024;

/// Most concurrent jobs one engine may be sized for: the CLI's `-jobs`, and
/// the IO lanes a device that serve them (`EngineOptions::io_lanes`). Each job is
/// a query thread, an IO thread a device and a bin and buffer arena of its
/// own, so an unbounded count runs the process out of threads or memory
/// before the first read; four times the widest sweep ever run here (16 tenants)
/// starts and finishes on this machine.
pub const MAX_JOBS: usize = 64;

/// Default per-thread grain of the in-memory vertex-map phase: a frontier
/// smaller than `grain * threads` members runs serially, since forking
/// scoped threads costs more than the map itself at that size. With the
/// default four compute workers (two scatter + two gather) this reproduces
/// the engine's historical fixed serial threshold of 2048.
pub const DEFAULT_VERTEX_MAP_GRAIN: usize = 512;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_holds_whole_edges() {
        assert_eq!(PAGE_SIZE % 4, 0);
        assert_eq!(EDGES_PER_PAGE * 4, PAGE_SIZE);
    }

    #[test]
    fn cache_line_holds_whole_degrees() {
        assert_eq!(CACHE_LINE % 4, 0);
        assert_eq!(DEGREES_PER_LINE, 16);
    }
}
