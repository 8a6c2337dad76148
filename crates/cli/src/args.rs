//! Artifact-compatible argument parsing (hand-rolled; single-dash long
//! flags like the original binaries: `-computeWorkers 16 -startNode 0`).

use std::path::PathBuf;

use blaze_algorithms::ExecMode;
use blaze_types::{BlazeError, Result, MAX_JOBS};

/// Parsed command line shared by all query binaries.
#[derive(Debug, Clone)]
pub struct CliArgs {
    /// Compute threads, split evenly between scatter and gather by
    /// `binning_ratio` (`-computeWorkers`, default 2).
    pub compute_workers: usize,
    /// Root vertex for traversals (`-startNode`, default 0).
    pub start_node: u32,
    /// Total bin space in bytes (`-binSpace`, given in MiB; 0 = paper
    /// heuristic).
    pub bin_space_bytes: usize,
    /// Scatter fraction of compute workers (`-binningRatio`, default 0.5).
    pub binning_ratio: f64,
    /// Number of bins (`-binCount`, default 1024).
    pub bin_count: usize,
    /// Device profile to simulate (`-device optane|nand|znand|vnand|none`).
    pub device: String,
    /// Maximum PageRank iterations (`-maxIters`, default 100).
    pub max_iters: usize,
    /// Concurrent queries submitted to one engine (`-jobs`, default 1):
    /// `bfs` runs this many copies of the query from separate threads
    /// against the shared persistent runtime. The other binaries refuse
    /// a value above 1 ([`parse_for`]), and none takes more than
    /// [`MAX_JOBS`]: each job is a query thread and an IO lane a device.
    pub jobs: usize,
    /// Clock page-cache budget in bytes (`-cache-mb`, given in MiB; default
    /// 0 = no cache, matching the published system).
    pub cache_bytes: usize,
    /// Cap on the per-device IO window (`-qd`). Absent = the engine's
    /// default on raw files (`-device none`), which reads inline on a fast
    /// device and keeps several requests in flight on a slow one, and 1 on
    /// a simulated device; `-qd 1` = the published engine's request
    /// stream, one read at a time in submission order.
    pub queue_depth: Option<usize>,
    /// Execution mode (`-mode binned|sync`, default binned).
    pub mode: ExecMode,
    /// Core threshold for the k-core query (`-k`, default 2).
    pub k: u32,
    /// Disable cross-job scan sharing (`-no-share`). By default, running
    /// with `-jobs` > 1 coalesces concurrent jobs' overlapping device
    /// reads through the flight table (one read, N consumers); this flag
    /// makes every job pay its own device IO, for A/B measurement.
    pub no_share: bool,
    /// The `.gr.index` file (first positional argument).
    pub index: PathBuf,
    /// The `.gr.adj.<i>` stripe files (remaining positional arguments).
    pub adj: Vec<PathBuf>,
    /// Transpose index (`-inIndexFilename`), for WCC/BC.
    pub in_index: Option<PathBuf>,
    /// Transpose stripe files (`-inAdjFilenames`, comma-separated).
    pub in_adj: Vec<PathBuf>,
}

impl Default for CliArgs {
    fn default() -> Self {
        Self {
            compute_workers: 2,
            start_node: 0,
            bin_space_bytes: 0,
            binning_ratio: 0.5,
            bin_count: 1024,
            device: "optane".to_string(),
            max_iters: 100,
            jobs: 1,
            cache_bytes: 0,
            queue_depth: None,
            mode: ExecMode::Binned,
            k: 2,
            no_share: false,
            index: PathBuf::new(),
            adj: Vec::new(),
            in_index: None,
            in_adj: Vec::new(),
        }
    }
}

/// Uniform numeric-flag parsing: every count-valued flag reports a missing
/// value, a malformed value, and an out-of-range value with the same
/// message shapes (`flag X needs a value`, `X: <value> is not a
/// non-negative integer`, `X must be >= N`).
fn parse_count(flag: &str, value: Option<&String>, min: usize) -> Result<usize> {
    let v = value.ok_or_else(|| BlazeError::Config(format!("flag {flag} needs a value")))?;
    let n: usize = v
        .parse()
        .map_err(|_| BlazeError::Config(format!("{flag}: {v:?} is not a non-negative integer")))?;
    if n < min {
        return Err(BlazeError::Config(format!("{flag} must be >= {min}")));
    }
    Ok(n)
}

/// A size flag given in MiB, returned in bytes. A value whose byte count
/// does not fit a `usize` is refused here: shifted unchecked it would wrap
/// (2^44 MiB becomes 0, which means "no cache").
fn parse_mib(flag: &str, value: Option<&String>) -> Result<usize> {
    let mib = parse_count(flag, value, 0)?;
    mib.checked_mul(1 << 20)
        .ok_or_else(|| BlazeError::Config(format!("{flag}: {mib} MiB is not an addressable size")))
}

/// Parses an artifact-style argument list (without the program name).
pub fn parse(args: &[String]) -> Result<CliArgs> {
    let mut out = CliArgs::default();
    let mut positional: Vec<PathBuf> = Vec::new();
    let mut once = crate::toolargs::FlagOnce::new();
    let mut it = args.iter();
    let missing = |flag: &str| BlazeError::Config(format!("flag {flag} needs a value"));
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-computeWorkers" => {
                out.compute_workers = it
                    .next()
                    .ok_or_else(|| missing("-computeWorkers"))?
                    .parse()
                    .map_err(|e| BlazeError::Config(format!("-computeWorkers: {e}")))?;
            }
            "-startNode" => {
                out.start_node = it
                    .next()
                    .ok_or_else(|| missing("-startNode"))?
                    .parse()
                    .map_err(|e| BlazeError::Config(format!("-startNode: {e}")))?;
            }
            "-binSpace" => {
                out.bin_space_bytes = parse_mib("-binSpace", it.next())?;
            }
            "-binningRatio" => {
                out.binning_ratio = it
                    .next()
                    .ok_or_else(|| missing("-binningRatio"))?
                    .parse()
                    .map_err(|e| BlazeError::Config(format!("-binningRatio: {e}")))?;
                // NaN fails both comparisons.
                if !(out.binning_ratio > 0.0 && out.binning_ratio < 1.0) {
                    return Err(BlazeError::Config(format!(
                        "-binningRatio {} is not a scatter share between 0 and 1",
                        out.binning_ratio
                    )));
                }
            }
            "-binCount" => {
                out.bin_count = it
                    .next()
                    .ok_or_else(|| missing("-binCount"))?
                    .parse()
                    .map_err(|e| BlazeError::Config(format!("-binCount: {e}")))?;
            }
            "-maxIters" => {
                out.max_iters = it
                    .next()
                    .ok_or_else(|| missing("-maxIters"))?
                    .parse()
                    .map_err(|e| BlazeError::Config(format!("-maxIters: {e}")))?;
            }
            "-jobs" => {
                out.jobs = parse_count("-jobs", it.next(), 1)?;
                if out.jobs > MAX_JOBS {
                    return Err(BlazeError::Config(format!("-jobs must be <= {MAX_JOBS}")));
                }
            }
            "-cache-mb" => {
                out.cache_bytes = parse_mib("-cache-mb", it.next())?;
            }
            "-qd" => {
                out.queue_depth = Some(parse_count("-qd", it.next(), 1)?);
            }
            "-k" => {
                out.k = parse_count("-k", it.next(), 1)? as u32;
            }
            "-no-share" => {
                // A repeat means a mangled command line (probably meant to
                // toggle something else); reject like the dataset tools do.
                once.check("-no-share").map_err(BlazeError::Config)?;
                out.no_share = true;
            }
            "-mode" => {
                let v = it.next().ok_or_else(|| missing("-mode"))?;
                out.mode = ExecMode::parse(v).ok_or_else(|| {
                    BlazeError::Config(format!("unknown -mode {v} (expected binned|sync)"))
                })?;
            }
            "-device" => {
                out.device = it.next().ok_or_else(|| missing("-device"))?.clone();
            }
            "-inIndexFilename" => {
                out.in_index = Some(PathBuf::from(
                    it.next().ok_or_else(|| missing("-inIndexFilename"))?,
                ));
            }
            "-inAdjFilenames" => {
                let v = it.next().ok_or_else(|| missing("-inAdjFilenames"))?;
                out.in_adj = v.split(',').map(PathBuf::from).collect();
            }
            flag if flag.starts_with('-') => {
                return Err(BlazeError::Config(format!("unknown flag {flag}")));
            }
            path => positional.push(PathBuf::from(path)),
        }
    }
    if positional.is_empty() {
        return Err(BlazeError::Config(
            "usage: <query> [flags] <graph.gr.index> <graph.gr.adj.0> [more stripes...]".into(),
        ));
    }
    out.index = positional.remove(0);
    out.adj = positional;
    if out.adj.is_empty() {
        return Err(BlazeError::Config(
            "at least one .gr.adj stripe file is required".into(),
        ));
    }
    Ok(out)
}

/// [`parse`] for the `query` binary. Flags that parse but that the binary
/// would accept and then not act on are a usage error, not a silent no-op:
/// only `bfs` submits `-jobs` copies of its query.
pub fn parse_for(query: &str, args: &[String]) -> Result<CliArgs> {
    let out = parse(args)?;
    if out.jobs > 1 && query != "bfs" {
        return Err(BlazeError::Config(format!(
            "-jobs {} is not supported by {query} (only bfs runs concurrent jobs)",
            out.jobs
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_artifact_example() {
        // From the artifact appendix: bfs -computeWorkers 16 -startNode 0 ...
        let a = parse(&args(
            "-computeWorkers 16 -startNode 0 /mnt/nvme/rmat27.gr.index /mnt/nvme/rmat27.gr.adj.0",
        ))
        .unwrap();
        assert_eq!(a.compute_workers, 16);
        assert_eq!(a.start_node, 0);
        assert_eq!(a.index.to_str().unwrap(), "/mnt/nvme/rmat27.gr.index");
        assert_eq!(a.adj.len(), 1);
    }

    #[test]
    fn parses_transpose_flags() {
        let a = parse(&args(
            "-computeWorkers 16 g.gr.index g.gr.adj.0 -inIndexFilename g.tgr.index \
             -inAdjFilenames g.tgr.adj.0,g.tgr.adj.1",
        ))
        .unwrap();
        assert!(a.in_index.is_some());
        assert_eq!(a.in_adj.len(), 2);
    }

    #[test]
    fn parses_binning_flags() {
        let a = parse(&args(
            "-binSpace 256 -binningRatio 0.5 -binCount 1024 g.gr.index g.gr.adj.0",
        ))
        .unwrap();
        assert_eq!(a.bin_space_bytes, 256 << 20);
        assert_eq!(a.bin_count, 1024);
        assert!((a.binning_ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parses_jobs_flag() {
        let a = parse(&args("-jobs 4 g.gr.index g.gr.adj.0")).unwrap();
        assert_eq!(a.jobs, 4);
        assert_eq!(parse(&args("g.gr.index g.gr.adj.0")).unwrap().jobs, 1);
        assert!(parse(&args("-jobs 0 g.gr.index g.gr.adj.0")).is_err());
        let at = format!("-jobs {MAX_JOBS} g.gr.index g.gr.adj.0");
        assert_eq!(parse(&args(&at)).unwrap().jobs, MAX_JOBS);
        let over = format!("-jobs {} g.gr.index g.gr.adj.0", MAX_JOBS + 1);
        assert_eq!(
            parse(&args(&over)).unwrap_err().to_string(),
            format!("configuration error: -jobs must be <= {MAX_JOBS}")
        );
    }

    #[test]
    fn parses_cache_flag() {
        let a = parse(&args("-cache-mb 64 g.gr.index g.gr.adj.0")).unwrap();
        assert_eq!(a.cache_bytes, 64 << 20);
        assert_eq!(
            parse(&args("g.gr.index g.gr.adj.0")).unwrap().cache_bytes,
            0
        );
        assert!(parse(&args("-cache-mb x g.gr.index g.gr.adj.0")).is_err());
        assert!(parse(&args("-cache-mb")).is_err());
    }

    #[test]
    fn parses_queue_depth_flag() {
        let a = parse(&args("-qd 32 g.gr.index g.gr.adj.0")).unwrap();
        assert_eq!(a.queue_depth, Some(32));
        let a = parse(&args("-qd 1 g.gr.index g.gr.adj.0")).unwrap();
        assert_eq!(a.queue_depth, Some(1), "the published stream is asked for");
        assert_eq!(
            parse(&args("g.gr.index g.gr.adj.0")).unwrap().queue_depth,
            None,
            "absent leaves the engine's default"
        );
        assert!(parse(&args("-qd 0 g.gr.index g.gr.adj.0")).is_err());
        assert!(parse(&args("-qd x g.gr.index g.gr.adj.0")).is_err());
        assert!(parse(&args("-qd")).is_err());
    }

    #[test]
    fn parses_mode_flag() {
        let a = parse(&args("-mode sync g.gr.index g.gr.adj.0")).unwrap();
        assert_eq!(a.mode, ExecMode::Sync);
        let a = parse(&args("g.gr.index g.gr.adj.0")).unwrap();
        assert_eq!(a.mode, ExecMode::Binned);
        let err = parse(&args("-mode turbo g.gr.index g.gr.adj.0")).unwrap_err();
        assert!(err.to_string().contains("expected binned|sync"), "{err}");
        assert!(parse(&args("-mode")).is_err());
    }

    #[test]
    fn parses_no_share_flag() {
        let a = parse(&args("-no-share g.gr.index g.gr.adj.0")).unwrap();
        assert!(a.no_share);
        assert!(!parse(&args("g.gr.index g.gr.adj.0")).unwrap().no_share);
    }

    /// `-no-share` shares the `FlagOnce` duplicate rejection and its
    /// exact diagnostic shape.
    #[test]
    fn rejects_duplicate_no_share_flag() {
        let err = parse(&args("-no-share -no-share g.gr.index g.gr.adj.0"))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("duplicate flag -no-share (each may be given once)"),
            "{err:?}"
        );
    }

    #[test]
    fn parses_k_flag() {
        let a = parse(&args("-k 4 g.gr.index g.gr.adj.0")).unwrap();
        assert_eq!(a.k, 4);
        assert_eq!(parse(&args("g.gr.index g.gr.adj.0")).unwrap().k, 2);
        assert!(parse(&args("-k 0 g.gr.index g.gr.adj.0")).is_err());
    }

    /// Satellite contract: `-jobs`, `-qd`, and `-cache-mb` all go through
    /// one parse helper, so their error messages share one shape for each
    /// failure class instead of drifting per flag.
    #[test]
    fn numeric_flags_report_uniform_errors() {
        let msg = |input: &str| parse(&args(input)).unwrap_err().to_string();
        // Missing value: "flag <f> needs a value".
        for flag in ["-jobs", "-qd", "-cache-mb"] {
            assert_eq!(
                msg(flag),
                format!("configuration error: flag {flag} needs a value")
            );
        }
        // Malformed value: "<f>: <v> is not a non-negative integer".
        for flag in ["-jobs", "-qd", "-cache-mb"] {
            assert_eq!(
                msg(&format!("{flag} x g.gr.index g.gr.adj.0")),
                format!("configuration error: {flag}: \"x\" is not a non-negative integer")
            );
            assert_eq!(
                msg(&format!("{flag} -3 g.gr.index g.gr.adj.0")),
                format!("configuration error: {flag}: \"-3\" is not a non-negative integer")
            );
        }
        // Below-minimum value: "<f> must be >= <min>"; zero stays legal
        // for -cache-mb (0 = cache disabled) and illegal for the rest.
        for flag in ["-jobs", "-qd"] {
            assert_eq!(
                msg(&format!("{flag} 0 g.gr.index g.gr.adj.0")),
                format!("configuration error: {flag} must be >= 1")
            );
        }
        let a = parse(&args("-cache-mb 0 g.gr.index g.gr.adj.0")).unwrap();
        assert_eq!(a.cache_bytes, 0);
    }

    #[test]
    fn rejects_unknown_flags_and_missing_files() {
        assert!(parse(&args("-bogus 1 g.gr.index g.gr.adj.0")).is_err());
        assert!(parse(&args("-computeWorkers 4")).is_err());
        assert!(parse(&args("g.gr.index")).is_err());
        assert!(parse(&args("-computeWorkers")).is_err());
    }
}
