//! The one flag table and the one parser behind `blaze <command>`.
//!
//! [`FLAGS`] declares every flag once: its spelling (the queries keep the
//! artifact's single-dash long flags, `-computeWorkers 16 -startNode 0`;
//! the dataset tools speak double dash), whether it takes a value, one
//! line of help, which rows of the command table read it, and the function that parses
//! and bounds its value. [`parse`] walks a command line against that table
//! under one set of rules for both dialects. Each of these is a
//! configuration error (exit 2) that names the flag: a flag the table does
//! not hold, a flag the named command does not read, a missing, malformed
//! or out-of-range value, and a flag given twice. Only the tools' boolean
//! switches may repeat. A new flag is one table entry that every command
//! gets or explicitly does not.

use std::path::PathBuf;

use blaze_algorithms::ExecMode;
use blaze_graph::{DatasetScale, VertexLayout};
use blaze_storage::DeviceProfile;
use blaze_types::{BlazeError, Result, MAX_JOBS};

use crate::commands::Command;

/// A parsed command line: one field per row of [`FLAGS`], named after its
/// flag and at its default where the flag was not given (what each means is
/// the row's line of help), plus the operands. Sizes are in bytes here and
/// in MiB on the command line.
#[derive(Debug, Clone)]
pub(crate) struct CliArgs {
    pub compute_workers: usize,
    pub start_node: u32,
    pub bin_space_bytes: usize,
    pub binning_ratio: f64,
    pub bin_count: usize,
    /// `None` runs on the raw files.
    pub device: Option<DeviceProfile>,
    pub max_iters: usize,
    pub jobs: usize,
    pub cache_bytes: usize,
    /// `None` leaves the choice to `engine_options`.
    pub queue_depth: Option<usize>,
    pub mode: ExecMode,
    pub k: u32,
    pub no_share: bool,
    pub in_index: Option<PathBuf>,
    pub in_adj: Vec<PathBuf>,
    pub stripes: usize,
    pub layout: VertexLayout,
    pub dedup: bool,
    pub binary: bool,
    pub scale: DatasetScale,
    /// Everything that is not a flag or a flag's value, in order.
    pub operands: Vec<String>,
}

impl Default for CliArgs {
    fn default() -> Self {
        Self {
            compute_workers: 2,
            start_node: 0,
            bin_space_bytes: 0,
            binning_ratio: 0.5,
            bin_count: blaze_types::DEFAULT_BIN_COUNT,
            device: Some(DeviceProfile::optane_p4800x()),
            max_iters: 100,
            jobs: 1,
            cache_bytes: 0,
            queue_depth: None,
            mode: ExecMode::Binned,
            k: 2,
            no_share: false,
            in_index: None,
            in_adj: Vec::new(),
            stripes: 1,
            layout: VertexLayout::None,
            dedup: false,
            binary: false,
            scale: DatasetScale::Tiny,
            operands: Vec::new(),
        }
    }
}

/// One row of the flag table.
pub struct Flag {
    /// The spelling on the command line.
    pub name: &'static str,
    /// How the usage text shows the value; `None` for a boolean switch.
    pub(crate) value: Option<&'static str>,
    /// One line of help, printed by the usage text.
    pub help: &'static str,
    /// Whether a command reads the flag; a command that does not refuses it.
    pub(crate) readers: fn(&Command) -> bool,
    /// Parses and bounds the value (`""` for a switch) and stores it. The
    /// second argument is the flag's spelling, for the error message.
    set: fn(&mut CliArgs, &str, &str) -> Result<()>,
}

// The rows that a rule outside their own `set` has to name.

pub(crate) const START_NODE: Flag = Flag {
    name: "-startNode",
    value: Some("V"),
    help: "root vertex of the traversal, in original ids (default 0)",
    readers: |c| ["bfs", "sssp", "bc"].contains(&c.name),
    set: |a, f, v| put(&mut a.start_node, int(f, v, 0, u32::MAX.into())),
};
const JOBS: Flag = Flag {
    name: "-jobs",
    value: Some("N"),
    help: "copies of the query run concurrently on one engine, sharing device reads (default 1)",
    readers: |c| c.name == "bfs",
    set: |a, f, v| put(&mut a.jobs, int(f, v, 1, MAX_JOBS as u64)),
};
const NO_SHARE: Flag = Flag {
    name: "-no-share",
    value: None,
    help: "with several jobs: every job pays its own device IO, for A/B measurement",
    readers: |c| c.name == "bfs",
    set: |a, _, _| put(&mut a.no_share, Ok(true)),
};
pub(crate) const IN_INDEX: Flag = Flag {
    name: "-inIndexFilename",
    value: Some("FILE"),
    help: "the transpose's .tgr.index file",
    readers: Command::takes_transpose,
    set: |a, _, v| put(&mut a.in_index, Ok(Some(PathBuf::from(v)))),
};
pub(crate) const IN_ADJ: Flag = Flag {
    name: "-inAdjFilenames",
    value: Some("F0,F1,.."),
    help: "the transpose's .tgr.adj.<i> stripe files, comma-separated",
    readers: Command::takes_transpose,
    set: |a, _, v| put(&mut a.in_adj, Ok(v.split(',').map(PathBuf::from).collect())),
};

/// Every flag of every command.
pub const FLAGS: &[Flag] = &[
    Flag {
        name: "-computeWorkers",
        value: Some("N"),
        help: "compute threads, split between scatter and gather (default 2)",
        readers: Command::is_query,
        set: |a, f, v| put(&mut a.compute_workers, int(f, v, 0, u64::MAX)),
    },
    START_NODE,
    Flag {
        name: "-binSpace",
        value: Some("MIB"),
        help: "total bin space in MiB (default: the paper's 5% of the graph)",
        readers: Command::is_query,
        set: |a, f, v| put(&mut a.bin_space_bytes, mib(f, v)),
    },
    Flag {
        name: "-binningRatio",
        value: Some("R"),
        help: "scatter share of the compute workers, between 0 and 1 (default 0.5)",
        readers: Command::is_query,
        set: |a, f, v| put(&mut a.binning_ratio, ratio(f, v)),
    },
    Flag {
        name: "-binCount",
        value: Some("N"),
        help: "number of bins (default 1024)",
        readers: Command::is_query,
        set: |a, f, v| put(&mut a.bin_count, int(f, v, 0, u64::MAX)),
    },
    Flag {
        name: "-device",
        value: Some("NAME"),
        help: "device model to simulate: optane|nand|znand|vnand, or none for raw files (default optane)",
        readers: Command::is_query,
        set: |a, f, v| put(&mut a.device, device(f, v)),
    },
    Flag {
        name: "-cache-mb",
        value: Some("MIB"),
        help: "clock page cache of this many MiB (default 0: no cache, the published system)",
        readers: Command::is_query,
        set: |a, f, v| put(&mut a.cache_bytes, mib(f, v)),
    },
    Flag {
        name: "-qd",
        value: Some("N"),
        help: "cap on the per-device IO window; 1 is the published one-read-at-a-time stream \
               (default: 16 and adaptive on raw files, 1 on a simulated device)",
        readers: Command::is_query,
        set: |a, f, v| put(&mut a.queue_depth, int(f, v, 1, u64::MAX).map(Some)),
    },
    Flag {
        name: "-mode",
        value: Some("M"),
        help: "binned (online binning) or sync (compare-and-swap) (default binned)",
        readers: Command::is_query,
        set: |a, f, v| {
            let mode = ExecMode::parse(v);
            put(
                &mut a.mode,
                mode.ok_or_else(|| config(format!("unknown {f} {v} (expected binned|sync)"))),
            )
        },
    },
    Flag {
        name: "-maxIters",
        value: Some("N"),
        help: "most PageRank iterations (default 100)",
        readers: |c| c.name == "pr",
        set: |a, f, v| put(&mut a.max_iters, int(f, v, 0, u64::MAX)),
    },
    Flag {
        name: "-k",
        value: Some("K"),
        help: "core threshold (default 2)",
        readers: |c| c.name == "kcore",
        set: |a, f, v| put(&mut a.k, int(f, v, 1, u32::MAX.into())),
    },
    JOBS,
    NO_SHARE,
    IN_INDEX,
    IN_ADJ,
    Flag {
        name: "--stripes",
        value: Some("N"),
        help: "stripe files written per direction (default 1)",
        readers: Command::is_tool,
        set: |a, f, v| {
            let n = v.parse().ok().filter(|&n: &usize| n > 0);
            put(
                &mut a.stripes,
                n.ok_or_else(|| config(format!("bad {f} (want a positive integer)"))),
            )
        },
    },
    Flag {
        name: "--layout",
        value: Some("L"),
        help: "physical vertex order: degree|hub|none; queries still speak original ids (default none)",
        readers: Command::is_tool,
        set: |a, f, v| {
            let layout = VertexLayout::parse(v);
            put(
                &mut a.layout,
                layout.ok_or_else(|| config(format!("bad {f} {v:?} (want degree|hub|none)"))),
            )
        },
    },
    Flag {
        name: "--dedup",
        value: None,
        help: "drop duplicate edges",
        readers: |c| c.name == "convert",
        set: |a, _, _| put(&mut a.dedup, Ok(true)),
    },
    Flag {
        name: "--binary",
        value: None,
        help: "the input is a binary edge list (u64 count, then u32 pairs), not text",
        readers: |c| c.name == "convert",
        set: |a, _, _| put(&mut a.binary, Ok(true)),
    },
    Flag {
        name: "--scale",
        value: Some("S"),
        help: "dataset size: tiny|small|medium (default tiny)",
        readers: |c| c.name == "gengraph",
        set: |a, f, v| {
            let scale = match v {
                "tiny" => Ok(DatasetScale::Tiny),
                "small" => Ok(DatasetScale::Small),
                "medium" => Ok(DatasetScale::Medium),
                _ => Err(config(format!("bad {f} {v:?} (want tiny|small|medium)"))),
            };
            put(&mut a.scale, scale)
        },
    },
];

fn config(message: String) -> BlazeError {
    BlazeError::Config(message)
}

fn put<T>(slot: &mut T, value: Result<T>) -> Result<()> {
    *slot = value?;
    Ok(())
}

/// An integer within `min..=max` that fits `T`. Every integer-valued flag
/// reports a malformed value and an out-of-range one with the same three
/// message shapes.
fn int<T: TryFrom<u64>>(flag: &str, value: &str, min: u64, max: u64) -> Result<T> {
    let n: u64 = value
        .parse()
        .map_err(|_| config(format!("{flag}: {value:?} is not a non-negative integer")))?;
    if n < min {
        return Err(config(format!("{flag} must be >= {min}")));
    }
    match T::try_from(n) {
        Ok(fits) if n <= max => Ok(fits),
        _ => Err(config(format!("{flag} must be <= {max}"))),
    }
}

/// A size given in MiB, returned in bytes. A value whose byte count does not
/// fit a `usize` is refused here: shifted unchecked it would wrap (2^44 MiB
/// becomes 0, which means "no cache").
fn mib(flag: &str, value: &str) -> Result<usize> {
    let mib: usize = int(flag, value, 0, u64::MAX)?;
    mib.checked_mul(1 << 20)
        .ok_or_else(|| config(format!("{flag}: {mib} MiB is not an addressable size")))
}

/// A share strictly between 0 and 1 (`nan` fails both comparisons).
fn ratio(flag: &str, value: &str) -> Result<f64> {
    let r: f64 = value.parse().map_err(|e| config(format!("{flag}: {e}")))?;
    if !(r > 0.0 && r < 1.0) {
        return Err(config(format!(
            "{flag} {r} is not a scatter share between 0 and 1"
        )));
    }
    Ok(r)
}

/// The simulation profile a device name stands for; `none` runs on the raw
/// files.
fn device(flag: &str, value: &str) -> Result<Option<DeviceProfile>> {
    Ok(match value {
        "optane" => Some(DeviceProfile::optane_p4800x()),
        "nand" => Some(DeviceProfile::nand_s3520()),
        "znand" => Some(DeviceProfile::znand_sz983()),
        "vnand" => Some(DeviceProfile::vnand_980pro()),
        "none" => None,
        other => {
            return Err(config(format!(
                "unknown {flag} {other} (expected optane|nand|znand|vnand|none)"
            )))
        }
    })
}

/// Parses `args`, the command line after the command's name, for `command`.
pub(crate) fn parse(command: &Command, args: &[String]) -> Result<CliArgs> {
    let name = command.name;
    let mut out = CliArgs::default();
    let mut seen: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            out.operands.push(arg.clone());
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| config(format!("unknown flag {arg}")))?;
        let value = match flag.value {
            Some(_) => it
                .next()
                .ok_or_else(|| config(format!("flag {arg} needs a value")))?,
            None => "",
        };
        if !(flag.readers)(command) {
            return Err(config(if flag.name == JOBS.name {
                // Older than the table, and kept word for word.
                format!("{arg} {value} is not supported by {name} (only bfs runs concurrent jobs)")
            } else {
                format!("{arg} is not read by {name}")
            }));
        }
        // A repeat is a mangled command line, and honouring one of two
        // values in silence is how `--layout degree ... --layout none`
        // corrupts a dataset. The tools' switches are idempotent.
        let may_repeat = flag.value.is_none() && command.is_tool();
        if seen.contains(&flag.name) && !may_repeat {
            return Err(config(format!(
                "duplicate flag {arg} (each may be given once)"
            )));
        }
        seen.push(flag.name);
        (flag.set)(&mut out, flag.name, value)?;
    }
    if out.no_share && out.jobs < 2 {
        return Err(config(format!(
            "{} needs {} above 1: one job has no other job's reads to share",
            NO_SHARE.name, JOBS.name
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

    /// `blaze <command> <s>`, parsed.
    fn parse_as(command: &str, s: &str) -> Result<CliArgs> {
        parse(Command::named(command).unwrap(), &args(s))
    }

    fn parse_bfs(s: &str) -> Result<CliArgs> {
        parse_as("bfs", s)
    }

    fn message(command: &str, s: &str) -> String {
        parse_as(command, s).unwrap_err().to_string()
    }

    #[test]
    fn parses_artifact_example() {
        // From the artifact appendix: bfs -computeWorkers 16 -startNode 0 ...
        let a = parse_bfs(
            "-computeWorkers 16 -startNode 0 /mnt/nvme/rmat27.gr.index /mnt/nvme/rmat27.gr.adj.0",
        )
        .unwrap();
        assert_eq!(a.compute_workers, 16);
        assert_eq!(a.start_node, 0);
        assert_eq!(a.operands[0], "/mnt/nvme/rmat27.gr.index");
        assert_eq!(a.operands.len() - 1, 1);
    }

    #[test]
    fn parses_transpose_flags() {
        let a = parse_as(
            "wcc",
            "-computeWorkers 16 g.gr.index g.gr.adj.0 -inIndexFilename g.tgr.index \
             -inAdjFilenames g.tgr.adj.0,g.tgr.adj.1",
        )
        .unwrap();
        assert!(a.in_index.is_some());
        assert_eq!(a.in_adj.len(), 2);
    }

    #[test]
    fn parses_binning_flags() {
        let a = parse_bfs("-binSpace 256 -binningRatio 0.5 -binCount 1024 g.gr.index g.gr.adj.0")
            .unwrap();
        assert_eq!(a.bin_space_bytes, 256 << 20);
        assert_eq!(a.bin_count, 1024);
        assert!((a.binning_ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parses_jobs_flag() {
        let a = parse_bfs("-jobs 4 g.gr.index g.gr.adj.0").unwrap();
        assert_eq!(a.jobs, 4);
        assert_eq!(parse_bfs("g.gr.index g.gr.adj.0").unwrap().jobs, 1);
        assert!(parse_bfs("-jobs 0 g.gr.index g.gr.adj.0").is_err());
        let at = format!("-jobs {MAX_JOBS} g.gr.index g.gr.adj.0");
        assert_eq!(parse_bfs(&at).unwrap().jobs, MAX_JOBS);
        let over = format!("-jobs {} g.gr.index g.gr.adj.0", MAX_JOBS + 1);
        assert_eq!(
            message("bfs", &over),
            format!("configuration error: -jobs must be <= {MAX_JOBS}")
        );
    }

    #[test]
    fn parses_cache_flag() {
        let a = parse_bfs("-cache-mb 64 g.gr.index g.gr.adj.0").unwrap();
        assert_eq!(a.cache_bytes, 64 << 20);
        assert_eq!(parse_bfs("g.gr.index g.gr.adj.0").unwrap().cache_bytes, 0);
        assert!(parse_bfs("-cache-mb x g.gr.index g.gr.adj.0").is_err());
        assert!(parse_bfs("-cache-mb").is_err());
    }

    #[test]
    fn parses_queue_depth_flag() {
        let a = parse_bfs("-qd 32 g.gr.index g.gr.adj.0").unwrap();
        assert_eq!(a.queue_depth, Some(32));
        let a = parse_bfs("-qd 1 g.gr.index g.gr.adj.0").unwrap();
        assert_eq!(a.queue_depth, Some(1), "the published stream is asked for");
        assert_eq!(
            parse_bfs("g.gr.index g.gr.adj.0").unwrap().queue_depth,
            None,
            "absent leaves the engine's default"
        );
        assert!(parse_bfs("-qd 0 g.gr.index g.gr.adj.0").is_err());
        assert!(parse_bfs("-qd x g.gr.index g.gr.adj.0").is_err());
        assert!(parse_bfs("-qd").is_err());
    }

    #[test]
    fn parses_mode_flag() {
        let a = parse_bfs("-mode sync g.gr.index g.gr.adj.0").unwrap();
        assert_eq!(a.mode, ExecMode::Sync);
        let a = parse_bfs("g.gr.index g.gr.adj.0").unwrap();
        assert_eq!(a.mode, ExecMode::Binned);
        let err = message("bfs", "-mode turbo g.gr.index g.gr.adj.0");
        assert!(err.contains("expected binned|sync"), "{err}");
        assert!(parse_bfs("-mode").is_err());
    }

    #[test]
    fn parses_device_flag() {
        assert!(parse_bfs("g.gr.index g.gr.adj.0").unwrap().device.is_some());
        let raw = parse_bfs("-device none g.gr.index g.gr.adj.0").unwrap();
        assert!(raw.device.is_none());
        let err = message("bfs", "-device floppy g.gr.index g.gr.adj.0");
        assert!(err.contains("unknown -device floppy"), "{err}");
    }

    #[test]
    fn parses_no_share_flag() {
        let a = parse_bfs("-jobs 2 -no-share g.gr.index g.gr.adj.0").unwrap();
        assert!(a.no_share);
        assert!(!parse_bfs("g.gr.index g.gr.adj.0").unwrap().no_share);
        // Without a second job there is nothing it could turn off.
        let err = message("bfs", "-no-share g.gr.index g.gr.adj.0");
        assert!(err.contains("-no-share needs -jobs above 1"), "{err}");
    }

    /// `-no-share` shares the duplicate rejection and its exact diagnostic
    /// shape with the value-taking flags.
    #[test]
    fn rejects_duplicate_no_share_flag() {
        let err = message("bfs", "-jobs 2 -no-share -no-share g.gr.index g.gr.adj.0");
        assert!(
            err.contains("duplicate flag -no-share (each may be given once)"),
            "{err:?}"
        );
    }

    #[test]
    fn parses_k_flag() {
        let kcore = |s: &str| parse_as("kcore", s);
        assert_eq!(kcore("-k 4 g.gr.index g.gr.adj.0").unwrap().k, 4);
        assert_eq!(kcore("g.gr.index g.gr.adj.0").unwrap().k, 2);
        assert!(kcore("-k 0 g.gr.index g.gr.adj.0").is_err());
        // 2^32 + 2 used to run as `-k 2`.
        assert_eq!(
            message("kcore", "-k 4294967298 g.gr.index g.gr.adj.0"),
            "configuration error: -k must be <= 4294967295"
        );
    }

    /// `-jobs`, `-qd`, and `-cache-mb` all go through one parse helper, so
    /// their error messages share one shape for each failure class instead
    /// of drifting per flag.
    #[test]
    fn numeric_flags_report_uniform_errors() {
        let msg = |input: &str| message("bfs", input);
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
        let a = parse_bfs("-cache-mb 0 g.gr.index g.gr.adj.0").unwrap();
        assert_eq!(a.cache_bytes, 0);
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(parse_bfs("-bogus 1 g.gr.index g.gr.adj.0").is_err());
        assert!(parse_bfs("-computeWorkers").is_err());
        // The tools' dialect goes through the same lookup.
        assert_eq!(
            message("convert", "in out --bogus"),
            "configuration error: unknown flag --bogus"
        );
    }

    /// A flag is refused by every command the table does not list for it,
    /// in either dialect, and a command is not handed the other dialect.
    #[test]
    fn a_flag_the_command_does_not_read_is_refused() {
        assert_eq!(
            message("lp", "-startNode 3 g.gr.index g.gr.adj.0"),
            "configuration error: -startNode is not read by lp"
        );
        assert_eq!(
            message("gengraph", "rmat27 out --dedup"),
            "configuration error: --dedup is not read by gengraph"
        );
        assert_eq!(
            message("bfs", "--stripes 2 g.gr.index g.gr.adj.0"),
            "configuration error: --stripes is not read by bfs"
        );
        assert_eq!(
            message("spmv", "-jobs 3 g.gr.index g.gr.adj.0"),
            "configuration error: -jobs 3 is not supported by spmv (only bfs runs concurrent jobs)"
        );
    }

    #[test]
    fn every_flag_has_a_reader_one_line_of_help_and_its_own_spelling() {
        for (i, flag) in FLAGS.iter().enumerate() {
            let read = crate::COMMANDS.iter().any(|c| (flag.readers)(c));
            assert!(read, "no command reads {}", flag.name);
            assert!(!flag.help.is_empty() && !flag.help.contains('\n'));
            assert!(FLAGS[..i].iter().all(|f| f.name != flag.name));
        }
    }

    // The dataset tools' dialect.

    fn parse_tool(s: &str) -> std::result::Result<CliArgs, String> {
        parse_as("convert", s).map_err(|e| e.to_string())
    }

    #[test]
    fn accepts_each_value_flag_once() {
        let a = parse_tool("in out --stripes 2 --layout degree --dedup").unwrap();
        assert_eq!(a.operands, vec!["in", "out"]);
        assert_eq!(a.stripes, 2);
        assert_eq!(a.layout, VertexLayout::Degree);
        assert!(a.dedup);
        let a = parse_as("gengraph", "rmat27 out --scale small").unwrap();
        assert_eq!(a.scale, DatasetScale::Small);
    }

    #[test]
    fn rejects_duplicate_value_flags_with_one_diagnostic() {
        for (command, dup) in [
            ("convert", "in out --stripes 2 --stripes 4"),
            ("convert", "in out --layout degree --layout none"),
            ("gengraph", "in out --scale tiny --scale small"),
            ("bfs", "in out -startNode 0 -startNode 5"),
        ] {
            let flag = dup.split_whitespace().nth(2).unwrap();
            assert_eq!(
                message(command, dup),
                format!("configuration error: duplicate flag {flag} (each may be given once)"),
                "input: {dup}"
            );
        }
        // Even an identical repeat is rejected — repetition is the signal
        // of a mangled command line, not the values disagreeing.
        assert!(parse_tool("in out --layout hub --layout hub").is_err());
        // Boolean switches are idempotent and may repeat.
        assert!(parse_tool("in out --dedup --dedup").is_ok());
    }

    #[test]
    fn rejects_zero_and_malformed_stripes() {
        assert_eq!(
            parse_tool("in out --stripes 0").unwrap_err(),
            "configuration error: bad --stripes (want a positive integer)"
        );
        assert!(parse_tool("in out --stripes x").is_err());
        assert!(parse_tool("in out --stripes").is_err());
    }
}
