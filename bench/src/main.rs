//! `blazebench`: the repository's wall-clock benchmark. See `README.md`.
//!
//! ```text
//! blazebench --workload W --seed N --seconds S --trace 0|1   one workload, one JSON result line
//! blazebench run [--seed N] [--scale S] [--rounds R] [--smoke]  all workloads, every metric
//! blazebench compare A.json B.json [--benchmark BENCHMARK.json]
//! ```

mod compare;
mod host;
mod json;
mod metrics;
mod paced;
mod session;
mod stats;
mod sut;
mod trace;
mod verify;
mod worker;
mod workload;
mod yardstick;

#[cfg(test)]
mod tests;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use session::{Options, Stop};

/// Errors are messages: the benchmark reports them and exits non-zero.
pub type Res<T> = Result<T, String>;

/// |V| = 2^20, about 16 M edges and 64 MiB of adjacency per graph.
const DEFAULT_SCALE: u32 = 20;
const SMOKE_SCALE: u32 = 12;
const DEFAULT_ROUNDS: usize = 7;
const SMOKE_ROUNDS: usize = 2;

const USAGE: &str = "usage:
  blazebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <s>] [--out <dir>]
  blazebench run [--seed <n>] [--scale <s>] [--rounds <r>] [--smoke] [--out <dir>] [--label <rev>]
  blazebench compare <A.json> <B.json> [--benchmark <BENCHMARK.json>]
workloads: pr_scan bfs_fit bfs_paced mixed_2job";

/// `--key value` pairs and bare flags after the subcommand.
struct Args {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

impl Args {
    const FLAGS: [&'static str; 2] = ["--smoke", "--corrupt-expected"];

    fn parse(args: &[String]) -> Res<Args> {
        let mut parsed = Args {
            positional: Vec::new(),
            options: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if Self::FLAGS.contains(&arg.as_str()) {
                parsed.options.push((arg.clone(), None));
            } else if arg.starts_with("--") {
                let value = it.next().ok_or(format!("{arg} needs a value"))?;
                parsed.options.push((arg.clone(), Some(value.clone())));
            } else {
                parsed.positional.push(arg.clone());
            }
        }
        Ok(parsed)
    }

    fn flag(&self, name: &str) -> bool {
        self.options.iter().any(|(k, _)| k == name)
    }

    fn value<T: std::str::FromStr>(&self, name: &str) -> Res<Option<T>> {
        match self.options.iter().find(|(k, _)| k == name) {
            None => Ok(None),
            Some((_, v)) => v
                .as_deref()
                .and_then(|v| v.parse().ok())
                .map(Some)
                .ok_or(format!("bad value for {name}")),
        }
    }

    fn check_known(&self, known: &[&str]) -> Res<()> {
        match self
            .options
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option {k}\n{USAGE}")),
            None => Ok(()),
        }
    }
}

/// The short git revision of the working directory, if there is one.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "norev".into())
}

/// A scratch directory of this process below `out`, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(out: &Path) -> Res<WorkDir> {
        let dir = out.join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a finished measurement leaves for its caller to report.
struct Outcome {
    opts: Options,
    out: PathBuf,
    results: Vec<metrics::WorkloadResult>,
    /// The layer probes; empty when nothing was traced.
    probes: Vec<metrics::Measured>,
}

/// The part `drive` and `run_all` share: make the inputs, run the rounds,
/// probe the layers if the run is traced, keep the traces, print the table.
fn measure(
    args: &Args,
    workloads: Vec<&'static workload::Workload>,
    stop: Stop,
    traced: bool,
    default_scale: u32,
) -> Res<Outcome> {
    let out: PathBuf = args.value("--out")?.unwrap_or_else(|| "bench/out".into());
    let work = WorkDir::create(&out)?;
    let steal_before = host::cpu_jiffies();
    let opts = Options {
        workloads,
        seed: args.value("--seed")?.unwrap_or(1),
        scale: args.value("--scale")?.unwrap_or(default_scale),
        stop,
        traced,
        out_dir: work.0.clone(),
        corrupt_expected: args.flag("--corrupt-expected"),
    };
    let mut yardstick = yardstick::Yardstick::new(opts.scale);
    let prepared = session::prepare_all(&opts, &mut yardstick)?;
    let runs = session::run(&opts, prepared, &mut yardstick)?;
    let results: Vec<_> = runs.iter().map(metrics::workload_result).collect();
    let mut probes = Vec::new();
    if traced {
        probes = metrics::run_probes(&runs[0].prepared, opts.seed, steal_before)?;
        // Keep the traces; the rest of the scratch directory goes.
        for w in &opts.workloads {
            let trace = format!("trace_{}.json", w.name);
            let _ = std::fs::rename(work.0.join(&trace), out.join(&trace));
        }
    }
    metrics::print_table(&results, &probes);
    Ok(Outcome {
        opts,
        out,
        results,
        probes,
    })
}

/// One workload for the driver: measures for `--seconds` and prints the
/// result object as the last line of stdout.
fn drive(args: &Args) -> Res<bool> {
    args.check_known(&[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--scale",
        "--out",
        "--corrupt-expected",
    ])?;
    let name: String = args.value("--workload")?.ok_or(USAGE)?;
    let workload = workload::find(&name).ok_or(format!("unknown workload {name}\n{USAGE}"))?;
    let seconds: f64 = args.value("--seconds")?.unwrap_or(10.0);
    let traced = match args.value::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let done = measure(
        args,
        vec![workload],
        Stop::Seconds(seconds),
        traced,
        DEFAULT_SCALE,
    )?;
    let result = &done.results[0];
    println!(
        "{}",
        metrics::driver_line(result, traced.then_some(&done.probes[..]))
    );
    Ok(result.failed == 0)
}

/// All four workloads with interleaved rounds, traced twins and probes;
/// prints every metric and writes `BENCH_<rev>.json`.
fn run_all(args: &Args) -> Res<bool> {
    args.check_known(&[
        "--seed",
        "--scale",
        "--rounds",
        "--smoke",
        "--out",
        "--label",
        "--corrupt-expected",
    ])?;
    let (scale, rounds) = if args.flag("--smoke") {
        (SMOKE_SCALE, SMOKE_ROUNDS)
    } else {
        (DEFAULT_SCALE, DEFAULT_ROUNDS)
    };
    let done = measure(
        args,
        workload::WORKLOADS.iter().collect(),
        Stop::Rounds(args.value("--rounds")?.unwrap_or(rounds)),
        true,
        scale,
    )?;
    let rev: String = args.value("--label")?.unwrap_or_else(git_rev);
    let path = done.out.join(format!("BENCH_{rev}.json"));
    let doc = metrics::bench_json(
        &rev,
        done.opts.seed,
        done.opts.scale,
        &done.results,
        &done.probes,
    );
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    let failed: u64 = done.results.iter().map(|r| r.failed).sum();
    if failed > 0 {
        println!("{failed} queries returned a wrong result");
    }
    Ok(failed == 0)
}

fn dispatch(argv: &[String]) -> Res<bool> {
    match argv.first().map(String::as_str) {
        Some("worker") => {
            let plan = argv.get(1).ok_or(USAGE)?;
            worker::run(Path::new(plan)).map(|()| true)
        }
        Some("run") => run_all(&Args::parse(&argv[1..])?),
        Some("compare") => {
            let args = Args::parse(&argv[1..])?;
            args.check_known(&["--benchmark"])?;
            let [a, b] = args.positional.as_slice() else {
                return Err(USAGE.into());
            };
            let contract: PathBuf = args
                .value("--benchmark")?
                .unwrap_or_else(|| "BENCHMARK.json".into());
            compare::compare(Path::new(a), Path::new(b), &contract)
        }
        Some(first) if first.starts_with("--") => drive(&Args::parse(argv)?),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("blazebench: {message}");
            ExitCode::from(2)
        }
    }
}
