//! The command line end to end, at small scales: the driver's result line,
//! a wrong answer failing the command, `run --smoke`, repeatable counts
//! and `compare`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

// The benchmark's own JSON module, so results are read the way it writes them.
#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;
use json::Json;

const EXE: &str = env!("CARGO_BIN_EXE_blazebench");
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("blazebench-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn blazebench(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("blazebench runs")
}

fn load(path: &Path) -> Json {
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// The driver's result object: the last line of stdout.
fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    Json::parse(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {line}"))
}

fn number(j: &Json, key: &str) -> f64 {
    j.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no {key} in {j}"))
}

fn drive(dir: &Path, workload: &str, trace: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--scale",
        "10",
        "--out",
        dir.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    blazebench(&args)
}

#[test]
fn driver_line_carries_exactly_the_metrics_of_the_contract() {
    let dir = TempDir::new("driver");
    let contract = load(Path::new(BENCHMARK_JSON));
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = drive(&dir.0, "bfs_paced", trace, &[]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = result_line(&out);
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(number(&line, "failed"), 0.0);
        assert!(number(&line, "attempted") >= 1.0);

        let expected: Vec<(&str, &str)> = contract
            .get(section)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap(),
                    m.get("unit").unwrap().as_str().unwrap(),
                )
            })
            .collect();
        let reported: Vec<(&str, &str)> = line
            .get("metrics")
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(name, m)| {
                assert!(m.get("value").unwrap().as_f64().is_some(), "{name}");
                (name.as_str(), m.get("unit").unwrap().as_str().unwrap())
            })
            .collect();
        assert_eq!(reported, expected, "--trace {trace}");
    }
    assert!(
        dir.0.join("trace_bfs_paced.json").exists(),
        "the traced run leaves its trace"
    );
    let leftovers: Vec<_> = std::fs::read_dir(&dir.0)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("work-"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "scratch directories are removed: {leftovers:?}"
    );
}

#[test]
fn a_wrong_expected_bfs_digest_fails_the_query_and_the_command() {
    let dir = TempDir::new("corrupt");
    let out = drive(&dir.0, "bfs_fit", "0", &["--corrupt-expected"]);
    assert!(
        !out.status.success(),
        "a wrong result must fail the command"
    );
    let line = result_line(&out);
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    let (attempted, failed) = (number(&line, "attempted"), number(&line, "failed"));
    // The last root is queried once per round of twelve queries.
    assert!(
        failed >= 1.0 && failed * 12.0 == attempted,
        "{failed} of {attempted}"
    );
}

#[test]
fn unknown_arguments_are_refused() {
    assert_eq!(blazebench(&["--workload", "nope"]).status.code(), Some(2));
    assert_eq!(
        blazebench(&["run", "--frobnicate", "1"]).status.code(),
        Some(2)
    );
    assert_eq!(blazebench(&[]).status.code(), Some(2));
    assert_eq!(
        blazebench(&["compare", "only-one.json"]).status.code(),
        Some(2)
    );
}

/// The value of a per-layer metric of `workload` in a `BENCH_<rev>.json`.
fn layer_value(doc: &Json, workload: &str, metric: &str) -> f64 {
    let m = doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("per_layer"))
        .and_then(|l| l.get(metric))
        .unwrap_or_else(|| panic!("no {metric} for {workload}"));
    number(m, "value")
}

#[test]
fn smoke_runs_repeat_their_counts_and_compare_accepts_them() {
    let dir = TempDir::new("smoke");
    let out_dir = dir.0.to_str().unwrap();
    for label in ["a", "b"] {
        let out = blazebench(&[
            "run", "--smoke", "--seed", "9", "--out", out_dir, "--label", label,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let (a, b) = (
        load(&dir.0.join("BENCH_a.json")),
        load(&dir.0.join("BENCH_b.json")),
    );
    // One client, one scatter thread, fixed rounds: what was read, how many
    // supersteps ran and how many records were produced repeats exactly.
    for workload in ["pr_scan", "bfs_fit", "bfs_paced"] {
        for metric in [
            "storage.dev_reads",
            "core.supersteps_per_query",
            "core.records_per_edge",
        ] {
            assert_eq!(
                layer_value(&a, workload, metric),
                layer_value(&b, workload, metric),
                "{workload} {metric}"
            );
        }
    }
    assert_eq!(layer_value(&a, "pr_scan", "core.records_per_edge"), 1.0);
    assert!(layer_value(&a, "pr_scan", "storage.dev_reads") > 0.0);
    assert_eq!(layer_value(&a, "bfs_fit", "storage.dev_reads"), 0.0);
    assert_eq!(layer_value(&a, "bfs_fit", "storage.cache_hit_ratio"), 1.0);
    for w in ["pr_scan", "bfs_fit", "bfs_paced", "mixed_2job"] {
        assert!(dir.0.join(format!("trace_{w}.json")).exists());
    }

    // `compare` prints a row per workload and metric. Smoke-sized timings
    // are all noise, so only a file against itself has a known verdict.
    let a_path = dir.0.join("BENCH_a.json");
    let a_path = a_path.to_str().unwrap();
    let out = blazebench(&["compare", a_path, a_path, "--benchmark", BENCHMARK_JSON]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "a file compared with itself is acceptable: {text}"
    );
    assert_eq!(
        text.matches("unchanged").count() + text.matches("unresolved").count(),
        20,
        "{text}"
    );
}
