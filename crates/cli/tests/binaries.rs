//! End-to-end tests of the `blaze` binary: generate a graph with `blaze
//! gengraph`, then run every query command against the produced files,
//! exactly as the paper's appendix describes (with `blaze` in front).

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The one binary; its first argument names the command.
const BLAZE: &str = env!("CARGO_BIN_EXE_blaze");

/// Runs `blaze bin args` under a watchdog; see [`run_program`].
fn run_watched(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut full = vec![bin];
    full.extend(args);
    run_program(BLAZE, &full)
}

/// Runs `bin` under a watchdog and returns its exit code (`None` when a
/// signal ended it) with its output. A flag value that once made the
/// process spawn threads or allocate without bound must not be able to
/// take the test run down with it: past the deadline the child is killed.
fn run_program(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill child");
            panic!("{bin} {args:?} was still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect output");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code(), text)
}

/// Whether `blaze bin args` succeeded, with its output.
fn run(bin: &str, args: &[&str]) -> (bool, String) {
    let (code, text) = run_watched(bin, args);
    (code == Some(0), text)
}

fn gen_graph(dir: &Path) -> (String, String, String, String) {
    let (ok, text) = run(
        "gengraph",
        &[
            "rmat27",
            dir.to_str().unwrap(),
            "--scale",
            "tiny",
            "--stripes",
            "2",
        ],
    );
    assert!(ok, "gengraph failed: {text}");
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
    (
        p("rmat27.gr.index"),
        p("rmat27.gr.adj.0"),
        p("rmat27.gr.adj.1"),
        p("rmat27.tgr.index"),
    )
}

#[test]
fn gengraph_then_bfs() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, _) = gen_graph(dir.path());
    let (ok, text) = run(
        "bfs",
        &[
            "-computeWorkers",
            "4",
            "-startNode",
            "0",
            &index,
            &adj0,
            &adj1,
        ],
    );
    assert!(ok, "bfs failed: {text}");
    assert!(text.contains("reached"), "{text}");
    assert!(text.contains("io:"), "{text}");
}

#[test]
fn pr_with_binning_flags() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, _) = gen_graph(dir.path());
    let (ok, text) = run(
        "pr",
        &[
            "-computeWorkers",
            "4",
            "-binSpace",
            "4",
            "-binningRatio",
            "0.5",
            "-binCount",
            "256",
            "-maxIters",
            "10",
            &index,
            &adj0,
            &adj1,
        ],
    );
    assert!(ok, "pr failed: {text}");
    assert!(text.contains("top-ranked vertex"), "{text}");
}

#[test]
fn wcc_requires_and_uses_transpose() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, tindex) = gen_graph(dir.path());
    // Without the transpose: usage error.
    let (ok, _) = run("wcc", &[&index, &adj0, &adj1]);
    assert!(!ok, "wcc must demand the transpose");
    // With it: success.
    let tadj0 = dir
        .path()
        .join("rmat27.tgr.adj.0")
        .to_str()
        .unwrap()
        .to_string();
    let tadj1 = dir
        .path()
        .join("rmat27.tgr.adj.1")
        .to_str()
        .unwrap()
        .to_string();
    let (ok, text) = run(
        "wcc",
        &[
            &index,
            &adj0,
            &adj1,
            "-inIndexFilename",
            &tindex,
            "-inAdjFilenames",
            &format!("{tadj0},{tadj1}"),
        ],
    );
    assert!(ok, "wcc failed: {text}");
    assert!(text.contains("weakly connected components"), "{text}");
}

#[test]
fn spmv_and_bc_run() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, tindex) = gen_graph(dir.path());
    let (ok, text) = run("spmv", &[&index, &adj0, &adj1]);
    assert!(ok, "spmv failed: {text}");
    assert!(text.contains("|y|_2"), "{text}");
    let tadj0 = dir
        .path()
        .join("rmat27.tgr.adj.0")
        .to_str()
        .unwrap()
        .to_string();
    let tadj1 = dir
        .path()
        .join("rmat27.tgr.adj.1")
        .to_str()
        .unwrap()
        .to_string();
    let (ok, text) = run(
        "bc",
        &[
            "-startNode",
            "0",
            &index,
            &adj0,
            &adj1,
            "-inIndexFilename",
            &tindex,
            "-inAdjFilenames",
            &format!("{tadj0},{tadj1}"),
        ],
    );
    assert!(ok, "bc failed: {text}");
    assert!(text.contains("top broker"), "{text}");
}

#[test]
fn bad_flags_exit_nonzero() {
    let (ok, text) = run("bfs", &["-bogusFlag", "1"]);
    assert!(!ok);
    assert!(text.contains("unknown flag"), "{text}");
    let (ok, _) = run("bfs", &["/does/not/exist.index", "/nope.adj.0"]);
    assert!(!ok);
}

/// The monotone queries give identical result lines in both execution
/// modes.
#[test]
fn sync_mode_matches_binned_for_monotone_binaries() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, tindex) = gen_graph(dir.path());
    let tadj = format!(
        "{},{}",
        dir.path().join("rmat27.tgr.adj.0").to_str().unwrap(),
        dir.path().join("rmat27.tgr.adj.1").to_str().unwrap()
    );
    for (bin, key, extra) in [
        ("bfs", "reached", false),
        ("sssp", "settled", false),
        ("lp", "distinct propagation labels", false),
        ("wcc", "weakly connected components", true),
        ("kcore", "-core", true),
    ] {
        let mut results = Vec::new();
        for mode in ["binned", "sync"] {
            let mut args = vec!["-mode", mode, &index, &adj0, &adj1];
            if extra {
                args.extend(["-inIndexFilename", &tindex, "-inAdjFilenames", &tadj]);
            }
            let (ok, text) = run(bin, &args);
            assert!(ok, "{bin} -mode {mode} failed: {text}");
            results.push(result_line(&text, key));
        }
        assert_eq!(results[0], results[1], "{bin}: sync differs from binned");
    }
}

/// The eight query binaries, for the flags every one of them must refuse.
const QUERY_BINS: [&str; 8] = ["bfs", "pr", "wcc", "spmv", "bc", "sssp", "kcore", "lp"];

/// Barrier-free execution is gone (DESIGN §13): `-mode async` is an unknown
/// mode to every query binary, not a mode some of them refuse.
#[test]
fn async_mode_is_refused_by_every_query_binary() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, _) = gen_graph(dir.path());
    for bin in QUERY_BINS {
        let (code, text) = run_watched(bin, &["-mode", "async", &index, &adj0, &adj1]);
        assert_eq!(code, Some(2), "{bin}: {text}");
        assert!(
            text.contains("unknown -mode async (expected binned|sync)"),
            "{bin}: {text}"
        );
    }
}

/// Scatter-side combining is gone (DESIGN §10): `-combine` is an unknown
/// flag, not one that is read and then ignored.
#[test]
fn combine_flag_is_refused_by_every_query_binary() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, _) = gen_graph(dir.path());
    for bin in QUERY_BINS {
        let (code, text) = run_watched(bin, &["-combine", &index, &adj0, &adj1]);
        assert_eq!(code, Some(2), "{bin}: {text}");
        assert!(text.contains("unknown flag -combine"), "{bin}: {text}");
    }
}

/// A destination id past the vertex count, which would index out of the
/// query's vertex arrays, ends `bfs` (scatter applies it under `-mode
/// sync`) and `pr` (gather applies it) with a format error, not a panic.
#[test]
fn out_of_range_destination_is_a_format_error() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, _) = gen_graph(dir.path());
    let mut bytes = std::fs::read(&adj0).unwrap();
    bytes[..4].copy_from_slice(&0x7fff_ffffu32.to_le_bytes());
    std::fs::write(&adj0, &bytes).unwrap();
    for bin in ["bfs", "pr"] {
        for mode in ["binned", "sync"] {
            // Only `pr` reads (and so accepts) the iteration cap.
            let mut args = vec!["-mode", mode, &index, &adj0, &adj1];
            if bin == "pr" {
                args.extend(["-maxIters", "2"]);
            }
            let (code, text) = run_watched(bin, &args);
            assert_eq!(code, Some(1), "{bin} -mode {mode}: {text}");
            assert!(
                text.contains("format error") && text.contains("vertex 2147483647"),
                "{bin} -mode {mode}: {text}"
            );
        }
    }
}

/// Repeated value-taking flags are a usage error (exit 2) for both dataset
/// tools, with one shared diagnostic.
#[test]
fn duplicate_tool_flags_exit_two() {
    let dir = tempfile::tempdir().unwrap();
    let input = dir.path().join("e.txt");
    std::fs::write(&input, "0 1\n").unwrap();
    let out = dir.path().join("x");
    for dup in [
        ["--stripes", "2", "--stripes", "4"],
        ["--layout", "degree", "--layout", "none"],
    ] {
        let mut args = vec![input.to_str().unwrap(), out.to_str().unwrap()];
        args.extend(dup);
        let (ok, text) = run("convert", &args);
        assert!(!ok, "convert must reject {dup:?}");
        assert!(text.contains("duplicate flag"), "{text}");
        let mut args = vec!["rmat27", dir.path().to_str().unwrap()];
        args.extend(dup);
        let (ok, text) = run("gengraph", &args);
        assert!(!ok, "gengraph must reject {dup:?}");
        assert!(text.contains("duplicate flag"), "{text}");
    }
    let (ok, text) = run(
        "gengraph",
        &["rmat27", dir.path().to_str().unwrap(), "--stripes", "0"],
    );
    assert!(!ok, "gengraph must reject --stripes 0");
    assert!(text.contains("bad --stripes"), "{text}");
}

/// The result line each query binary prints, for cross-layout comparison.
fn result_line(text: &str, key: &str) -> String {
    text.lines()
        .find(|l| l.contains(key))
        .unwrap_or_else(|| panic!("no line containing {key:?} in: {text}"))
        .to_string()
}

/// Convert the same edge list under `--layout none` and `--layout degree`,
/// run every query binary against both file sets, and demand identical
/// result lines: the physical reordering must be invisible at the API.
#[test]
fn degree_layout_matches_unordered_results_for_every_binary() {
    let dir = tempfile::tempdir().unwrap();
    // Hub-heavy digraph: vertex 7 fans out to everything (so a degree
    // layout genuinely moves it), a chain adds depth, 9->7 closes the
    // weak component.
    let edges = "7 0\n7 1\n7 2\n7 3\n7 4\n7 5\n7 6\n7 8\n7 9\n\
                 0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n8 9\n9 7\n";
    let input = dir.path().join("edges.txt");
    std::fs::write(&input, edges).unwrap();
    let mut outputs: Vec<Vec<String>> = Vec::new();
    for layout in ["none", "degree"] {
        let base = dir.path().join(layout).join("g");
        let (ok, text) = run(
            "convert",
            &[
                input.to_str().unwrap(),
                base.to_str().unwrap(),
                "--stripes",
                "2",
                "--layout",
                layout,
            ],
        );
        assert!(ok, "convert --layout {layout} failed: {text}");
        let p = |s: &str| {
            dir.path()
                .join(layout)
                .join(s)
                .to_str()
                .unwrap()
                .to_string()
        };
        let index = p("g.gr.index");
        let adj0 = p("g.gr.adj.0");
        let adj1 = p("g.gr.adj.1");
        let tindex = p("g.tgr.index");
        let tadj = format!("{},{}", p("g.tgr.adj.0"), p("g.tgr.adj.1"));
        let mut lines = Vec::new();
        let (ok, text) = run("bfs", &["-startNode", "0", &index, &adj0, &adj1]);
        assert!(ok, "bfs ({layout}) failed: {text}");
        lines.push(result_line(&text, "reached"));
        let (ok, text) = run("pr", &[&index, &adj0, &adj1]);
        assert!(ok, "pr ({layout}) failed: {text}");
        lines.push(result_line(&text, "top-ranked vertex"));
        let (ok, text) = run(
            "wcc",
            &[
                &index,
                &adj0,
                &adj1,
                "-inIndexFilename",
                &tindex,
                "-inAdjFilenames",
                &tadj,
            ],
        );
        assert!(ok, "wcc ({layout}) failed: {text}");
        lines.push(result_line(&text, "weakly connected components"));
        let (ok, text) = run("spmv", &[&index, &adj0, &adj1]);
        assert!(ok, "spmv ({layout}) failed: {text}");
        lines.push(result_line(&text, "|y|_2"));
        let (ok, text) = run(
            "bc",
            &[
                "-startNode",
                "0",
                &index,
                &adj0,
                &adj1,
                "-inIndexFilename",
                &tindex,
                "-inAdjFilenames",
                &tadj,
            ],
        );
        assert!(ok, "bc ({layout}) failed: {text}");
        lines.push(result_line(&text, "top broker"));
        outputs.push(lines);
    }
    assert_eq!(
        outputs[0], outputs[1],
        "degree layout changed query results"
    );
}

#[test]
fn gengraph_hub_layout_then_bfs() {
    let dir = tempfile::tempdir().unwrap();
    let (ok, text) = run(
        "gengraph",
        &[
            "rmat27",
            dir.path().to_str().unwrap(),
            "--scale",
            "tiny",
            "--stripes",
            "2",
            "--layout",
            "hub",
        ],
    );
    assert!(ok, "gengraph --layout hub failed: {text}");
    let p = |name: &str| dir.path().join(name).to_str().unwrap().to_string();
    let (ok, text) = run(
        "bfs",
        &[
            "-startNode",
            "0",
            &p("rmat27.gr.index"),
            &p("rmat27.gr.adj.0"),
            &p("rmat27.gr.adj.1"),
        ],
    );
    assert!(ok, "bfs on hub-layout graph failed: {text}");
    assert!(text.contains("reached"), "{text}");
}

#[test]
fn bad_layout_flag_exits_nonzero_for_both_tools() {
    let dir = tempfile::tempdir().unwrap();
    let input = dir.path().join("e.txt");
    std::fs::write(&input, "0 1\n").unwrap();
    let (ok, text) = run(
        "convert",
        &[
            input.to_str().unwrap(),
            dir.path().join("x").to_str().unwrap(),
            "--layout",
            "zigzag",
        ],
    );
    assert!(!ok, "convert must reject --layout zigzag");
    assert!(text.contains("bad --layout"), "{text}");
    let (ok, text) = run(
        "gengraph",
        &["rmat27", dir.path().to_str().unwrap(), "--layout", "zigzag"],
    );
    assert!(!ok, "gengraph must reject --layout zigzag");
    assert!(text.contains("bad --layout"), "{text}");
}

/// In-process sharding is gone (DESIGN §14): `-shards` is an unknown flag
/// to every binary that took it.
#[test]
fn shards_flag_is_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, _) = gen_graph(dir.path());
    for bin in ["bfs", "pr", "wcc"] {
        let (code, text) = run_watched(bin, &["-shards", "2", &index, &adj0, &adj1]);
        assert_eq!(code, Some(2), "{bin}: {text}");
        assert!(text.contains("unknown flag -shards"), "{bin}: {text}");
    }
}

/// Asserts that `bin args <graph>` is a usage error (exit 2) whose message
/// names every flag in `naming`.
fn assert_usage_error(bin: &str, args: &[&str], naming: &[&str]) {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, _) = gen_graph(dir.path());
    let mut full = args.to_vec();
    full.extend([index.as_str(), &adj0, &adj1]);
    let (code, text) = run_watched(bin, &full);
    assert_eq!(code, Some(2), "{bin} {args:?}: {text}");
    for flag in naming {
        assert!(
            text.contains(flag),
            "{bin} {args:?} must name {flag}: {text}"
        );
    }
}

// A flag the binary would accept and then not act on is refused: only
// `bfs` reads `-jobs`.

#[test]
fn jobs_flag_outside_bfs_is_a_usage_error() {
    assert_usage_error("spmv", &["-jobs", "3"], &["-jobs 3"]);
}

// Flag values that used to end the process (thread-spawn abort, OOM kill)
// or wrap to zero are configuration errors.

/// `-jobs N` is N query threads and N IO lanes a device: 20000 aborted the
/// process where threads or address space ran out. The largest value still
/// accepted runs.
#[test]
fn jobs_flag_is_bounded() {
    assert_usage_error("bfs", &["-jobs", "20000"], &["-jobs must be <= 64"]);
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, _) = gen_graph(dir.path());
    let (code, text) = run_watched("bfs", &["-jobs", "64", &index, &adj0, &adj1]);
    assert_eq!(code, Some(0), "{text}");
    assert!(
        text.contains("64 concurrent jobs over one engine"),
        "{text}"
    );
}

#[test]
fn absurd_worker_count_is_a_usage_error() {
    assert_usage_error(
        "bfs",
        &["-computeWorkers", "100000"],
        &["100000 compute workers"],
    );
}

#[test]
fn absurd_bin_count_is_a_usage_error() {
    assert_usage_error(
        "bfs",
        &["-binSpace", "1", "-binCount", "100000000"],
        &["bin_count 100000000"],
    );
    // The heuristic-space path (`with_bin_count`) has the same bound.
    assert_usage_error("bfs", &["-binCount", "100000000"], &["bin_count 100000000"]);
}

#[test]
fn cache_size_that_wraps_is_a_usage_error() {
    assert_usage_error(
        "bfs",
        &["-cache-mb", "17592186044416"],
        &["-cache-mb", "17592186044416 MiB"],
    );
}

#[test]
fn bin_space_that_wraps_is_a_usage_error() {
    assert_usage_error(
        "bfs",
        &["-binSpace", "17592186044416"],
        &["-binSpace", "17592186044416 MiB"],
    );
}

#[test]
fn convert_text_edge_list_then_query() {
    let dir = tempfile::tempdir().unwrap();
    // A small ring + chords, with comments and duplicates.
    let edges = "# test graph\n0 1\n1 2\n2 3\n3 0\n0 2\n0 2\n";
    let input = dir.path().join("edges.txt");
    std::fs::write(&input, edges).unwrap();
    let base = dir.path().join("ring");
    let (ok, text) = run(
        "convert",
        &[
            input.to_str().unwrap(),
            base.to_str().unwrap(),
            "--dedup",
            "--stripes",
            "2",
        ],
    );
    assert!(ok, "convert failed: {text}");
    assert!(
        text.contains("5 edges"),
        "dedup should leave 5 edges: {text}"
    );
    let index = dir.path().join("ring.gr.index");
    let adj0 = dir.path().join("ring.gr.adj.0");
    let adj1 = dir.path().join("ring.gr.adj.1");
    let (ok, text) = run(
        "bfs",
        &[
            "-startNode",
            "0",
            index.to_str().unwrap(),
            adj0.to_str().unwrap(),
            adj1.to_str().unwrap(),
        ],
    );
    assert!(ok, "bfs on converted graph failed: {text}");
    assert!(text.contains("reached 4 vertices"), "{text}");
}

/// `-binningRatio` is the scatter share of the compute workers: `nan`,
/// `inf` and `-5` used to be accepted and silently clamped to one worker.
#[test]
fn binning_ratio_outside_the_unit_interval_is_a_usage_error() {
    for value in ["nan", "inf", "-5", "0", "1"] {
        assert_usage_error("bfs", &["-binningRatio", value], &["-binningRatio"]);
    }
}

/// A device array that is not the stripe set the index describes used to
/// answer with a different graph's result and exit 0 (one file given
/// twice), or fail only once a query reached the missing page (a stripe
/// left out, a truncated file).
#[test]
fn wrong_stripe_set_is_a_format_error_not_a_wrong_answer() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, _) = gen_graph(dir.path());
    let short = dir.path().join("short.adj.1");
    let bytes = std::fs::read(&adj1).unwrap();
    std::fs::write(&short, &bytes[..bytes.len() - 100]).unwrap();
    let short = short.to_str().unwrap();
    // The same graph as one stripe, whose only file is then given twice.
    let one = dir.path().join("one");
    let (ok, text) = run(
        "gengraph",
        &["rmat27", one.to_str().unwrap(), "--scale", "tiny"],
    );
    assert!(ok, "gengraph failed: {text}");
    let one_index = one.join("rmat27.gr.index");
    let one_adj = one.join("rmat27.gr.adj.0");
    let (one_index, one_adj) = (one_index.to_str().unwrap(), one_adj.to_str().unwrap());
    let sets: [&[&str]; 3] = [
        &[one_index, one_adj, one_adj],
        &[&index, &adj0],
        &[&index, &adj0, short],
    ];
    for files in sets {
        for bin in ["bfs", "pr"] {
            let mut args = vec!["-device", "none"];
            args.extend(files);
            let (code, text) = run_watched(bin, &args);
            assert_eq!(code, Some(1), "{bin} {files:?}: {text}");
            assert!(text.contains("format error: device"), "{files:?}: {text}");
            assert!(!text.contains("reached"), "{files:?}: {text}");
            assert!(!text.contains("top-ranked"), "{files:?}: {text}");
        }
    }
}

/// An edge list may name any 32-bit id, and the graph is sized to the
/// largest one: 13 bytes of input ask for 34 GB of per-vertex arrays.
/// Under an address-space limit the allocator refuses on any machine, and
/// `convert` must say so and exit 1, not abort (134).
#[test]
fn huge_sparse_vertex_id_is_an_error_not_an_abort() {
    let dir = tempfile::tempdir().unwrap();
    let text_input = dir.path().join("e.txt");
    std::fs::write(&text_input, "0 4294967295\n").unwrap();
    let binary_input = dir.path().join("e.bin");
    let mut bytes = 1u64.to_le_bytes().to_vec();
    bytes.extend(0u32.to_le_bytes());
    bytes.extend(u32::MAX.to_le_bytes());
    std::fs::write(&binary_input, bytes).unwrap();
    let out = dir.path().join("out");
    for (input, flag) in [(&text_input, ""), (&binary_input, "--binary")] {
        let script = format!(
            "ulimit -v 4000000; exec {BLAZE} convert {} {} {flag}",
            input.display(),
            out.display()
        );
        let (code, text) = run_program("sh", &["-c", &script]);
        assert_eq!(code, Some(1), "{flag}: {text}");
        assert!(text.contains("4294967296 vertices"), "{flag}: {text}");
        assert!(text.contains("34359738376 bytes"), "{flag}: {text}");
        assert!(text.contains("io error: no memory"), "{flag}: {text}");
    }
}

/// The three of the eight queries that take the transpose pair.
const TRANSPOSED: [&str; 3] = ["wcc", "bc", "kcore"];

/// `-inIndexFilename <tindex> -inAdjFilenames <tadj0>,<tadj1>` for the
/// `rmat27` set in `dir`.
fn transpose_args(dir: &Path) -> [String; 4] {
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
    [
        "-inIndexFilename".to_string(),
        p("rmat27.tgr.index"),
        "-inAdjFilenames".to_string(),
        format!("{},{}", p("rmat27.tgr.adj.0"), p("rmat27.tgr.adj.1")),
    ]
}

/// Every query-specific flag against every query: the commands the flag
/// table lists for it run with it, every other command refuses it with a
/// usage error naming the flag and itself. None used to: `bfs -k 5
/// -maxIters 3` ran, `lp -startNode 99999999` was refused over a flag `lp`
/// never reads.
#[test]
fn every_flag_is_refused_by_the_commands_that_do_not_read_it() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, tindex) = gen_graph(dir.path());
    let transpose = transpose_args(dir.path());
    // (the flag, the arguments that give it where it is read, its readers)
    let cases: [(&str, &[&str], &[&str]); 7] = [
        ("-startNode", &["-startNode", "1"], &["bfs", "sssp", "bc"]),
        ("-maxIters", &["-maxIters", "2"], &["pr"]),
        ("-k", &["-k", "3"], &["kcore"]),
        ("-jobs", &["-jobs", "2"], &["bfs"]),
        ("-no-share", &["-jobs", "2", "-no-share"], &["bfs"]),
        ("-inIndexFilename", &[], &TRANSPOSED),
        ("-inAdjFilenames", &[], &TRANSPOSED),
    ];
    for query in QUERY_BINS {
        let mut base = vec![index.as_str(), &adj0, &adj1];
        if TRANSPOSED.contains(&query) {
            base.extend(transpose.iter().map(String::as_str));
        }
        for (flag, given, readers) in cases {
            let mut args = base.clone();
            if readers.contains(&query) {
                args.extend(given);
                let (code, text) = run_watched(query, &args);
                assert_eq!(code, Some(0), "{query} reads {flag}: {text}");
                continue;
            }
            // Where it is not read, the flag alone with some value.
            let value = if flag.starts_with("-in") {
                &tindex
            } else {
                "2"
            };
            args.push(flag);
            if flag != "-no-share" {
                args.push(value);
            }
            let (code, text) = run_watched(query, &args);
            assert_eq!(code, Some(2), "{query} does not read {flag}: {text}");
            assert!(
                text.contains(flag) && text.contains(&format!("by {query}")),
                "{query} {flag} must name both: {text}"
            );
        }
    }
}

/// `bfs -startNode 0 -startNode 5` used to run from vertex 5.
#[test]
fn repeated_value_flag_is_a_usage_error() {
    assert_usage_error(
        "bfs",
        &["-startNode", "0", "-startNode", "5"],
        &["duplicate flag -startNode"],
    );
}

/// `-k` is a `u32`: 2^32 + 2 used to print "vertices in the 2-core".
#[test]
fn kcore_k_that_does_not_fit_is_a_usage_error() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, _) = gen_graph(dir.path());
    let mut args = vec!["-k", "4294967298", &index, &adj0, &adj1];
    let transpose = transpose_args(dir.path());
    args.extend(transpose.iter().map(String::as_str));
    let (code, text) = run_watched("kcore", &args);
    assert_eq!(code, Some(2), "{text}");
    assert!(text.contains("-k must be <= 4294967295"), "{text}");
    assert!(!text.contains("-core"), "{text}");
}

/// Half a transpose pair is a usage error naming the missing half (it used
/// to be `striped storage needs >= 1 device`), and `-no-share` with one job
/// has nothing to turn off.
#[test]
fn half_a_flag_pair_is_a_usage_error() {
    let dir = tempfile::tempdir().unwrap();
    let (_, _, _, tindex) = gen_graph(dir.path());
    let transpose = transpose_args(dir.path());
    assert_usage_error(
        "wcc",
        &["-inIndexFilename", &tindex],
        &["-inIndexFilename is given without -inAdjFilenames"],
    );
    assert_usage_error(
        "bc",
        &["-inAdjFilenames", &transpose[3]],
        &["-inAdjFilenames is given without -inIndexFilename"],
    );
    assert_usage_error("bfs", &["-no-share"], &["-no-share needs -jobs above 1"]);
}

/// A transpose of another graph, or of the same graph under another
/// layout, ends `wcc`, `kcore` and `bc` with a short format error. Each
/// used to panic on an `assert_eq!` (exit 101), the layout case with a
/// 95 KB dump of the permutation.
#[test]
fn mismatched_transpose_is_a_format_error() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, _) = gen_graph(dir.path());
    for (sub, extra, what) in [
        (
            "small",
            ["--scale", "small"],
            "8192 vertices, the transpose 32768",
        ),
        ("degree", ["--layout", "degree"], "layout none"),
    ] {
        let other = dir.path().join(sub);
        let mut gen = vec!["rmat27", other.to_str().unwrap(), "--stripes", "2"];
        gen.extend(extra);
        let (ok, text) = run("gengraph", &gen);
        assert!(ok, "gengraph {extra:?} failed: {text}");
        let transpose = transpose_args(&other);
        for query in TRANSPOSED {
            let mut args = vec![index.as_str(), &adj0, &adj1];
            args.extend(transpose.iter().map(String::as_str));
            let (code, text) = run_watched(query, &args);
            assert_eq!(code, Some(1), "{query} over a {sub} transpose: {text}");
            assert!(text.contains("format error"), "{query} {sub}: {text}");
            assert!(text.contains(what), "{query} {sub}: {text}");
            assert!(text.len() < 300, "{query} {sub}: {} bytes", text.len());
        }
    }
}

/// A command line without the operands its command takes is a usage error
/// that shows them, whatever flags came with it.
#[test]
fn wrong_operand_count_is_a_usage_error() {
    let dir = tempfile::tempdir().unwrap();
    let (index, _, _, _) = gen_graph(dir.path());
    let transpose = transpose_args(dir.path());
    let mut wcc = vec![index.as_str()];
    wcc.extend(transpose.iter().map(String::as_str));
    let cases: [(&str, &[&str]); 7] = [
        ("bfs", &[]),
        ("bfs", &["-computeWorkers", "4"]),
        ("bfs", &[&index]),
        ("wcc", &wcc),
        ("convert", &[&index]),
        ("convert", &[&index, "out", "extra"]),
        ("gengraph", &["rmat27", "--scale", "tiny"]),
    ];
    for (command, args) in cases {
        let (code, text) = run_watched(command, args);
        assert_eq!(code, Some(2), "{command} {args:?}: {text}");
        let usage = format!("{command}: configuration error: usage: blaze {command} [flags] <");
        assert!(text.contains(&usage), "{command} {args:?}: {text}");
    }
}

/// An output directory that cannot be created is an io error, exit 1, from
/// both tools (each used to panic on an `expect`, exit 101).
#[test]
fn unwritable_output_dir_is_an_io_error() {
    let dir = tempfile::tempdir().unwrap();
    let input = dir.path().join("e.txt");
    std::fs::write(&input, "0 1\n").unwrap();
    // A regular file where a directory is needed.
    let under_a_file = input.join("sub");
    let (code, text) = run_watched(
        "convert",
        &[
            input.to_str().unwrap(),
            under_a_file.join("out").to_str().unwrap(),
        ],
    );
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("convert: io error"), "{text}");
    for out in [under_a_file.to_str().unwrap(), "/proc/nope"] {
        let (code, text) = run_watched("gengraph", &["rmat27", out]);
        assert_eq!(code, Some(1), "{out}: {text}");
        assert!(text.contains("gengraph: io error"), "{out}: {text}");
    }
}

/// `blaze` alone, or with a word that is no command, prints the usage text
/// generated from the two tables and exits 2.
#[test]
fn no_command_prints_the_usage_and_exits_two() {
    for argv in [&[][..], &["frobnicate"][..]] {
        let (code, text) = run_program(BLAZE, argv);
        assert_eq!(code, Some(2), "{argv:?}: {text}");
        for command in QUERY_BINS.into_iter().chain(["convert", "gengraph"]) {
            assert!(
                text.contains(&format!("\n  {command} <")),
                "{argv:?}: no line for {command}: {text}"
            );
        }
        assert_eq!(blaze_cli::COMMANDS.len(), 10);
        for command in blaze_cli::COMMANDS {
            assert!(
                text.contains(command.help),
                "{argv:?}: no help for {}",
                command.name
            );
        }
        for dataset in blaze_graph::Dataset::all() {
            assert!(text.contains(dataset.name()), "{argv:?}: no {dataset}");
        }
        for flag in blaze_cli::FLAGS {
            let line = format!("\n  {}", flag.name);
            assert!(text.contains(&line), "{argv:?}: no line for {}", flag.name);
            assert!(
                text.contains(flag.help),
                "{argv:?}: no help for {}",
                flag.name
            );
        }
    }
    let (_, text) = run_program(BLAZE, &["frobnicate"]);
    assert!(text.contains("unknown command frobnicate"), "{text}");
}
