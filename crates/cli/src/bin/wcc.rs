//! Artifact-style WCC binary. Requires the transpose via
//! `-inIndexFilename` / `-inAdjFilenames`. `-cache-mb N` gives each
//! direction's IO workers a clock page cache of N MiB (default 0).
//! `-mode binned|sync` picks the execution mode.

fn main() {
    let cli = blaze_cli::parse_env("wcc");
    let Some(in_index) = cli.in_index.clone() else {
        eprintln!("wcc: the transpose graph is required (-inIndexFilename / -inAdjFilenames)");
        std::process::exit(2);
    };
    let out_engine = blaze_cli::open_engine(&cli, &cli.index, &cli.adj)
        .unwrap_or_else(|e| blaze_cli::exit_with("wcc", &e));
    let in_engine = blaze_cli::open_engine(&cli, &in_index, &cli.in_adj)
        .unwrap_or_else(|e| blaze_cli::exit_with("wcc", &e));
    let t0 = std::time::Instant::now();
    let labels = blaze_algorithms::wcc(&out_engine, &in_engine, cli.mode)
        .unwrap_or_else(|e| blaze_cli::exit_with("wcc", &e));
    let wall = t0.elapsed();
    blaze_cli::print_run_summary("wcc", &out_engine, wall);
    let mut roots: Vec<u32> = (0..labels.len()).map(|v| labels.get(v)).collect();
    roots.sort_unstable();
    roots.dedup();
    println!("{} weakly connected components", roots.len());
}
