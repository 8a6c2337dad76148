//! Artifact-style forward label-propagation binary: every vertex converges
//! to the minimum original id among itself and its directed ancestors.
//! `-mode binned|sync` picks the execution mode.

fn main() {
    let cli = blaze_cli::parse_env("lp");
    let engine = blaze_cli::open_engine(&cli, &cli.index, &cli.adj)
        .unwrap_or_else(|e| blaze_cli::exit_with("lp", &e));
    let t0 = std::time::Instant::now();
    let labels = blaze_algorithms::label_propagation(&engine, cli.mode)
        .unwrap_or_else(|e| blaze_cli::exit_with("lp", &e));
    let wall = t0.elapsed();
    blaze_cli::print_run_summary("lp", &engine, wall);
    let mut distinct: Vec<u32> = (0..labels.len()).map(|v| labels.get(v)).collect();
    distinct.sort_unstable();
    distinct.dedup();
    println!("{} distinct propagation labels", distinct.len());
}
