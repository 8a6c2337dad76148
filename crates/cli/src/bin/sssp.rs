//! Artifact-style SSSP binary over deterministic synthetic edge weights.
//!
//! ```sh
//! sssp -startNode 0 -mode sync rmat27.gr.index rmat27.gr.adj.0
//! ```
//!
//! `-mode binned|sync` picks the execution mode.

fn main() {
    let cli = blaze_cli::parse_env("sssp");
    let engine = blaze_cli::open_engine(&cli, &cli.index, &cli.adj)
        .unwrap_or_else(|e| blaze_cli::exit_with("sssp", &e));
    let t0 = std::time::Instant::now();
    let dist = blaze_algorithms::sssp(&engine, cli.start_node, cli.mode)
        .unwrap_or_else(|e| blaze_cli::exit_with("sssp", &e));
    let wall = t0.elapsed();
    blaze_cli::print_run_summary("sssp", &engine, wall);
    let mut reached = 0usize;
    let mut max_dist = 0u64;
    for v in 0..engine.num_vertices() {
        let d = dist.get(v);
        if d != blaze_algorithms::sssp::UNREACHED {
            reached += 1;
            max_dist = max_dist.max(d);
        }
    }
    println!(
        "settled {reached} vertices from root {} (eccentricity {max_dist})",
        cli.start_node
    );
}
