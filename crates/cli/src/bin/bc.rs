//! Artifact-style betweenness-centrality binary. Requires the transpose
//! via `-inIndexFilename` / `-inAdjFilenames` (as in the paper's appendix).

fn main() {
    let cli = blaze_cli::parse_env("bc");
    let Some(in_index) = cli.in_index.clone() else {
        eprintln!("bc: the transpose graph is required (-inIndexFilename / -inAdjFilenames)");
        std::process::exit(2);
    };
    let out_engine = blaze_cli::open_engine(&cli, &cli.index, &cli.adj)
        .unwrap_or_else(|e| blaze_cli::exit_with("bc", &e));
    let in_engine = blaze_cli::open_engine(&cli, &in_index, &cli.in_adj)
        .unwrap_or_else(|e| blaze_cli::exit_with("bc", &e));
    let t0 = std::time::Instant::now();
    let scores = blaze_algorithms::bc(&out_engine, &in_engine, cli.start_node, cli.mode)
        .unwrap_or_else(|e| blaze_cli::exit_with("bc", &e));
    let wall = t0.elapsed();
    blaze_cli::print_run_summary("bc", &out_engine, wall);
    let top = (0..out_engine.num_vertices())
        .max_by(|&a, &b| scores.get(a).total_cmp(&scores.get(b)))
        .unwrap_or(0);
    println!("top broker: vertex {top} (score {:.2})", scores.get(top));
}
