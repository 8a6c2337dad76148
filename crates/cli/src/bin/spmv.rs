//! Artifact-style SpMV binary: computes `y = A^T x` with `x[i] = 1/(i+1)`.

fn main() {
    let cli = blaze_cli::parse_env("spmv");
    let engine = blaze_cli::open_engine(&cli, &cli.index, &cli.adj)
        .unwrap_or_else(|e| blaze_cli::exit_with("spmv", &e));
    let x: Vec<f64> = (0..engine.num_vertices())
        .map(|i| 1.0 / (i + 1) as f64)
        .collect();
    let t0 = std::time::Instant::now();
    let y = blaze_algorithms::spmv(&engine, &x, cli.mode)
        .unwrap_or_else(|e| blaze_cli::exit_with("spmv", &e));
    let wall = t0.elapsed();
    blaze_cli::print_run_summary("spmv", &engine, wall);
    let norm: f64 = (0..engine.num_vertices())
        .map(|v| y.get(v) * y.get(v))
        .sum();
    println!("|y|_2 = {:.6}", norm.sqrt());
}
