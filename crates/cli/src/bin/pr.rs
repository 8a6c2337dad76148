//! Artifact-style PageRank (delta variant) binary.
//!
//! `-cache-mb N` gives the IO workers a clock page cache of N MiB
//! (default 0 = no cache); PageRank's repeated near-full scans are where
//! a warm cache saves the most device bytes. `-mode binned|sync` picks the
//! execution mode.

use blaze_algorithms::{pagerank_delta, PageRankConfig};

fn main() {
    let cli = blaze_cli::parse_env("pr");
    let config = PageRankConfig {
        max_iters: cli.max_iters,
        ..Default::default()
    };
    let engine = blaze_cli::open_engine(&cli, &cli.index, &cli.adj)
        .unwrap_or_else(|e| blaze_cli::exit_with("pr", &e));
    let t0 = std::time::Instant::now();
    let ranks = pagerank_delta(&engine, config, cli.mode)
        .unwrap_or_else(|e| blaze_cli::exit_with("pr", &e));
    let wall = t0.elapsed();
    blaze_cli::print_run_summary("pr", &engine, wall);
    let top = (0..engine.num_vertices())
        .max_by(|&a, &b| ranks.get(a).total_cmp(&ranks.get(b)))
        .unwrap_or(0);
    println!("top-ranked vertex: {top} (rank {:.6})", ranks.get(top));
}
