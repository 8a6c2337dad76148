//! Compute-path A/B: scatter throughput with and without scatter-side
//! combining, on a cache-hot engine.
//!
//! The page cache is sized to hold the whole graph and a warm-up pass
//! fills it, so the timed runs never touch the device: wall time is the
//! scatter/gather compute path alone. PageRank runs with plain staging
//! ("plain") and with record combining ("combined"); BFS frontiers are too
//! sparse for combining to matter, so it reports one throughput row.
//!
//! Both PageRank arms must produce identical answers; the CSV records
//! edges/second and the speedup ratio.

use blaze_algorithms::{bfs, pagerank_delta, pagerank_delta_combined, ExecMode, PageRankConfig};
use blaze_bench::datasets::{prepare, scale_from_env};
use blaze_bench::report::{print_table, write_csv};
use blaze_core::{BlazeEngine, EngineOptions};
use blaze_graph::{Csr, Dataset, DiskGraph};
use blaze_storage::StripedStorage;
use std::sync::Arc;

const ITERS: usize = 10;
const DEVICES: usize = 2;
const ROOT: u32 = 0;

struct Sample {
    edges: u64,
    wall_s: f64,
    records_combined: u64,
    cache_hits: u64,
}

impl Sample {
    fn edges_per_sec(&self) -> f64 {
        self.edges as f64 / self.wall_s
    }
}

fn engine_for(csr: &Csr) -> BlazeEngine {
    let storage = Arc::new(StripedStorage::in_memory(DEVICES).expect("storage"));
    let graph = Arc::new(DiskGraph::create(csr, storage).expect("graph"));
    // Cache with headroom over the whole on-disk graph: after the warm-up
    // pass every page is a hit and the device is out of the picture.
    let cache_bytes = (graph.storage_bytes() as usize) * 2 + (1 << 20);
    let options = EngineOptions::default()
        .with_compute_workers(4, 0.5)
        .with_cache_bytes(cache_bytes);
    BlazeEngine::new(graph, options).expect("engine")
}

/// Cache-hot PageRank: warm-up pass, then `ITERS` timed iterations.
fn run_pagerank(csr: &Csr, combined: bool) -> (Sample, Vec<f64>) {
    let engine = engine_for(csr);
    let config = PageRankConfig {
        max_iters: ITERS,
        // No early convergence: keep both arms on identical iteration
        // counts so edges/sec compares like with like.
        epsilon: 0.0,
        ..Default::default()
    };
    // Warm-up: one full run fills the page cache (and faults in the bin
    // space); its stats are subtracted below.
    let warm = if combined {
        pagerank_delta_combined(&engine, config)
    } else {
        pagerank_delta(&engine, config, ExecMode::Binned)
    }
    .expect("warm-up");
    drop(warm);
    let s0 = engine.stats();
    let t0 = std::time::Instant::now();
    let ranks = if combined {
        pagerank_delta_combined(&engine, config)
    } else {
        pagerank_delta(&engine, config, ExecMode::Binned)
    }
    .expect("pagerank");
    let wall_s = t0.elapsed().as_secs_f64();
    let s1 = engine.stats();
    assert_eq!(
        s1.cache_miss_pages, s0.cache_miss_pages,
        "timed run must be fully cache-hot"
    );
    (
        Sample {
            edges: s1.edges_processed - s0.edges_processed,
            wall_s,
            records_combined: s1.records_combined - s0.records_combined,
            cache_hits: s1.cache_hit_pages - s0.cache_hit_pages,
        },
        ranks.to_vec(),
    )
}

/// Cache-hot BFS: warm-up traversal, then a timed one.
fn run_bfs(csr: &Csr) -> Sample {
    let engine = engine_for(csr);
    bfs(&engine, ROOT, ExecMode::Binned).expect("warm-up");
    let s0 = engine.stats();
    let t0 = std::time::Instant::now();
    bfs(&engine, ROOT, ExecMode::Binned).expect("bfs");
    let wall_s = t0.elapsed().as_secs_f64();
    let s1 = engine.stats();
    Sample {
        edges: s1.edges_processed - s0.edges_processed,
        wall_s,
        records_combined: 0,
        cache_hits: s1.cache_hit_pages - s0.cache_hit_pages,
    }
}

fn row(query: &str, arm: &str, s: &Sample, speedup: f64) -> Vec<String> {
    vec![
        query.to_string(),
        arm.to_string(),
        s.edges.to_string(),
        format!("{:.4}", s.wall_s),
        format!("{:.0}", s.edges_per_sec()),
        s.records_combined.to_string(),
        format!("{speedup:.2}"),
    ]
}

fn main() {
    let scale = scale_from_env();
    let g = prepare(Dataset::Sk2005, scale);

    let (pr_before, ranks_before) = run_pagerank(&g.csr, false);
    let (pr_after, ranks_after) = run_pagerank(&g.csr, true);
    assert!(pr_before.cache_hits > 0, "warm cache must serve the run");
    assert_eq!(
        pr_before.edges, pr_after.edges,
        "both arms must process the same edge stream"
    );
    assert!(
        pr_after.records_combined > 0,
        "sk2005 hubs must trigger combining"
    );
    for (i, (a, b)) in ranks_before.iter().zip(&ranks_after).enumerate() {
        let scale = a.abs().max(b.abs()).max(1e-12);
        assert!(
            (a - b).abs() / scale < 1e-6,
            "rank {i} diverged: {a} vs {b}"
        );
    }
    let pr_speedup = pr_after.edges_per_sec() / pr_before.edges_per_sec();
    let bfs_sample = run_bfs(&g.csr);

    let rows = vec![
        row("pagerank", "plain", &pr_before, 1.0),
        row("pagerank", "combined", &pr_after, pr_speedup),
        row("bfs", "plain", &bfs_sample, 1.0),
    ];
    print_table(
        &format!("Compute path A/B: cache-hot sk2005, {ITERS} PageRank iters + BFS"),
        &[
            "query",
            "arm",
            "edges",
            "wall s",
            "edges/s",
            "records combined",
            "speedup",
        ],
        &rows,
    );
    let path = write_csv(
        "compute_path",
        &[
            "query",
            "arm",
            "edges",
            "wall_s",
            "edges_per_sec",
            "records_combined",
            "speedup",
        ],
        &rows,
    );
    println!("\nwrote {}", path.display());
    println!("pagerank speedup {pr_speedup:.2}x (scatter-side combining vs plain staging)");
}
