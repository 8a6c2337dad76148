//! Layout A/B: does the degree-aware physical layout earn its keep on the
//! page cache?
//!
//! Runs multi-iteration PageRank and BFS on sk2005 under three cache
//! budgets, once per layout (`none`, `degree`, `hub`). PageRank's sparse late iterations concentrate their re-reads;
//! packing vertices by degree shrinks the page footprint of those re-read
//! sets, so at the largest budget (half the page set) the degree layout
//! shows a higher hit ratio and fewer device bytes than `none` on the
//! typical run — that row carries the asserts, the rest are reported.
//! BFS rows are reported unasserted: sk2005 ships in BFS-friendly order,
//! so reordering can legitimately cost BFS locality — that trade-off is
//! exactly what this table documents.

use blaze_algorithms::{bfs, pagerank_delta, ExecMode, PageRankConfig};
use blaze_bench::datasets::{prepare, scale_from_env};
use blaze_bench::report::{print_table, write_csv};
use blaze_core::{BlazeEngine, EngineOptions};
use blaze_graph::{Dataset, DiskGraph, VertexLayout};
use blaze_storage::StripedStorage;
use blaze_types::{EDGES_PER_PAGE, PAGE_SIZE};
use std::sync::Arc;

const ITERS: usize = 12;
const DEVICES: usize = 2;
/// Pooled trials per (query, budget, layout) cell: clock-cache hit counts
/// vary run to run with threaded insertion order, so every reported number
/// sums over the trials and the asserts compare pooled statistics.
const TRIALS: usize = 15;

struct Run {
    io_bytes: u64,
    hits: u64,
    misses: u64,
    hot_hits: u64,
    hot_admits: u64,
    wall: f64,
}

fn engine(g: &blaze_bench::PreparedGraph, layout: VertexLayout, cache_bytes: usize) -> BlazeEngine {
    let storage = Arc::new(StripedStorage::in_memory(DEVICES).expect("storage"));
    let graph = Arc::new(DiskGraph::create_with_layout(&g.csr, storage, layout).expect("graph"));
    // Two compute workers (one scatter, one gather): the fewer the threads,
    // the fewer float-summation orders, and the steadier the delta-PageRank
    // activation sets that drive the page access stream.
    BlazeEngine::new(
        graph,
        EngineOptions::default()
            .with_compute_workers(2, 0.5)
            .with_cache_bytes(cache_bytes),
    )
    .expect("engine")
}

fn run_query(
    g: &blaze_bench::PreparedGraph,
    layout: VertexLayout,
    cache_bytes: usize,
    query: &str,
) -> Run {
    let mut pooled = Run {
        io_bytes: 0,
        hits: 0,
        misses: 0,
        hot_hits: 0,
        hot_admits: 0,
        wall: f64::INFINITY,
    };
    for _ in 0..TRIALS {
        let e = engine(g, layout, cache_bytes);
        let t0 = std::time::Instant::now();
        match query {
            "pr" => {
                let config = PageRankConfig {
                    max_iters: ITERS,
                    ..Default::default()
                };
                pagerank_delta(&e, config, ExecMode::Binned).expect("pagerank");
            }
            _ => {
                bfs(&e, 0, ExecMode::Binned).expect("bfs");
            }
        }
        pooled.wall = pooled.wall.min(t0.elapsed().as_secs_f64());
        let stats = e.stats();
        pooled.io_bytes += stats.io_bytes;
        pooled.hits += stats.cache_hit_pages;
        pooled.misses += stats.cache_miss_pages;
        pooled.hot_hits += stats.cache_hot_hit_pages;
        pooled.hot_admits += stats.cache_hot_admits;
    }
    pooled
}

fn hit_ratio(r: &Run) -> f64 {
    if r.hits + r.misses == 0 {
        0.0
    } else {
        r.hits as f64 / (r.hits + r.misses) as f64
    }
}

fn main() {
    let scale = scale_from_env();
    let g = prepare(Dataset::Sk2005, scale);
    let graph_pages = (g.csr.num_edges() as usize).div_ceil(EDGES_PER_PAGE).max(8);
    // Three fixed budgets: an eighth, a quarter, and half the page set —
    // big enough to matter, small enough that policy decides what stays.
    let budgets = [
        graph_pages / 8 * PAGE_SIZE,
        graph_pages / 4 * PAGE_SIZE,
        graph_pages / 2 * PAGE_SIZE,
    ];

    let layouts = [VertexLayout::None, VertexLayout::Degree, VertexLayout::Hub];
    let mut rows = Vec::new();
    for query in ["pr", "bfs"] {
        for &budget in &budgets {
            let mut baseline: Option<Run> = None;
            for layout in layouts {
                let r = run_query(&g, layout, budget, query);
                let io_delta = match &baseline {
                    Some(b) => 100.0 * (1.0 - r.io_bytes as f64 / b.io_bytes.max(1) as f64),
                    None => 0.0,
                };
                // Asserted at the largest budget, where cache policy (not
                // raw capacity starvation) decides what stays. The hot-path
                // mechanics are deterministic and asserted exactly; the
                // comparison against `none` allows a small tolerance
                // because threaded IO arrival order perturbs pooled hit
                // counts by a few percent run to run — the degree layout
                // wins the pooled comparison on the typical run (that is
                // what the committed CSV records) and must never lose it
                // by more than noise. Smaller budgets are reported
                // unasserted: a dozen-page cache is churn for every
                // layout. BFS rows are likewise report-only — sk2005
                // ships in BFS-friendly order, so reordering trades BFS
                // locality for PageRank locality, and the table documents
                // that honestly.
                if query == "pr" && layout == VertexLayout::Degree && budget == budgets[2] {
                    let b = baseline.as_ref().expect("none runs first");
                    assert!(r.hot_admits > 0, "hot admissions must be counted");
                    assert!(r.hot_hits > 0, "hub pages must see cache hits");
                    assert!(
                        hit_ratio(&r) > hit_ratio(b) - 0.03,
                        "budget {budget}: degree layout hit ratio {:.4} fell more \
                         than noise below none {:.4}",
                        hit_ratio(&r),
                        hit_ratio(b)
                    );
                    assert!(
                        (r.io_bytes as f64) < b.io_bytes as f64 * 1.03,
                        "budget {budget}: degree layout read {} device bytes, \
                         materially more than none's {}",
                        r.io_bytes,
                        b.io_bytes
                    );
                }
                rows.push(vec![
                    query.to_string(),
                    format!("{} KiB", budget >> 10),
                    layout.name().to_string(),
                    r.io_bytes.to_string(),
                    format!("{:.4}", hit_ratio(&r)),
                    r.hot_hits.to_string(),
                    format!("{io_delta:+.1}%"),
                    format!("{:.3}", r.wall),
                ]);
                if layout == VertexLayout::None {
                    baseline = Some(r);
                }
            }
        }
    }

    print_table(
        &format!("Layout A/B: sk2005 PageRank x{ITERS} + BFS, cache budgets x3"),
        &[
            "query",
            "budget",
            "layout",
            "io bytes",
            "hit ratio",
            "hot hits",
            "io vs none",
            "wall s",
        ],
        &rows,
    );
    let path = write_csv(
        "layout_ab",
        &[
            "query",
            "budget",
            "layout",
            "io_bytes",
            "hit_ratio",
            "hot_hits",
            "io_delta_vs_none",
            "wall_s",
        ],
        &rows,
    );
    println!("\nwrote {}", path.display());
}
