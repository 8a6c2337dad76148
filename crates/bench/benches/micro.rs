//! Microbenchmarks of the core mechanisms, including the ablations called
//! out in DESIGN.md: binning vs CAS propagation, staging on/off,
//! merge-window sizes, frontier representations, and the indirection index.
//!
//! Plain wall-clock harness (no external bench framework): each case runs a
//! couple of warm-up iterations, then reports the best-of-N time.

use blaze_bench::report::{print_table, write_csv};
use blaze_binning::{no_gather, BinRecord, BinSpace, BinningConfig, ScatterStaging};
use blaze_core::{BlazeEngine, EngineOptions, VertexArray};
use blaze_frontier::{AtomicBitmap, VertexSubset};
use blaze_graph::gen::{rmat, RmatConfig};
use blaze_graph::{DiskGraph, GraphIndex};
use blaze_storage::request::merge_pages_with_window;
use blaze_storage::StripedStorage;
use std::sync::Arc;
use std::time::Instant;

const N: usize = 1 << 16;

/// Best-of-`runs` wall time of `f`, in nanoseconds, after one warm-up.
fn time_best<T>(runs: usize, mut f: impl FnMut() -> T) -> u64 {
    std::hint::black_box(f());
    let mut best = u64::MAX;
    for _ in 0..runs {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best
}

fn row(group: &str, name: &str, nanos: u64) -> Vec<String> {
    vec![
        group.to_string(),
        name.to_string(),
        format!("{:.3}", nanos as f64 / 1e6),
    ]
}

/// Value propagation: online binning (staged) vs direct CAS updates.
fn bench_propagation(rows: &mut Vec<Vec<String>>) {
    let dsts: Vec<u32> = (0..N as u32)
        .map(|i| i.wrapping_mul(2654435761) % N as u32)
        .collect();
    let binned = |staged: bool| {
        let space: BinSpace<u32> = BinSpace::new(BinningConfig::new(1024, 4 << 20, 64).unwrap());
        if staged {
            let mut staging = ScatterStaging::new(&space);
            for &d in &dsts {
                staging.push(&space, d, d);
            }
            staging.flush(&space);
        } else {
            // Ablation: skip the per-thread staging buffer (one lock per
            // record).
            for &d in &dsts {
                space.append_batch(space.bin_of(d), &[BinRecord::new(d, d)], no_gather());
            }
        }
        space.flush_partials();
        let mut sum = 0u64;
        while space.process_one_full(|_, records| {
            for r in records {
                sum += r.value as u64;
            }
        }) {}
        sum
    };
    rows.push(row(
        "propagation",
        "online_binning",
        time_best(5, || binned(true)),
    ));
    rows.push(row(
        "propagation",
        "binning_unstaged",
        time_best(5, || binned(false)),
    ));
    let arr = VertexArray::<u64>::new(N, 0);
    rows.push(row(
        "propagation",
        "cas_direct",
        time_best(5, || {
            for &d in &dsts {
                arr.fetch_update(d as usize, |v| Some(v + 1)).ok();
            }
            arr.get(0)
        }),
    ));
}

/// Frontier inserts and iteration: sparse vs dense.
fn bench_frontier(rows: &mut Vec<Vec<String>>) {
    rows.push(row(
        "frontier",
        "sparse_insert_1pct",
        time_best(10, || {
            let s = VertexSubset::new(N);
            for v in (0..N as u32).step_by(100) {
                s.insert(v);
            }
            s.len()
        }),
    ));
    rows.push(row(
        "frontier",
        "dense_insert_all",
        time_best(10, || {
            let s = VertexSubset::new(N);
            for v in 0..N as u32 {
                s.insert(v);
            }
            s.len()
        }),
    ));
    let mut bm = AtomicBitmap::new(N);
    bm.set_all();
    rows.push(row(
        "frontier",
        "bitmap_scan",
        time_best(10, || bm.iter_ones().count()),
    ));
}

/// IO request merging at different windows (ablation: 1/2/4/8 pages).
fn bench_merge(rows: &mut Vec<Vec<String>>) {
    // Realistic page list: clustered runs with gaps.
    let pages: Vec<u64> = (0..N as u64)
        .filter(|p| p % 7 != 3 && p % 11 != 5)
        .collect();
    for window in [1usize, 2, 4, 8] {
        rows.push(row(
            "merge_pages",
            &format!("window_{window}"),
            time_best(10, || merge_pages_with_window(&pages, window).len()),
        ));
    }
}

/// Indirection-index offset lookups vs a plain prefix-sum array.
fn bench_index(rows: &mut Vec<Vec<String>>) {
    let degrees: Vec<u32> = (0..N as u32).map(|i| i % 37).collect();
    let index = GraphIndex::from_degrees(degrees.clone());
    let mut plain = vec![0u64; N + 1];
    for i in 0..N {
        plain[i + 1] = plain[i] + degrees[i] as u64;
    }
    rows.push(row(
        "index_lookup",
        "indirection",
        time_best(10, || {
            let mut sum = 0u64;
            for v in (0..N as u32).step_by(17) {
                sum += index.edge_offset(v);
            }
            sum
        }),
    ));
    rows.push(row(
        "index_lookup",
        "full_offsets",
        time_best(10, || {
            let mut sum = 0u64;
            for v in (0..N).step_by(17) {
                sum += plain[v];
            }
            sum
        }),
    ));
}

/// End-to-end out-of-core BFS on a small R-MAT graph.
fn bench_bfs_e2e(rows: &mut Vec<Vec<String>>) {
    let g = rmat(&RmatConfig::new(12));
    let storage = Arc::new(StripedStorage::in_memory(1).unwrap());
    let graph = Arc::new(DiskGraph::create(&g, storage).unwrap());
    for (name, mode) in [
        ("blaze_rmat12", blaze_algorithms::ExecMode::Binned),
        ("sync_rmat12", blaze_algorithms::ExecMode::Sync),
    ] {
        rows.push(row(
            "bfs_e2e",
            name,
            time_best(3, || {
                let engine = BlazeEngine::new(graph.clone(), EngineOptions::default()).unwrap();
                let parent = blaze_algorithms::bfs(&engine, 0, mode).unwrap();
                parent.get(1)
            }),
        ));
    }
}

fn main() {
    let mut rows = Vec::new();
    bench_propagation(&mut rows);
    bench_frontier(&mut rows);
    bench_merge(&mut rows);
    bench_index(&mut rows);
    bench_bfs_e2e(&mut rows);
    print_table(
        "Microbenchmarks (best-of-N wall time)",
        &["group", "case", "ms"],
        &rows,
    );
    let path = write_csv("micro", &["group", "case", "ms"], &rows);
    println!("\nwrote {}", path.display());
}
