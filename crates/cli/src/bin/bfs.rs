//! Artifact-style BFS binary.
//!
//! ```sh
//! bfs -computeWorkers 16 -startNode 0 rmat27.gr.index rmat27.gr.adj.0
//! ```
//!
//! With `-jobs N` (default 1), N copies of the query are submitted from
//! separate threads against the one engine; the persistent runtime
//! interleaves them on its shared IO/scatter/gather workers.
//!
//! `-cache-mb N` gives the IO workers a clock page cache of N MiB
//! (default 0, i.e. no cache — matching the published system).
//!
//! `-qd N` caps the per-device IO window. Without it the engine adapts to
//! the device: reads are issued one at a time while they return faster than
//! a hand-off to another thread costs (files in the page cache), and up to
//! sixteen stay in flight once they do not (an SSD). `-qd 1` pins the
//! published engine's stream: one read at a time, in submission order —
//! which is also what a simulated `-device` gets without the flag, so that
//! its modeled time depends on the input alone.
//!
//! `-mode binned|sync|async` picks the execution mode; `async` drops the
//! per-iteration barrier and drains a priority frontier bucketed by BFS
//! level.
//!
//! `-shards N` (default 1) runs the graph as a concurrent
//! destination-partitioned cluster of N engines exchanging frontier
//! deltas; the summary's `shards:` line reports per-shard device bytes
//! and the measured exchange traffic.

use std::thread;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match blaze_cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bfs: {e}");
            std::process::exit(2);
        }
    };
    if cli.shards > 1 {
        let cluster = blaze_cli::open_cluster(&cli, &cli.index, &cli.adj).unwrap_or_else(|e| {
            eprintln!("bfs: {e}");
            std::process::exit(1);
        });
        let t0 = std::time::Instant::now();
        let levels = blaze_algorithms::sharded_bfs(&cluster, cli.start_node).unwrap_or_else(|e| {
            eprintln!("bfs: {e}");
            std::process::exit(1);
        });
        let wall = t0.elapsed();
        let reached = (0..cluster.num_vertices())
            .filter(|&v| levels.get(v) != -1)
            .count();
        blaze_cli::print_cluster_summary("bfs", &cluster, wall);
        println!("reached {reached} vertices from root {}", cli.start_node);
        return;
    }
    let engine = match blaze_cli::open_engine(&cli, &cli.index, &cli.adj) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("bfs: {e}");
            std::process::exit(1);
        }
    };
    let t0 = std::time::Instant::now();
    let parents: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..cli.jobs)
            .map(|_| {
                let engine = &engine;
                s.spawn(move || blaze_algorithms::bfs(engine, cli.start_node, cli.mode))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bfs job panicked"))
            .collect()
    });
    let wall = t0.elapsed();
    let parent = parents
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .unwrap_or_else(|e| {
            eprintln!("bfs: {e}");
            std::process::exit(1);
        })
        .pop()
        .expect("-jobs guarantees at least one run");
    let reached = (0..engine.num_vertices())
        .filter(|&v| parent.get(v) != -1)
        .count();
    blaze_cli::print_run_summary("bfs", &engine, wall);
    if cli.jobs > 1 {
        println!("{} concurrent jobs over one engine", cli.jobs);
    }
    println!("reached {reached} vertices from root {}", cli.start_node);
}
