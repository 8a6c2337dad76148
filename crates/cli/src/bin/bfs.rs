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
//! `-mode binned|sync` picks the execution mode.

use std::thread;

fn main() {
    let cli = blaze_cli::parse_env("bfs");
    let engine = blaze_cli::open_engine(&cli, &cli.index, &cli.adj)
        .unwrap_or_else(|e| blaze_cli::exit_with("bfs", &e));
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
        .unwrap_or_else(|e| blaze_cli::exit_with("bfs", &e))
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
