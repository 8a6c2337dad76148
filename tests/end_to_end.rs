//! End-to-end integration tests spanning the whole stack: generators →
//! on-disk format → engine → algorithms → references, including the
//! file-backed (cold-start) path and simulated-device wrapping.

#![allow(clippy::needless_range_loop)] // vertex-id indexing reads clearer here

use std::path::{Path, PathBuf};
use std::sync::Arc;

use blaze::algorithms::{self as algo, reference, ExecMode, PageRankConfig};
use blaze::binning::BinningConfig;
use blaze::engine::{BlazeEngine, EngineOptions};
use blaze::graph::disk::{save_files, save_files_with_layout, LayoutMeta};
use blaze::graph::{gen, Csr, Dataset, DatasetScale, DiskGraph, GraphBuilder, VertexLayout};
use blaze::storage::{BlockDevice, DeviceProfile, FileDevice, SimDevice, StripedStorage};

fn engine_over(csr: &Csr, devices: usize) -> BlazeEngine {
    let storage = Arc::new(StripedStorage::in_memory(devices).unwrap());
    let graph = Arc::new(DiskGraph::create(csr, storage).unwrap());
    BlazeEngine::new(graph, EngineOptions::default()).unwrap()
}

#[test]
fn bfs_agrees_with_reference_on_every_dataset() {
    for dataset in Dataset::main_six() {
        let csr = dataset.generate(DatasetScale::Tiny);
        let engine = engine_over(&csr, 2);
        let root = (0..csr.num_vertices() as u32)
            .max_by_key(|&v| csr.degree(v))
            .unwrap();
        let parent = algo::bfs(&engine, root, ExecMode::Binned).unwrap().to_vec();
        let what = dataset.to_string();
        assert_eq!(
            levels_of_bfs_tree(&csr, &parent, root, &what),
            reference::bfs_levels(&csr, root),
            "{what}"
        );
    }
}

#[test]
fn wcc_agrees_with_union_find_on_every_dataset() {
    for dataset in [Dataset::Rmat27, Dataset::Uran27, Dataset::Sk2005] {
        let csr = dataset.generate(DatasetScale::Tiny);
        let t = csr.transpose();
        let out_engine = engine_over(&csr, 1);
        let in_engine = engine_over(&t, 1);
        let ids = algo::wcc(&out_engine, &in_engine, ExecMode::Binned).unwrap();
        assert_eq!(ids.to_vec(), reference::wcc_labels(&csr), "{dataset}");
    }
}

#[test]
fn binned_and_sync_modes_agree_on_all_queries() {
    let csr = gen::rmat(&gen::RmatConfig::new(9));
    let t = csr.transpose();
    // BFS levels, each through a valid tree.
    let [l1, l2] = [ExecMode::Binned, ExecMode::Sync].map(|m| {
        let parent = algo::bfs(&engine_over(&csr, 1), 0, m).unwrap().to_vec();
        levels_of_bfs_tree(&csr, &parent, 0, &format!("bfs -mode {m}"))
    });
    assert_eq!(l1, l2, "bfs levels");
    // PageRank values.
    let cfg = PageRankConfig::default();
    let r1 = algo::pagerank_delta(&engine_over(&csr, 1), cfg, ExecMode::Binned).unwrap();
    let r2 = algo::pagerank_delta(&engine_over(&csr, 1), cfg, ExecMode::Sync).unwrap();
    for v in 0..csr.num_vertices() {
        assert!((r1.get(v) - r2.get(v)).abs() < 1e-9, "pr at {v}");
    }
    // WCC labels.
    let w1 = algo::wcc(&engine_over(&csr, 1), &engine_over(&t, 1), ExecMode::Binned).unwrap();
    let w2 = algo::wcc(&engine_over(&csr, 1), &engine_over(&t, 1), ExecMode::Sync).unwrap();
    assert_eq!(w1.to_vec(), w2.to_vec());
    // BC scores.
    let b1 = algo::bc(
        &engine_over(&csr, 1),
        &engine_over(&t, 1),
        0,
        ExecMode::Binned,
    )
    .unwrap();
    let b2 = algo::bc(
        &engine_over(&csr, 1),
        &engine_over(&t, 1),
        0,
        ExecMode::Sync,
    )
    .unwrap();
    for v in 0..csr.num_vertices() {
        assert!(
            (b1.get(v) - b2.get(v)).abs() < 1e-9 * b1.get(v).abs().max(1.0),
            "bc at {v}"
        );
    }
}

#[test]
fn cold_start_from_files_with_simulated_optane() {
    let csr = gen::rmat(&gen::RmatConfig::new(9));
    let dir = tempfile::tempdir().unwrap();
    let (index_path, adj_paths) = save_files(&csr, dir.path(), "g.gr", 2).unwrap();

    // Reopen through SimDevice-wrapped file devices: the full production
    // stack (files + device model + engine).
    let devices: Vec<Arc<dyn BlockDevice>> = adj_paths
        .iter()
        .map(|p| {
            Arc::new(SimDevice::new(
                FileDevice::open(p).unwrap(),
                DeviceProfile::optane_p4800x(),
            )) as Arc<dyn BlockDevice>
        })
        .collect();
    let storage = Arc::new(StripedStorage::new(devices).unwrap());
    let graph = Arc::new(DiskGraph::open(&index_path, storage).unwrap());
    assert_eq!(graph.num_vertices(), csr.num_vertices());
    assert_eq!(graph.num_edges(), csr.num_edges());

    // Depth 1, as the CLI does for a simulated device: the model prices a
    // read by the mode it was made in, and modeled time should not depend
    // on how fast the host returned the file.
    let options = EngineOptions::default().with_queue_depth(1);
    let engine = BlazeEngine::new(graph.clone(), options).unwrap();
    let parent = algo::bfs(&engine, 0, ExecMode::Binned).unwrap();
    let levels = reference::bfs_levels(&csr, 0);
    for v in 0..csr.num_vertices() {
        assert_eq!(parent.get(v) == -1, levels[v] == -1);
    }
    // The simulated devices accumulated modeled busy time.
    for d in graph.storage().devices() {
        assert!(d.stats().busy_ns() > 0);
        assert!(d.stats().read_bytes() > 0);
    }
}

#[test]
fn spmv_exact_on_files_and_memory() {
    let csr = gen::uniform(9, 8, 11);
    let x: Vec<f64> = (0..csr.num_vertices()).map(|i| (i % 17) as f64).collect();
    let expect = reference::spmv(&csr, &x);

    let engine = engine_over(&csr, 3);
    let y = algo::spmv(&engine, &x, ExecMode::Binned).unwrap();
    for v in 0..csr.num_vertices() {
        assert!((y.get(v) - expect[v]).abs() < 1e-9);
    }
}

#[test]
fn striping_balances_io_for_every_query() {
    let csr = gen::rmat(&gen::RmatConfig::new(10));
    let engine = engine_over(&csr, 4);
    let x: Vec<f64> = vec![1.0; csr.num_vertices()];
    algo::spmv(&engine, &x, ExecMode::Binned).unwrap();
    let per_device = engine.graph().storage().read_bytes_per_device();
    let max = *per_device.iter().max().unwrap();
    let min = *per_device.iter().min().unwrap();
    assert!(
        max - min <= 16 * 4096,
        "page interleaving must balance IO: {per_device:?}"
    );
}

#[test]
fn traces_feed_the_performance_model() {
    use blaze::perfmodel::{MachineConfig, PerfModel};
    let csr = Dataset::Rmat30.generate(DatasetScale::Tiny);
    let engine = engine_over(&csr, 1);
    let cfg = PageRankConfig {
        max_iters: 10,
        ..Default::default()
    };
    algo::pagerank_delta(&engine, cfg, ExecMode::Binned).unwrap();
    let traces = engine.take_traces();
    assert!(traces.len() >= 2);

    let model = PerfModel::new(MachineConfig::paper_optane());
    let blaze = model.blaze_query(&traces);
    let sync = model.sync_query(&traces);
    // The headline claim: online binning beats CAS on skewed PR.
    assert!(
        blaze.avg_bandwidth() > 1.5 * sync.avg_bandwidth(),
        "binned {} vs sync {}",
        blaze.avg_bandwidth(),
        sync.avg_bandwidth()
    );
    // And Blaze stays near the device bandwidth.
    assert!(blaze.avg_bandwidth() > 0.75 * model.machine.aggregate_bandwidth());
}

/// What a query returned, in the form it is compared with its reference.
enum Answer {
    /// Compared bit for bit.
    Exact(Vec<i64>),
    /// Floating-point sums, whose order differs between schedules: each
    /// value within `tol` of the reference, relative to the larger of the
    /// two magnitudes and `floor`.
    Close {
        values: Vec<f64>,
        tol: f64,
        floor: f64,
    },
}

impl Answer {
    fn exact<T: Copy + TryInto<i64>>(values: &[T]) -> Self {
        // u64::MAX (SSSP's "unreached") has no i64; -1 is free in every
        // exact answer compared here.
        Answer::Exact(values.iter().map(|&v| v.try_into().unwrap_or(-1)).collect())
    }

    fn assert_matches(&self, want: &Answer, what: &str) {
        match (self, want) {
            (Answer::Exact(got), Answer::Exact(want)) => assert_eq!(got, want, "{what}"),
            (Answer::Close { values: got, .. }, Answer::Close { values, tol, floor }) => {
                assert_eq!(got.len(), values.len(), "{what}");
                for (v, (x, y)) in got.iter().zip(values).enumerate() {
                    let scale = x.abs().max(y.abs()).max(*floor);
                    assert!((x - y).abs() <= tol * scale, "{what} at {v}: {x} vs {y}");
                }
            }
            _ => panic!("{what}: an exact answer compared with a tolerant one"),
        }
    }
}

/// BFS levels from a parent array, after checking that it is a BFS tree of
/// `csr`: the root is its own parent, every other reached vertex's parent
/// has an edge to it and sits exactly one level shallower, and every
/// unreached vertex holds -1. The tree may differ between schedules, the
/// levels may not.
fn levels_of_bfs_tree(csr: &Csr, parent: &[i64], root: u32, what: &str) -> Vec<i64> {
    assert_eq!(parent[root as usize], i64::from(root), "{what}: root");
    let depth = |v: usize| {
        let (mut cur, mut depth) = (v, 0i64);
        while cur != root as usize {
            cur = parent[cur] as usize;
            depth += 1;
            assert!(depth <= parent.len() as i64, "{what}: parent cycle at {v}");
        }
        depth
    };
    let levels: Vec<i64> = (0..parent.len())
        .map(|v| match parent[v] {
            -1 => -1,
            p => {
                assert!(p >= 0, "{what}: vertex {v} holds {p}");
                depth(v)
            }
        })
        .collect();
    for (v, &p) in parent.iter().enumerate() {
        if p >= 0 && v != root as usize {
            let p = p as u32;
            assert!(
                csr.neighbors(p).contains(&(v as u32)),
                "{what}: parent {p} of {v} has no edge to it"
            );
            assert_eq!(levels[p as usize] + 1, levels[v], "{what}: parent of {v}");
        }
    }
    levels
}

/// The bins an engine is opened with.
#[derive(Debug, Clone, Copy)]
enum Bins {
    /// The bins the engine derives from the graph's bin space: the floor
    /// of 64 here, slices of 8 vertices.
    Default,
    /// This many bins in 64 KiB; fewer bins own wider slices.
    Count(usize),
    /// 16 bins whose every buffer holds one staging batch (the floor), with
    /// two scatter workers and one gather worker: appends find both
    /// buffers of a bin out all the time, and scatter applies full bins
    /// itself. Whether a given append stalls depends on scheduling.
    Starved,
}

/// The graph and its transpose as one file set under one vertex layout, and
/// the IO window cap and bins to open them with.
struct Setup {
    fwd: (PathBuf, Vec<PathBuf>),
    rev: (PathBuf, Vec<PathBuf>),
    layout: VertexLayout,
    queue_depth: usize,
    bins: Bins,
}

impl Setup {
    /// Writes `csr` and its transpose under `layout`, sharing the one
    /// permutation, as two stripes each.
    fn write(csr: &Csr, layout: VertexLayout, dir: &Path) -> Self {
        let (perm, hot_vertices) = layout.plan(csr);
        let physical = perm.permute_csr(csr);
        let meta = LayoutMeta {
            kind: layout,
            hot_vertices,
            perm,
        };
        let save = |g: &Csr, base: &str| save_files_with_layout(g, dir, base, 2, Some(&meta));
        Setup {
            fwd: save(&physical, "g.gr").unwrap(),
            rev: save(&physical.transpose(), "g.tgr").unwrap(),
            layout,
            queue_depth: EngineOptions::default().queue_depth,
            bins: Bins::Default,
        }
    }

    /// The cells (queue depth, mode, bins) a query meets under this
    /// layout: binned at both IO backends everywhere; on the identity
    /// layout also sync mode, the 3-, 16- and 1,024-bin spaces and starved
    /// bins.
    fn cells(&self) -> Vec<(usize, ExecMode, Bins)> {
        let depth = EngineOptions::default().queue_depth;
        let mut cells = vec![
            (1, ExecMode::Binned, Bins::Default),
            (16, ExecMode::Binned, Bins::Default),
        ];
        if self.layout == VertexLayout::None {
            cells.push((depth, ExecMode::Sync, Bins::Default));
            cells.extend([3, 16, 1024].map(|bins| (depth, ExecMode::Binned, Bins::Count(bins))));
            cells.push((depth, ExecMode::Binned, Bins::Starved));
        }
        cells
    }

    /// Moves to `cell` and names it for assertion messages.
    fn enter(&mut self, (queue_depth, mode, bins): (usize, ExecMode, Bins)) -> String {
        self.queue_depth = queue_depth;
        self.bins = bins;
        self.name(mode)
    }

    /// The current cell in `mode`, for assertion messages.
    fn name(&self, mode: ExecMode) -> String {
        format!(
            "-mode {mode}, layout {}, queue depth {}, bins {:?}",
            self.layout.name(),
            self.queue_depth,
            self.bins
        )
    }

    /// A fresh engine per call: no run sees another's cache, arenas or
    /// stats.
    fn open(&self, (index, adj): &(PathBuf, Vec<PathBuf>)) -> BlazeEngine {
        let graph = Arc::new(DiskGraph::open_files(index, adj).unwrap());
        let mut options = EngineOptions::default().with_queue_depth(self.queue_depth);
        match self.bins {
            Bins::Default => {}
            Bins::Count(bins) => {
                options = options.with_binning(BinningConfig::new(bins, 64 << 10, 64).unwrap());
            }
            Bins::Starved => {
                // One byte of bin space: every buffer is at the staging
                // floor of 64 records.
                options = options
                    .with_binning(BinningConfig::new(16, 1, 64).unwrap())
                    .with_compute_workers(3, 2.0 / 3.0);
                assert_eq!((options.num_scatter, options.num_gather), (2, 1));
            }
        }
        BlazeEngine::new(graph, options).unwrap()
    }

    fn fwd(&self) -> BlazeEngine {
        self.open(&self.fwd)
    }

    fn rev(&self) -> BlazeEngine {
        self.open(&self.rev)
    }
}

/// Tier-1 runs only this package, so this is where every query meets both
/// modes once, and, in binned mode, every physical layout under both IO
/// backends (`queue_depth` 1 is the inline `SyncBackend`, 16 the adaptive
/// one), bins that own vertex slices wider than one (3 bins over 512
/// vertices: slices of 128, bin 0 holding two; 16 bins: slices of 32; the
/// derived 64: slices of 8), the paper's 1,024 bins, more than there are
/// vertices, which route one vertex a slice (`dst % 1024`), and bins so
/// small that scatter keeps stalling and applying full bins itself
/// (`Bins::Starved`): a cell that breaks in a crate-level suite breaks here
/// too.
#[test]
fn every_query_matches_its_reference_in_every_mode() {
    use blaze::types::Result;

    let csr = gen::rmat(&gen::RmatConfig::new(9));
    let n = csr.num_vertices();
    let root = 0;
    let k = 3;
    let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
    let cfg = PageRankConfig::default();
    let ranks = |values: Vec<f64>| Answer::Close {
        values,
        tol: 1e-6,
        floor: 1e-12,
    };
    let sums = |values: Vec<f64>| Answer::Close {
        values,
        tol: 1e-9,
        floor: 1.0,
    };

    type Run<'a> = Box<dyn Fn(&Setup, ExecMode) -> Result<Answer> + 'a>;
    struct Row<'a> {
        query: &'a str,
        run: Run<'a>,
        want: Answer,
    }
    let rows = [
        Row {
            query: "bfs",
            run: Box::new(|s, m| {
                let parent = algo::bfs(&s.fwd(), root, m)?.to_vec();
                let what = format!("bfs {}", s.name(m));
                Ok(Answer::exact(&levels_of_bfs_tree(
                    &csr, &parent, root, &what,
                )))
            }),
            want: Answer::exact(&reference::bfs_levels(&csr, root)),
        },
        Row {
            query: "pr",
            run: Box::new(|s, m| Ok(ranks(algo::pagerank_delta(&s.fwd(), cfg, m)?.to_vec()))),
            want: ranks(reference::pagerank_delta(
                &csr,
                cfg.damping,
                cfg.epsilon,
                cfg.max_iters,
            )),
        },
        Row {
            query: "wcc",
            run: Box::new(|s, m| Ok(Answer::exact(&algo::wcc(&s.fwd(), &s.rev(), m)?.to_vec()))),
            want: Answer::exact(&reference::wcc_labels(&csr)),
        },
        Row {
            query: "spmv",
            run: Box::new(|s, m| Ok(sums(algo::spmv(&s.fwd(), &x, m)?.to_vec()))),
            want: sums(reference::spmv(&csr, &x)),
        },
        Row {
            query: "bc",
            run: Box::new(|s, m| Ok(sums(algo::bc(&s.fwd(), &s.rev(), root, m)?.to_vec()))),
            want: sums(reference::bc_scores(&csr, root)),
        },
        Row {
            query: "sssp",
            run: Box::new(|s, m| Ok(Answer::exact(&algo::sssp(&s.fwd(), root, m)?.to_vec()))),
            want: Answer::exact(&reference::sssp_distances(&csr, root)),
        },
        Row {
            query: "kcore",
            run: Box::new(|s, m| {
                Ok(Answer::exact(
                    &algo::kcore(&s.fwd(), &s.rev(), k, m)?.to_vec(),
                ))
            }),
            want: Answer::exact(&reference::kcore_alive(&csr, i64::from(k))),
        },
        Row {
            query: "lp",
            run: Box::new(|s, m| {
                Ok(Answer::exact(
                    &algo::label_propagation(&s.fwd(), m)?.to_vec(),
                ))
            }),
            want: Answer::exact(&reference::labelprop_labels(&csr)),
        },
    ];
    for layout in [VertexLayout::None, VertexLayout::Degree, VertexLayout::Hub] {
        let dir = tempfile::tempdir().unwrap();
        let mut setup = Setup::write(&csr, layout, dir.path());
        for cell in setup.cells() {
            let mode = cell.1;
            let cell_name = setup.enter(cell);
            for row in &rows {
                let what = format!("{} {cell_name}", row.query);
                let got = (row.run)(&setup, mode).unwrap_or_else(|e| panic!("{what}: {e}"));
                got.assert_matches(&row.want, &what);
            }
        }
    }
}

/// Many records race for one claim: every edge of an R-MAT twice, a
/// self-loop on every vertex, and a funnel in which the root's 64
/// out-neighbours each point three times at each of the same 8 vertices.
/// The BFS tree holds in every cell of the query matrix.
#[test]
fn bfs_tree_holds_on_a_multigraph_in_every_cell() {
    let base = gen::rmat(&gen::RmatConfig::new(9));
    let n = base.num_vertices() as u32;
    let mut builder = GraphBuilder::new(n as usize);
    for v in 0..n {
        builder.add_edge(v, v);
        for &d in base.neighbors(v) {
            builder.extend([(v, d); 2]);
        }
    }
    for s in 1..=64 {
        builder.add_edge(0, s);
        for d in n - 8..n {
            builder.extend([(s, d); 3]);
        }
    }
    let csr = builder.build();
    let root = 0;
    let want = reference::bfs_levels(&csr, root);
    for layout in [VertexLayout::None, VertexLayout::Degree, VertexLayout::Hub] {
        let dir = tempfile::tempdir().unwrap();
        let mut setup = Setup::write(&csr, layout, dir.path());
        for cell in setup.cells() {
            let mode = cell.1;
            let what = format!("bfs {}", setup.enter(cell));
            let parent = algo::bfs(&setup.fwd(), root, mode)
                .unwrap_or_else(|e| panic!("{what}: {e}"))
                .to_vec();
            assert_eq!(
                levels_of_bfs_tree(&csr, &parent, root, &what),
                want,
                "{what}"
            );
        }
    }
}

/// A layered diamond lattice: the root points at every vertex of layer 1,
/// and vertex `j` of each layer at vertices `j` and `j + 1 (mod W)` of the
/// next, so every vertex below layer 1 has two parents on one level. Vertex
/// `x` is reachable at two depths: at 2 through layer 1 and at 4 through
/// layer 3. Every path count is a power of two, so every score sums
/// exactly in any order and both modes match the reference bit for bit; a
/// vertex that stopped collecting path counts from its parents on one
/// level before the level ended would lose half of them.
#[test]
fn bc_keeps_every_parent_on_one_level() {
    const W: u32 = 16;
    const LAYERS: u32 = 6;
    let at = |layer: u32, j: u32| 1 + (layer - 1) * W + j % W;
    let x = 1 + LAYERS * W;
    let mut builder = GraphBuilder::new(x as usize + 1);
    for j in 0..W {
        builder.add_edge(0, at(1, j));
        for layer in 1..LAYERS {
            builder.extend([
                (at(layer, j), at(layer + 1, j)),
                (at(layer, j), at(layer + 1, j + 1)),
            ]);
        }
    }
    builder.extend([(at(1, 0), x), (at(3, 5), x)]);
    let csr = builder.build();
    let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    let want = reference::bc_scores(&csr, 0);
    for mode in [ExecMode::Binned, ExecMode::Sync] {
        let out_engine = engine_over(&csr, 2);
        let in_engine = engine_over(&csr.transpose(), 2);
        let got = algo::bc(&out_engine, &in_engine, 0, mode).unwrap().to_vec();
        assert_eq!(bits(&got), bits(&want), "-mode {mode}: {got:?}");
    }
}

/// A transpose of another graph is a `Format` error from every query that
/// takes one, in both modes, before any job is submitted (it used to be a
/// panic on an `assert_eq!`), and the out-engine serves the next query.
#[test]
fn mismatched_transpose_is_a_format_error_and_the_engine_lives_on() {
    let csr = gen::rmat(&gen::RmatConfig::new(8));
    let other = gen::rmat(&gen::RmatConfig::new(7)).transpose();
    let out_engine = engine_over(&csr, 2);
    let in_engine = engine_over(&other, 2);
    for mode in [ExecMode::Binned, ExecMode::Sync] {
        let errors = [
            algo::wcc(&out_engine, &in_engine, mode).err(),
            algo::kcore(&out_engine, &in_engine, 2, mode).err(),
            algo::bc(&out_engine, &in_engine, 0, mode).err(),
        ];
        for err in errors {
            let message = match err {
                Some(blaze::types::BlazeError::Format(message)) => message,
                other => panic!("{mode}: expected a format error, got {other:?}"),
            };
            assert!(
                message.contains("256 vertices, the transpose 128"),
                "{message}"
            );
        }
        assert_eq!(out_engine.stats().iterations, 0, "no job was submitted");
    }
    let parent = algo::bfs(&out_engine, 0, ExecMode::Binned).unwrap();
    let levels = reference::bfs_levels(&csr, 0);
    for v in 0..csr.num_vertices() {
        assert_eq!(parent.get(v) == -1, levels[v] == -1, "vertex {v}");
    }
}
