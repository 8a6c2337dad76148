//! End-to-end integration tests spanning the whole stack: generators →
//! on-disk format → engine → algorithms → references, including the
//! file-backed (cold-start) path and simulated-device wrapping.

#![allow(clippy::needless_range_loop)] // vertex-id indexing reads clearer here

use std::path::{Path, PathBuf};
use std::sync::Arc;

use blaze::algorithms::{self as algo, reference, ExecMode, PageRankConfig};
use blaze::engine::{BlazeEngine, EngineOptions};
use blaze::graph::disk::{save_files, save_files_with_layout, LayoutMeta};
use blaze::graph::{gen, Csr, Dataset, DatasetScale, DiskGraph, VertexLayout};
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
        let parent = algo::bfs(&engine, root, ExecMode::Binned).unwrap();
        let levels = reference::bfs_levels(&csr, root);
        for v in 0..csr.num_vertices() {
            assert_eq!(
                parent.get(v) == -1,
                levels[v] == -1,
                "{dataset}: reachability mismatch at vertex {v}"
            );
        }
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
    // BFS reachability.
    let p1 = algo::bfs(&engine_over(&csr, 1), 0, ExecMode::Binned).unwrap();
    let p2 = algo::bfs(&engine_over(&csr, 1), 0, ExecMode::Sync).unwrap();
    for v in 0..csr.num_vertices() {
        assert_eq!(p1.get(v) == -1, p2.get(v) == -1, "bfs reach at {v}");
    }
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

/// BFS levels from a parent array: the tree may differ between schedules,
/// the levels may not.
fn levels_from_parents(parent: &[i64], root: u32) -> Vec<i64> {
    let depth = |v: usize| {
        let (mut cur, mut depth) = (v, 0i64);
        while cur != root as usize {
            cur = parent[cur] as usize;
            depth += 1;
            assert!(depth <= parent.len() as i64, "parent cycle at {v}");
        }
        depth
    };
    (0..parent.len())
        .map(|v| if parent[v] < 0 { -1 } else { depth(v) })
        .collect()
}

/// The graph and its transpose as one file set under one vertex layout, and
/// the IO window cap to open them with.
struct Setup {
    fwd: (PathBuf, Vec<PathBuf>),
    rev: (PathBuf, Vec<PathBuf>),
    queue_depth: usize,
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
            queue_depth: EngineOptions::default().queue_depth,
        }
    }

    /// A fresh engine per call: no run sees another's cache, arenas or
    /// stats.
    fn open(&self, (index, adj): &(PathBuf, Vec<PathBuf>)) -> BlazeEngine {
        let graph = Arc::new(DiskGraph::open_files(index, adj).unwrap());
        let options = EngineOptions::default().with_queue_depth(self.queue_depth);
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
/// one): a cell that breaks in a crate-level suite breaks here too.
#[test]
fn every_query_matches_its_reference_in_every_mode() {
    use blaze::types::Result;
    use ExecMode::{Binned, Sync};

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
                Ok(Answer::exact(&levels_from_parents(&parent, root)))
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
        let mut cells = vec![(1, Binned), (16, Binned)];
        if layout == VertexLayout::None {
            cells.push((setup.queue_depth, Sync));
        }
        for (queue_depth, mode) in cells {
            setup.queue_depth = queue_depth;
            for row in &rows {
                let what = format!(
                    "{} -mode {mode}, layout {}, queue depth {queue_depth}",
                    row.query,
                    layout.name()
                );
                let got = (row.run)(&setup, mode).unwrap_or_else(|e| panic!("{what}: {e}"));
                got.assert_matches(&row.want, &what);
            }
        }
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
