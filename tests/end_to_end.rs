//! End-to-end integration tests spanning the whole stack: generators →
//! on-disk format → engine → algorithms → references, including the
//! file-backed (cold-start) path and simulated-device wrapping.

#![allow(clippy::needless_range_loop)] // vertex-id indexing reads clearer here

use std::sync::Arc;

use blaze::algorithms::{self as algo, reference, ExecMode, PageRankConfig};
use blaze::engine::{BlazeEngine, EngineOptions};
use blaze::graph::disk::save_files;
use blaze::graph::{gen, Csr, Dataset, DatasetScale, DiskGraph};
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
