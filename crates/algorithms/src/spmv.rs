//! Sparse matrix-vector multiplication over the out-of-core CSR.
//!
//! Treats the graph as its adjacency matrix A and computes
//! `y[d] = Σ_{(s,d) ∈ E} x[s]` — one full-frontier `EdgeMap`, the most
//! IO-intensive query in the evaluation (every edge page is read exactly
//! once, every edge produces one bin record).

use blaze_core::{BlazeEngine, VertexArray};
use blaze_frontier::VertexSubset;
use blaze_types::{Result, VertexId};

use crate::mode::ExecMode;
use crate::translate::to_original_order;

/// Out-of-core SpMV: returns `y = Aᵀ·x` (accumulating along out-edges into
/// destinations). `x` is indexed by original vertex id and so is the
/// returned `y`; on layouted graphs the vector is permuted into physical
/// order for the edge map and the result permuted back.
pub fn spmv(engine: &BlazeEngine, x: &[f64], mode: ExecMode) -> Result<VertexArray<f64>> {
    let n = engine.num_vertices();
    assert_eq!(x.len(), n, "input vector must have one entry per vertex");
    let layout = engine.graph().layout();
    // Boundary translation in: physical slot p reads x[orig(p)].
    let px: std::borrow::Cow<'_, [f64]> = match layout.phys_to_orig() {
        Some(map) => map.iter().map(|&orig| x[orig as usize]).collect(),
        None => std::borrow::Cow::Borrowed(x),
    };
    let x = px.as_ref();
    let y = VertexArray::<f64>::new(n, 0.0);
    let frontier = VertexSubset::full(n);
    let scatter = |s: VertexId, _d: VertexId| x[s as usize];
    let cond = |_d: VertexId| true;
    match mode {
        ExecMode::Binned => engine.edge_map(
            &frontier,
            scatter,
            |d: VertexId, v: f64| {
                y.set(d as usize, y.get(d as usize) + v);
                false
            },
            cond,
            false,
        )?,
        ExecMode::Sync => engine.edge_map_sync(
            &frontier,
            scatter,
            |d: VertexId, v: f64| {
                y.fetch_add(d as usize, v);
                false
            },
            cond,
            false,
        )?,
    };
    // Boundary translation out: y[orig(p)] = y_phys[p].
    Ok(to_original_order(layout, y, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use blaze_core::EngineOptions;
    use blaze_graph::gen::{rmat, RmatConfig};
    use blaze_graph::{Csr, DiskGraph};
    use blaze_storage::StripedStorage;
    use std::sync::Arc;

    fn engine(g: &Csr, devices: usize) -> BlazeEngine {
        let storage = Arc::new(StripedStorage::in_memory(devices).unwrap());
        BlazeEngine::new(
            Arc::new(DiskGraph::create(g, storage).unwrap()),
            EngineOptions::default(),
        )
        .unwrap()
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() < 1e-9 * x.abs().max(1.0),
                "y[{i}]: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matches_reference_binned() {
        let g = rmat(&RmatConfig::new(9));
        let x: Vec<f64> = (0..g.num_vertices())
            .map(|i| (i % 13) as f64 * 0.5)
            .collect();
        let e = engine(&g, 1);
        let y = spmv(&e, &x, ExecMode::Binned).unwrap();
        assert_close(&y.to_vec(), &reference::spmv(&g, &x));
    }

    #[test]
    fn matches_reference_sync_striped() {
        let g = rmat(&RmatConfig::new(8));
        let x: Vec<f64> = (0..g.num_vertices())
            .map(|i| 1.0 / (i + 1) as f64)
            .collect();
        let e = engine(&g, 4);
        let y = spmv(&e, &x, ExecMode::Sync).unwrap();
        assert_close(&y.to_vec(), &reference::spmv(&g, &x));
    }

    #[test]
    fn reads_every_edge_exactly_once() {
        let g = rmat(&RmatConfig::new(9));
        let x = vec![1.0; g.num_vertices()];
        let e = engine(&g, 1);
        let y = spmv(&e, &x, ExecMode::Binned).unwrap();
        // With x = 1, y[d] equals the in-degree of d.
        let t = g.transpose();
        for v in 0..g.num_vertices() {
            assert_eq!(y.get(v), t.degree(v as u32) as f64);
        }
        assert_eq!(e.stats().iterations, 1);
        assert_eq!(e.stats().edges_processed, g.num_edges());
    }
}
