//! PageRank, delta variant — Algorithm 2 of the paper.
//!
//! Vertices stay active only while their rank keeps changing by more than
//! `epsilon * p[v]`; EDGEMAP propagates normalized deltas and VERTEXMAP
//! applies the damping factor and filters the next frontier.

use blaze_core::{vertex_map, BlazeEngine, VertexArray};
use blaze_frontier::VertexSubset;
use blaze_types::{Result, VertexId};

use crate::mode::ExecMode;
use crate::translate::to_original_order;

/// PageRank-delta parameters.
#[derive(Debug, Clone, Copy)]
pub struct PageRankConfig {
    /// Damping factor `D` (0.85 in the paper).
    pub damping: f64,
    /// Activation threshold `e`.
    pub epsilon: f64,
    /// Safety cap on iterations.
    pub max_iters: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        Self {
            damping: 0.85,
            epsilon: 0.01,
            max_iters: 100,
        }
    }
}

/// Out-of-core PageRank-delta. Returns the rank vector `p`.
pub fn pagerank_delta(
    engine: &BlazeEngine,
    config: PageRankConfig,
    mode: ExecMode,
) -> Result<VertexArray<f64>> {
    let n = engine.num_vertices();
    let graph = engine.graph().clone();
    let p = VertexArray::<f64>::new(n, 0.0);
    let delta = VertexArray::<f64>::new(n, 1.0 / n as f64);
    let ngh_sum = VertexArray::<f64>::new(n, 0.0);

    let mut frontier = VertexSubset::full(n);
    let threads = engine.options().compute_workers();

    // SCATTER: normalized delta of the source (Algorithm 2, line 7).
    let scatter = |s: VertexId, _d: VertexId| delta.get(s as usize) / graph.degree(s) as f64;
    let cond = |_d: VertexId| true;

    for _ in 0..config.max_iters {
        if frontier.is_empty() {
            break;
        }
        // GATHER accumulates into ngh_sum; `output = true` marks every
        // vertex that received mass so APPLYFILTER can visit it.
        // Bin exclusivity: plain read-modify-write, no CAS.
        let gather = |d: VertexId, v: f64| {
            ngh_sum.set(d as usize, ngh_sum.get(d as usize) + v);
            true
        };
        let touched = match mode {
            ExecMode::Binned => engine.edge_map(&frontier, scatter, gather, cond, true)?,
            ExecMode::Sync => engine.edge_map_sync(
                &frontier,
                scatter,
                |d: VertexId, v: f64| {
                    ngh_sum.fetch_add(d as usize, v);
                    true
                },
                cond,
                true,
            )?,
        };
        // APPLYFILTER (Algorithm 2, lines 20-29).
        frontier = vertex_map(
            &touched,
            |i: VertexId| {
                let i = i as usize;
                let nd = ngh_sum.get(i) * config.damping;
                delta.set(i, nd);
                ngh_sum.set(i, 0.0);
                if nd.abs() > config.epsilon * p.get(i) {
                    p.set(i, p.get(i) + nd);
                    true
                } else {
                    false
                }
            },
            threads,
        );
    }
    // Boundary translation: ranks computed in physical order come back
    // indexed by original vertex id (no-op on identity layouts).
    Ok(to_original_order(engine.graph().layout(), p, 0.0))
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

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let scale = x.abs().max(y.abs()).max(1e-12);
            assert!(
                (x - y).abs() / scale < tol,
                "rank mismatch at {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn binned_matches_reference() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 1);
        let cfg = PageRankConfig::default();
        let p = pagerank_delta(&e, cfg, ExecMode::Binned).unwrap();
        let expect = reference::pagerank_delta(&g, cfg.damping, cfg.epsilon, cfg.max_iters);
        assert_close(&p.to_vec(), &expect, 1e-6);
    }

    #[test]
    fn sync_matches_reference() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 2);
        let cfg = PageRankConfig::default();
        let p = pagerank_delta(&e, cfg, ExecMode::Sync).unwrap();
        let expect = reference::pagerank_delta(&g, cfg.damping, cfg.epsilon, cfg.max_iters);
        assert_close(&p.to_vec(), &expect, 1e-6);
    }

    #[test]
    fn hub_vertices_rank_highest() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 1);
        let p = pagerank_delta(&e, PageRankConfig::default(), ExecMode::Binned).unwrap();
        let ranks = p.to_vec();
        // The top-ranked vertex should be among the highest in-degree ones.
        let t = g.transpose();
        let best = ranks
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0 as u32;
        let best_in_deg = t.degree(best);
        let max_in_deg = (0..t.num_vertices() as u32)
            .map(|v| t.degree(v))
            .max()
            .unwrap();
        assert!(
            best_in_deg as f64 >= 0.5 * max_in_deg as f64,
            "top rank vertex has in-degree {best_in_deg}, max is {max_in_deg}"
        );
    }

    #[test]
    fn converges_before_max_iters() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 1);
        let cfg = PageRankConfig {
            epsilon: 0.05,
            ..Default::default()
        };
        pagerank_delta(&e, cfg, ExecMode::Binned).unwrap();
        let iters = e.stats().iterations;
        assert!(iters < cfg.max_iters, "needed {iters} iterations");
        assert!(iters >= 2);
    }
}
