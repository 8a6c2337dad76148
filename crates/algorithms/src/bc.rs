//! Betweenness Centrality via Brandes's algorithm, single source.
//!
//! Two sweeps of `EdgeMap`s: a forward level-synchronous sweep over the
//! graph counting shortest paths (`sigma`), then a backward sweep over the
//! transpose accumulating dependency scores (`delta`). This is why the
//! artifact's `bc` binary requires the `.tgr` transpose files.

use blaze_core::{vertex_map, BlazeEngine, VertexArray};
use blaze_frontier::VertexSubset;
use blaze_types::{Result, VertexId};

use crate::mode::ExecMode;
use crate::translate::{check_transpose, to_original_order};

/// Out-of-core single-source Brandes. `out_engine` runs over the graph,
/// `in_engine` over its transpose. Returns the dependency scores
/// `delta[v]` for shortest paths out of `root`; both `root` and the score
/// indices are original vertex ids regardless of physical layout.
pub fn bc(
    out_engine: &BlazeEngine,
    in_engine: &BlazeEngine,
    root: VertexId,
    mode: ExecMode,
) -> Result<VertexArray<f64>> {
    check_transpose(out_engine, in_engine)?;
    let n = out_engine.num_vertices();
    let layout = out_engine.graph().layout();
    let root = layout.to_physical(root);
    let depth = VertexArray::<i64>::new(n, -1);
    let sigma = VertexArray::<f64>::new(n, 0.0);
    depth.set(root as usize, 0);
    sigma.set(root as usize, 1.0);

    // --- Forward sweep: shortest-path counts, level by level. ---
    let mut levels: Vec<VertexSubset> = vec![VertexSubset::single(n, root)];
    while let Some(current) = levels.last() {
        if current.is_empty() {
            levels.pop();
            break;
        }
        let level = levels.len() as i64;
        // SCATTER: path count of the source. COND: only vertices not yet
        // finalized at a shallower level. GATHER: claim depth on first
        // touch, then accumulate sigma for same-level touches.
        let scatter = |s: VertexId, _d: VertexId| sigma.get(s as usize);
        let cond = |d: VertexId| {
            let dd = depth.get(d as usize);
            dd == -1 || dd == level
        };
        let next = match mode {
            ExecMode::Binned => out_engine.edge_map(
                &current.clone_members(n),
                scatter,
                |d: VertexId, v: f64| {
                    let i = d as usize;
                    if depth.get(i) == -1 {
                        depth.set(i, level);
                    }
                    if depth.get(i) == level {
                        sigma.set(i, sigma.get(i) + v);
                        true
                    } else {
                        false
                    }
                },
                cond,
                true,
            )?,
            ExecMode::Sync => out_engine.edge_map_sync(
                &current.clone_members(n),
                scatter,
                |d: VertexId, v: f64| {
                    let i = d as usize;
                    // Claim the depth with CAS, then accumulate atomically.
                    let _ = depth.compare_exchange(i, -1, level);
                    if depth.get(i) == level {
                        sigma.fetch_add(i, v);
                        true
                    } else {
                        false
                    }
                },
                cond,
                true,
            )?,
        };
        levels.push(next);
    }

    // --- Backward sweep: dependency accumulation over the transpose. ---
    let delta = VertexArray::<f64>::new(n, 0.0);
    let acc = VertexArray::<f64>::new(n, 0.0);
    let threads = out_engine.options().compute_workers();
    for l in (1..levels.len()).rev() {
        let frontier = &levels[l];
        // SCATTER (over in-edges): (1 + delta[w]) / sigma[w] of the deeper
        // vertex w. GATHER accumulates into predecessors at level l-1.
        let scatter =
            |w: VertexId, _v: VertexId| (1.0 + delta.get(w as usize)) / sigma.get(w as usize);
        let cond = |v: VertexId| depth.get(v as usize) == (l as i64) - 1;
        match mode {
            ExecMode::Binned => in_engine.edge_map(
                frontier,
                scatter,
                |v: VertexId, contribution: f64| {
                    if depth.get(v as usize) == (l as i64) - 1 {
                        acc.set(v as usize, acc.get(v as usize) + contribution);
                        true
                    } else {
                        false
                    }
                },
                cond,
                true,
            )?,
            ExecMode::Sync => in_engine.edge_map_sync(
                frontier,
                scatter,
                |v: VertexId, contribution: f64| {
                    if depth.get(v as usize) == (l as i64) - 1 {
                        acc.fetch_add(v as usize, contribution);
                        true
                    } else {
                        false
                    }
                },
                cond,
                true,
            )?,
        };
        // delta[v] = sigma[v] * acc[v]; reset acc for the next level.
        let parents = &levels[l - 1];
        let _ = vertex_map(
            parents,
            |v: VertexId| {
                let i = v as usize;
                if acc.get(i) != 0.0 {
                    delta.set(i, delta.get(i) + sigma.get(i) * acc.get(i));
                    acc.set(i, 0.0);
                }
                false
            },
            threads,
        );
    }
    // Boundary translation: scores computed in physical order come back
    // indexed by original vertex id (no-op on identity layouts).
    Ok(to_original_order(layout, delta, 0.0))
}

/// Helper: frontiers are consumed by value in loops; rebuild a frontier
/// with the same members cheaply.
trait CloneMembers {
    fn clone_members(&self, capacity: usize) -> VertexSubset;
}

impl CloneMembers for VertexSubset {
    fn clone_members(&self, capacity: usize) -> VertexSubset {
        VertexSubset::from_members(capacity, self.members())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use blaze_core::EngineOptions;
    use blaze_graph::gen::{rmat, RmatConfig};
    use blaze_graph::{Csr, DiskGraph, GraphBuilder};
    use blaze_storage::StripedStorage;
    use std::sync::Arc;

    fn engines(g: &Csr, devices: usize) -> (BlazeEngine, BlazeEngine) {
        let t = g.transpose();
        let s1 = Arc::new(StripedStorage::in_memory(devices).unwrap());
        let s2 = Arc::new(StripedStorage::in_memory(devices).unwrap());
        (
            BlazeEngine::new(
                Arc::new(DiskGraph::create(g, s1).unwrap()),
                EngineOptions::default(),
            )
            .unwrap(),
            BlazeEngine::new(
                Arc::new(DiskGraph::create(&t, s2).unwrap()),
                EngineOptions::default(),
            )
            .unwrap(),
        )
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() < 1e-9 * x.abs().max(1.0),
                "delta[{i}]: {x} vs {y}"
            );
        }
    }

    #[test]
    fn diamond_matches_reference() {
        let mut b = GraphBuilder::new(5);
        b.extend([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let g = b.build();
        let (oe, ie) = engines(&g, 1);
        let delta = bc(&oe, &ie, 0, ExecMode::Binned).unwrap();
        assert_close(&delta.to_vec(), &reference::bc_scores(&g, 0));
    }

    #[test]
    fn rmat_matches_reference_binned() {
        let g = rmat(&RmatConfig::new(8));
        let (oe, ie) = engines(&g, 2);
        let delta = bc(&oe, &ie, 0, ExecMode::Binned).unwrap();
        assert_close(&delta.to_vec(), &reference::bc_scores(&g, 0));
    }

    #[test]
    fn rmat_matches_reference_sync() {
        let g = rmat(&RmatConfig::new(7));
        let (oe, ie) = engines(&g, 1);
        let delta = bc(&oe, &ie, 0, ExecMode::Sync).unwrap();
        assert_close(&delta.to_vec(), &reference::bc_scores(&g, 0));
    }

    #[test]
    fn unreachable_vertices_have_zero_score() {
        let mut b = GraphBuilder::new(6);
        b.extend([(0, 1), (1, 2), (4, 5)]); // 4,5 unreachable from 0
        let g = b.build();
        let (oe, ie) = engines(&g, 1);
        let delta = bc(&oe, &ie, 0, ExecMode::Binned).unwrap();
        assert_eq!(delta.get(4), 0.0);
        assert_eq!(delta.get(5), 0.0);
        assert!(delta.get(1) > 0.0, "vertex 1 lies on the 0->2 path");
    }
}
