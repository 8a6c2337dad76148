//! Single-Source Shortest Paths over deterministic synthetic weights.
//!
//! The artifact's graph files carry no edge weights, so weights are derived
//! from a fixed hash of the endpoint ids — every run (and every physical
//! layout) sees the same weighted graph. Distances min-relax, one
//! Bellman-Ford superstep at a time, to the unique shortest-path fixpoint.

use blaze_core::{BlazeEngine, VertexArray};
use blaze_frontier::VertexSubset;
use blaze_types::{Result, VertexId};

use crate::mode::ExecMode;
use crate::translate::to_original_order;

/// Distance of an unreachable vertex.
pub const UNREACHED: u64 = u64::MAX;

/// Deterministic edge weight in `1..=8`, hashed (splitmix-style finalizer)
/// from the *original* endpoint ids so the weighted graph is invariant
/// under physical relayout and matches the in-memory reference directly.
pub fn edge_weight(s: VertexId, d: VertexId) -> u64 {
    let mut x = (u64::from(s) << 32) | u64::from(d);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    1 + (x % 8)
}

/// Out-of-core SSSP from `root`. Returns the distance array indexed by
/// original vertex id ([`UNREACHED`] where no path exists); `root` is an
/// original id too. Both modes converge to the same unique fixpoint, so
/// the distances are bit-identical across modes.
pub fn sssp(engine: &BlazeEngine, root: VertexId, mode: ExecMode) -> Result<VertexArray<u64>> {
    let layout = engine.graph().layout();
    let root = layout.to_physical(root);
    let n = engine.num_vertices();
    let dist = VertexArray::<u64>::new(n, UNREACHED);
    dist.set(root as usize, 0);

    // SCATTER: candidate distance through s; weights keyed by original ids.
    let scatter = |s: VertexId, d: VertexId| {
        dist.get(s as usize)
            .saturating_add(edge_weight(layout.to_original(s), layout.to_original(d)))
    };
    let cond = |_d: VertexId| true;

    match mode {
        ExecMode::Binned => {
            let mut frontier = VertexSubset::single(n, root);
            while !frontier.is_empty() {
                // Bellman-Ford supersteps; bin exclusivity makes the plain
                // read-modify-write min safe.
                frontier = engine.edge_map(
                    &frontier,
                    scatter,
                    |d: VertexId, cand: u64| {
                        if cand < dist.get(d as usize) {
                            dist.set(d as usize, cand);
                            true
                        } else {
                            false
                        }
                    },
                    cond,
                    true,
                )?;
            }
        }
        ExecMode::Sync => {
            let mut frontier = VertexSubset::single(n, root);
            while !frontier.is_empty() {
                frontier = engine.edge_map_sync(
                    &frontier,
                    scatter,
                    |d: VertexId, cand: u64| {
                        dist.fetch_update(d as usize, |cur| (cand < cur).then_some(cand))
                            .is_ok()
                    },
                    cond,
                    true,
                )?;
            }
        }
    }
    Ok(to_original_order(layout, dist, UNREACHED))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use blaze_core::EngineOptions;
    use blaze_graph::gen::{rmat, uniform, RmatConfig};
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

    #[test]
    fn edge_weights_are_stable_and_bounded() {
        for (s, d) in [(0u32, 1u32), (1, 0), (7, 7), (1000, 2000)] {
            let w = edge_weight(s, d);
            assert_eq!(w, edge_weight(s, d), "weights must be deterministic");
            assert!((1..=8).contains(&w));
        }
        // Directional: some (s, d) pair must disagree with its reverse
        // (any single pair may collide mod 8).
        assert!(
            (0u32..64).any(|s| (0u32..64).any(|d| edge_weight(s, d) != edge_weight(d, s))),
            "weights must depend on edge direction"
        );
    }

    #[test]
    fn binned_matches_dijkstra() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 1);
        let dist = sssp(&e, 0, ExecMode::Binned).unwrap();
        assert_eq!(dist.to_vec(), reference::sssp_distances(&g, 0));
    }

    #[test]
    fn sync_matches_dijkstra() {
        let g = uniform(9, 8, 23);
        let e = engine(&g, 2);
        let dist = sssp(&e, 3, ExecMode::Sync).unwrap();
        assert_eq!(dist.to_vec(), reference::sssp_distances(&g, 3));
    }

    #[test]
    fn unreachable_vertices_stay_at_max() {
        let mut b = blaze_graph::GraphBuilder::new(6);
        b.extend([(0, 1), (1, 2), (4, 5)]);
        let g = b.build();
        let e = engine(&g, 1);
        let dist = sssp(&e, 0, ExecMode::Binned).unwrap();
        assert_eq!(dist.get(0), 0);
        assert!(dist.get(1) >= 1 && dist.get(2) > dist.get(1));
        assert_eq!(dist.get(3), UNREACHED);
        assert_eq!(dist.get(4), UNREACHED);
        assert_eq!(dist.get(5), UNREACHED);
    }
}
