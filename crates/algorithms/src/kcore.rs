//! k-core decomposition (membership for a fixed `k`) over the undirected
//! view of the graph.
//!
//! Bootstrap: one full-frontier `EdgeMap` per direction counts undirected
//! degrees. Peel: vertices whose degree drops below `k` die and scatter a
//! decrement to their neighbors, cascading until no vertex changes. Peeling
//! is confluent — the surviving core is unique regardless of removal order
//! — so the membership flags are bit-identical across both modes.

use blaze_core::{BlazeEngine, VertexArray};
use blaze_frontier::VertexSubset;
use blaze_types::{Result, VertexId};

use crate::mode::ExecMode;
use crate::translate::{check_transpose, to_original_order};

/// Out-of-core k-core membership. `out_engine` runs over the graph,
/// `in_engine` over its transpose. Returns `1` for vertices in the k-core
/// and `0` for peeled vertices, indexed by original vertex id. Undirected
/// degree counts each directed edge at both endpoints (self-loops twice),
/// matching [`crate::reference::kcore_alive`].
pub fn kcore(
    out_engine: &BlazeEngine,
    in_engine: &BlazeEngine,
    k: u32,
    mode: ExecMode,
) -> Result<VertexArray<u32>> {
    check_transpose(out_engine, in_engine)?;
    let n = out_engine.num_vertices();
    let k = i64::from(k);
    let deg = VertexArray::<i64>::new(n, 0);
    let alive = VertexArray::<u32>::new(n, 1);

    // --- Bootstrap: undirected degrees, one job per direction.
    let full = VertexSubset::full(n);
    for engine in [out_engine, in_engine] {
        match mode {
            ExecMode::Sync => engine.edge_map_sync(
                &full,
                |_s: VertexId, _d: VertexId| 1u64,
                |d: VertexId, c: u64| {
                    let _ = deg.fetch_update(d as usize, |cur| Some(cur + c as i64));
                    false
                },
                |_d: VertexId| true,
                false,
            )?,
            // Bin exclusivity makes the plain read-modify-write safe.
            ExecMode::Binned => engine.edge_map(
                &full,
                |_s: VertexId, _d: VertexId| 1u64,
                |d: VertexId, c: u64| {
                    deg.set(d as usize, deg.get(d as usize) + c as i64);
                    false
                },
                |_d: VertexId| true,
                false,
            )?,
        };
    }

    // --- Seed: vertices already under the threshold die first.
    let dead0: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| deg.get(v as usize) < k)
        .collect();
    for &v in &dead0 {
        alive.set(v as usize, 0);
    }

    // --- Peel: each dead vertex scatters one decrement per incident edge,
    // in both directions; a decremented survivor that falls below k dies
    // and joins the frontier exactly once (the 1 -> 0 transition).
    let scatter = |_s: VertexId, _d: VertexId| 1u64;
    let cond = |d: VertexId| alive.get(d as usize) == 1;
    match mode {
        ExecMode::Binned => {
            let gather = |d: VertexId, c: u64| {
                let i = d as usize;
                if alive.get(i) == 1 {
                    let nd = deg.get(i) - c as i64;
                    deg.set(i, nd);
                    if nd < k {
                        alive.set(i, 0);
                        return true;
                    }
                }
                false
            };
            let mut frontier = VertexSubset::from_members(n, dead0);
            while !frontier.is_empty() {
                let out = out_engine.edge_map(&frontier, scatter, gather, cond, true)?;
                let inn = in_engine.edge_map(&frontier, scatter, gather, cond, true)?;
                frontier =
                    VertexSubset::from_members(n, out.members().into_iter().chain(inn.members()));
            }
        }
        ExecMode::Sync => {
            // Decrement unconditionally (dead vertices' degrees are inert),
            // kill with CAS so each vertex enters the frontier once.
            let gather = |d: VertexId, c: u64| {
                let i = d as usize;
                // panic-audit: the closure always returns Some, so
                // fetch_update cannot report failure.
                let prev = deg
                    .fetch_update(i, |cur| Some(cur - c as i64))
                    .expect("unconditional update");
                prev - (c as i64) < k && alive.compare_exchange(i, 1, 0).is_ok()
            };
            let mut frontier = VertexSubset::from_members(n, dead0);
            while !frontier.is_empty() {
                let out = out_engine.edge_map_sync(&frontier, scatter, gather, cond, true)?;
                let inn = in_engine.edge_map_sync(&frontier, scatter, gather, cond, true)?;
                frontier =
                    VertexSubset::from_members(n, out.members().into_iter().chain(inn.members()));
            }
        }
    }
    Ok(to_original_order(out_engine.graph().layout(), alive, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use blaze_core::EngineOptions;
    use blaze_graph::gen::{rmat, uniform, RmatConfig};
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

    #[test]
    fn binned_matches_reference_peel() {
        let g = rmat(&RmatConfig::new(8));
        let (oe, ie) = engines(&g, 1);
        let alive = kcore(&oe, &ie, 3, ExecMode::Binned).unwrap();
        assert_eq!(alive.to_vec(), reference::kcore_alive(&g, 3));
    }

    #[test]
    fn sync_matches_reference_peel() {
        let g = uniform(8, 5, 31);
        let (oe, ie) = engines(&g, 2);
        let alive = kcore(&oe, &ie, 4, ExecMode::Sync).unwrap();
        assert_eq!(alive.to_vec(), reference::kcore_alive(&g, 4));
    }

    #[test]
    fn chain_peels_to_nothing_triangle_survives() {
        // Triangle {0,1,2} with a pendant path 2 -> 3 -> 4.
        let mut b = GraphBuilder::new(5);
        b.extend([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let g = b.build();
        let (oe, ie) = engines(&g, 1);
        let alive = kcore(&oe, &ie, 2, ExecMode::Binned).unwrap();
        assert_eq!(alive.to_vec(), vec![1, 1, 1, 0, 0]);
        // k = 3: the cascade takes the triangle down too.
        let (oe, ie) = engines(&g, 1);
        let alive = kcore(&oe, &ie, 3, ExecMode::Binned).unwrap();
        assert_eq!(alive.to_vec(), vec![0, 0, 0, 0, 0]);
    }
}
