//! Weakly Connected Components — Algorithm 3 of the paper: label
//! propagation with shortcutting (pointer jumping), run over both the CSR
//! and its transpose so labels flow along the undirected view.

use blaze_sync::Arc;

use blaze_core::{vertex_map, BlazeEngine, VertexArray};
use blaze_frontier::VertexSubset;
use blaze_types::{Result, VertexId};

use crate::mode::ExecMode;
use crate::translate::check_transpose;

/// Out-of-core WCC. `out_engine` runs over the graph, `in_engine` over its
/// transpose (the `.tgr` files of the artifact). Returns per-vertex labels:
/// the minimum *original* vertex id of each weakly connected component,
/// independent of the physical layout the graph was written with.
pub fn wcc(
    out_engine: &BlazeEngine,
    in_engine: &BlazeEngine,
    mode: ExecMode,
) -> Result<VertexArray<u32>> {
    check_transpose(out_engine, in_engine)?;
    let n = out_engine.num_vertices();
    let ids = Arc::new(VertexArray::<u32>::new(n, 0));
    let prev_ids = VertexArray::<u32>::new(n, 0);
    for v in 0..n {
        ids.set(v, v as u32);
        prev_ids.set(v, v as u32);
    }

    let mut frontier = VertexSubset::full(n);
    let threads = out_engine.options().compute_workers();

    while !frontier.is_empty() {
        // Propagate along out-edges, then in-edges (Algorithm 3 lines 36-37).
        let touched_out = run_direction(out_engine, &frontier, &ids, mode)?;
        let touched_in = run_direction(in_engine, &frontier, &ids, mode)?;
        let candidates = VertexSubset::from_members(
            n,
            touched_out
                .members()
                .into_iter()
                .chain(touched_in.members()),
        );
        // APPLYFILTER: shortcut (pointer jump) and keep only changed ids.
        frontier = vertex_map(
            &candidates,
            |i: VertexId| {
                let i = i as usize;
                let id = ids.get(ids.get(i) as usize);
                if ids.get(i) != id {
                    ids.set(i, id);
                }
                if prev_ids.get(i) != ids.get(i) {
                    prev_ids.set(i, ids.get(i));
                    true
                } else {
                    false
                }
            },
            threads,
        );
    }
    let ids = Arc::try_unwrap(ids).unwrap_or_else(|arc| {
        // Another Arc alive would be a bug; copy out defensively.
        let copy = VertexArray::<u32>::new(arc.len(), 0);
        for i in 0..arc.len() {
            copy.set(i, arc.get(i));
        }
        copy
    });
    Ok(canonicalize_labels(out_engine.graph().layout(), ids))
}

/// Boundary translation for WCC. Propagation converges to the minimum
/// *physical* id per component, and labels are used as array indices along
/// the way — so the run itself must stay physical. Afterwards each
/// component is relabeled to the minimum *original* id of its members and
/// the array re-indexed to original order, matching the unreordered run
/// exactly. Identity layouts skip the pass: physical == original there.
fn canonicalize_labels(
    layout: &blaze_graph::VertexPermutation,
    ids: VertexArray<u32>,
) -> VertexArray<u32> {
    let Some(map) = layout.phys_to_orig() else {
        return ids;
    };
    let n = map.len();
    // Pass 1: minimum original id per component representative.
    let mut comp_min = vec![VertexId::MAX; n];
    for (p, &orig) in map.iter().enumerate() {
        let rep = ids.get(p) as usize;
        comp_min[rep] = comp_min[rep].min(orig);
    }
    // Pass 2: re-index to original order with the canonical label.
    let out = VertexArray::<u32>::new(n, 0);
    for (p, &orig) in map.iter().enumerate() {
        out.set(orig as usize, comp_min[ids.get(p) as usize]);
    }
    out
}

/// One EDGEMAP over one direction: scatter the source's label, gather the
/// minimum into the destination, activating destinations whose label
/// shrank.
fn run_direction(
    engine: &BlazeEngine,
    frontier: &VertexSubset,
    ids: &Arc<VertexArray<u32>>,
    mode: ExecMode,
) -> Result<VertexSubset> {
    let scatter = {
        let ids = ids.clone();
        move |s: VertexId, _d: VertexId| ids.get(s as usize)
    };
    let cond = |_d: VertexId| true;
    match mode {
        ExecMode::Binned => engine.edge_map(
            frontier,
            scatter,
            |d: VertexId, v: u32| {
                if v < ids.get(d as usize) {
                    ids.set(d as usize, v);
                    true
                } else {
                    false
                }
            },
            cond,
            true,
        ),
        ExecMode::Sync => engine.edge_map_sync(
            frontier,
            scatter,
            |d: VertexId, v: u32| {
                ids.fetch_update(d as usize, |cur| (v < cur).then_some(v))
                    .is_ok()
            },
            cond,
            true,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use blaze_core::EngineOptions;
    use blaze_graph::gen::{rmat, uniform, RmatConfig};
    use blaze_graph::{Csr, DiskGraph, GraphBuilder};
    use blaze_storage::StripedStorage;

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
    fn labels_match_union_find_on_rmat() {
        let g = rmat(&RmatConfig::new(8));
        let (oe, ie) = engines(&g, 1);
        let ids = wcc(&oe, &ie, ExecMode::Binned).unwrap();
        assert_eq!(ids.to_vec(), reference::wcc_labels(&g));
    }

    #[test]
    fn sync_mode_matches_too() {
        let g = uniform(8, 4, 9);
        let (oe, ie) = engines(&g, 2);
        let ids = wcc(&oe, &ie, ExecMode::Sync).unwrap();
        assert_eq!(ids.to_vec(), reference::wcc_labels(&g));
    }

    #[test]
    fn disconnected_components_keep_separate_labels() {
        let mut b = GraphBuilder::new(7);
        // Component {0,1,2}, component {3,4} (via directed edge), isolated 5, 6.
        b.extend([(1, 0), (2, 1), (4, 3)]);
        let g = b.build();
        let (oe, ie) = engines(&g, 1);
        let ids = wcc(&oe, &ie, ExecMode::Binned).unwrap();
        assert_eq!(ids.to_vec(), vec![0, 0, 0, 3, 3, 5, 6]);
    }

    #[test]
    fn direction_does_not_matter_for_weak_connectivity() {
        // A directed chain is weakly connected regardless of orientation.
        let mut b = GraphBuilder::new(5);
        b.extend([(1, 0), (1, 2), (3, 2), (3, 4)]);
        let g = b.build();
        let (oe, ie) = engines(&g, 1);
        let ids = wcc(&oe, &ie, ExecMode::Binned).unwrap();
        assert!(ids.to_vec().iter().all(|&l| l == 0));
    }
}
