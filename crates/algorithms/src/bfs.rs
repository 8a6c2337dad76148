//! Breadth-First Search — Algorithm 1 of the paper.

use blaze_core::{BlazeEngine, VertexArray};
use blaze_frontier::VertexSubset;
use blaze_types::{Result, VertexId};

use crate::mode::ExecMode;

/// Out-of-core BFS from `root`.
///
/// Returns the parent array: `parent[v]` is the BFS-tree parent of `v`, the
/// root's parent is itself, and unreachable vertices hold `-1` — exactly
/// the state of Algorithm 1. Both `root` and the returned parents are
/// original vertex ids regardless of the graph's physical layout; the
/// traversal itself runs in physical space.
pub fn bfs(engine: &BlazeEngine, root: VertexId, mode: ExecMode) -> Result<VertexArray<i64>> {
    let layout = engine.graph().layout();
    let root = layout.to_physical(root);
    let n = engine.num_vertices();
    let parent = VertexArray::<i64>::new(n, -1);
    parent.set(root as usize, root as i64);

    let mut frontier = VertexSubset::single(n, root);

    // SCATTER returns the source id; COND visits unvisited destinations
    // only; GATHER claims the destination and activates it.
    let scatter = |s: VertexId, _d: VertexId| s;
    let cond = |d: VertexId| parent.get(d as usize) == -1;

    while !frontier.is_empty() {
        frontier = match mode {
            ExecMode::Binned => engine.edge_map(
                &frontier,
                scatter,
                |d: VertexId, v: VertexId| {
                    if parent.get(d as usize) == -1 {
                        parent.set(d as usize, v as i64);
                        true
                    } else {
                        false
                    }
                },
                cond,
                true,
            )?,
            ExecMode::Sync => engine.edge_map_sync(
                &frontier,
                scatter,
                |d: VertexId, v: VertexId| {
                    // compare-and-swap claims the vertex exactly once.
                    parent.compare_exchange(d as usize, -1, v as i64).is_ok()
                },
                cond,
                true,
            )?,
        };
    }
    Ok(finish_bfs(layout, parent, n))
}

/// Boundary translation: parents are vertex-valued, so both the index and
/// the stored id must come back to original space.
fn finish_bfs(
    layout: &blaze_graph::VertexPermutation,
    parent: VertexArray<i64>,
    n: usize,
) -> VertexArray<i64> {
    let Some(map) = layout.phys_to_orig() else {
        return parent;
    };
    let out = VertexArray::<i64>::new(n, -1);
    for (p, &orig) in map.iter().enumerate() {
        let pv = parent.get(p);
        if pv >= 0 {
            out.set(orig as usize, i64::from(map[pv as usize]));
        }
    }
    out
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

    /// A parent array is valid iff every reached vertex's parent is a real
    /// in-neighbor one BFS level earlier, and the set of reached vertices
    /// matches the reference levels.
    fn assert_valid_bfs(g: &Csr, root: u32, parent: &VertexArray<i64>) {
        let levels = reference::bfs_levels(g, root);
        for v in 0..g.num_vertices() as u32 {
            let p = parent.get(v as usize);
            if levels[v as usize] == -1 {
                assert_eq!(p, -1, "unreachable vertex {v} must stay -1");
            } else if v == root {
                assert_eq!(p, root as i64);
            } else {
                assert!(p >= 0, "reached vertex {v} needs a parent");
                let p = p as u32;
                assert!(
                    g.neighbors(p).contains(&v),
                    "parent {p} must have edge to {v}"
                );
                assert_eq!(
                    levels[p as usize] + 1,
                    levels[v as usize],
                    "parent of {v} must be one level up"
                );
            }
        }
    }

    #[test]
    fn binned_bfs_is_a_valid_bfs_tree() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 1);
        let parent = bfs(&e, 0, ExecMode::Binned).unwrap();
        assert_valid_bfs(&g, 0, &parent);
    }

    #[test]
    fn sync_bfs_is_a_valid_bfs_tree() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 2);
        let parent = bfs(&e, 0, ExecMode::Sync).unwrap();
        assert_valid_bfs(&g, 0, &parent);
    }

    #[test]
    fn bfs_on_uniform_graph_striped() {
        let g = uniform(9, 8, 17);
        let e = engine(&g, 4);
        let parent = bfs(&e, 5, ExecMode::Binned).unwrap();
        assert_valid_bfs(&g, 5, &parent);
    }

    #[test]
    fn bfs_from_isolated_vertex_reaches_nothing() {
        let mut b = blaze_graph::GraphBuilder::new(10);
        b.add_edge(1, 2);
        let g = b.build();
        let e = engine(&g, 1);
        let parent = bfs(&e, 0, ExecMode::Binned).unwrap();
        assert_eq!(parent.get(0), 0);
        for v in 1..10 {
            assert_eq!(parent.get(v), -1);
        }
    }
}
