//! API-boundary translation between original and physical vertex ids.
//!
//! Graphs written with a non-identity [`VertexPermutation`] store vertices
//! in degree-aware physical order. The algorithms run entirely in that
//! physical space — frontiers, vertex arrays, and `EdgeMap`s all speak
//! physical ids — and translate only at the public boundary: source
//! vertices are mapped to physical on the way in, result arrays are
//! re-indexed (and, where values are vertex ids, re-valued) to original
//! ids on the way out. Callers therefore see results identical to the
//! same run on an unreordered graph. Identity layouts skip every step at
//! zero cost.

use blaze_core::vertex_array::VertexValue;
use blaze_core::{BlazeEngine, VertexArray};
use blaze_graph::VertexPermutation;
use blaze_types::{BlazeError, Result};

/// Checks that `in_engine` runs over the transpose of `out_engine`'s
/// graph as far as the two handles can tell: one vertex count and one
/// vertex layout. The two-direction queries call it before they submit a
/// job, so a transpose of another graph or of another `--layout` is a
/// [`BlazeError::Format`] that names what differs (the counts, or the
/// layout kinds; never the permutation), not a wrong answer.
pub(crate) fn check_transpose(out_engine: &BlazeEngine, in_engine: &BlazeEngine) -> Result<()> {
    let (n, tn) = (out_engine.num_vertices(), in_engine.num_vertices());
    if n != tn {
        return Err(BlazeError::Format(format!(
            "transpose must match the graph: the graph has {n} vertices, the transpose {tn}"
        )));
    }
    let (layout, tlayout) = (out_engine.graph().layout(), in_engine.graph().layout());
    if layout != tlayout {
        let kind = |l: &VertexPermutation| {
            if l.is_identity() {
                "none (the identity)"
            } else {
                "degree or hub (a permutation)"
            }
        };
        return Err(BlazeError::Format(format!(
            "graph and transpose must share one vertex layout: the graph was written with \
             layout {}, the transpose with {}",
            kind(layout),
            if layout.is_identity() || tlayout.is_identity() {
                kind(tlayout)
            } else {
                "another permutation"
            }
        )));
    }
    Ok(())
}

/// Re-indexes `phys` (indexed by physical id) into original-id order.
///
/// `fill` seeds the output array; every slot is overwritten because the
/// permutation is a bijection. Identity layouts return `phys` untouched.
pub(crate) fn to_original_order<T: VertexValue>(
    layout: &VertexPermutation,
    phys: VertexArray<T>,
    fill: T,
) -> VertexArray<T> {
    let Some(map) = layout.phys_to_orig() else {
        return phys;
    };
    let out = VertexArray::new(map.len(), fill);
    for (p, &orig) in map.iter().enumerate() {
        out.set(orig as usize, phys.get(p));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_graph::{GraphBuilder, VertexLayout};

    #[test]
    fn identity_layout_is_a_passthrough() {
        let layout = VertexPermutation::identity(4);
        let a = VertexArray::<i64>::new(4, 7);
        a.set(2, 9);
        let b = to_original_order(&layout, a, -1);
        assert_eq!(b.to_vec(), vec![7, 7, 9, 7]);
    }

    #[test]
    fn mapped_layout_reindexes_every_slot() {
        // Star with hub 3: degree layout moves vertex 3 to physical 0.
        let mut b = GraphBuilder::new(5);
        for v in [0u32, 1, 2, 4] {
            b.add_edge(3, v);
        }
        let g = b.build();
        let (perm, _) = VertexLayout::Degree.plan(&g);
        assert!(!perm.is_identity());
        let phys = VertexArray::<f64>::new(5, 0.0);
        for p in 0..5u32 {
            phys.set(p as usize, f64::from(perm.to_original(p)));
        }
        let out = to_original_order(&perm, phys, -1.0);
        for v in 0..5 {
            assert_eq!(out.get(v), v as f64, "slot {v} holds its original id");
        }
        assert_eq!(perm.to_physical(3), 0, "hub moves to the front");
    }
}
