//! Edge-list to CSR construction.

use blaze_types::{Result, VertexId};

use crate::csr::Csr;

/// Accumulates an edge list and converts it into a [`Csr`] with counting
/// sort (O(V + E), no comparison sort of the full edge list).
#[derive(Debug, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
    dedup: bool,
    symmetrize: bool,
    drop_self_loops: bool,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            ..Default::default()
        }
    }

    /// Removes duplicate edges during [`build`](Self::build).
    pub fn dedup(mut self, yes: bool) -> Self {
        self.dedup = yes;
        self
    }

    /// Adds the reverse of every edge, producing an undirected view.
    pub fn symmetrize(mut self, yes: bool) -> Self {
        self.symmetrize = yes;
        self
    }

    /// Drops `v -> v` edges during [`build`](Self::build).
    pub fn drop_self_loops(mut self, yes: bool) -> Self {
        self.drop_self_loops = yes;
        self
    }

    /// Adds one directed edge.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        debug_assert!((src as usize) < self.num_vertices);
        debug_assert!((dst as usize) < self.num_vertices);
        self.edges.push((src, dst));
    }

    /// Adds many edges at once.
    pub fn extend(&mut self, edges: impl IntoIterator<Item = (VertexId, VertexId)>) {
        self.edges.extend(edges);
    }

    /// [`try_build`](Self::try_build) for a vertex count the program chose
    /// itself (generators, tests): running out of memory for it is a panic.
    pub fn build(self) -> Csr {
        // panic-audit: the vertex count is the caller's own, not input.
        self.try_build().expect("graph builder")
    }

    /// Builds the CSR. Neighbors of each vertex are sorted ascending, which
    /// makes the on-disk layout deterministic. A vertex count whose
    /// per-vertex arrays the allocator refuses (an edge list may name any
    /// 32-bit id) is an error, not an abort.
    pub fn try_build(mut self) -> Result<Csr> {
        if self.drop_self_loops {
            self.edges.retain(|&(s, d)| s != d);
        }
        if self.symmetrize {
            let reversed: Vec<_> = self.edges.iter().map(|&(s, d)| (d, s)).collect();
            self.edges.extend(reversed);
        }
        let n = self.num_vertices;
        // Counting sort by source.
        let mut counts = per_vertex_array(n)?;
        counts.resize(n + 1, 0);
        for &(s, _) in &self.edges {
            counts[s as usize + 1] += 1;
        }
        for i in 1..=n {
            counts[i] += counts[i - 1];
        }
        let mut offsets = per_vertex_array(n)?;
        offsets.extend_from_slice(&counts);
        let mut cursor = counts;
        let mut neighbors = vec![0 as VertexId; self.edges.len()];
        for &(s, d) in &self.edges {
            let slot = cursor[s as usize];
            neighbors[slot as usize] = d;
            cursor[s as usize] += 1;
        }
        // Sort each adjacency list; dedup in place if requested.
        if self.dedup {
            let mut new_offsets = per_vertex_array(n)?;
            new_offsets.resize(n + 1, 0);
            let mut write = 0usize;
            for v in 0..n {
                let (start, end) = (offsets[v] as usize, offsets[v + 1] as usize);
                neighbors[start..end].sort_unstable();
                let mut prev: Option<VertexId> = None;
                for i in start..end {
                    let d = neighbors[i];
                    if prev != Some(d) {
                        neighbors[write] = d;
                        write += 1;
                        prev = Some(d);
                    }
                }
                new_offsets[v + 1] = write as u64;
            }
            neighbors.truncate(write);
            return Ok(Csr::from_parts(new_offsets, neighbors));
        }
        for v in 0..n {
            neighbors[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        Ok(Csr::from_parts(offsets, neighbors))
    }
}

/// An empty vector with room for `num_vertices + 1` offsets, or an error
/// naming what was asked for.
fn per_vertex_array(num_vertices: usize) -> Result<Vec<u64>> {
    let len = num_vertices + 1;
    let mut array = Vec::new();
    array.try_reserve_exact(len).map_err(|_| {
        let bytes = len as u128 * 8;
        let what = format!(
            "no memory for a graph of {num_vertices} vertices: \
             one per-vertex array is {bytes} bytes"
        );
        std::io::Error::new(std::io::ErrorKind::OutOfMemory, what)
    })?;
    Ok(array)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_adjacency() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(0, 1);
        b.add_edge(2, 0);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    fn dedup_removes_parallel_edges() {
        let mut b = GraphBuilder::new(2).dedup(true);
        b.extend([(0, 1), (0, 1), (0, 1), (1, 0)]);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn symmetrize_adds_reverse_edges() {
        let mut b = GraphBuilder::new(3).symmetrize(true).dedup(true);
        b.extend([(0, 1), (1, 2)]);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1]);
    }

    #[test]
    fn self_loops_dropped_when_asked() {
        let mut b = GraphBuilder::new(2).drop_self_loops(true);
        b.extend([(0, 0), (0, 1), (1, 1)]);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn dedup_preserves_distinct_neighbors() {
        let mut b = GraphBuilder::new(4).dedup(true);
        b.extend([(1, 3), (1, 0), (1, 3), (1, 2)]);
        let g = b.build();
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        // Offsets of untouched vertices stay consistent.
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.num_edges(), 3);
    }
}
