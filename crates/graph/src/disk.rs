//! The on-disk graph: page-packed adjacency stream over striped storage,
//! plus the in-memory metadata needed to address it.
//!
//! On disk, a graph is the raw neighbor stream (4-byte little-endian vertex
//! ids, in vertex order) packed into 4 KiB pages and striped across the
//! device array. The artifact-compatible file layout is one `.gr.index`
//! file (header + degree array) and one `.gr.adj.<i>` file per device.

use blaze_sync::Arc;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use blaze_storage::{BlockDevice, FileDevice, StripedStorage};
use blaze_types::{BlazeError, PageId, Result, VertexId, EDGES_PER_PAGE, PAGE_SIZE};

use crate::csr::Csr;
use crate::fallback;
use crate::index::GraphIndex;
use crate::layout::{VertexLayout, VertexPermutation};
use crate::pagemap::PageVertexMap;

const INDEX_MAGIC: &[u8; 8] = b"BLZIDX01";
/// Version 2 appends a layout section after the degree array: one tag byte
/// ([`VertexLayout::tag`]), the `hot_vertices` count (u64 LE), and the
/// physical→original permutation as `num_vertices` u32 LE words. Identity
/// layouts keep writing version 1, byte-identical to the pre-layout format.
const INDEX_MAGIC_V2: &[u8; 8] = b"BLZIDX02";

/// Layout metadata carried by a version-2 index file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutMeta {
    /// Which plan produced the ordering (provenance, kept for tooling).
    pub kind: VertexLayout,
    /// Leading physical vertices considered hot (the hub prefix).
    pub hot_vertices: u64,
    /// Original ↔ physical id maps.
    pub perm: VertexPermutation,
}

/// Writes the adjacency stream of `g` into `storage`, page-interleaved.
/// Returns the number of pages written.
pub fn write_to_storage(g: &Csr, storage: &StripedStorage) -> Result<u64> {
    let stream = g.neighbor_stream();
    let num_pages = stream.len().div_ceil(EDGES_PER_PAGE) as u64;
    let mut page = vec![0u8; PAGE_SIZE];
    for p in 0..num_pages {
        let start = p as usize * EDGES_PER_PAGE;
        let end = (start + EDGES_PER_PAGE).min(stream.len());
        page.fill(0);
        for (i, &v) in stream[start..end].iter().enumerate() {
            page[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        storage.write_page(p, &page)?;
    }
    Ok(num_pages)
}

/// Writes the `.gr.index` file: magic, vertex count, edge count, degrees.
pub fn write_index_file(path: impl AsRef<Path>, index: &GraphIndex) -> Result<()> {
    write_index_file_with_layout(path, index, None)
}

/// Writes a `.gr.index` file, appending the version-2 layout section when
/// `meta` carries a genuine (non-identity) permutation. Identity layouts
/// fall back to the version-1 format so unreordered graphs stay
/// byte-identical to files written before layouts existed.
pub fn write_index_file_with_layout(
    path: impl AsRef<Path>,
    index: &GraphIndex,
    meta: Option<&LayoutMeta>,
) -> Result<()> {
    let meta = meta.filter(|m| !m.perm.is_identity());
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(if meta.is_some() {
        INDEX_MAGIC_V2
    } else {
        INDEX_MAGIC
    })?;
    f.write_all(&(index.num_vertices() as u64).to_le_bytes())?;
    f.write_all(&index.num_edges().to_le_bytes())?;
    for &d in index.degrees() {
        f.write_all(&d.to_le_bytes())?;
    }
    if let Some(meta) = meta {
        // panic-audit: the v2 branch is entered only for non-identity
        // layouts (the caller filters identities back to v1), and a
        // non-identity permutation always carries its mapping.
        let phys_to_orig = meta.perm.phys_to_orig().expect("non-identity layout");
        if phys_to_orig.len() != index.num_vertices() {
            return Err(BlazeError::Format(format!(
                "layout covers {} vertices, index has {}",
                phys_to_orig.len(),
                index.num_vertices()
            )));
        }
        f.write_all(&[meta.kind.tag()])?;
        f.write_all(&meta.hot_vertices.to_le_bytes())?;
        for &o in phys_to_orig {
            f.write_all(&o.to_le_bytes())?;
        }
    }
    f.flush()?;
    Ok(())
}

/// Reads a `.gr.index` file back into a [`GraphIndex`], ignoring any layout
/// section. Prefer [`read_index_file_full`] when translation matters.
pub fn read_index_file(path: impl AsRef<Path>) -> Result<GraphIndex> {
    read_index_file_full(path).map(|(index, _)| index)
}

/// Reads a `.gr.index` file (either version) into the index plus the layout
/// metadata, `None` for version-1 files.
pub fn read_index_file_full(path: impl AsRef<Path>) -> Result<(GraphIndex, Option<LayoutMeta>)> {
    let file = std::fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut f = std::io::BufReader::new(file);
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic)?;
    let has_layout = match &magic {
        m if m == INDEX_MAGIC => false,
        m if m == INDEX_MAGIC_V2 => true,
        _ => return Err(BlazeError::Format("bad index magic".into())),
    };
    let mut u64buf = [0u8; 8];
    f.read_exact(&mut u64buf)?;
    let num_vertices = u64::from_le_bytes(u64buf) as usize;
    f.read_exact(&mut u64buf)?;
    let num_edges = u64::from_le_bytes(u64buf);
    // Validate the header against the file size *before* allocating the
    // degree array: a corrupted vertex count must not trigger a huge
    // allocation or a short read. Version 2 carries 9 extra header bytes
    // (layout tag + hot count) plus one u32 per vertex for the permutation.
    let payload = (num_vertices as u64).saturating_mul(if has_layout { 8 } else { 4 });
    let expected_len = (if has_layout { 33u64 } else { 24u64 }).saturating_add(payload);
    if file_len != expected_len {
        return Err(BlazeError::Format(format!(
            "index file length {file_len} does not match header ({num_vertices} vertices \
             need {expected_len} bytes)"
        )));
    }
    let mut degrees = vec![0u32; num_vertices];
    let mut u32buf = [0u8; 4];
    for d in &mut degrees {
        f.read_exact(&mut u32buf)?;
        *d = u32::from_le_bytes(u32buf);
    }
    let index = GraphIndex::from_degrees(degrees);
    if index.num_edges() != num_edges {
        return Err(BlazeError::Format(format!(
            "index edge count mismatch: header {num_edges}, degrees sum {}",
            index.num_edges()
        )));
    }
    let meta = if has_layout {
        let mut tag = [0u8; 1];
        f.read_exact(&mut tag)?;
        let kind = VertexLayout::from_tag(tag[0])
            .ok_or_else(|| BlazeError::Format(format!("unknown layout tag {}", tag[0])))?;
        f.read_exact(&mut u64buf)?;
        let hot_vertices = u64::from_le_bytes(u64buf);
        if hot_vertices > num_vertices as u64 {
            return Err(BlazeError::Format(format!(
                "hot vertex count {hot_vertices} exceeds {num_vertices} vertices"
            )));
        }
        let mut phys_to_orig = vec![0 as VertexId; num_vertices];
        for o in &mut phys_to_orig {
            f.read_exact(&mut u32buf)?;
            *o = u32::from_le_bytes(u32buf);
        }
        Some(LayoutMeta {
            kind,
            hot_vertices,
            perm: VertexPermutation::from_phys_to_orig(phys_to_orig)?,
        })
    } else {
        None
    };
    Ok((index, meta))
}

/// Number of leading adjacency pages covered by the first `hot_vertices`
/// physical vertices. The boundary page is counted hot even when cold
/// vertices share it — a page is worth protecting if any hub lives there.
pub fn hot_page_count(index: &GraphIndex, hot_vertices: u64) -> u64 {
    if hot_vertices == 0 {
        return 0;
    }
    let nv = index.num_vertices() as u64;
    let hot_edges = if hot_vertices >= nv {
        index.num_edges()
    } else {
        index.edge_offset(hot_vertices as VertexId)
    };
    hot_edges.div_ceil(EDGES_PER_PAGE as u64)
}

/// Writes the artifact-style file set `{base}.index` plus
/// `{base}.adj.<i>` for `num_files` stripe files into `dir` — pass
/// `"name.gr"` for the out-edge set and `"name.tgr"` for the transpose, as
/// in the paper's artifact. Returns `(index_path, adj_paths)`.
pub fn save_files(
    g: &Csr,
    dir: impl AsRef<Path>,
    base: &str,
    num_files: usize,
) -> Result<(PathBuf, Vec<PathBuf>)> {
    save_files_with_layout(g, dir, base, num_files, None)
}

/// [`save_files`] for a graph already relabeled into physical id space:
/// `g` must be the *permuted* CSR and `meta` the layout that produced it.
/// `None` (or an identity permutation) writes the version-1 file set.
pub fn save_files_with_layout(
    g: &Csr,
    dir: impl AsRef<Path>,
    base: &str,
    num_files: usize,
    meta: Option<&LayoutMeta>,
) -> Result<(PathBuf, Vec<PathBuf>)> {
    let dir = dir.as_ref();
    let index_path = dir.join(format!("{base}.index"));
    write_index_file_with_layout(&index_path, &GraphIndex::from_csr(g), meta)?;
    let adj_paths: Vec<PathBuf> = (0..num_files)
        .map(|i| dir.join(format!("{base}.adj.{i}")))
        .collect();
    let devices: Vec<Arc<dyn BlockDevice>> = adj_paths
        .iter()
        .map(|p| FileDevice::create(p).map(|d| Arc::new(d) as Arc<dyn BlockDevice>))
        .collect::<Result<_>>()?;
    let storage = StripedStorage::new(devices)?;
    write_to_storage(g, &storage)?;
    Ok((index_path, adj_paths))
}

/// Refuses a device array that is not the stripe set of a graph of `pages`
/// adjacency pages: device `d` of `n` holds the pages `p` with `p % n == d`,
/// whole and nothing more. The one file given twice, a stripe left out, or a
/// truncated file would otherwise read as a different graph, or fail only
/// when a query first reaches the missing page.
fn check_stripe_set(storage: &StripedStorage, pages: u64) -> Result<()> {
    let n = storage.num_devices() as u64;
    for (d, device) in storage.devices().iter().enumerate() {
        let expected = pages.saturating_sub(d as u64).div_ceil(n);
        if device.len() != expected * PAGE_SIZE as u64 {
            return Err(BlazeError::Format(format!(
                "device {d} of {n} holds {} pages ({} bytes); of the {pages} pages the \
                 index describes, stripe {d} of {n} has exactly {expected}",
                device.num_pages(),
                device.len()
            )));
        }
    }
    Ok(())
}

/// A disk-resident graph: striped adjacency pages plus in-memory metadata.
///
/// This is the graph handle the out-of-core engine operates on. It holds no
/// adjacency data in memory — only the [`GraphIndex`] (~4.5 B/vertex) and
/// the [`PageVertexMap`] (8 B/page).
pub struct DiskGraph {
    storage: Arc<StripedStorage>,
    index: GraphIndex,
    pagemap: PageVertexMap,
    /// Original ↔ physical id maps; identity for unreordered graphs. The
    /// engine and the decode path work purely in physical ids — only the
    /// algorithm API boundary consults this.
    layout: VertexPermutation,
}

impl DiskGraph {
    /// Writes `g` into `storage` and returns the handle. The common path for
    /// tests and benches. `g` is taken as-is (identity layout).
    pub fn create(g: &Csr, storage: Arc<StripedStorage>) -> Result<Self> {
        write_to_storage(g, &storage)?;
        let index = GraphIndex::from_csr(g);
        let pagemap = PageVertexMap::build(&index);
        let layout = VertexPermutation::identity(g.num_vertices());
        Ok(Self {
            storage,
            index,
            pagemap,
            layout,
        })
    }

    /// Plans `layout` for `g` (given in original ids), relabels it into
    /// physical id space, and writes the reordered stream into `storage`.
    /// The handle carries the permutation and the hot-page metadata.
    pub fn create_with_layout(
        g: &Csr,
        storage: Arc<StripedStorage>,
        layout: VertexLayout,
    ) -> Result<Self> {
        let (perm, hot_vertices) = layout.plan(g);
        let physical = perm.permute_csr(g);
        write_to_storage(&physical, &storage)?;
        let index = GraphIndex::from_csr(&physical);
        let mut pagemap = PageVertexMap::build(&index);
        pagemap.set_hot_pages(hot_page_count(&index, hot_vertices));
        Ok(Self {
            storage,
            index,
            pagemap,
            layout: perm,
        })
    }

    /// Opens a graph whose adjacency pages are already present in `storage`,
    /// loading metadata (including any layout section) from the given
    /// `.gr.index` file.
    pub fn open(index_path: impl AsRef<Path>, storage: Arc<StripedStorage>) -> Result<Self> {
        let (index, meta) = read_index_file_full(index_path)?;
        let mut pagemap = PageVertexMap::build(&index);
        let layout = match meta {
            Some(meta) => {
                pagemap.set_hot_pages(hot_page_count(&index, meta.hot_vertices));
                meta.perm
            }
            None => VertexPermutation::identity(index.num_vertices()),
        };
        check_stripe_set(&storage, pagemap.num_pages())?;
        Ok(Self {
            storage,
            index,
            pagemap,
            layout,
        })
    }

    /// Opens the artifact-style file set written by [`save_files`].
    pub fn open_files(index_path: impl AsRef<Path>, adj_paths: &[PathBuf]) -> Result<Self> {
        let devices: Vec<Arc<dyn BlockDevice>> = adj_paths
            .iter()
            .map(|p| FileDevice::open(p).map(|d| Arc::new(d) as Arc<dyn BlockDevice>))
            .collect::<Result<_>>()?;
        Self::open(index_path, Arc::new(StripedStorage::new(devices)?))
    }

    /// The device array holding the adjacency pages.
    pub fn storage(&self) -> &Arc<StripedStorage> {
        &self.storage
    }

    /// The in-memory index.
    pub fn index(&self) -> &GraphIndex {
        &self.index
    }

    /// The page → vertex map.
    pub fn pagemap(&self) -> &PageVertexMap {
        &self.pagemap
    }

    /// The original ↔ physical vertex permutation (identity when the graph
    /// was written without a layout).
    pub fn layout(&self) -> &VertexPermutation {
        &self.layout
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.index.num_vertices()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> u64 {
        self.index.num_edges()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        self.index.degree(v)
    }

    /// Number of adjacency pages.
    pub fn num_pages(&self) -> u64 {
        self.pagemap.num_pages()
    }

    /// The inclusive page range holding `v`'s edges, or `None` if `v` has
    /// no edges.
    pub fn pages_of_vertex(&self, v: VertexId) -> Option<std::ops::RangeInclusive<PageId>> {
        let deg = self.index.degree(v) as u64;
        if deg == 0 {
            return None;
        }
        let off = self.index.edge_offset(v);
        Some(off / EDGES_PER_PAGE as u64..=(off + deg - 1) / EDGES_PER_PAGE as u64)
    }

    /// Size of the graph on disk (neighbor stream + degree array), the
    /// denominator of Figure 12.
    pub fn storage_bytes(&self) -> u64 {
        self.num_edges() * 4 + self.num_vertices() as u64 * 4
    }

    /// Memory used by the in-memory metadata (index + page map + layout).
    pub fn metadata_bytes(&self) -> u64 {
        self.index.memory_bytes() + self.pagemap.memory_bytes() + self.layout.memory_bytes()
    }

    /// Refuses a run of destinations, as [`for_each_vertex_in_page`] hands
    /// them out of `page`, that names a vertex the graph does not have. The
    /// adjacency files come from outside the program and every destination
    /// indexes the caller's vertex arrays, so scatter runs this on a run
    /// before it reads it: one branch-free pass and one comparison a run,
    /// so the per-edge loop needs no branch of its own.
    ///
    /// [`for_each_vertex_in_page`]: Self::for_each_vertex_in_page
    #[inline]
    pub fn check_destinations(&self, page: PageId, dsts: &[VertexId]) -> Result<()> {
        // Ids are 32 bits wide: a graph of 2^32 vertices has every one.
        let Ok(n) = VertexId::try_from(self.num_vertices()) else {
            return Ok(());
        };
        if dsts.iter().fold(false, |bad, &d| bad | (d >= n)) {
            return Err(self.out_of_range(page, dsts, n));
        }
        Ok(())
    }

    /// The error of [`check_destinations`](Self::check_destinations), kept
    /// out of line so the scatter loop carries only the comparison.
    #[cold]
    #[inline(never)]
    fn out_of_range(&self, page: PageId, dsts: &[VertexId], n: VertexId) -> BlazeError {
        let named = dsts.iter().find(|&&d| d >= n).copied().unwrap_or(n);
        BlazeError::Format(format!(
            "adjacency page {page} names vertex {named}, but the graph has {n} vertices"
        ))
    }

    /// Decodes one fetched page: calls `f(src, dsts)` for every vertex whose
    /// edges intersect page `page`, with `dsts` the *portion of its
    /// adjacency list stored in this page*.
    ///
    /// On little-endian targets with a 4-byte-aligned `data` buffer, `dsts`
    /// borrows the page bytes directly (the neighbor stream is stored as
    /// little-endian `u32` words, so an aligned reinterpret is the decoded
    /// list) and `scratch` is untouched. Otherwise each run is byte-decoded
    /// into `scratch` via the `fallback` module. Vertex metadata comes
    /// from a sequential [`IndexCursor`](crate::IndexCursor) instead of
    /// per-vertex `edge_offset` lookups.
    ///
    /// `data` must be the `PAGE_SIZE` bytes of page `page`.
    pub fn for_each_vertex_in_page<F>(
        &self,
        page: PageId,
        data: &[u8],
        scratch: &mut Vec<VertexId>,
        mut f: F,
    ) where
        F: FnMut(VertexId, &[VertexId]),
    {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        let Some((begin, end)) = self.pagemap.vertices_in_page(page) else {
            return;
        };
        let page_first_edge = page * EDGES_PER_PAGE as u64;
        let page_last_edge = page_first_edge + EDGES_PER_PAGE as u64;
        let words = page_as_words(data);
        let mut cursor = self.index.cursor(begin);
        for v in begin..=end {
            let (deg, off) = cursor.advance();
            let deg = deg as u64;
            if deg == 0 {
                continue;
            }
            let lo = off.max(page_first_edge);
            let hi = (off + deg).min(page_last_edge);
            if lo >= hi {
                continue;
            }
            let word_lo = (lo - page_first_edge) as usize;
            let word_hi = (hi - page_first_edge) as usize;
            match words {
                Some(words) => f(v, &words[word_lo..word_hi]),
                None => {
                    fallback::decode_run(scratch, &data[word_lo * 4..word_hi * 4]);
                    f(v, scratch);
                }
            }
        }
    }

    /// Reads the full adjacency list of `v` from storage. Convenience for
    /// tests and examples; the engine never calls this.
    pub fn read_neighbors(&self, v: VertexId) -> Result<Vec<VertexId>> {
        let mut out = Vec::with_capacity(self.index.degree(v) as usize);
        let Some(pages) = self.pages_of_vertex(v) else {
            return Ok(out);
        };
        let mut buf = vec![0u8; PAGE_SIZE];
        let mut scratch = Vec::new();
        for p in pages {
            self.storage.read_page(p, &mut buf)?;
            self.for_each_vertex_in_page(p, &buf, &mut scratch, |src, dsts| {
                if src == v {
                    out.extend_from_slice(dsts);
                }
            });
        }
        Ok(out)
    }
}

/// Reinterprets a page buffer as its little-endian `u32` neighbor words.
///
/// Returns `None` when the buffer is not 4-byte aligned or the target is
/// big-endian (the on-disk words are little-endian, so a plain reinterpret
/// would byte-swap them); callers then decode through [`fallback`].
#[inline]
fn page_as_words(data: &[u8]) -> Option<&[u32]> {
    if cfg!(not(target_endian = "little"))
        || data.as_ptr().align_offset(std::mem::align_of::<u32>()) != 0
    {
        return None;
    }
    // SAFETY: the pointer is 4-byte aligned (checked above), the length is
    // rounded down to whole `u32` words, `u32` has no invalid bit patterns,
    // and the returned slice's lifetime is tied to `data`'s borrow.
    Some(unsafe { std::slice::from_raw_parts(data.as_ptr() as *const u32, data.len() / 4) })
}

impl std::fmt::Debug for DiskGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskGraph")
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.num_edges())
            .field("num_pages", &self.num_pages())
            .field("num_devices", &self.storage.num_devices())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{rmat, uniform, RmatConfig};

    fn disk_graph(g: &Csr, devices: usize) -> DiskGraph {
        let storage = Arc::new(StripedStorage::in_memory(devices).unwrap());
        DiskGraph::create(g, storage).unwrap()
    }

    #[test]
    fn neighbors_round_trip_single_device() {
        let g = rmat(&RmatConfig::new(9));
        let dg = disk_graph(&g, 1);
        for v in (0..g.num_vertices() as VertexId).step_by(37) {
            assert_eq!(dg.read_neighbors(v).unwrap(), g.neighbors(v), "vertex {v}");
        }
    }

    #[test]
    fn neighbors_round_trip_striped() {
        let g = uniform(9, 12, 5);
        let dg = disk_graph(&g, 4);
        for v in (0..g.num_vertices() as VertexId).step_by(29) {
            assert_eq!(dg.read_neighbors(v).unwrap(), g.neighbors(v), "vertex {v}");
        }
    }

    #[test]
    fn every_edge_is_decoded_exactly_once() {
        let g = rmat(&RmatConfig::new(8));
        let dg = disk_graph(&g, 2);
        let mut total = 0u64;
        let mut buf = vec![0u8; PAGE_SIZE];
        let mut scratch = Vec::new();
        for p in 0..dg.num_pages() {
            dg.storage().read_page(p, &mut buf).unwrap();
            dg.for_each_vertex_in_page(p, &buf, &mut scratch, |src, dsts| {
                // Every decoded dst must be a real neighbor of src.
                for d in dsts {
                    assert!(g.neighbors(src).contains(d));
                }
                total += dsts.len() as u64;
            });
        }
        assert_eq!(total, g.num_edges());
    }

    type Decoded = Vec<(VertexId, Vec<VertexId>)>;

    /// Collects `(src, dsts)` pairs from one page decode, and whether the
    /// decode went through `scratch` (the byte-copy fallback).
    fn decode_page(dg: &DiskGraph, page: u64, data: &[u8]) -> (Decoded, bool) {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        dg.for_each_vertex_in_page(page, data, &mut scratch, |s, d| out.push((s, d.to_vec())));
        (out, !scratch.is_empty())
    }

    /// Test-only reference decoder sharing nothing with the hot path: no
    /// cursor, no reinterpret — per-vertex index lookups and one
    /// `from_le_bytes` per neighbor.
    fn decode_page_reference(dg: &DiskGraph, page: u64, data: &[u8]) -> Decoded {
        let Some((begin, end)) = dg.pagemap.vertices_in_page(page) else {
            return Vec::new();
        };
        let first_edge = page * EDGES_PER_PAGE as u64;
        let mut out = Vec::new();
        for v in begin..=end {
            let off = dg.index.edge_offset(v);
            let lo = off.max(first_edge);
            let hi = (off + dg.index.degree(v) as u64).min(first_edge + EDGES_PER_PAGE as u64);
            if lo >= hi {
                continue;
            }
            let bytes = &data[(lo - first_edge) as usize * 4..(hi - first_edge) as usize * 4];
            let dsts = bytes
                .chunks_exact(4)
                .map(|c| VertexId::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            out.push((v, dsts));
        }
        out
    }

    #[test]
    fn zero_copy_matches_bytewise_decode() {
        let g = rmat(&RmatConfig::new(8));
        let dg = disk_graph(&g, 2);
        let mut buf = vec![0u8; PAGE_SIZE];
        for p in 0..dg.num_pages() {
            dg.storage().read_page(p, &mut buf).unwrap();
            assert_eq!(
                decode_page(&dg, p, &buf).0,
                decode_page_reference(&dg, p, &buf),
                "page {p}"
            );
        }
    }

    #[test]
    fn misaligned_buffer_decodes_correctly() {
        let g = rmat(&RmatConfig::new(7));
        let dg = disk_graph(&g, 1);
        let mut aligned = vec![0u8; PAGE_SIZE];
        // Stage the page at an odd offset so the aligned reinterpret cannot
        // apply and the byte-wise fallback must carry the decode.
        let mut shifted = vec![0u8; PAGE_SIZE + 1];
        for p in 0..dg.num_pages() {
            dg.storage().read_page(p, &mut aligned).unwrap();
            shifted[1..].copy_from_slice(&aligned);
            let (decoded, through_scratch) = decode_page(&dg, p, &shifted[1..]);
            assert!(through_scratch, "page {p} cannot be reinterpreted in place");
            assert_eq!(decoded, decode_page_reference(&dg, p, &aligned), "page {p}");
        }
    }

    #[test]
    fn arc_frames_decode_in_place() {
        // Scatter decodes cache and flight frames (`Arc<[u8]>`) where they
        // lie. The allocation puts the bytes after two word-sized counts,
        // so they are word aligned and, on little-endian targets, every
        // neighbor slice must borrow from the frame itself; a frame that
        // fell to the byte-copy fallback would be silently slow.
        let g = rmat(&RmatConfig::new(8));
        let dg = disk_graph(&g, 1);
        let mut buf = vec![0u8; PAGE_SIZE];
        for p in 0..dg.num_pages() {
            dg.storage().read_page(p, &mut buf).unwrap();
            let frame: Arc<[u8]> = buf.as_slice().into();
            let bytes = frame.as_ptr_range();
            let mut scratch = Vec::new();
            let mut runs = 0;
            dg.for_each_vertex_in_page(p, &frame, &mut scratch, |_, dsts| {
                runs += 1;
                let in_place = bytes.contains(&dsts.as_ptr().cast());
                assert_eq!(in_place, cfg!(target_endian = "little"), "page {p}");
            });
            assert!(runs > 0);
            assert_eq!(scratch.is_empty(), cfg!(target_endian = "little"));
        }
    }

    #[test]
    fn check_destinations_refuses_a_vertex_the_graph_lacks() {
        let g = rmat(&RmatConfig::new(7));
        let dg = disk_graph(&g, 1);
        let n = g.num_vertices() as VertexId;
        assert!(dg.check_destinations(3, &[]).is_ok());
        assert!(dg.check_destinations(3, &[0, n - 1, 5]).is_ok());
        for bad in [n, VertexId::MAX] {
            let err = dg.check_destinations(3, &[0, bad, 5]).unwrap_err();
            assert!(matches!(err, BlazeError::Format(_)), "{err}");
            let text = err.to_string();
            assert!(
                text.contains("page 3") && text.contains(&format!("vertex {bad},")),
                "{text}"
            );
        }
    }

    #[test]
    fn pages_of_vertex_match_pagemap() {
        let g = rmat(&RmatConfig::new(8));
        let dg = disk_graph(&g, 1);
        for v in 0..g.num_vertices() as VertexId {
            match dg.pages_of_vertex(v) {
                None => assert_eq!(g.degree(v), 0),
                Some(pages) => {
                    for p in pages {
                        let (b, e) = dg.pagemap().vertices_in_page(p).unwrap();
                        assert!(b <= v && v <= e);
                    }
                }
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let g = rmat(&RmatConfig::new(8));
        let dir = tempfile::tempdir().unwrap();
        let (index_path, adj_paths) = save_files(&g, dir.path(), "test.gr", 2).unwrap();
        assert_eq!(adj_paths.len(), 2);
        let dg = DiskGraph::open_files(&index_path, &adj_paths).unwrap();
        assert_eq!(dg.num_vertices(), g.num_vertices());
        assert_eq!(dg.num_edges(), g.num_edges());
        for v in (0..g.num_vertices() as VertexId).step_by(41) {
            assert_eq!(dg.read_neighbors(v).unwrap(), g.neighbors(v));
        }
    }

    #[test]
    fn index_file_rejects_corruption() {
        let g = rmat(&RmatConfig::new(6));
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("x.gr.index");
        write_index_file(&path, &GraphIndex::from_csr(&g)).unwrap();
        // Corrupt the magic.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_index_file(&path).is_err());
    }

    #[test]
    fn identity_layout_writes_version_one_bytes() {
        let g = rmat(&RmatConfig::new(6));
        let dir = tempfile::tempdir().unwrap();
        let index = GraphIndex::from_csr(&g);
        let v1 = dir.path().join("v1.index");
        let via_meta = dir.path().join("meta.index");
        write_index_file(&v1, &index).unwrap();
        let meta = LayoutMeta {
            kind: VertexLayout::None,
            hot_vertices: 0,
            perm: VertexPermutation::identity(g.num_vertices()),
        };
        write_index_file_with_layout(&via_meta, &index, Some(&meta)).unwrap();
        assert_eq!(
            std::fs::read(&v1).unwrap(),
            std::fs::read(&via_meta).unwrap(),
            "identity layout must not change the file format"
        );
        let (_, read_meta) = read_index_file_full(&v1).unwrap();
        assert!(read_meta.is_none());
    }

    #[test]
    fn layout_file_round_trip() {
        let g = rmat(&RmatConfig::new(8));
        let (perm, hot) = VertexLayout::Degree.plan(&g);
        let physical = perm.permute_csr(&g);
        let meta = LayoutMeta {
            kind: VertexLayout::Degree,
            hot_vertices: hot,
            perm: perm.clone(),
        };
        let dir = tempfile::tempdir().unwrap();
        let (index_path, adj_paths) =
            save_files_with_layout(&physical, dir.path(), "test.gr", 2, Some(&meta)).unwrap();
        let dg = DiskGraph::open_files(&index_path, &adj_paths).unwrap();
        assert_eq!(dg.layout(), &perm);
        assert_eq!(
            dg.pagemap().hot_pages(),
            hot_page_count(dg.index(), hot),
            "hot page count recomputed at open"
        );
        assert!(dg.pagemap().hot_pages() > 0);
        // Neighbors, translated back to original ids, match the input.
        for v in (0..g.num_vertices() as VertexId).step_by(37) {
            let p = dg.layout().to_physical(v);
            let mut back: Vec<VertexId> = dg
                .read_neighbors(p)
                .unwrap()
                .iter()
                .map(|&d| dg.layout().to_original(d))
                .collect();
            back.sort_unstable();
            let mut orig = g.neighbors(v).to_vec();
            orig.sort_unstable();
            assert_eq!(back, orig, "vertex {v}");
        }
    }

    #[test]
    fn layout_index_rejects_truncation_and_bad_tags() {
        let g = rmat(&RmatConfig::new(6));
        let (perm, hot) = VertexLayout::Hub.plan(&g);
        let physical = perm.permute_csr(&g);
        let meta = LayoutMeta {
            kind: VertexLayout::Hub,
            hot_vertices: hot,
            perm,
        };
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("x.gr.index");
        write_index_file_with_layout(&path, &GraphIndex::from_csr(&physical), Some(&meta)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Truncated permutation section.
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(read_index_file_full(&path).is_err());
        // Unknown layout tag.
        let mut bad = bytes.clone();
        let tag_at = 24 + 4 * physical.num_vertices();
        bad[tag_at] = 7;
        std::fs::write(&path, &bad).unwrap();
        assert!(read_index_file_full(&path).is_err());
        // Pristine bytes still parse.
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_index_file_full(&path).unwrap().1.is_some());
    }

    #[test]
    fn create_with_layout_matches_file_path() {
        let g = rmat(&RmatConfig::new(7));
        let storage = Arc::new(StripedStorage::in_memory(2).unwrap());
        let dg = DiskGraph::create_with_layout(&g, storage, VertexLayout::Degree).unwrap();
        assert!(!dg.layout().is_identity());
        assert!(dg.pagemap().hot_pages() > 0);
        // Physical vertex 0 carries the max degree.
        let max_deg = (0..g.num_vertices() as VertexId)
            .map(|v| g.degree(v))
            .max()
            .unwrap();
        assert_eq!(dg.degree(0), max_deg);
    }

    #[test]
    fn metadata_is_small_relative_to_graph() {
        let g = rmat(&RmatConfig::new(12));
        let dg = disk_graph(&g, 1);
        let ratio = dg.metadata_bytes() as f64 / dg.storage_bytes() as f64;
        assert!(ratio < 0.15, "metadata ratio {ratio}");
    }
}
