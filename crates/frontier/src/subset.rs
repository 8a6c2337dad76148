//! The vertex frontier: Ligra-style dual sparse/dense representation.

use blaze_sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use blaze_sync::Mutex;

use blaze_types::{CachePadded, VertexId};

use crate::bitmap::AtomicBitmap;

/// Number of sparse-list shards; inserts hash across them to avoid a single
/// contended lock.
const SHARDS: usize = 16;

/// A frontier switches from the sparse list to the dense bitmap when it
/// exceeds `capacity / DENSE_DIVISOR` members.
const DENSE_DIVISOR: usize = 20;

/// A set of active vertices.
///
/// Membership is tracked in an [`AtomicBitmap`], so concurrent
/// [`insert`](Self::insert) calls are lock-free and exactly-once. While the
/// set is sparse, members are additionally appended to sharded lists so
/// iteration does not scan the whole bitmap; once the set passes the density
/// threshold the lists are abandoned and the bitmap serves iteration.
#[derive(Debug)]
pub struct VertexSubset {
    bitmap: AtomicBitmap,
    shards: Vec<Mutex<Vec<VertexId>>>,
    /// On a cache line of its own: every gather thread bumps it on every
    /// insert, and a frontier under construction sits on its submitter's
    /// stack beside the job the scatter threads read on every edge.
    count: CachePadded<AtomicUsize>,
    dense: AtomicBool,
    /// Sorted member list, built by [`seal`](Self::seal) for sparse sets.
    sealed: Option<Vec<VertexId>>,
    /// Set only by [`full`](Self::full): every vertex is a member, so
    /// membership probes can be skipped wholesale.
    complete: bool,
    /// Whether construction has finished ([`seal`](Self::seal) ran, or the
    /// set was born finalized via [`full`](Self::full)). Only finalized sets
    /// may answer [`len`](Self::len)/[`is_empty`](Self::is_empty) — the
    /// loop-termination reads of every algorithm must not race inserts.
    finalized: bool,
}

impl VertexSubset {
    /// An empty frontier over vertices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            bitmap: AtomicBitmap::new(capacity),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            count: CachePadded::new(AtomicUsize::new(0)),
            dense: AtomicBool::new(false),
            sealed: None,
            complete: false,
            finalized: false,
        }
    }

    /// A frontier containing exactly `v`.
    pub fn single(capacity: usize, v: VertexId) -> Self {
        let mut s = Self::new(capacity);
        s.insert(v);
        s.seal();
        s
    }

    /// A dense frontier containing every vertex (PageRank/WCC start state).
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        s.bitmap.set_all();
        s.count.store(capacity, Ordering::Relaxed); // sync-audit: constructor/exclusive path; no concurrent readers yet.
        s.dense.store(true, Ordering::Relaxed); // sync-audit: monotonic one-way flag; late observers just buffer a little longer.
        s.complete = true;
        s.finalized = true;
        s
    }

    /// Builds a sealed frontier from a list of members (duplicates ignored).
    pub fn from_members(capacity: usize, members: impl IntoIterator<Item = VertexId>) -> Self {
        let s = Self::new(capacity);
        for v in members {
            s.insert(v);
        }
        let mut s = s;
        s.seal();
        s
    }

    /// Capacity (total vertices in the graph).
    pub fn capacity(&self) -> usize {
        self.bitmap.len()
    }

    /// Inserts `v`; returns `true` iff it was not already a member.
    /// Safe to call concurrently from many threads.
    pub fn insert(&self, v: VertexId) -> bool {
        if !self.bitmap.set(v as usize) {
            return false;
        }
        // sync-audit: Release pairs with the Acquire in live_len/len so a
        // reader that observes the count also observes the bitmap bit and
        // (transitively) the vertex-array writes that preceded the insert.
        let count = self.count.fetch_add(1, Ordering::Release) + 1;
        if !self.dense.load(Ordering::Relaxed) {
            // sync-audit: stale read only delays the dense switch or is post-seal.
            self.shards[v as usize % SHARDS].lock().push(v);
            if count * DENSE_DIVISOR > self.capacity() {
                self.dense.store(true, Ordering::Relaxed); // sync-audit: monotonic one-way flag; late observers just buffer a little longer.
            }
        }
        true
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.bitmap.get(v as usize)
    }

    /// Number of members. Authoritative: only valid once the set is
    /// finalized ([`seal`](Self::seal) ran, or [`full`](Self::full) built
    /// it), which debug builds enforce. A reader in the middle of
    /// construction (diagnostics) must use [`live_len`](Self::live_len)
    /// instead.
    pub fn len(&self) -> usize {
        debug_assert!(
            self.finalized,
            "VertexSubset::len before seal(): the termination read would race inserts"
        );
        self.live_len()
    }

    /// Instantaneous member count, readable while inserts are still in
    /// flight. Monotone (never overcounts a finished set): the Acquire load
    /// pairs with the Release increment in [`insert`](Self::insert), so any
    /// count observed comes with the matching bitmap bits visible.
    pub fn live_len(&self) -> usize {
        self.count.load(Ordering::Acquire) // sync-audit: pairs with the Release fetch_add in insert; see that comment.
    }

    /// Whether the frontier is empty — the loop-termination test of every
    /// algorithm. Like [`len`](Self::len), requires a finalized set.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this frontier is known to contain *every* vertex.
    ///
    /// Only [`full`](Self::full) sets this; a frontier that happens to grow
    /// to capacity through inserts is deliberately not detected (the flag is
    /// a constructor-time fact, not a racy counter comparison). The scatter
    /// loop uses it to skip the per-source bitmap probe on dense
    /// PageRank/WCC-style iterations.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Whether the dense representation is active.
    pub fn is_dense(&self) -> bool {
        self.dense.load(Ordering::Relaxed) // sync-audit: stale read only delays the dense switch or is post-seal.
    }

    /// Finalizes the frontier after concurrent construction: sparse sets get
    /// their member list drained, sorted, and stored for fast iteration, and
    /// [`len`](Self::len)/[`is_empty`](Self::is_empty) become answerable.
    /// `&mut self` is the happens-before barrier: every inserting thread
    /// joined before the caller could hold an exclusive reference.
    pub fn seal(&mut self) {
        self.finalized = true;
        // sync-audit: stale read only delays the dense switch or is post-seal.
        if self.dense.load(Ordering::Relaxed) {
            self.sealed = None;
            for shard in &self.shards {
                shard.lock().clear();
            }
            return;
        }
        let mut members = Vec::with_capacity(self.len());
        for shard in &self.shards {
            members.append(&mut shard.lock());
        }
        // The dense flag may have flipped mid-insert; the bitmap is always
        // authoritative, so only keep the list if it is complete.
        if members.len() == self.len() {
            members.sort_unstable();
            self.sealed = Some(members);
        } else {
            self.sealed = None;
        }
    }

    /// Sorted member list. Cheap for sealed sparse sets; scans the bitmap
    /// otherwise.
    pub fn members(&self) -> Vec<VertexId> {
        if let Some(sealed) = &self.sealed {
            return sealed.clone();
        }
        self.bitmap.iter_ones().map(|i| i as VertexId).collect()
    }

    /// Calls `f` for every member in ascending order.
    pub fn for_each(&self, mut f: impl FnMut(VertexId)) {
        if let Some(sealed) = &self.sealed {
            for &v in sealed {
                f(v);
            }
        } else {
            for i in self.bitmap.iter_ones() {
                f(i as VertexId);
            }
        }
    }

    /// Memory footprint of the frontier (Figure 12 accounting): the bitmap
    /// plus any sparse member list.
    pub fn memory_bytes(&self) -> u64 {
        let list = self.sealed.as_ref().map_or(0, |s| s.len() * 4) as u64;
        self.bitmap.memory_bytes() + list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_membership() {
        let mut s = VertexSubset::new(100);
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(7));
        assert!(!s.contains(8));
        assert_eq!(s.live_len(), 1);
        s.seal();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn single_and_full_constructors() {
        let s = VertexSubset::single(50, 10);
        assert_eq!(s.len(), 1);
        assert_eq!(s.members(), vec![10]);
        let f = VertexSubset::full(50);
        assert_eq!(f.len(), 50);
        assert!(f.is_dense());
        assert!(f.is_complete());
        assert_eq!(f.members().len(), 50);
    }

    #[test]
    fn complete_is_a_constructor_fact() {
        // Growing to capacity through inserts does not set the flag…
        let mut s = VertexSubset::new(4);
        for v in 0..4 {
            s.insert(v);
        }
        s.seal();
        assert_eq!(s.len(), 4);
        assert!(!s.is_complete());
        // …and neither do the other constructors.
        assert!(!VertexSubset::single(4, 0).is_complete());
        assert!(!VertexSubset::from_members(4, 0..4).is_complete());
    }

    #[test]
    fn sealed_sparse_iterates_sorted() {
        let mut s = VertexSubset::new(1000);
        for v in [500u32, 3, 77, 12] {
            s.insert(v);
        }
        s.seal();
        assert_eq!(s.members(), vec![3, 12, 77, 500]);
        let mut seen = Vec::new();
        s.for_each(|v| seen.push(v));
        assert_eq!(seen, vec![3, 12, 77, 500]);
    }

    #[test]
    fn grows_dense_past_threshold() {
        let mut s = VertexSubset::new(100);
        for v in 0..20 {
            s.insert(v);
        }
        assert!(s.is_dense(), "20/100 > 1/20 must flip dense");
        s.seal();
        assert_eq!(s.members(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn dense_iteration_uses_bitmap() {
        let mut s = VertexSubset::full(64);
        s.seal();
        assert_eq!(s.members().len(), 64);
    }

    #[test]
    fn concurrent_inserts_are_exactly_once() {
        let s = blaze_sync::Arc::new(VertexSubset::new(10_000));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                let mut fresh = 0;
                for i in 0..10_000u32 {
                    // Overlapping ranges across threads.
                    if s.insert((i + t * 2500) % 10_000) {
                        fresh += 1;
                    }
                }
                fresh
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 10_000);
        assert_eq!(s.live_len(), 10_000);
        let mut s = blaze_sync::Arc::try_unwrap(s).expect("all inserters joined");
        s.seal();
        assert_eq!(s.len(), 10_000);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before seal")]
    fn len_before_seal_is_rejected() {
        let s = VertexSubset::new(8);
        s.insert(1);
        let _ = s.len();
    }

    #[test]
    fn unsealed_members_falls_back_to_bitmap() {
        let s = VertexSubset::new(100);
        s.insert(42);
        s.insert(1);
        // No seal() call: members still correct via bitmap scan.
        assert_eq!(s.members(), vec![1, 42]);
    }

    #[test]
    fn from_members_dedups() {
        let s = VertexSubset::from_members(10, [1, 2, 2, 3, 1]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.members(), vec![1, 2, 3]);
    }
}
