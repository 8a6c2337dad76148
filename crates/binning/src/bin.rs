//! A single bin: a pair of fixed-capacity record buffers with a swap
//! protocol that keeps scatter and gather threads concurrently productive
//! (Section IV-A, third optimization).

use blaze_sync::Mutex;

use crate::record::{BinRecord, BinValue};

/// Inner state protected by the append lock.
#[derive(Debug)]
struct BinInner<V> {
    /// Buffer scatter threads currently append into.
    active: Vec<BinRecord<V>>,
    /// The other half of the pair, when the bin owns it (i.e. it is not out
    /// with a gather thread or in the full queue).
    spare: Option<Vec<BinRecord<V>>>,
}

/// One bin of the online-binning space.
///
/// Appends are batched (whole staging buffers), so the append lock is held
/// for one short memcpy per ~64 records — this is the "per-CPU buffer"
/// amortization of propagation blocking. When the active buffer reaches
/// capacity it is handed to `on_full` (the engine pushes it to the MPMC
/// `full_bins` queue) and the spare takes over. If the spare is still out
/// with gather, the bin takes no more: [`append_batch`](Bin::append_batch)
/// hands the rest back, and the caller decides how to wait
/// ([`BinSpace::append_batch`](crate::BinSpace::append_batch) applies full
/// buffers itself) — the back-pressure the paper describes, without a
/// sleep inside the bin.
#[derive(Debug)]
pub struct Bin<V> {
    inner: Mutex<BinInner<V>>,
    /// Held by the gather thread processing this bin's records, ensuring no
    /// two gather threads touch the same destination vertices concurrently.
    gather_lock: Mutex<()>,
    capacity: usize,
}

impl<V: BinValue> Bin<V> {
    /// Creates a bin whose two buffers hold `capacity` records each.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Mutex::new(BinInner {
                active: Vec::with_capacity(capacity),
                spare: Some(Vec::with_capacity(capacity)),
            }),
            gather_lock: Mutex::new(()),
            capacity,
        }
    }

    /// Records per buffer.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends what fits of `batch`, invoking `on_full(buffer)` each time
    /// the active buffer fills. Returns the records that did not fit
    /// because both buffers are out (the active one full, the spare with
    /// gather); empty when the whole batch went in. Never waits.
    pub fn append_batch<'b>(
        &self,
        batch: &'b [BinRecord<V>],
        mut on_full: impl FnMut(Vec<BinRecord<V>>),
    ) -> &'b [BinRecord<V>] {
        let mut inner = self.inner.lock();
        let mut remaining = batch;
        loop {
            let space = self.capacity - inner.active.len();
            let take = space.min(remaining.len());
            inner.active.extend_from_slice(&remaining[..take]);
            remaining = &remaining[take..];
            if inner.active.len() < self.capacity {
                return remaining;
            }
            // Hand a filled buffer to gather eagerly (the paper pushes to
            // full_bins the moment one of the pair fills).
            let Some(spare) = inner.spare.take() else {
                return remaining;
            };
            let full = std::mem::replace(&mut inner.active, spare);
            on_full(full);
            if remaining.is_empty() {
                return remaining;
            }
        }
    }

    /// Pushes the active buffer out even if only partially filled — the
    /// end-of-iteration flush. Returns `None` if the buffer is empty.
    pub fn drain_partial(&self) -> Option<Vec<BinRecord<V>>> {
        let mut inner = self.inner.lock();
        if inner.active.is_empty() {
            return None;
        }
        let replacement = inner
            .spare
            .take()
            .unwrap_or_else(|| Vec::with_capacity(self.capacity));
        Some(std::mem::replace(&mut inner.active, replacement))
    }

    /// Returns a drained buffer to the pair after gather finishes with it.
    pub fn return_buffer(&self, mut buffer: Vec<BinRecord<V>>) {
        buffer.clear();
        let mut inner = self.inner.lock();
        if inner.spare.is_none() {
            inner.spare = Some(buffer);
        }
        // A third buffer can exist transiently after a drain_partial that
        // had to allocate; it is simply dropped here.
    }

    /// Locks this bin for gather processing. While the guard lives, no other
    /// gather thread may process records of this bin — the exclusivity that
    /// makes vertex updates synchronization-free.
    pub fn lock_for_gather(&self) -> blaze_sync::MutexGuard<'_, ()> {
        self.gather_lock.lock()
    }

    /// Records currently waiting in the active buffer.
    pub fn pending_records(&self) -> usize {
        self.inner.lock().active.len()
    }

    /// Restores the bin to its freshly-constructed state so the buffer pair
    /// can be reused by a later job: clears the active buffer and ensures
    /// the spare is present. Must only be called while no scatter or gather
    /// thread is touching the bin (the arena calls it between jobs).
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        inner.active.clear();
        if inner.spare.is_none() {
            inner.spare = Some(Vec::with_capacity(self.capacity));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(dst: u32) -> BinRecord<u32> {
        BinRecord::new(dst, dst * 10)
    }

    #[test]
    fn append_below_capacity_stays_pending() {
        let bin = Bin::new(8);
        bin.append_batch(&[rec(1), rec(2)], |_| panic!("no full buffer expected"));
        assert_eq!(bin.pending_records(), 2);
    }

    #[test]
    fn filling_capacity_emits_full_buffer() {
        let bin = Bin::new(4);
        let mut fulls = Vec::new();
        let batch: Vec<_> = (0..6).map(rec).collect();
        bin.append_batch(&batch, |b| fulls.push(b));
        assert_eq!(fulls.len(), 1);
        assert_eq!(fulls[0].len(), 4);
        assert_eq!(bin.pending_records(), 2);
    }

    #[test]
    fn drain_partial_returns_leftovers_once() {
        let bin = Bin::new(4);
        bin.append_batch(&[rec(7)], |_| {});
        let drained = bin.drain_partial().unwrap();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].dst, 7);
        assert!(bin.drain_partial().is_none());
    }

    #[test]
    fn buffers_recycle_through_return() {
        let bin = Bin::new(2);
        let mut fulls = Vec::new();
        // Fill and return repeatedly; with prompt returns nothing blocks.
        for round in 0..10u32 {
            bin.append_batch(&[rec(round), rec(round)], |b| fulls.push(b));
            if let Some(b) = fulls.pop() {
                bin.return_buffer(b);
            }
        }
        assert_eq!(bin.pending_records(), 0);
    }

    #[test]
    fn a_full_pair_hands_the_rest_back_until_a_buffer_returns() {
        let bin = Bin::new(2);
        let mut fulls = Vec::new();
        // Fill both buffers: the first two records go out as a full
        // buffer, the next two fill the spare that took over.
        let batch: Vec<_> = (0..5).map(rec).collect();
        let rest = bin.append_batch(&batch, |b| fulls.push(b));
        assert_eq!(rest, &batch[4..], "the fifth record has no room");
        assert_eq!((fulls.len(), bin.pending_records()), (1, 2));
        // Still no room, and nothing was handed out twice.
        assert_eq!(bin.append_batch(rest, |_| unreachable!()).len(), 1);

        // Gather returns the buffer: the full active one goes out and the
        // record the bin refused goes in.
        bin.return_buffer(fulls.pop().unwrap());
        assert!(bin.append_batch(rest, |b| fulls.push(b)).is_empty());
        assert_eq!(fulls.len(), 1);
        assert_eq!(fulls[0].iter().map(|r| r.dst).collect::<Vec<_>>(), [2, 3]);
        assert_eq!(bin.pending_records(), 1);
    }

    #[test]
    fn gather_lock_is_exclusive() {
        let bin: Bin<u32> = Bin::new(4);
        let g1 = bin.lock_for_gather();
        assert!(bin.gather_lock.try_lock().is_none());
        drop(g1);
        assert!(bin.gather_lock.try_lock().is_some());
    }
}
