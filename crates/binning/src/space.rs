//! The bin space: all bins plus the MPMC full-buffer queues.
//!
//! A record for `dst` goes to bin `(dst >> shift) % bin_count`. A space
//! built for a graph of `n` vertices takes `shift = floor(log2(n /
//! bin_count))` (0 when `n <= bin_count`), so each bin owns one or two
//! contiguous slices of `2^shift` vertices and every bin is used; gather
//! then reduces one bin's records into a slice of the vertex arrays
//! instead of striding all of them. A space with no vertex count
//! ([`BinSpace::new`]) keeps shift 0, the paper's `dst % bin_count`.
//!
//! Full buffers are routed to one of `gather_queues` queues by
//! `bin_id % gather_queues`, mirroring how the engine assigns gather
//! workers. Each gather worker drains its own queue first and steals from
//! the others only when it is empty, so a bin's buffers (and its gather
//! lock) tend to stay on one thread instead of bouncing between them.
//!
//! An append to a bin whose two buffers are both out *stalls*. A scatter
//! thread that passes its gather function ([`BinSpace::append_batch`])
//! spends the stall applying queued full buffers itself, its stalled bin's
//! home queue first, so it waits only while the buffer it needs is being
//! applied by someone else; without one it backs off until a gather thread
//! returns a buffer. Whoever applies a buffer holds that bin's gather lock,
//! so a destination is still updated by one thread at a time.

use std::time::Instant;

use blaze_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use blaze_sync::panic::{catch_unwind, resume_unwind};
use blaze_sync::queue::SegQueue;
use blaze_sync::Backoff;

use blaze_types::{CachePadded, VertexId};

use crate::bin::Bin;
use crate::config::BinningConfig;
use crate::record::{BinRecord, BinValue};

/// A full (or final-partial) buffer travelling to a gather thread.
#[derive(Debug)]
pub struct FullBin<V> {
    /// Which bin the records belong to.
    pub bin_id: usize,
    /// The records.
    pub records: Vec<BinRecord<V>>,
}

/// The type of the gather function [`no_gather`] names but never holds.
type NoGather<V> = fn(usize, &[BinRecord<V>]);

/// The `gather` argument of an append that applies no full bins when it
/// stalls: it backs off until a gather thread returns a buffer.
pub fn no_gather<'a, V>() -> Option<&'a mut NoGather<V>> {
    None
}

/// The complete online-binning state for one `EdgeMap` execution.
pub struct BinSpace<V> {
    bins: Vec<Bin<V>>,
    /// One full-buffer queue per gather worker; bin `b` routes to queue
    /// `b % full_queues.len()`.
    full_queues: Vec<SegQueue<FullBin<V>>>,
    /// Per-bin record counters for work-trace instrumentation.
    records_per_bin: Vec<CachePadded<AtomicU64>>,
    /// Nanoseconds appends spent stalled because a bin's two buffers were
    /// both out with gather; touched only on that path.
    stall_ns: AtomicU64,
    /// The part of `stall_ns` spent applying full buffers.
    stall_gather_ns: AtomicU64,
    /// Set when a gather function panicked with a buffer in hand: that
    /// buffer never returns to its bin, so a stall on the bin would never
    /// end. Stalled appends drop their rest instead; the job is failing.
    poisoned: AtomicBool,
    /// `dst >> shift` names the vertex slice a record belongs to.
    shift: u32,
    config: BinningConfig,
    record_bytes: usize,
}

impl<V: BinValue> BinSpace<V> {
    /// Allocates bins per `config` with a single full-buffer queue. With no
    /// vertex count to slice, records route to `dst % bin_count`.
    pub fn new(config: BinningConfig) -> Self {
        Self::for_vertices(config, 0, 1)
    }

    /// Allocates bins per `config` for a graph of `num_vertices` vertices,
    /// routed by vertex slice (see the module docs), with one full-buffer
    /// queue per gather worker (`gather_queues` is clamped to at least 1).
    pub fn for_vertices(config: BinningConfig, num_vertices: usize, gather_queues: usize) -> Self {
        let shift = (num_vertices / config.bin_count)
            .checked_ilog2()
            .unwrap_or(0);
        let record_bytes = BinRecord::<V>::size_bytes();
        let capacity = config.buffer_capacity(record_bytes);
        let bins = (0..config.bin_count).map(|_| Bin::new(capacity)).collect();
        let records_per_bin = (0..config.bin_count)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect();
        let full_queues = (0..gather_queues.max(1)).map(|_| SegQueue::new()).collect();
        Self {
            bins,
            full_queues,
            records_per_bin,
            stall_ns: AtomicU64::new(0),
            stall_gather_ns: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            shift,
            config,
            record_bytes,
        }
    }

    /// Number of gather-affinity queues.
    pub fn gather_queue_count(&self) -> usize {
        self.full_queues.len()
    }

    /// Routes a full buffer to its bin's affinity queue.
    fn push_full(&self, full: FullBin<V>) {
        self.full_queues[full.bin_id % self.full_queues.len()].push(full);
    }

    /// Number of bins.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// The bin a destination vertex routes to.
    #[inline]
    pub fn bin_of(&self, dst: VertexId) -> usize {
        (dst as usize >> self.shift) % self.bins.len()
    }

    /// Appends a batch of records that all route to `bin_id`; full buffers
    /// move to the bin's full-buffer queue. When both of the bin's buffers
    /// are out the append stalls until the bin takes the rest: with a
    /// `gather` function it applies queued full buffers itself, exactly as
    /// [`process_one_full_for`](Self::process_one_full_for) would for a
    /// gather worker, and backs off only while none is queued; with
    /// [`no_gather`] it only backs off.
    #[inline]
    pub fn append_batch<F>(&self, bin_id: usize, batch: &[BinRecord<V>], gather: Option<&mut F>)
    where
        F: FnMut(usize, &[BinRecord<V>]),
    {
        self.records_per_bin[bin_id].fetch_add(batch.len() as u64, Ordering::Relaxed); // sync-audit: per-bin work counter; read post-join or for heuristics.
        let rest = self.append_what_fits(bin_id, batch);
        if !rest.is_empty() {
            self.stall(bin_id, rest, gather);
        }
    }

    fn append_what_fits<'b>(&self, bin_id: usize, batch: &'b [BinRecord<V>]) -> &'b [BinRecord<V>] {
        self.bins[bin_id].append_batch(batch, |records| {
            self.push_full(FullBin { bin_id, records });
        })
    }

    /// The stalled path of [`append_batch`](Self::append_batch), timed as
    /// a whole (`stall_ns`) and in the part spent applying buffers
    /// (`stall_gather_ns`).
    #[cold]
    #[inline(never)]
    fn stall<F>(&self, bin_id: usize, mut rest: &[BinRecord<V>], mut gather: Option<&mut F>)
    where
        F: FnMut(usize, &[BinRecord<V>]),
    {
        let stalled = Instant::now();
        let mut applying_ns = 0u64;
        let backoff = Backoff::new();
        while !rest.is_empty() {
            // sync-audit: Acquire pairs with the Release in
            // `process_one_full_for`; the flag publishes nothing else.
            if self.poisoned.load(Ordering::Acquire) {
                break;
            }
            let applied = match gather.as_deref_mut() {
                Some(f) => {
                    let t = Instant::now();
                    // `bin_id` as the worker: its home queue is the one
                    // this bin's own full buffer waits in.
                    let applied = self.process_one_full_for(bin_id, f);
                    if applied {
                        applying_ns += t.elapsed().as_nanos() as u64;
                    }
                    applied
                }
                None => false,
            };
            if applied {
                backoff.reset();
            } else {
                // Nothing queued: the buffer this bin waits for is being
                // applied right now.
                backoff.snooze();
            }
            rest = self.append_what_fits(bin_id, rest);
        }
        let stalled_ns = stalled.elapsed().as_nanos() as u64;
        self.stall_ns.fetch_add(stalled_ns, Ordering::Relaxed); // sync-audit: work counter like `records_per_bin`; read post-join.
        if applying_ns > 0 {
            self.stall_gather_ns
                .fetch_add(applying_ns, Ordering::Relaxed); // sync-audit: work counter like `records_per_bin`; read post-join.
        }
    }

    /// Pops one full bin and processes it under the bin's gather lock,
    /// calling `f(bin_id, records)`. Returns `false` when every queue was
    /// empty. The buffer is recycled afterwards.
    ///
    /// Equivalent to [`process_one_full_for`](Self::process_one_full_for)
    /// with worker 0 — single-consumer callers need no affinity.
    pub fn process_one_full<F>(&self, f: F) -> bool
    where
        F: FnMut(usize, &[BinRecord<V>]),
    {
        self.process_one_full_for(0, f)
    }

    /// Affinity-aware variant of [`process_one_full`](Self::process_one_full)
    /// for gather worker `worker`: pops from the worker's own queue
    /// (`worker % gather_queue_count`) first and steals from the other
    /// queues only when it is empty.
    ///
    /// If `f` panics, the buffer it held is lost and the space is marked
    /// poisoned before the panic continues, so that no append stalls
    /// forever on the bin that buffer belonged to. The panic is caught and
    /// re-raised, not seen from a drop guard, because the facade's
    /// `catch_unwind` lets the model checker's own unwinds pass untouched.
    pub fn process_one_full_for<F>(&self, worker: usize, mut f: F) -> bool
    where
        F: FnMut(usize, &[BinRecord<V>]),
    {
        let queues = self.full_queues.len();
        let home = worker % queues;
        let Some(full) = (0..queues).find_map(|i| self.full_queues[(home + i) % queues].pop())
        else {
            return false;
        };
        let bin = &self.bins[full.bin_id];
        {
            let _exclusive = bin.lock_for_gather();
            if let Err(panic) = catch_unwind(|| f(full.bin_id, &full.records)) {
                // sync-audit: Release pairs with the stall loop's Acquire
                // load; the flag publishes nothing else.
                self.poisoned.store(true, Ordering::Release);
                resume_unwind(panic);
            }
        }
        bin.return_buffer(full.records);
        true
    }

    /// Flushes every bin's partially-filled active buffer into the full
    /// queues. Called once scatter is done so gather can drain everything.
    pub fn flush_partials(&self) {
        for (bin_id, bin) in self.bins.iter().enumerate() {
            if let Some(records) = bin.drain_partial() {
                self.push_full(FullBin { bin_id, records });
            }
        }
    }

    /// Whether every full-buffer queue is currently empty.
    pub fn full_queue_is_empty(&self) -> bool {
        self.full_queues.iter().all(SegQueue::is_empty)
    }

    /// Total records appended since the last
    /// [`take_record_counts`](Self::take_record_counts).
    pub fn total_records(&self) -> u64 {
        self.records_per_bin
            .iter()
            // sync-audit: work counter; authoritative only after scatter joins.
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Returns and resets the per-bin record counters (one `EdgeMap`'s
    /// gather-work distribution, fed to the performance model).
    pub fn take_record_counts(&self) -> Vec<u64> {
        self.records_per_bin
            .iter()
            // sync-audit: reset between iterations; scatter threads are quiescent.
            .map(|c| c.swap(0, Ordering::Relaxed))
            .collect()
    }

    /// Returns and resets the time appends spent stalled on a bin with both
    /// buffers out, summed over the scatter threads of one `EdgeMap`.
    pub fn take_stall_ns(&self) -> u64 {
        self.stall_ns.swap(0, Ordering::Relaxed) // sync-audit: reset between iterations; scatter threads are quiescent.
    }

    /// Returns and resets the part of [`take_stall_ns`](Self::take_stall_ns)
    /// that stalled appends spent applying full buffers.
    pub fn take_stall_gather_ns(&self) -> u64 {
        self.stall_gather_ns.swap(0, Ordering::Relaxed) // sync-audit: reset between iterations; scatter threads are quiescent.
    }

    /// Restores the space to its freshly-constructed state so it can be
    /// recycled into a later job's arena checkout: drains any leftover full
    /// buffers back into their bins, resets every bin's pair, and zeroes
    /// the per-bin record counters. Must only be called while no scatter or
    /// gather thread is using the space.
    pub fn reset(&self) {
        for queue in &self.full_queues {
            while let Some(full) = queue.pop() {
                self.bins[full.bin_id].return_buffer(full.records);
            }
        }
        for bin in &self.bins {
            bin.reset();
        }
        for counter in &self.records_per_bin {
            // sync-audit: reset between jobs; the space is quiescent here.
            counter.store(0, Ordering::Relaxed);
        }
        self.take_stall_ns();
        self.take_stall_gather_ns();
        self.poisoned.store(false, Ordering::Relaxed); // sync-audit: reset between jobs; the space is quiescent here.
    }

    /// The configuration this space was built with.
    pub fn config(&self) -> &BinningConfig {
        &self.config
    }

    /// Bytes of memory held by the bin buffers (Figure 12 accounting).
    pub fn memory_bytes(&self) -> u64 {
        self.config.allocated_bytes(self.record_bytes)
    }
}

impl<V> std::fmt::Debug for BinSpace<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinSpace")
            .field("bin_count", &self.bins.len())
            .field("gather_queues", &self.full_queues.len())
            .field(
                "full_queue",
                &self.full_queues.iter().map(SegQueue::len).sum::<usize>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(bins: usize, records_per_buffer: usize) -> BinningConfig {
        BinningConfig::new(bins, bins * 2 * records_per_buffer * 8, 4).unwrap()
    }

    /// `BinSpace::new` has no vertex count: shift 0, `dst % bin_count`.
    #[test]
    fn records_route_by_modulo() {
        let space: BinSpace<u32> = BinSpace::new(config(4, 16));
        assert_eq!(space.bin_of(0), 0);
        assert_eq!(space.bin_of(5), 1);
        assert_eq!(space.bin_of(7), 3);
    }

    #[test]
    fn each_bin_owns_at_most_two_contiguous_slices() {
        use blaze_types::MAX_BIN_COUNT;
        for n in [1usize, 511, 512, 513, (1 << 20) + 1] {
            for bins in [1usize, 3, 1024, MAX_BIN_COUNT] {
                let space: BinSpace<u32> = BinSpace::for_vertices(config(bins, 1), n, 1);
                // Runs of consecutive vertices sharing a bin, per bin.
                let mut runs = vec![0usize; bins];
                let mut prev = usize::MAX;
                for dst in 0..n {
                    let bin = space.bin_of(dst as VertexId);
                    assert!(bin < bins, "n {n}, {bins} bins: vertex {dst} in bin {bin}");
                    if bin != prev {
                        runs[bin] += 1;
                        prev = bin;
                    }
                }
                let most = runs.iter().max().copied().unwrap_or(0);
                assert!(most <= 2, "n {n}, {bins} bins: a bin holds {most} runs");
                if n >= bins {
                    assert!(
                        runs.iter().all(|&r| r > 0),
                        "n {n}, {bins} bins: a bin is unused"
                    );
                }
            }
        }
    }

    /// Runs on `BinSpace::new`, whose routing is `dst % bin_count`.
    #[test]
    fn flush_then_gather_sees_every_record() {
        let space: BinSpace<u32> = BinSpace::new(config(4, 16));
        for dst in 0..40u32 {
            let bin = space.bin_of(dst);
            space.append_batch(bin, &[BinRecord::new(dst, dst * 2)], no_gather());
        }
        space.flush_partials();
        let mut seen = Vec::new();
        while space.process_one_full(|bin_id, records| {
            for r in records {
                assert_eq!(bin_id, (r.dst % 4) as usize, "record in wrong bin");
                seen.push(r.dst);
            }
        }) {}
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<_>>());
        assert_eq!(space.total_records(), 40);
    }

    #[test]
    fn take_record_counts_resets() {
        let space: BinSpace<u32> = BinSpace::new(config(2, 8));
        space.append_batch(
            0,
            &[BinRecord::new(0, 1), BinRecord::new(2, 1)],
            no_gather(),
        );
        space.append_batch(1, &[BinRecord::new(1, 1)], no_gather());
        let counts = space.take_record_counts();
        assert_eq!(counts, vec![2, 1]);
        assert_eq!(space.total_records(), 0);
    }

    #[test]
    fn reset_restores_a_dirty_space() {
        let space: BinSpace<u32> = BinSpace::new(config(4, 4));
        // Dirty it: fill buffers, leave partials and full-queue entries.
        for dst in 0..30u32 {
            let bin = space.bin_of(dst);
            space.append_batch(bin, &[BinRecord::new(dst, dst)], no_gather());
        }
        space.flush_partials();
        assert!(!space.full_queue_is_empty());
        space.reset();
        assert!(space.full_queue_is_empty());
        assert_eq!(space.total_records(), 0);
        // The reset space behaves like a fresh one. Stay within the two
        // buffers per bin (2 x 4 records x 4 bins = 32) — with no gather
        // thread returning buffers, more would block on back-pressure.
        for dst in 0..32u32 {
            let bin = space.bin_of(dst);
            space.append_batch(bin, &[BinRecord::new(dst, dst * 2)], no_gather());
        }
        space.flush_partials();
        let mut seen = Vec::new();
        while space.process_one_full(|_, records| {
            seen.extend(records.iter().map(|r| r.dst));
        }) {}
        seen.sort_unstable();
        assert_eq!(seen, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn affinity_routes_bins_to_home_queues() {
        // 4 bins over 2 queues: bins {0, 2} home to queue 0, {1, 3} to
        // queue 1. With work in every queue, a worker drains its own
        // queue's bins before touching the other's.
        let space: BinSpace<u32> = BinSpace::for_vertices(config(4, 16), 4, 2);
        assert_eq!(space.gather_queue_count(), 2);
        for dst in 0..4u32 {
            space.append_batch(space.bin_of(dst), &[BinRecord::new(dst, dst)], no_gather());
        }
        space.flush_partials();
        let mut worker0_bins = Vec::new();
        space.process_one_full_for(0, |bin, _| worker0_bins.push(bin));
        space.process_one_full_for(0, |bin, _| worker0_bins.push(bin));
        assert_eq!(
            worker0_bins,
            vec![0, 2],
            "worker 0 drains its home queue first"
        );
        let mut worker1_bins = Vec::new();
        space.process_one_full_for(1, |bin, _| worker1_bins.push(bin));
        space.process_one_full_for(1, |bin, _| worker1_bins.push(bin));
        assert_eq!(worker1_bins, vec![1, 3]);
        assert!(space.full_queue_is_empty());
    }

    #[test]
    fn idle_workers_steal_from_other_queues() {
        let space: BinSpace<u32> = BinSpace::for_vertices(config(4, 16), 4, 2);
        // Only bin 0 has work — it homes to queue 0.
        space.append_batch(0, &[BinRecord::new(0, 7)], no_gather());
        space.flush_partials();
        let mut got = Vec::new();
        assert!(space.process_one_full_for(1, |bin, records| {
            got.extend(records.iter().map(|r| (bin, r.value)));
        }));
        assert_eq!(got, vec![(0, 7)], "worker 1 steals queue 0's buffer");
        assert!(!space.process_one_full_for(1, |_, _| {}));
        assert!(space.full_queue_is_empty());
    }

    /// One thread and no gather worker: every stalled append finishes only
    /// by applying queued buffers itself, its own bin's among them.
    #[test]
    fn a_stalled_append_applies_full_bins_itself() {
        let space: BinSpace<u32> = BinSpace::for_vertices(config(4, 2), 16, 2);
        let mut seen = vec![0u32; 16];
        let mut gather = |bin: usize, records: &[BinRecord<u32>]| {
            for r in records {
                assert_eq!(bin, space.bin_of(r.dst));
                seen[r.dst as usize] += 1;
            }
        };
        for round in 0..10 {
            for dst in 0..16u32 {
                let batch = [BinRecord::new(dst, round)];
                space.append_batch(space.bin_of(dst), &batch, Some(&mut gather));
            }
        }
        space.flush_partials();
        while space.process_one_full(&mut gather) {}
        assert_eq!(seen, vec![10; 16], "every record applied exactly once");
        let stalled = space.take_stall_ns();
        let applying = space.take_stall_gather_ns();
        assert!(
            0 < applying && applying <= stalled,
            "{applying} of {stalled}"
        );
    }

    /// A gather function that panics loses the buffer it held; the space is
    /// poisoned, so an append stalled on that bin drops its rest instead
    /// of waiting for a buffer that will never return.
    #[test]
    fn a_panicking_gather_poisons_the_space() {
        // One bin of two one-record buffers.
        let space: BinSpace<u32> = BinSpace::new(BinningConfig::new(1, 16, 1).unwrap());
        let recs: Vec<_> = (0..2).map(|d| BinRecord::new(d, d)).collect();
        space.append_batch(0, &recs, no_gather()); // one full, one pending
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            space.process_one_full(|_, _| panic!("gather exploded"));
        }));
        assert!(caught.is_err(), "the panic continues to the caller");
        // Both buffers are out for good; without the mark this would spin.
        space.append_batch(0, &recs, no_gather());
        space.reset();
        assert!(!space.poisoned.load(Ordering::Relaxed)); // sync-audit: single-threaded test.
    }

    #[test]
    fn concurrent_scatter_gather_pipeline() {
        // 4 scatter threads + 2 gather threads over a small bin space;
        // every value must be gathered exactly once.
        use blaze_sync::atomic::{AtomicBool, AtomicU64};
        use blaze_sync::Arc;
        const N: u32 = 20_000;
        let space: Arc<BinSpace<u32>> = Arc::new(BinSpace::new(config(8, 32)));
        let sum = Arc::new(AtomicU64::new(0));
        let count = Arc::new(AtomicU64::new(0));
        let scatter_done = Arc::new(AtomicBool::new(false));
        let finished_scatters = Arc::new(AtomicU64::new(0));

        blaze_sync::thread::scope(|s| {
            for t in 0..4u32 {
                let space = space.clone();
                let finished = finished_scatters.clone();
                s.spawn(move || {
                    for i in (t..N).step_by(4) {
                        let bin = space.bin_of(i);
                        space.append_batch(bin, &[BinRecord::new(i, i)], no_gather());
                    }
                    finished.fetch_add(1, Ordering::Release); // sync-audit: per-bin work counter; read post-join or for heuristics.
                });
            }
            for _ in 0..2 {
                let space = space.clone();
                let sum = sum.clone();
                let count = count.clone();
                let done = scatter_done.clone();
                s.spawn(move || loop {
                    let progressed = space.process_one_full(|_, records| {
                        for r in records {
                            sum.fetch_add(r.value as u64, Ordering::Relaxed); // sync-audit: per-bin work counter; read post-join or for heuristics.
                            count.fetch_add(1, Ordering::Relaxed); // sync-audit: per-bin work counter; read post-join or for heuristics.
                        }
                    });
                    if !progressed {
                        if done.load(Ordering::Acquire) && space.full_queue_is_empty() {
                            // sync-audit: work counter; authoritative only after scatter joins.
                            break;
                        }
                        std::thread::yield_now();
                    }
                });
            }
            // Coordinator: once every scatter thread has finished, flush the
            // partial buffers and release the gather threads — exactly the
            // engine's end-of-iteration protocol.
            let space2 = space.clone();
            let done2 = scatter_done.clone();
            let finished = finished_scatters.clone();
            s.spawn(move || {
                while finished.load(Ordering::Acquire) < 4 {
                    // sync-audit: work counter; authoritative only after scatter joins.
                    std::thread::yield_now();
                }
                space2.flush_partials();
                done2.store(true, Ordering::Release);
            });
        });

        assert_eq!(count.load(Ordering::Relaxed), N as u64); // sync-audit: work counter; authoritative only after scatter joins.
        let expected: u64 = (0..N as u64).sum();
        assert_eq!(sum.load(Ordering::Relaxed), expected); // sync-audit: work counter; authoritative only after scatter joins.
    }
}
