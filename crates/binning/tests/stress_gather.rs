//! Stress test of gather exclusivity: several scatter threads and several
//! gather threads hammer a single bin; a canary counter that gather
//! callbacks update NON-atomically (it is protected only by the bin's
//! `gather_lock`, held by `process_one_full` around the callback) must come
//! out exact — any tearing or double-count means two gather threads entered
//! the same bin's critical section concurrently.
//!
//! This is the real-thread companion to the exhaustive-but-tiny loom model
//! in `loom_bin.rs` (`gather_lock_makes_canary_updates_atomic`).
#![cfg(not(loom))]

use blaze_binning::{no_gather, BinRecord, BinSpace, BinningConfig};
use blaze_sync::atomic::{AtomicU64, Ordering};
use blaze_sync::thread;
use std::cell::UnsafeCell;

const SCATTER_THREADS: usize = 4;
const GATHER_THREADS: usize = 3;
const RECORDS_PER_SCATTER: u64 = 20_000;
const TOTAL: u64 = SCATTER_THREADS as u64 * RECORDS_PER_SCATTER;
const BATCH: usize = 33;

/// Deliberately non-atomic counter; soundness comes from the gather lock.
struct Canary {
    count: UnsafeCell<u64>,
    value_sum: UnsafeCell<u64>,
}

// SAFETY: both cells are only mutated inside `process_one_full` callbacks,
// which the bin space runs under the (single) bin's `gather_lock`; reads
// happen after every gather thread has been joined. That exclusivity is
// exactly the property under test.
unsafe impl Sync for Canary {}

#[test]
fn gather_exclusivity_stress() {
    // One bin => every gather callback contends for the same gather lock.
    // 1024 bytes of bin space / 2 buffers / 8-byte records = 64-record
    // buffers, so the full queue churns constantly.
    let space: BinSpace<u32> = BinSpace::new(BinningConfig::new(1, 1024, 16).unwrap());
    let canary = Canary {
        count: UnsafeCell::new(0),
        value_sum: UnsafeCell::new(0),
    };
    let processed = AtomicU64::new(0);

    thread::scope(|s| {
        let mut scatters = Vec::new();
        for t in 0..SCATTER_THREADS {
            let space = &space;
            scatters.push(s.spawn(move || {
                let mut batch = Vec::with_capacity(BATCH);
                for i in 0..RECORDS_PER_SCATTER {
                    // Value encodes (thread, index) so the checksum below
                    // detects duplicated as well as lost records.
                    batch.push(BinRecord::new(0, (t as u32) << 24 | (i as u32 & 0xff_ffff)));
                    if batch.len() == BATCH {
                        space.append_batch(0, &batch, no_gather());
                        batch.clear();
                    }
                }
                if !batch.is_empty() {
                    space.append_batch(0, &batch, no_gather());
                }
            }));
        }

        let gather = |_| {
            let (space, canary, processed) = (&space, &canary, &processed);
            s.spawn(move || {
                while processed.load(Ordering::Acquire) < TOTAL {
                    let worked = space.process_one_full(|_, records| {
                        for r in records {
                            // SAFETY: inside the gather-locked callback; see
                            // the `Sync` impl on `Canary`.
                            unsafe {
                                *canary.count.get() += 1;
                                *canary.value_sum.get() += r.value as u64;
                            }
                        }
                        processed.fetch_add(records.len() as u64, Ordering::Release);
                    });
                    if !worked {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        let gathers: Vec<_> = (0..GATHER_THREADS).map(gather).collect();

        for h in scatters {
            h.join().expect("scatter thread panicked");
        }
        // End-of-iteration flush: push the partially filled buffers so the
        // gather threads can reach TOTAL and exit.
        space.flush_partials();
        for h in gathers {
            h.join().expect("gather thread panicked");
        }
    });

    let expected_sum: u64 = (0..SCATTER_THREADS as u64)
        .map(|t| {
            (0..RECORDS_PER_SCATTER)
                .map(|i| t << 24 | (i & 0xff_ffff))
                .sum::<u64>()
        })
        .sum();
    // SAFETY: every gather thread has been joined; no concurrent access
    // remains.
    let (count, value_sum) = unsafe { (*canary.count.get(), *canary.value_sum.get()) };
    assert_eq!(count, TOTAL, "canary count torn or double-counted");
    assert_eq!(
        value_sum, expected_sum,
        "record payloads lost or duplicated"
    );
    assert!(space.full_queue_is_empty());
    assert_eq!(space.total_records(), TOTAL);
}
