//! Model-checked tests of the bin pair-buffer swap protocol: an appender
//! that finds both buffers of a bin out applies queued full buffers itself
//! (the help path of `BinSpace::append_batch`), alone or racing a gather
//! thread, and the gather exclusivity lock holds under every schedule the
//! bounded explorer can reach.
//!
//! Run with:
//! `RUSTFLAGS="--cfg loom" cargo test -p blaze-binning --test loom_bin --release`
#![cfg(loom)]

use blaze_binning::{Bin, BinRecord, BinSpace, BinningConfig};
use blaze_sync::model::{check_with, Config};
use blaze_sync::{thread, Arc, Condvar, Mutex};
use std::cell::UnsafeCell;

fn cfg(preemption_bound: usize) -> Config {
    Config {
        preemption_bound,
        ..Config::default()
    }
}

fn rec(v: u32) -> BinRecord<u32> {
    BinRecord::new(v, v)
}

/// One bin of two one-record buffers.
fn capacity_one_space() -> Arc<BinSpace<u32>> {
    Arc::new(BinSpace::new(BinningConfig::new(1, 16, 1).unwrap()))
}

/// Appends records 0, 1 and 2 one at a time, applying full buffers into
/// `applied` whenever an append stalls.
fn append_three(space: &BinSpace<u32>, applied: &Mutex<Vec<u32>>) {
    let mut gather = |_: usize, records: &[BinRecord<u32>]| {
        applied.lock().extend(records.iter().map(|r| r.value));
    };
    for v in 0..3 {
        space.append_batch(0, &[rec(v)], Some(&mut gather));
    }
}

/// Flushes what is still in the bin, applies every queued buffer, and
/// checks that each record was applied exactly once.
fn drain_and_check(space: &BinSpace<u32>, applied: &Mutex<Vec<u32>>) {
    space.flush_partials();
    while space.process_one_full(|_, records| {
        applied.lock().extend(records.iter().map(|r| r.value));
    }) {}
    let mut got = applied.lock().clone();
    got.sort_unstable();
    assert_eq!(got, vec![0, 1, 2], "records lost or duplicated");
    assert!(space.full_queue_is_empty());
}

/// Three records through a capacity-1 bin, whose pair holds two. First with
/// no other thread: the third append finds both buffers out and can finish
/// only by applying a queued buffer itself. Then with a gather thread
/// racing the appender for the queued buffers, so the appender sometimes
/// finds nothing queued (gather holds the buffer it waits for) and backs
/// off. In every schedule each record is applied exactly once and nothing
/// deadlocks.
#[test]
fn swap_protocol_conserves_records_under_backpressure() {
    let report = check_with(cfg(2), || {
        let space = capacity_one_space();
        let applied = Mutex::new(Vec::new());
        append_three(&space, &applied);
        assert!(!applied.lock().is_empty(), "the appender applied nothing");
        drain_and_check(&space, &applied);

        let space = capacity_one_space();
        let applied = Arc::new(Mutex::new(Vec::new()));
        let gather = {
            let (space, applied) = (space.clone(), applied.clone());
            thread::spawn(move || {
                for _ in 0..2 {
                    space.process_one_full(|_, records| {
                        applied.lock().extend(records.iter().map(|r| r.value));
                    });
                }
            })
        };
        append_three(&space, &applied);
        gather.join().unwrap();
        drain_and_check(&space, &applied);
    });
    assert!(report.executions > 1, "explored only one schedule");
}

/// `drain_partial` racing a concurrent append: every interleaving must
/// conserve the records between the drained buffer and the active buffer.
#[test]
fn drain_partial_races_append() {
    check_with(cfg(2), || {
        let bin = Arc::new(Bin::<u32>::new(2));
        let appender = {
            let bin = bin.clone();
            thread::spawn(move || {
                bin.append_batch(&[rec(7)], |_| unreachable!("capacity 2 cannot fill"));
            })
        };
        let drained = bin.drain_partial().map(|b| b.len()).unwrap_or(0);
        appender.join().unwrap();
        let rest = bin.drain_partial().map(|b| b.len()).unwrap_or(0);
        assert_eq!(drained + rest, 1, "record lost or duplicated by drain race");
    });
}

/// A non-atomic canary protected only by `lock_for_gather`. The model plants
/// a scheduling point between the canary's read and write; exclusivity of
/// the gather lock must make the read-modify-write atomic anyway.
struct Canary(UnsafeCell<u64>);
// SAFETY: all access to the cell is serialized either by the bin's gather
// lock (positive test) or deliberately unsynchronized (negative test, where
// the checker is expected to report the race-induced lost update).
unsafe impl Sync for Canary {}
impl Canary {
    fn bump_with_yield(&self) {
        // SAFETY: see the `Sync` impl — the surrounding test provides (or
        // deliberately withholds) the exclusion.
        let v = unsafe { *self.0.get() };
        thread::yield_now();
        // SAFETY: as above.
        unsafe { *self.0.get() = v + 1 };
    }
    fn read(&self) -> u64 {
        // SAFETY: called only after every writer has been joined.
        unsafe { *self.0.get() }
    }
}

/// Two gather threads bump the canary under `lock_for_gather`: no schedule
/// may lose an increment.
#[test]
fn gather_lock_makes_canary_updates_atomic() {
    let report = check_with(cfg(2), || {
        let bin = Arc::new(Bin::<u32>::new(4));
        let canary = Arc::new(Canary(UnsafeCell::new(0)));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (bin, canary) = (bin.clone(), canary.clone());
                thread::spawn(move || {
                    let _guard = bin.lock_for_gather();
                    canary.bump_with_yield();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(canary.read(), 2, "gather exclusivity violated");
    });
    assert!(report.executions > 1, "explored only one schedule");
}

/// The same canary WITHOUT the gather lock: the checker must find the
/// double-count. This proves the previous test actually depends on the lock
/// (a regression that drops `lock_for_gather` would be caught).
#[test]
fn canary_without_gather_lock_is_caught() {
    let result = std::panic::catch_unwind(|| {
        check_with(cfg(2), || {
            let canary = Arc::new(Canary(UnsafeCell::new(0)));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let canary = canary.clone();
                    thread::spawn(move || canary.bump_with_yield())
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(canary.read(), 2);
        });
    });
    assert!(result.is_err(), "checker missed the unlocked canary race");
}

/// `return_buffer` when the spare slot is already occupied (possible after a
/// `drain_partial` that had to allocate a third buffer) must drop the extra
/// buffer rather than corrupt the pair.
#[test]
fn extra_buffer_from_drain_is_dropped_cleanly() {
    check_with(cfg(2), || {
        let bin = Arc::new(Bin::<u32>::new(1));
        let chan = Arc::new((Mutex::new(Vec::new()), Condvar::new()));
        let scatter = {
            let (bin, chan) = (bin.clone(), chan.clone());
            thread::spawn(move || {
                bin.append_batch(&[rec(1), rec(2)], |full| {
                    chan.0.lock().push(full);
                    chan.1.notify_all();
                });
            })
        };
        // Exactly one full hand-off (two records, capacity 1, second stays
        // active): block for it, and race a drain against the tail append.
        let full = {
            let mut q = chan.0.lock();
            loop {
                if let Some(full) = q.pop() {
                    break full;
                }
                chan.1.wait(&mut q);
            }
        };
        let mut total = full.len();
        let drained = bin.drain_partial();
        bin.return_buffer(full);
        if let Some(buf) = drained {
            total += buf.len();
            // In schedules where the spare slot is already occupied this is
            // the transient third buffer; `return_buffer` must drop it.
            bin.return_buffer(buf);
        }
        scatter.join().unwrap();
        total += bin.drain_partial().map(|b| b.len()).unwrap_or(0);
        assert_eq!(total, 2, "records lost across drain/return race");
    });
}
