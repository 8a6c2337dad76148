//! Model-checked tests of the scatter → `full_bins` → gather pipeline
//! hand-off the engine drives: scatter threads append records through the
//! bin space (per-bin swap + MPMC full queue) while a gather loop drains,
//! processes under the per-bin gather lock, and recycles buffers; the
//! end-of-iteration `flush_partials` pushes the stragglers.
//!
//! Run with:
//! `RUSTFLAGS="--cfg loom" cargo test -p blaze-core --test loom_pipeline --release`
#![cfg(loom)]

use blaze_binning::{no_gather, BinRecord, BinSpace, BinningConfig};
use blaze_sync::{thread, Arc, Condvar, Mutex};

use blaze_sync::model::{check_with, Config};

fn cfg(preemption_bound: usize) -> Config {
    Config {
        preemption_bound,
        ..Config::default()
    }
}

/// Two bins, one-record buffers: the smallest space that still exercises
/// the swap + queue machinery.
fn tiny_space() -> BinSpace<u32> {
    BinSpace::new(BinningConfig::new(2, 1, 1).unwrap())
}

/// Drains every currently-queued full bin into `out`.
fn drain(space: &BinSpace<u32>, out: &mut Vec<u32>) {
    while space.process_one_full(|_, records| out.extend(records.iter().map(|r| r.value))) {}
}

/// One scatter thread feeds the space while the gather loop (main thread)
/// concurrently drains, then flushes partials once scatter signals done.
/// Every schedule must deliver each record exactly once.
#[test]
fn scatter_gather_handoff_conserves_records() {
    let report = check_with(cfg(2), || {
        let space = Arc::new(tiny_space());
        let done = Arc::new((Mutex::new(false), Condvar::new()));

        let scatter = {
            let (space, done) = (space.clone(), done.clone());
            thread::spawn(move || {
                for r in 0..4u32 {
                    space.append_batch(space.bin_of(r), &[BinRecord::new(r, r)], no_gather());
                }
                *done.0.lock() = true;
                done.1.notify_all();
            })
        };

        // Gather loop: drain whatever is queued, then sleep until the
        // scatter side signals completion (no spinning — the model explores
        // every wakeup order).
        let mut got = Vec::new();
        loop {
            drain(&space, &mut got);
            let mut d = done.0.lock();
            if *d {
                break;
            }
            done.1.wait(&mut d);
        }
        scatter.join().unwrap();

        // End-of-iteration flush pushes the partially-filled buffers.
        space.flush_partials();
        drain(&space, &mut got);

        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3], "pipeline lost or duplicated records");
        assert!(space.full_queue_is_empty());
        assert_eq!(space.total_records(), 4);
    });
    assert!(report.executions > 1, "explored only one schedule");
}

/// Two scatter threads race on the same bins (append-lock contention plus
/// concurrent MPMC pushes) while the main thread gathers.
#[test]
fn racing_scatter_threads_conserve_records() {
    let report = check_with(cfg(2), || {
        let space = Arc::new(tiny_space());
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));

        let spawn_scatter = |records: [u32; 2]| {
            let (space, done) = (space.clone(), done.clone());
            thread::spawn(move || {
                for r in records {
                    space.append_batch(space.bin_of(r), &[BinRecord::new(r, r)], no_gather());
                }
                *done.0.lock() += 1;
                done.1.notify_all();
            })
        };
        // Both threads hit bin 0 and bin 1 (r % 2 routing) — real contention
        // on the same append locks.
        let a = spawn_scatter([0, 1]);
        let b = spawn_scatter([2, 3]);

        let mut got = Vec::new();
        loop {
            drain(&space, &mut got);
            let mut d = done.0.lock();
            if *d == 2 {
                break;
            }
            done.1.wait(&mut d);
        }
        a.join().unwrap();
        b.join().unwrap();

        space.flush_partials();
        drain(&space, &mut got);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3], "racing scatters lost a record");
    });
    assert!(report.executions > 1, "explored only one schedule");
}

/// The engine's actual thread topology in miniature: scoped scatter workers
/// borrowing the space from the driver's stack (as `BlazeEngine` does), with
/// the gather drain after the scope joins.
#[test]
fn scoped_scatter_workers_like_engine() {
    check_with(cfg(2), || {
        let space = tiny_space();
        thread::scope(|s| {
            for base in [0u32, 2] {
                let space = &space;
                s.spawn(move || {
                    for r in [base, base + 1] {
                        space.append_batch(space.bin_of(r), &[BinRecord::new(r, r)], no_gather());
                    }
                });
            }
        });
        space.flush_partials();
        let mut got = Vec::new();
        drain(&space, &mut got);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    });
}

/// Per-bin record accounting (`records_per_bin` relaxed counters) must agree
/// with what gather actually observes, in every schedule.
#[test]
fn record_counters_match_gathered_totals() {
    check_with(cfg(2), || {
        let space = Arc::new(tiny_space());
        let handles: Vec<_> = [0u32, 1]
            .into_iter()
            .map(|r| {
                let space = space.clone();
                thread::spawn(move || {
                    space.append_batch(space.bin_of(r), &[BinRecord::new(r, r)], no_gather());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        space.flush_partials();
        let mut got = Vec::new();
        drain(&space, &mut got);
        assert_eq!(space.total_records() as usize, got.len());
        let counts = space.take_record_counts();
        assert_eq!(counts.iter().sum::<u64>(), 2);
        assert_eq!(space.total_records(), 0, "take_record_counts must reset");
    });
}
