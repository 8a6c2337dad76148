//! Model-checked tests of the gather-affinity full-bin queues: two gather
//! workers racing `process_one_full_for` over the per-worker queues, with
//! home-queue preference and work stealing, under every schedule the
//! bounded explorer can reach.
//!
//! Run with:
//! `RUSTFLAGS="--cfg loom" cargo test -p blaze-binning --test loom_gather --release`
#![cfg(loom)]

use blaze_binning::{no_gather, BinRecord, BinSpace, BinningConfig};
use blaze_sync::model::{check_with, Config};
use blaze_sync::{thread, Arc, Mutex};

fn cfg(preemption_bound: usize) -> Config {
    Config {
        preemption_bound,
        ..Config::default()
    }
}

/// A two-queue space with one record staged in each of `bins` bins, flushed
/// so every bin sits in its affinity queue (`bin_id % 2`).
fn space_with_bins(bins: usize) -> Arc<BinSpace<u32>> {
    let config = BinningConfig::new(bins, 1 << 16, 4).unwrap();
    let space = Arc::new(BinSpace::<u32>::for_vertices(config, bins, 2));
    for b in 0..bins {
        space.append_batch(b, &[BinRecord::new(b as u32, b as u32)], no_gather());
    }
    space.flush_partials();
    space
}

/// Two gather workers drain a four-bin space concurrently. No schedule may
/// process a record twice, lose one, or leave a queue non-empty after both
/// workers observe exhaustion.
#[test]
fn racing_workers_process_each_bin_exactly_once() {
    let report = check_with(cfg(2), || {
        let space = space_with_bins(4);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let workers: Vec<_> = (0..2)
            .map(|id| {
                let (space, seen) = (space.clone(), seen.clone());
                thread::spawn(move || {
                    while space.process_one_full_for(id, |bin, records| {
                        let mut s = seen.lock();
                        for r in records {
                            s.push((bin, r.value));
                        }
                    }) {}
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let mut seen = Arc::try_unwrap(seen).unwrap().into_inner();
        seen.sort_unstable();
        assert_eq!(
            seen,
            vec![(0, 0), (1, 1), (2, 2), (3, 3)],
            "records lost or duplicated across racing gather workers"
        );
        assert!(space.full_queue_is_empty());
    });
    assert!(report.executions > 1, "explored only one schedule");
}

/// A worker whose home queue is empty must steal from the other queue: one
/// record lands in queue 1 (bin 1 of 2), and worker 0 — racing worker 1 for
/// it — must never let it strand. Exactly one of the two processes it.
#[test]
fn idle_worker_steals_from_the_other_queue() {
    let report = check_with(cfg(2), || {
        let config = BinningConfig::new(2, 1 << 16, 4).unwrap();
        let space = Arc::new(BinSpace::<u32>::for_vertices(config, 8, 2));
        space.append_batch(1, &[BinRecord::new(7, 7)], no_gather());
        space.flush_partials();
        let processed = Arc::new(Mutex::new(0usize));
        let workers: Vec<_> = (0..2)
            .map(|id| {
                let (space, processed) = (space.clone(), processed.clone());
                thread::spawn(move || {
                    while space.process_one_full_for(id, |bin, records| {
                        assert_eq!(bin, 1);
                        assert_eq!(records.len(), 1);
                        *processed.lock() += 1;
                    }) {}
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(
            *processed.lock(),
            1,
            "the lone full bin must be processed exactly once"
        );
        assert!(space.full_queue_is_empty());
    });
    assert!(report.executions > 1, "explored only one schedule");
}
