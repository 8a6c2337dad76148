//! Model-checked tests of the frontier bitmap's lock-free set/test paths.
//! The real code uses `Relaxed` `fetch_or`/`load`; the model executes
//! atomics sequentially-consistently, so what these tests prove is the
//! *atomicity* of the read-modify-write (no lost bits, exactly-once claim
//! semantics) under every interleaving — the ordering side is covered by
//! the `// sync-audit:` annotations and the xtask lint.
//!
//! Run with:
//! `RUSTFLAGS="--cfg loom" cargo test -p blaze-frontier --test loom_bitmap --release`
#![cfg(loom)]

use blaze_frontier::AtomicBitmap;
use blaze_sync::model::{check_with, Config};
use blaze_sync::{thread, Arc};

fn cfg(preemption_bound: usize) -> Config {
    Config {
        preemption_bound,
        ..Config::default()
    }
}

/// Two threads set different bits of the SAME word: the `fetch_or` must not
/// lose either bit (a load/store implementation would, and the checker
/// would find the schedule).
#[test]
fn concurrent_sets_in_one_word_never_lose_bits() {
    let report = check_with(cfg(2), || {
        let bm = Arc::new(AtomicBitmap::new(64));
        let handles: Vec<_> = [3usize, 17]
            .into_iter()
            .map(|bit| {
                let bm = bm.clone();
                thread::spawn(move || bm.set(bit))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(bm.get(3) && bm.get(17), "a concurrent set was lost");
        assert_eq!(bm.count_ones(), 2);
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![3, 17]);
    });
    assert!(report.executions > 1, "explored only one schedule");
}

/// Three threads race to claim the SAME bit: exactly one must win (`set`
/// returning `true`), in every schedule — the exactly-once frontier
/// insertion the engine relies on to avoid duplicate vertex activations.
/// Three claimants reach the schedules where one returns on its plain
/// test-before-claim load while the other two race the `fetch_or`.
#[test]
fn racing_claims_of_one_bit_have_exactly_one_winner() {
    let report = check_with(cfg(2), || {
        let bm = Arc::new(AtomicBitmap::new(8));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let bm = bm.clone();
                thread::spawn(move || bm.set(5))
            })
            .collect();
        let wins = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|won| *won)
            .count();
        assert_eq!(wins, 1, "bit claimed zero or several times");
        assert!(bm.get(5));
    });
    assert!(report.executions > 1, "explored only one schedule");
}

/// A set bit is visible to a reader that joined the setter (the hand-off
/// the engine performs between scatter rounds).
#[test]
fn set_is_visible_after_join() {
    check_with(cfg(2), || {
        let bm = Arc::new(AtomicBitmap::new(8));
        let setter = {
            let bm = bm.clone();
            thread::spawn(move || {
                assert!(bm.set(2), "fresh bit must be newly set");
            })
        };
        setter.join().unwrap();
        assert!(bm.get(2));
        assert_eq!(bm.count_ones(), 1);
    });
}

/// Concurrent sets racing a reader: the reader may observe any prefix of
/// the sets, but never a torn word (a bit that was neither 0 nor the set
/// value) — expressed here as: every observed one-bit must be one that some
/// thread actually set.
#[test]
fn reader_never_observes_phantom_bits() {
    check_with(cfg(2), || {
        let bm = Arc::new(AtomicBitmap::new(64));
        let writers: Vec<_> = [1usize, 33]
            .into_iter()
            .map(|bit| {
                let bm = bm.clone();
                thread::spawn(move || bm.set(bit))
            })
            .collect();
        let seen: Vec<usize> = bm.iter_ones().collect();
        for bit in &seen {
            assert!([1, 33].contains(bit), "phantom bit {bit} observed");
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![1, 33]);
    });
}
