//! The synchronization facade of the Blaze workspace.
//!
//! Every concurrent crate (`blaze-binning`, `blaze-core`, `blaze-frontier`,
//! `blaze-storage`, `blaze-baselines`) imports its
//! synchronization primitives — mutexes, condition variables, atomics,
//! threads, and the MPMC queues of the IO/scatter/gather pipeline —
//! exclusively through this crate. The `cargo xtask lint` gate enforces this
//! (direct `std::sync`/`parking_lot`/`crossbeam` imports are rejected
//! outside this crate).
//!
//! Two backends sit behind the facade:
//!
//! * **Normally** the types are thin wrappers over `std::sync` with a
//!   `parking_lot`-flavoured API (`lock()` returns a guard directly; a
//!   poisoned lock propagates the original panic instead of layering a
//!   `PoisonError` on top).
//! * **Under `--cfg loom`** the same names resolve to the `model`
//!   module's cooperatively-scheduled implementations, and
//!   `model::check` explores thread interleavings of a test body
//!   exhaustively (up to a preemption bound, in the style of CHESS /
//!   loom). This is what the `loom_*` integration tests of `blaze-binning`
//!   and `blaze-core` run under:
//!
//!   ```text
//!   RUSTFLAGS="--cfg loom" cargo test -p blaze-binning --test loom_bin --release
//!   ```
//!
//! The model checker is vendored here (the build environment is offline and
//! cannot fetch the real `loom` crate); see `model` for its semantics and
//! the fidelity caveats — in particular, modeled atomics are sequentially
//! consistent, so `Ordering` *choice* bugs are covered by the
//! `// sync-audit:` lint discipline rather than by exploration.

pub mod backoff;
#[cfg(loom)]
pub mod model;
pub mod queue;

#[cfg(not(loom))]
mod std_impl;

pub use backoff::Backoff;

/// Atomic integer and boolean types plus memory-ordering tokens.
pub mod atomic {
    #[cfg(not(loom))]
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };

    #[cfg(loom)]
    pub use crate::model::atomic::{
        fence, AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
    };
    #[cfg(loom)]
    pub use std::sync::atomic::Ordering;
}

/// Thread spawning, scoped threads, and yielding.
pub mod thread {
    #[cfg(not(loom))]
    pub use std::thread::{scope, sleep, spawn, yield_now, JoinHandle, Scope, ScopedJoinHandle};

    #[cfg(loom)]
    pub use crate::model::thread::{scope, spawn, yield_now, JoinHandle, Scope, ScopedJoinHandle};
}

#[cfg(not(loom))]
pub use std_impl::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(loom)]
pub use model::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Atomically reference-counted shared pointer.
///
/// Both backends use `std::sync::Arc`: the model checker serializes thread
/// execution, so `Arc`'s internal counters cannot race and need no modeling.
pub use std::sync::Arc;

/// Panic capture that cooperates with the model checker.
pub mod panic {
    use std::any::Any;

    pub use std::panic::resume_unwind;

    /// Catches a panic from `f`, like [`std::panic::catch_unwind`] with
    /// `AssertUnwindSafe` applied (callers isolate panics across an
    /// explicit protocol boundary, e.g. a worker containing a job's panic,
    /// so unwind-safety is their responsibility).
    ///
    /// Under `--cfg loom` there is one crucial difference: the model
    /// scheduler unwinds the threads of an aborted execution with an
    /// internal sentinel payload, and capturing that payload would swallow
    /// the checker's control flow. Such payloads are re-thrown here instead
    /// of returned. Long-lived model threads that catch panics MUST use
    /// this function rather than `std::panic::catch_unwind`.
    pub fn catch_unwind<R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn Any + Send + 'static>> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(value) => Ok(value),
            Err(payload) => {
                #[cfg(loom)]
                if crate::model::is_abort_payload(payload.as_ref()) {
                    std::panic::resume_unwind(payload);
                }
                Err(payload)
            }
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn mutex_locks_and_unlocks() {
        let m = Mutex::new(5);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn mutex_try_lock_contended() {
        let m = Mutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn mutex_into_inner() {
        let m = Mutex::new(vec![1, 2]);
        assert_eq!(m.into_inner(), vec![1, 2]);
    }

    #[test]
    fn rwlock_shared_and_exclusive() {
        let l = RwLock::new(7);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1 + *r2, 14);
        }
        *l.write() += 1;
        assert_eq!(*l.read(), 8);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let t = thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut started = lock.lock();
            *started = true;
            cv.notify_all();
        });
        let (lock, cv) = &*pair;
        let mut started = lock.lock();
        while !*started {
            cv.wait(&mut started);
        }
        t.join().unwrap();
        assert!(*started);
    }

    #[test]
    fn lock_survives_peer_panic() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let r = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert!(r.is_err());
        // parking_lot semantics: the lock is usable after a panicking holder.
        assert_eq!(*m.lock(), 0);
    }
}
