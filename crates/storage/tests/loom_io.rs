//! Model-checked tests of the threaded IO backend's submission/completion
//! protocol, under every interleaving the model explores. The model cannot
//! see time, so the tests put the device in hand-off mode through the
//! backend's `force_mode` seam, as its detector would after enough slow
//! reads:
//!
//! * two in-flight requests complete in either order, each exactly once,
//!   with the bytes of its own request — reordering never loses or
//!   duplicates a completion;
//! * `submit` back-pressures at `queue_depth`: a second submit into a
//!   depth-1 window blocks until the first request leaves the queue, and
//!   the model terminates (no deadlock) with both requests completed;
//! * when the device fails, every submitted request still produces exactly
//!   one completion carrying its buffer — the error path drains rather
//!   than leaking;
//! * requests read inline and a request handed to a helper are in flight
//!   together across both mode switches: each completes exactly once, and
//!   dropping the backend joins the lazily started, parked helpers.
//!
//! Run with:
//! `RUSTFLAGS="--cfg loom" cargo test -p blaze-storage --test loom_io --release`
#![cfg(loom)]

use blaze_storage::{
    BlockDevice, FaultyDevice, IoBackend, IoBuffer, IoRequest, MemDevice, StripedStorage,
    ThreadedBackend,
};
use blaze_sync::model::{check_with, Config};
use blaze_sync::{thread, Arc};
use blaze_types::PAGE_SIZE;

fn cfg(preemption_bound: usize) -> Config {
    Config {
        preemption_bound,
        ..Config::default()
    }
}

/// One-device storage with `pages` pages, each filled with its page id.
fn storage(pages: u64) -> Arc<StripedStorage> {
    let s = Arc::new(StripedStorage::in_memory(1).unwrap());
    for p in 0..pages {
        s.write_page(p, &vec![p as u8; PAGE_SIZE]).unwrap();
    }
    s
}

/// A backend whose device 0 hands every read to the helpers.
fn deep_backend(storage: Arc<StripedStorage>, queue_depth: usize) -> ThreadedBackend {
    let backend = ThreadedBackend::new(storage, queue_depth);
    backend.force_mode(0, true);
    backend
}

fn req(page: u64) -> IoRequest {
    IoRequest {
        first_page: page,
        num_pages: 1,
    }
}

/// Two requests in flight at depth 2: whatever order the helper pool
/// serves them, the pump reaps both exactly once and each completion
/// carries its own page's bytes.
#[test]
fn completions_reorder_but_never_lose_or_duplicate() {
    let report = check_with(cfg(2), || {
        let backend = deep_backend(storage(2), 2);
        backend.submit(0, req(0), IoBuffer::new(), 0);
        backend.submit(0, req(1), IoBuffer::new(), 1);
        let mut seen = [false; 2];
        for _ in 0..2 {
            let c = backend.reap(0);
            c.result.unwrap();
            let tag = c.tag as usize;
            assert!(!seen[tag], "tag {tag} completed twice");
            seen[tag] = true;
            assert_eq!(c.request.first_page, c.tag);
            assert!(
                c.buffer.pages(1).iter().all(|&b| b == c.tag as u8),
                "completion {tag} carries another request's bytes"
            );
        }
        assert!(seen[0] && seen[1]);
        assert!(backend.try_reap(0).is_none(), "stray completion");
    });
    assert!(report.executions > 1, "expected multiple interleavings");
}

/// A depth-1 window admits one request at a time: the second `submit`
/// back-pressures until a helper drains the queue. The model proves
/// the blocking handshake terminates under every schedule.
#[test]
fn submit_backpressures_at_queue_depth() {
    let report = check_with(cfg(2), || {
        let backend = Arc::new(deep_backend(storage(2), 1));
        let pump = {
            let backend = backend.clone();
            thread::spawn(move || {
                backend.submit(0, req(0), IoBuffer::new(), 0);
                // Only admitted once request 0 left the one-slot queue.
                backend.submit(0, req(1), IoBuffer::new(), 1);
                let a = backend.reap(0);
                let b = backend.reap(0);
                assert_eq!(
                    {
                        let mut tags = [a.tag, b.tag];
                        tags.sort_unstable();
                        tags
                    },
                    [0, 1]
                );
                a.result.unwrap();
                b.result.unwrap();
            })
        };
        pump.join().unwrap();
    });
    assert!(report.executions > 1, "expected multiple interleavings");
}

/// Every submission against a failing device still produces exactly one
/// completion, error inside, buffer attached: the drain-on-error path
/// cannot leak a buffer or wedge the reaper.
#[test]
fn errors_drain_with_their_buffers() {
    let report = check_with(cfg(2), || {
        let dev: Arc<dyn BlockDevice> = Arc::new(FaultyDevice::fail_every(
            MemDevice::with_len(4 * PAGE_SIZE),
            1,
        ));
        let s = Arc::new(StripedStorage::new(vec![dev]).unwrap());
        let backend = deep_backend(s, 2);
        backend.submit(0, req(0), IoBuffer::new(), 0);
        backend.submit(0, req(1), IoBuffer::new(), 1);
        let mut buffers = 0;
        for _ in 0..2 {
            let c = backend.reap(0);
            assert!(c.result.is_err(), "every read is injected to fail");
            buffers += usize::from(c.buffer.capacity_pages() > 0);
        }
        assert_eq!(buffers, 2, "both buffers came back with their errors");
        assert!(backend.try_reap(0).is_none());
    });
    assert!(report.executions > 1, "expected multiple interleavings");
}

/// The device turns out slow and then fast again while requests are out:
/// request 0 was read inline and waits in the lane, request 1 is the first
/// hand-off (which starts the helpers), request 2 is read inline again
/// while 1 may still be with a helper. All three are reaped exactly once
/// with their own bytes, and dropping the backend joins helpers that are
/// parked with nothing to do.
#[test]
fn inline_and_handed_off_requests_cross_the_mode_switch() {
    let report = check_with(cfg(2), || {
        let backend = ThreadedBackend::new(storage(3), 3);
        backend.submit(0, req(0), IoBuffer::new(), 0);
        backend.force_mode(0, true);
        backend.submit(0, req(1), IoBuffer::new(), 1);
        backend.force_mode(0, false);
        backend.submit(0, req(2), IoBuffer::new(), 2);
        let mut seen = [false; 3];
        for _ in 0..3 {
            let c = backend.reap(0);
            c.result.unwrap();
            let tag = c.tag as usize;
            assert!(!seen[tag], "tag {tag} completed twice");
            seen[tag] = true;
            assert!(
                c.buffer.pages(1).iter().all(|&b| b == c.tag as u8),
                "completion {tag} carries another request's bytes"
            );
        }
        assert_eq!(seen, [true; 3]);
        assert!(backend.try_reap(0).is_none(), "stray completion");
        drop(backend);
    });
    assert!(report.executions > 1, "expected multiple interleavings");
}
