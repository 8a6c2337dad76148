//! Submission/completion IO backends.
//!
//! The paper keeps its SSDs saturated by issuing *asynchronous* reads from
//! one IO thread per device (libaio, Section IV-C). This module is the
//! reproduction's equivalent: the engine's per-device IO worker no longer
//! blocks on each merged request but pumps a submission queue / completion
//! queue pair behind the [`IoBackend`] trait, keeping up to `queue_depth`
//! requests in flight per device.
//!
//! Two backends ship here:
//!
//! * [`SyncBackend`] — depth-1 reads performed synchronously on the
//!   submitting thread, in submission order. This is the default and its
//!   device traffic is byte-for-byte identical to the pre-queue engine: the
//!   same [`StripedStorage::read_local_run`] calls in the same order.
//! * [`ThreadedBackend`] — a small per-device submitter pool that drains a
//!   bounded submission queue and delivers completions out of order,
//!   issuing reads through the queue-depth-aware
//!   [`read_local_run_at_depth`](StripedStorage::read_local_run_at_depth)
//!   path so modeled devices overlap request latency across the in-flight
//!   window.
//!
//! Back-pressure is structural: `submit` blocks once `queue_depth` requests
//! are in flight on a device, so a backend can never be buried, and every
//! submitted buffer comes back exactly once through a [`Completion`] —
//! including on error, which is what lets the engine drain cleanly and
//! return its buffers to the pool when a device fails mid-job.

use std::collections::VecDeque;
use std::time::Instant;

use blaze_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use blaze_sync::queue::{ArrayQueue, SegQueue};
use blaze_sync::{thread, Arc, Backoff, Condvar, Mutex};

use blaze_types::{CachePadded, DeviceId, Result};

use crate::buffer::IoBuffer;
use crate::request::IoRequest;
use crate::stripe::StripedStorage;

/// Which IO backend an engine should construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoBackendKind {
    /// Depth-1 blocking reads on the submitting thread (the default;
    /// byte-for-byte the published engine's device traffic).
    #[default]
    Sync,
    /// Per-device submitter pool keeping up to the configured queue depth
    /// in flight, completions out of order.
    Threaded,
}

impl IoBackendKind {
    /// Builds the backend over `storage` with the given per-device queue
    /// depth (clamped to ≥ 1; [`Sync`](Self::Sync) is always depth 1).
    pub fn build(self, storage: Arc<StripedStorage>, queue_depth: usize) -> Arc<dyn IoBackend> {
        match self {
            IoBackendKind::Sync => Arc::new(SyncBackend::new(storage)),
            IoBackendKind::Threaded => Arc::new(ThreadedBackend::new(storage, queue_depth)),
        }
    }
}

/// One finished request coming back out of a backend's completion queue.
#[derive(Debug)]
pub struct Completion {
    /// The caller's tag, echoed back verbatim.
    pub tag: u64,
    /// The request this completion answers.
    pub request: IoRequest,
    /// The buffer the request was submitted with; on success its first
    /// `request.num_pages` pages hold the data.
    pub buffer: IoBuffer,
    /// Whether the read succeeded.
    pub result: Result<()>,
    /// Wall-clock service time of the request, submission to completion,
    /// in nanoseconds.
    pub service_ns: u64,
}

/// A per-device submission-queue / completion-queue IO engine.
///
/// The engine's contract with a backend:
///
/// * `submit` hands over a request plus the buffer to fill. It may block
///   (back-pressure) but never fails; ownership of the buffer transfers to
///   the backend until the matching [`Completion`] is reaped.
/// * Every submitted request produces exactly one completion on the same
///   device — success or error — so submitted buffers are never lost.
/// * Completions may arrive in any order; `tag` and `request` identify them.
/// * One thread pumps each device (the engine's per-device IO worker), so
///   implementations may assume per-device submit/reap calls are not
///   concurrent with each other — but different devices run in parallel.
pub trait IoBackend: Send + Sync {
    /// The in-flight window per device the backend was configured with.
    /// Callers must not exceed it between submits and reaps.
    fn queue_depth(&self) -> usize;

    /// Submits one read request against `device`; `buffer` must hold at
    /// least `request.num_pages` pages.
    fn submit(&self, device: DeviceId, request: IoRequest, buffer: IoBuffer, tag: u64);

    /// Takes one completion for `device` if one is ready.
    fn try_reap(&self, device: DeviceId) -> Option<Completion>;

    /// Takes the next completion for `device`, backing off (spin → yield)
    /// until one arrives. Only valid while a request is in flight, which
    /// the engine's submit/reap accounting guarantees.
    fn reap(&self, device: DeviceId) -> Completion {
        let backoff = Backoff::new();
        loop {
            if let Some(completion) = self.try_reap(device) {
                return completion;
            }
            backoff.snooze();
        }
    }
}

/// The depth-1 backend: `submit` performs the read synchronously on the
/// calling thread via [`StripedStorage::read_local_run`] and parks the
/// completion for the immediately following reap.
///
/// Because the read happens inline, in submission order, through the same
/// storage entry point as the pre-queue engine, the device request stream
/// is byte-for-byte identical to the published IO path — this is what makes
/// it the safe default.
pub struct SyncBackend {
    storage: Arc<StripedStorage>,
    /// Per-device parked completions. A `Mutex<VecDeque>` rather than a
    /// lock-free queue: with depth 1 there is never contention, the lock is
    /// only a container.
    done: Vec<CachePadded<Mutex<VecDeque<Completion>>>>,
}

impl SyncBackend {
    /// Creates the backend over `storage`.
    pub fn new(storage: Arc<StripedStorage>) -> Self {
        let done = (0..storage.num_devices())
            .map(|_| CachePadded::new(Mutex::new(VecDeque::new())))
            .collect();
        Self { storage, done }
    }
}

impl IoBackend for SyncBackend {
    fn queue_depth(&self) -> usize {
        1
    }

    fn submit(&self, device: DeviceId, request: IoRequest, mut buffer: IoBuffer, tag: u64) {
        let t0 = Instant::now();
        let n = request.num_pages as usize;
        let result = self
            .storage
            .read_local_run(device, request.first_page, buffer.pages_mut(n));
        self.done[device].lock().push_back(Completion {
            tag,
            request,
            buffer,
            result,
            service_ns: t0.elapsed().as_nanos() as u64,
        });
    }

    fn try_reap(&self, device: DeviceId) -> Option<Completion> {
        self.done[device].lock().pop_front()
    }
}

impl std::fmt::Debug for SyncBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncBackend")
            .field("num_devices", &self.done.len())
            .finish()
    }
}

/// One request travelling through a [`ThreadedBackend`] submission queue.
struct Inflight {
    request: IoRequest,
    buffer: IoBuffer,
    tag: u64,
    /// In-flight depth on the device at submission time (including this
    /// request), recorded by the submitting engine thread so the modeled
    /// service time does not depend on submitter-thread scheduling.
    depth: u32,
    submitted: Instant,
}

/// SQ/CQ pair of one device inside a [`ThreadedBackend`].
struct DeviceChannel {
    /// Bounded submission queue; its capacity *is* the queue depth, so a
    /// full queue blocks `submit` — structural back-pressure.
    sq: ArrayQueue<Inflight>,
    /// Unbounded completion queue (never holds more than `queue_depth`
    /// entries, by the submit/reap contract).
    cq: SegQueue<Completion>,
    /// Requests submitted but not yet reaped, maintained by the single
    /// engine thread pumping this device.
    occupancy: AtomicU64,
    /// Doorbell for the three blocking waits below. It guards no data —
    /// the queues are their own state — it only makes "check the queue,
    /// then sleep" atomic against the matching wakeup: a waiter re-checks
    /// its queue while holding the doorbell, and every signaller takes the
    /// doorbell (empty critical section) before notifying, so a push/pop
    /// racing the check either is seen by it or notifies after the wait
    /// began.
    doorbell: Mutex<()>,
    /// Signalled after each SQ push: work for an idle submitter.
    sq_pushed: Condvar,
    /// Signalled after each SQ pop: room for a back-pressured `submit`.
    sq_popped: Condvar,
    /// Signalled after each CQ push: a completion for a blocked `reap`.
    cq_pushed: Condvar,
}

impl DeviceChannel {
    /// Rings `cv` after a queue transition (see `doorbell`).
    fn ring(&self, cv: &Condvar) {
        drop(self.doorbell.lock());
        cv.notify_all();
    }
}

struct ThreadedShared {
    storage: Arc<StripedStorage>,
    channels: Vec<CachePadded<DeviceChannel>>,
    shutdown: AtomicBool,
}

impl ThreadedShared {
    /// One submitter thread's loop: drain the device's SQ until shutdown.
    fn run_submitter(&self, device: DeviceId) {
        let channel = &self.channels[device];
        let backoff = Backoff::new();
        loop {
            let inflight = match channel.sq.pop() {
                Some(i) => i,
                None if !backoff.is_completed() => {
                    backoff.snooze();
                    continue;
                }
                None => {
                    // Spinning has not helped: park on the doorbell. The
                    // re-check under the lock pairs with `ring` in submit
                    // and shutdown, so neither wakeup can be lost.
                    let mut guard = channel.doorbell.lock();
                    match channel.sq.pop() {
                        Some(i) => i,
                        None => {
                            if self.shutdown.load(Ordering::Acquire) {
                                return;
                            }
                            channel.sq_pushed.wait(&mut guard);
                            continue;
                        }
                    }
                }
            };
            backoff.reset();
            channel.ring(&channel.sq_popped);
            let Inflight {
                request,
                mut buffer,
                tag,
                depth,
                submitted,
            } = inflight;
            let n = request.num_pages as usize;
            let result = self.storage.read_local_run_at_depth(
                device,
                request.first_page,
                buffer.pages_mut(n),
                depth,
            );
            channel.cq.push(Completion {
                tag,
                request,
                buffer,
                result,
                service_ns: submitted.elapsed().as_nanos() as u64,
            });
            channel.ring(&channel.cq_pushed);
        }
    }
}

/// The threaded async backend: per device, a bounded submission queue
/// drained by a small pool of submitter threads, each performing the read
/// and pushing the completion. With more than one submitter per device,
/// completions genuinely reorder; with `queue_depth` > 1, modeled devices
/// overlap the fixed request latency across the window.
///
/// This is the stand-in for the paper's libaio IO thread: the engine-facing
/// semantics (deep queue, out-of-order completion, structural
/// back-pressure) match, while the kernel-level mechanism is a thread pool
/// instead of an async syscall interface — see `DESIGN.md` §9.
pub struct ThreadedBackend {
    shared: Arc<ThreadedShared>,
    queue_depth: usize,
    submitters: Vec<thread::JoinHandle<()>>,
}

impl ThreadedBackend {
    /// Per-device submitter threads: enough to overlap real blocking reads
    /// without spawning a thread per queue slot at deep windows.
    const MAX_SUBMITTERS_PER_DEVICE: usize = 4;

    /// Creates the backend over `storage` with `queue_depth` in-flight
    /// requests per device (clamped to ≥ 1) and spawns its submitter pool.
    pub fn new(storage: Arc<StripedStorage>, queue_depth: usize) -> Self {
        let queue_depth = queue_depth.max(1);
        let num_devices = storage.num_devices();
        let shared = Arc::new(ThreadedShared {
            storage,
            channels: (0..num_devices)
                .map(|_| {
                    CachePadded::new(DeviceChannel {
                        sq: ArrayQueue::new(queue_depth),
                        cq: SegQueue::new(),
                        occupancy: AtomicU64::new(0),
                        doorbell: Mutex::new(()),
                        sq_pushed: Condvar::new(),
                        sq_popped: Condvar::new(),
                        cq_pushed: Condvar::new(),
                    })
                })
                .collect(),
            shutdown: AtomicBool::new(false),
        });
        let per_device = queue_depth.min(Self::MAX_SUBMITTERS_PER_DEVICE);
        let submitters = (0..num_devices)
            .flat_map(|device| (0..per_device).map(move |_| device))
            .map(|device| {
                let shared = shared.clone();
                thread::spawn(move || shared.run_submitter(device))
            })
            .collect();
        Self {
            shared,
            queue_depth,
            submitters,
        }
    }
}

impl IoBackend for ThreadedBackend {
    fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    fn submit(&self, device: DeviceId, request: IoRequest, buffer: IoBuffer, tag: u64) {
        let channel = &self.shared.channels[device];
        // Occupancy is only written by the single engine thread pumping
        // this device (incremented here, decremented in try_reap), so it
        // is a uni-threaded counter; submitter threads never touch it.
        // sync-audit: Relaxed — a service-model depth hint, not a sync edge.
        let depth = channel.occupancy.fetch_add(1, Ordering::Relaxed) + 1;
        let mut inflight = Inflight {
            request,
            buffer,
            tag,
            depth: depth.min(u32::MAX as u64) as u32,
            submitted: Instant::now(),
        };
        let backoff = Backoff::new();
        // A full SQ is the back-pressure point: the engine thread waits for
        // a submitter to drain a slot — spinning briefly, then parking on
        // the doorbell. (The engine additionally reaps before exceeding
        // queue_depth, so in practice this path rarely blocks.)
        'push: loop {
            match channel.sq.push(inflight) {
                Ok(()) => break 'push,
                Err(rejected) => inflight = rejected,
            }
            if !backoff.is_completed() {
                backoff.snooze();
                continue;
            }
            let mut guard = channel.doorbell.lock();
            loop {
                match channel.sq.push(inflight) {
                    Ok(()) => break 'push,
                    Err(rejected) => inflight = rejected,
                }
                channel.sq_popped.wait(&mut guard);
            }
        }
        channel.ring(&channel.sq_pushed);
    }

    fn try_reap(&self, device: DeviceId) -> Option<Completion> {
        let channel = &self.shared.channels[device];
        let completion = channel.cq.pop()?;
        // sync-audit: Relaxed — see submit: same uni-threaded depth counter.
        channel.occupancy.fetch_sub(1, Ordering::Relaxed);
        Some(completion)
    }

    fn reap(&self, device: DeviceId) -> Completion {
        let backoff = Backoff::new();
        loop {
            if let Some(completion) = self.try_reap(device) {
                return completion;
            }
            if !backoff.is_completed() {
                backoff.snooze();
                continue;
            }
            let channel = &self.shared.channels[device];
            let mut guard = channel.doorbell.lock();
            // Re-check under the doorbell (a completion pushed before the
            // lock is visible; one pushed after will ring it).
            if let Some(completion) = self.try_reap(device) {
                return completion;
            }
            channel.cq_pushed.wait(&mut guard);
        }
    }
}

impl Drop for ThreadedBackend {
    fn drop(&mut self) {
        // Submitters drain their SQ before honouring shutdown, so any
        // requests still queued complete (into the CQ) rather than leak
        // their buffers.
        self.shared.shutdown.store(true, Ordering::Release);
        for channel in self.shared.channels.iter() {
            channel.ring(&channel.sq_pushed);
        }
        for handle in self.submitters.drain(..) {
            // panic-audit: a submitter thread runs no user code; a panic
            // there is a backend bug and must surface, not be swallowed.
            handle.join().expect("IO submitter thread panicked");
        }
    }
}

impl std::fmt::Debug for ThreadedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedBackend")
            .field("num_devices", &self.shared.channels.len())
            .field("queue_depth", &self.queue_depth)
            .field("submitters", &self.submitters.len())
            .finish()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use blaze_types::PAGE_SIZE;

    /// Storage of `pages` global pages striped over `devices`, each page
    /// filled with its global id.
    fn storage(devices: usize, pages: u64) -> Arc<StripedStorage> {
        let s = Arc::new(StripedStorage::in_memory(devices).unwrap());
        for p in 0..pages {
            s.write_page(p, &vec![p as u8; PAGE_SIZE]).unwrap();
        }
        s
    }

    fn backend_round_trip(backend: &dyn IoBackend, s: &StripedStorage, pages_per_device: u64) {
        let window = backend.queue_depth();
        for device in 0..s.num_devices() {
            let mut submitted = 0u64;
            let mut reaped = 0;
            let mut seen = vec![false; pages_per_device as usize];
            while reaped < pages_per_device {
                while submitted < pages_per_device && (submitted - reaped) < window as u64 {
                    let request = IoRequest {
                        first_page: submitted,
                        num_pages: 1,
                    };
                    backend.submit(device, request, IoBuffer::new(), submitted);
                    submitted += 1;
                }
                let c = backend.reap(device);
                c.result.unwrap();
                assert_eq!(c.tag, c.request.first_page);
                let global = s.global_page(device, c.request.first_page);
                assert!(
                    c.buffer.pages(1).iter().all(|&b| b == global as u8),
                    "device {device} local {} returned wrong bytes",
                    c.request.first_page
                );
                assert!(!seen[c.request.first_page as usize], "duplicate completion");
                seen[c.request.first_page as usize] = true;
                reaped += 1;
            }
            assert!(backend.try_reap(device).is_none(), "no stray completions");
        }
    }

    #[test]
    fn sync_backend_round_trips_in_order() {
        let s = storage(2, 8);
        let backend = SyncBackend::new(s.clone());
        assert_eq!(backend.queue_depth(), 1);
        backend_round_trip(&backend, &s, 4);
    }

    #[test]
    fn threaded_backend_round_trips_at_depths() {
        for qd in [1usize, 2, 8, 32] {
            let s = storage(3, 30);
            let backend = ThreadedBackend::new(s.clone(), qd);
            assert_eq!(backend.queue_depth(), qd);
            backend_round_trip(&backend, &s, 10);
        }
    }

    #[test]
    fn kind_builds_matching_backend() {
        let s = storage(1, 4);
        assert_eq!(IoBackendKind::default(), IoBackendKind::Sync);
        let sync = IoBackendKind::Sync.build(s.clone(), 16);
        assert_eq!(sync.queue_depth(), 1, "sync is always depth 1");
        let threaded = IoBackendKind::Threaded.build(s.clone(), 16);
        assert_eq!(threaded.queue_depth(), 16);
        let clamped = IoBackendKind::Threaded.build(s, 0);
        assert_eq!(clamped.queue_depth(), 1, "depth 0 clamps to 1");
    }

    #[test]
    fn errors_come_back_as_completions_with_buffers() {
        // Requests past the end of the device must complete with an error
        // and still hand the buffer back.
        let s = storage(1, 4);
        for backend in [
            Arc::new(SyncBackend::new(s.clone())) as Arc<dyn IoBackend>,
            Arc::new(ThreadedBackend::new(s.clone(), 2)) as Arc<dyn IoBackend>,
        ] {
            backend.submit(
                0,
                IoRequest {
                    first_page: 100,
                    num_pages: 2,
                },
                IoBuffer::new(),
                7,
            );
            let c = backend.reap(0);
            assert_eq!(c.tag, 7);
            assert!(c.result.is_err(), "out-of-range read must fail");
            assert_eq!(c.buffer.capacity_pages(), blaze_types::MAX_MERGED_PAGES);
        }
    }

    #[test]
    fn threaded_backend_multi_page_requests() {
        let s = storage(2, 16);
        let backend = ThreadedBackend::new(s.clone(), 4);
        backend.submit(
            1,
            IoRequest {
                first_page: 2,
                num_pages: 3,
            },
            IoBuffer::new(),
            0,
        );
        let c = backend.reap(1);
        c.result.unwrap();
        for k in 0..3u64 {
            let global = s.global_page(1, 2 + k);
            let page = &c.buffer.pages(3)[(k as usize) * PAGE_SIZE..][..PAGE_SIZE];
            assert!(page.iter().all(|&b| b == global as u8), "page {k}");
        }
    }

    #[test]
    fn dropping_threaded_backend_with_queued_work_completes_it() {
        // Submit without reaping, then drop: submitters must drain the SQ
        // (completions land in the CQ and are dropped with the backend)
        // rather than deadlock on join.
        let s = storage(1, 8);
        let backend = ThreadedBackend::new(s, 4);
        for i in 0..4u64 {
            backend.submit(
                0,
                IoRequest {
                    first_page: i,
                    num_pages: 1,
                },
                IoBuffer::new(),
                i,
            );
        }
        drop(backend);
    }
}
