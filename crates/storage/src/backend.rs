//! Submission/completion IO backends.
//!
//! The paper keeps its SSDs saturated by issuing *asynchronous* reads from
//! one IO thread per device (libaio, Section IV-C). This module is the
//! reproduction's equivalent: the engine's per-device IO worker pumps a
//! submission queue / completion queue pair behind the [`IoBackend`] trait,
//! keeping up to `queue_depth` requests in flight per device.
//!
//! Two backends ship here:
//!
//! * [`SyncBackend`] — depth-1 reads performed synchronously on the
//!   submitting thread, in submission order. An engine at `queue_depth` 1
//!   uses it, and its device traffic is byte-for-byte identical to the
//!   pre-queue engine: the same [`StripedStorage::read_local_run`] calls in
//!   the same order.
//! * [`ThreadedBackend`] — the engine's default. It adapts to the device:
//!   while the device answers faster than a cross-thread hand-off costs (a
//!   file in the OS page cache), `submit` reads inline exactly as the
//!   synchronous backend does and the useful window is 1; once the device's
//!   mean service time says a hand-off is the cheaper wait (an SSD), requests
//!   go to a small per-device pool of helper threads that block in the read,
//!   completions come back out of order, and the window is `queue_depth`.
//!
//! Every submitted buffer comes back exactly once through a [`Completion`]
//! — including on error, which is what lets the engine drain cleanly and
//! return its buffers to the pool when a device fails mid-job.

use std::collections::VecDeque;
use std::time::Instant;

use blaze_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use blaze_sync::{thread, Arc, Backoff, Condvar, Mutex};

use blaze_types::{BlazeError, CachePadded, DeviceId, Result};

use crate::buffer::IoBuffer;
use crate::request::IoRequest;
use crate::stripe::StripedStorage;

/// Which IO backend to construct, by name.
///
/// Nothing in the engine uses this: `BlazeEngine::new` picks its backend
/// from `EngineOptions::queue_depth` alone (1 builds [`SyncBackend`],
/// anything deeper [`ThreadedBackend::lanes`]), and there is no option to
/// name one. The enum survives only because the benchmark's frozen surface
/// builds backends through it (`IoBackendKind::{Sync, Threaded, build}` in
/// `bench/src/sut.rs`, listed in `bench/README.md`, for the
/// `storage.backend_paced_mb_s.*` probes). Do not wire it back into the
/// engine or the CLI; it goes when a change to the benchmark drops those calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoBackendKind {
    /// Depth-1 blocking reads on the submitting thread (byte-for-byte the
    /// published engine's device traffic).
    Sync,
    /// The latency-adaptive backend: inline on a fast device, up to the
    /// configured queue depth in flight on a slow one.
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
    /// Wall-clock time the device took to serve the request, in
    /// nanoseconds: the span of the read call itself, whichever thread made
    /// it. Time spent queued behind other requests is not in it — that
    /// shows as in-flight depth.
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

    /// The window worth keeping in flight on `device` right now, at most
    /// [`queue_depth`](Self::queue_depth). A backend that currently reads
    /// inline reports 1: a second submission would only hold a filled
    /// buffer back from its consumer.
    fn window(&self, device: DeviceId) -> usize {
        let _ = device;
        self.queue_depth()
    }

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

/// Reads `request` into `buffer` on the calling thread and times the read:
/// through [`StripedStorage::read_local_run`] — the published engine's read
/// call — or, given the in-flight `depth` of a deep window, through the
/// depth-aware entry point. A buffer too small for the request is the
/// caller's bug; it comes back as an error, because a panic on a helper
/// thread would leave the pumper waiting for a completion that never
/// comes.
fn read(
    storage: &StripedStorage,
    device: DeviceId,
    request: IoRequest,
    mut buffer: IoBuffer,
    tag: u64,
    depth: Option<u32>,
) -> Completion {
    let n = request.num_pages as usize;
    let t0 = Instant::now();
    let result = if n > buffer.capacity_pages() {
        Err(BlazeError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "request of {n} pages submitted with a buffer of {}",
                buffer.capacity_pages()
            ),
        )))
    } else {
        let pages = buffer.pages_mut(n);
        match depth {
            None => storage.read_local_run(device, request.first_page, pages),
            Some(depth) => {
                storage.read_local_run_at_depth(device, request.first_page, pages, depth)
            }
        }
    };
    Completion {
        tag,
        request,
        buffer,
        result,
        service_ns: t0.elapsed().as_nanos() as u64,
    }
}

/// The depth-1 backend: `submit` performs the read synchronously on the
/// calling thread via [`StripedStorage::read_local_run`] and parks the
/// completion for the immediately following reap.
///
/// Because the read happens inline, in submission order, through the same
/// storage entry point as the pre-queue engine, the device request stream
/// is byte-for-byte identical to the published IO path: the reference the
/// recorded-log tests compare every other configuration against.
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

    fn submit(&self, device: DeviceId, request: IoRequest, buffer: IoBuffer, tag: u64) {
        let completion = read(&self.storage, device, request, buffer, tag, None);
        self.done[device].lock().push_back(completion);
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

/// A windowed mean service time above this sends a device's reads to the
/// helpers. A hand-off costs about 4 µs of latency on an idle box (20,000
/// round trips through one helper on a page-cache file: 6.0 µs each against
/// 1.8 µs inline) and two context switches of CPU on a busy one. The
/// threshold is five times that: page-cache reads on two oversubscribed
/// cores measure 5–15 µs themselves, and those must stay inline. Per request
/// whatever its size, so it assumes requests of at most `MAX_MERGED_PAGES`
/// (16 KiB, about 4 µs from the page cache).
const GO_DEEP_ABOVE_NS: u64 = 20_000;

/// A windowed mean below this, measured inside the helpers, lets reads come
/// back inline. Half the way up, so a device near the threshold stays put.
const GO_INLINE_BELOW_NS: u64 = 10_000;

/// Requests per window. Long enough that a device which answers most
/// requests from a buffer and makes every twentieth wait a millisecond (a
/// device paced by accumulated debt) shows several of its waits in every
/// window.
const WINDOW: u32 = 64;

/// Consecutive slow inline windows before going deep.
const SLOW_WINDOWS_TO_GO_DEEP: u32 = 2;

/// Inline windows after a return from deep within which going deep again
/// counts as taking the return back, which doubles the fast windows the next
/// return needs. Measured end to end on `bfs_paced` (10 alternating 20 s
/// pairs, depth 16 / 8 helpers): with the doubling `query_ms_p50` 286 ms
/// [278, 298], 57.1 Medge/s, 33.6 CPU-s/Gedge; with every return needing one
/// fast window 723 ms [713, 728], 23.1 Medge/s, 83.6 CPU-s/Gedge.
const PROBATION_WINDOWS: u32 = 8;

/// Most consecutive fast deep windows a return inline can come to need:
/// 65,536 requests between two tries.
const MAX_PATIENCE: u32 = 1024;

/// Helper threads per device: how many blocking reads can overlap on it.
/// Picked with [`DEFAULT_QUEUE_DEPTH`] by the sweep recorded in CHANGES.md
/// (PR 15): 4 left the paced device the bottleneck, 12 and more bought
/// nothing and cost 35 MB of resident memory.
#[cfg(not(loom))]
const HELPERS_PER_DEVICE: usize = 8;
/// Two helpers are the smallest pool that can reorder; the model's state
/// space grows with every thread.
#[cfg(loom)]
const HELPERS_PER_DEVICE: usize = 2;

/// The in-flight window an engine pumps to unless told otherwise: the
/// helpers' reads plus as many queued behind them, so a helper that
/// finishes finds its next request waiting. Picked by the sweep recorded in
/// CHANGES.md (PR 15).
pub const DEFAULT_QUEUE_DEPTH: usize = 16;

/// How long the calling thread has been runnable without running, so far,
/// in nanoseconds: what the other threads of an oversubscribed box cost it
/// (the second field of Linux's `/proc/thread-self/schedstat`). `None`
/// where the kernel does not keep it.
fn runqueue_wait_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().nth(1)?.parse().ok()
}

/// Runs `f`; if asked to `measure`, also returns how long the calling thread
/// waited for a core meanwhile (0 where the kernel does not say). Each of
/// the two procfs reads costs about what a page-cache `pread` does (3.9 µs
/// against 3.7), so neither is made unless asked for.
fn net_of_runqueue_wait<T>(measure: bool, f: impl FnOnce() -> T) -> (T, u64) {
    let before = if measure { runqueue_wait_ns() } else { None };
    let out = f();
    let waited = match before {
        Some(before) => runqueue_wait_ns().map_or(0, |after| after.saturating_sub(before)),
        None => 0,
    };
    (out, waited)
}

/// Decides from observed service times whether a device's reads are worth
/// handing to another thread. Deterministic: it sees only the numbers it
/// is fed.
///
/// The statistic is the *mean* of a window, less the window's largest
/// sample. A mean, because a debt-paced device's median read returns at
/// once and only the mean shows the milliseconds it owes; less the largest,
/// because the reading thread being pre-empted once mid-read is one
/// multi-millisecond sample that says nothing about the device. A first
/// slow inline window is taken at its word; for the window that would
/// confirm it the detector asks to be [`suspicious`](Self::suspicious), and
/// the reader then feeds it service times net of its own run-queue wait, so
/// that reads slowed by other threads wanting the core do not send a fast
/// device to the helpers, where they would want it too.
#[derive(Debug)]
struct Detector {
    deep: bool,
    /// Requests in the current window, their summed service time and the
    /// largest of them.
    count: u32,
    sum_ns: u64,
    max_ns: u64,
    /// Consecutive windows that argued for the other mode: slow ones while
    /// inline, fast ones while deep.
    streak: u32,
    /// Fast deep windows it takes to come back inline.
    patience: u32,
    /// Inline windows since the last return from deep; `u32::MAX` before
    /// the first.
    inline_windows: u32,
}

impl Default for Detector {
    fn default() -> Self {
        Self {
            deep: false,
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            streak: 0,
            patience: 1,
            inline_windows: u32::MAX,
        }
    }
}

impl Detector {
    /// Whether the last inline window was slow, so that the one in progress
    /// decides: the reader should measure what it feeds with care.
    fn suspicious(&self) -> bool {
        !self.deep && self.streak > 0
    }

    /// Feeds one request's service time; returns the mode to use from now
    /// on (`true` = hand reads to the helpers).
    fn observe(&mut self, service_ns: u64) -> bool {
        self.count += 1;
        self.sum_ns += service_ns;
        self.max_ns = self.max_ns.max(service_ns);
        if self.count < WINDOW {
            return self.deep;
        }
        let mean = (self.sum_ns - self.max_ns) / u64::from(WINDOW - 1);
        self.count = 0;
        self.sum_ns = 0;
        self.max_ns = 0;
        if self.deep {
            self.streak = if mean < GO_INLINE_BELOW_NS {
                self.streak + 1
            } else {
                0
            };
            if self.streak >= self.patience {
                self.deep = false;
                self.streak = 0;
                self.inline_windows = 0;
            }
            return self.deep;
        }
        self.inline_windows = self.inline_windows.saturating_add(1);
        self.streak = if mean > GO_DEEP_ABOVE_NS {
            self.streak + 1
        } else {
            0
        };
        if self.streak == SLOW_WINDOWS_TO_GO_DEEP {
            self.deep = true;
            self.streak = 0;
            // A return inline that is taken back at once was a mistake: the
            // helpers can measure a device with slack (they wait for work
            // between reads, which a debt-paced device credits), the inline
            // reader then meets it without. Wait twice as long before the
            // next try; a return that holds starts over.
            self.patience = if self.inline_windows <= PROBATION_WINDOWS {
                (self.patience * 2).min(MAX_PATIENCE)
            } else {
                1
            };
        }
        self.deep
    }
}

/// A lane's finished requests.
#[derive(Default)]
struct Done {
    queue: VecDeque<Completion>,
    /// Whether the lane's pumper is parked in `reap`, so that a helper only
    /// pays for a wake-up when somebody sleeps.
    reaper_parked: bool,
}

/// One pumper's completion queue for one device, plus its in-flight count.
struct Lane {
    /// Requests submitted but not yet reaped, maintained by the single
    /// engine thread pumping this lane.
    occupancy: AtomicU64,
    done: Mutex<Done>,
    /// Signalled by a helper that pushed to `done` while the pumper was
    /// parked.
    pushed: Condvar,
}

/// One request on its way to a helper, with the lane its completion goes
/// back to.
struct Work {
    request: IoRequest,
    buffer: IoBuffer,
    tag: u64,
    /// In-flight depth on the lane at submission time (including this
    /// request), recorded by the submitting engine thread so the modeled
    /// service time does not depend on helper-thread scheduling.
    depth: u32,
    reply: Arc<Lane>,
}

#[derive(Default)]
struct WorkQueue {
    queue: VecDeque<Work>,
    /// Helpers parked on `work_ready`.
    idle_helpers: usize,
    /// Submitters parked on `room` because the queue was at their depth.
    waiting_for_room: usize,
    /// Whether this device's helpers have been started.
    spawned: bool,
    shutdown: bool,
}

/// What one device's helpers share with every lane pumping the device.
struct DeviceHelpers {
    /// Mirrors of `detector.deep` and `detector.suspicious()`, so `submit`
    /// and `window` read the mode without the lock.
    deep: AtomicBool,
    suspicious: AtomicBool,
    detector: Mutex<Detector>,
    work: Mutex<WorkQueue>,
    /// Signalled per pushed request while a helper is parked.
    work_ready: Condvar,
    /// Signalled on a pop while a submitter waits: room in the queue.
    room: Condvar,
}

impl DeviceHelpers {
    fn is_deep(&self) -> bool {
        // sync-audit: Relaxed — a mode hint that publishes nothing; either
        // path a stale read takes completes the request correctly.
        self.deep.load(Ordering::Relaxed)
    }

    fn is_suspicious(&self) -> bool {
        self.suspicious.load(Ordering::Relaxed) // sync-audit: see is_deep.
    }

    fn mirror(&self, detector: &Detector) {
        self.deep.store(detector.deep, Ordering::Relaxed); // sync-audit: see is_deep.
        self.suspicious
            .store(detector.suspicious(), Ordering::Relaxed); // sync-audit: see is_deep.
    }
}

struct PoolShared {
    storage: Arc<StripedStorage>,
    devices: Vec<CachePadded<DeviceHelpers>>,
}

impl PoolShared {
    /// Feeds the device's detector one service time measured on the calling
    /// thread.
    fn observe(&self, device: DeviceId, service_ns: u64) {
        let dev = &self.devices[device];
        let mut detector = dev.detector.lock();
        detector.observe(service_ns);
        dev.mirror(&detector);
    }

    /// One helper's life: take the device's next request, read it, push the
    /// completion to the lane it came from; park on `work_ready`, without
    /// spinning, when there is nothing to take. Requests still queued at
    /// shutdown are served first, so no buffer is lost.
    fn run_helper(&self, device: DeviceId) {
        let dev = &self.devices[device];
        loop {
            let work = {
                let mut st = dev.work.lock();
                loop {
                    if let Some(work) = st.queue.pop_front() {
                        if st.waiting_for_room > 0 {
                            dev.room.notify_one();
                        }
                        break work;
                    }
                    if st.shutdown {
                        return;
                    }
                    st.idle_helpers += 1;
                    dev.work_ready.wait(&mut st);
                    st.idle_helpers -= 1;
                }
            };
            let Work {
                request,
                buffer,
                tag,
                depth,
                reply,
            } = work;
            let completion = read(&self.storage, device, request, buffer, tag, Some(depth));
            self.observe(device, completion.service_ns);
            let mut done = reply.done.lock();
            done.queue.push_back(completion);
            let wake = done.reaper_parked;
            drop(done);
            if wake {
                reply.pushed.notify_one();
            }
        }
    }
}

/// The helper threads of one storage array, shared by every lane's
/// [`ThreadedBackend`]: a device gets [`HELPERS_PER_DEVICE`] of them the
/// first time a request is handed off to it, however many lanes pump it,
/// and none if that never happens.
struct HelperPool {
    shared: Arc<PoolShared>,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl HelperPool {
    fn new(storage: Arc<StripedStorage>) -> Self {
        let devices = (0..storage.num_devices())
            .map(|_| {
                CachePadded::new(DeviceHelpers {
                    deep: AtomicBool::new(false),
                    suspicious: AtomicBool::new(false),
                    detector: Mutex::new(Detector::default()),
                    work: Mutex::new(WorkQueue::default()),
                    work_ready: Condvar::new(),
                    room: Condvar::new(),
                })
            })
            .collect();
        Self {
            shared: Arc::new(PoolShared { storage, devices }),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Queues `work` for `device`'s helpers, starting them if this is the
    /// device's first hand-off. Blocks while `cap` requests are already
    /// queued: a pumper cannot bury the helpers.
    fn enqueue(&self, device: DeviceId, work: Work, cap: usize) {
        let dev = &self.shared.devices[device];
        let mut st = dev.work.lock();
        while st.queue.len() >= cap {
            st.waiting_for_room += 1;
            dev.room.wait(&mut st);
            st.waiting_for_room -= 1;
        }
        st.queue.push_back(work);
        let spawn = !std::mem::replace(&mut st.spawned, true);
        let wake = st.idle_helpers > 0;
        drop(st);
        if spawn {
            let helpers = (0..HELPERS_PER_DEVICE).map(|_| {
                let shared = self.shared.clone();
                thread::spawn(move || shared.run_helper(device))
            });
            self.threads.lock().extend(helpers);
        } else if wake {
            dev.work_ready.notify_one();
        }
    }
}

impl Drop for HelperPool {
    fn drop(&mut self) {
        for dev in self.shared.devices.iter() {
            dev.work.lock().shutdown = true;
            dev.work_ready.notify_all();
        }
        for handle in self.threads.get_mut().drain(..) {
            // panic-audit: a helper thread runs no user code; a panic there
            // is a backend bug and must surface, not be swallowed.
            handle.join().expect("IO helper thread panicked");
        }
    }
}

/// The latency-adaptive backend (see the module docs). One instance serves
/// one pumper per device; the instances returned by one [`lanes`] call
/// share a helper pool and one view of how fast each device is.
///
/// Inline, it is the synchronous backend: the same `read_local_run` calls
/// in submission order, one at a time. Deep, it is the stand-in for the
/// paper's libaio IO thread: the engine-facing semantics (a window of
/// requests in flight, out-of-order completion) match, while the
/// kernel-level mechanism is a pool of threads blocking in the read
/// instead of an async syscall interface — see `DESIGN.md` §9. At
/// `queue_depth` 1 the window is 1 in either mode, so the device sees the
/// requests one at a time in submission order; an engine at that depth
/// builds a [`SyncBackend`] and skips the measuring.
///
/// [`lanes`]: Self::lanes
pub struct ThreadedBackend {
    pool: Arc<HelperPool>,
    /// This pumper's completion queue per device.
    lanes: Vec<Arc<Lane>>,
    queue_depth: usize,
}

impl ThreadedBackend {
    /// Creates the backend over `storage` with up to `queue_depth`
    /// in-flight requests per device (clamped to ≥ 1). No thread is started
    /// until a device turns out slow.
    pub fn new(storage: Arc<StripedStorage>, queue_depth: usize) -> Self {
        Self::lane(&Arc::new(HelperPool::new(storage)), queue_depth)
    }

    /// `lanes` backends over one helper pool, for `lanes` concurrent
    /// pumpers per device (the engine's scan-sharing IO lanes).
    pub fn lanes(storage: Arc<StripedStorage>, queue_depth: usize, lanes: usize) -> Vec<Self> {
        let pool = Arc::new(HelperPool::new(storage));
        (0..lanes).map(|_| Self::lane(&pool, queue_depth)).collect()
    }

    fn lane(pool: &Arc<HelperPool>, queue_depth: usize) -> Self {
        let lanes = (0..pool.shared.devices.len())
            .map(|_| {
                Arc::new(Lane {
                    occupancy: AtomicU64::new(0),
                    done: Mutex::new(Done::default()),
                    pushed: Condvar::new(),
                })
            })
            .collect();
        Self {
            pool: pool.clone(),
            lanes,
            queue_depth: queue_depth.max(1),
        }
    }

    /// Test seam: puts `device` in the given mode as the detector would
    /// after enough slow (or fast) requests, and restarts its window. Model
    /// checks and property tests use it to reach the hand-off path on
    /// devices that are not slow.
    #[doc(hidden)]
    pub fn force_mode(&self, device: DeviceId, deep: bool) {
        let dev = &self.pool.shared.devices[device];
        let mut detector = dev.detector.lock();
        *detector = Detector {
            deep,
            ..Detector::default()
        };
        dev.mirror(&detector);
    }
}

impl IoBackend for ThreadedBackend {
    fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    fn window(&self, device: DeviceId) -> usize {
        if self.pool.shared.devices[device].is_deep() {
            self.queue_depth
        } else {
            1
        }
    }

    fn submit(&self, device: DeviceId, request: IoRequest, buffer: IoBuffer, tag: u64) {
        let lane = &self.lanes[device];
        // Occupancy is only written by the single engine thread pumping
        // this lane (incremented here, decremented on reap), so it is a
        // uni-threaded counter; helper threads never touch it.
        // sync-audit: Relaxed — a service-model depth hint, not a sync edge.
        let depth = lane.occupancy.fetch_add(1, Ordering::Relaxed) + 1;
        let shared = &self.pool.shared;
        if shared.devices[device].is_deep() {
            let work = Work {
                request,
                buffer,
                tag,
                depth: depth.min(u64::from(u32::MAX)) as u32,
                reply: lane.clone(),
            };
            self.pool.enqueue(device, work, self.queue_depth);
            return;
        }
        // While one more slow window would send the device deep, the time
        // this thread spends waiting for a core during the read is measured
        // and left out of what the detector sees; the rest of the time,
        // nothing is.
        let measure = shared.devices[device].is_suspicious();
        let (completion, waited) = net_of_runqueue_wait(measure, || {
            read(&shared.storage, device, request, buffer, tag, None)
        });
        shared.observe(device, completion.service_ns.saturating_sub(waited));
        // No wake-up: the thread that reaps this lane is the one here.
        lane.done.lock().queue.push_back(completion);
    }

    fn try_reap(&self, device: DeviceId) -> Option<Completion> {
        let lane = &self.lanes[device];
        let completion = lane.done.lock().queue.pop_front()?;
        // sync-audit: Relaxed — see submit: same uni-threaded depth counter.
        lane.occupancy.fetch_sub(1, Ordering::Relaxed);
        Some(completion)
    }

    /// Parks on the lane's condvar until a completion arrives; no spinning,
    /// so a pumper waiting for a slow device leaves its core to scatter and
    /// gather.
    fn reap(&self, device: DeviceId) -> Completion {
        let lane = &self.lanes[device];
        let mut done = lane.done.lock();
        let completion = loop {
            if let Some(completion) = done.queue.pop_front() {
                break completion;
            }
            done.reaper_parked = true;
            lane.pushed.wait(&mut done);
            done.reaper_parked = false;
        };
        drop(done);
        lane.occupancy.fetch_sub(1, Ordering::Relaxed); // sync-audit: see submit.
        completion
    }
}

impl std::fmt::Debug for ThreadedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let deep: Vec<bool> = self
            .pool
            .shared
            .devices
            .iter()
            .map(|d| d.is_deep())
            .collect();
        f.debug_struct("ThreadedBackend")
            .field("queue_depth", &self.queue_depth)
            .field("deep", &deep)
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

    /// A threaded backend with every device already handed to the helpers.
    fn deep_backend(s: &Arc<StripedStorage>, queue_depth: usize) -> ThreadedBackend {
        let backend = ThreadedBackend::new(s.clone(), queue_depth);
        for device in 0..s.num_devices() {
            backend.force_mode(device, true);
        }
        backend
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
            let inline = ThreadedBackend::new(s.clone(), qd);
            assert_eq!(inline.queue_depth(), qd);
            backend_round_trip(&inline, &s, 10);
            assert_eq!(inline.window(0), 1, "a memory device stays inline");
            let deep = deep_backend(&s, qd);
            assert_eq!(deep.window(0), qd);
            backend_round_trip(&deep, &s, 10);
        }
    }

    #[test]
    fn kind_builds_matching_backend() {
        let s = storage(1, 4);
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
            Arc::new(deep_backend(&s, 2)) as Arc<dyn IoBackend>,
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
            // So must a request its buffer cannot hold — on a helper
            // thread a panic instead would leave `reap` waiting forever.
            backend.submit(
                0,
                IoRequest {
                    first_page: 0,
                    num_pages: 2,
                },
                IoBuffer::with_pages(1),
                8,
            );
            let c = backend.reap(0);
            assert_eq!(c.tag, 8);
            assert!(c.result.is_err(), "a short buffer must fail the request");
        }
    }

    #[test]
    fn threaded_backend_multi_page_requests() {
        let s = storage(2, 16);
        let backend = deep_backend(&s, 4);
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
        // Submit without reaping, then drop: helpers must drain the queue
        // (completions land in the lane and are dropped with it) rather
        // than deadlock on join.
        let s = storage(1, 8);
        let backend = deep_backend(&s, 4);
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

    #[test]
    fn helpers_start_on_the_first_hand_off_and_once_per_device() {
        let s = storage(2, 8);
        let lanes = ThreadedBackend::lanes(s.clone(), 4, 3);
        let threads = |b: &ThreadedBackend| b.pool.threads.lock().len();
        backend_round_trip(&lanes[0], &s, 4);
        assert_eq!(threads(&lanes[0]), 0, "inline reads start no thread");
        lanes[0].force_mode(1, true);
        for lane in &lanes {
            assert_eq!(lane.window(1), 4, "lanes share the device's mode");
            assert_eq!(lane.window(0), 1);
            backend_round_trip(lane, &s, 4);
        }
        assert_eq!(
            threads(&lanes[2]),
            HELPERS_PER_DEVICE,
            "one pool for device 1, none for device 0, whatever the lanes"
        );
    }

    /// Feeds `detector` one service time per item and returns the mode after
    /// the last.
    fn feed(detector: &mut Detector, service_ns: impl IntoIterator<Item = u64>) -> bool {
        let mut deep = detector.deep;
        for ns in service_ns {
            deep = detector.observe(ns);
        }
        deep
    }

    const W: usize = WINDOW as usize;

    /// `windows` windows of page-cache reads (3 µs).
    fn fast(windows: usize) -> impl Iterator<Item = u64> {
        std::iter::repeat_n(3_000, windows * W)
    }

    /// `windows` windows of the paced device as one thread sees it: reads
    /// at 3 µs, every twentieth sleeping off the millisecond owed. Median
    /// 3 µs, mean above 50 µs.
    fn paced(windows: usize) -> impl Iterator<Item = u64> {
        (0..windows * W).map(|i| if i % 20 == 19 { 1_050_000 } else { 3_000 })
    }

    #[test]
    fn a_fast_device_stays_inline_through_outliers() {
        // The reader pre-empted for 4 ms once in every window: each window's
        // plain mean is 65 µs, and none of them says anything about the
        // device.
        let mut d = Detector::default();
        for _ in 0..100 {
            assert!(!feed(&mut d, fast(1).take(W - 1).chain([4_000_000])));
        }
        // A window with two such samples is slow; one slow window between
        // fast ones is not the device either.
        let mut d = Detector::default();
        for _ in 0..100 {
            let slow = fast(1).take(W - 2).chain([4_000_000, 4_000_000]);
            assert!(!feed(&mut d, slow), "one slow window");
            assert!(!feed(&mut d, fast(1)));
        }
        // Between the thresholds nothing moves, in either mode.
        let mut d = Detector::default();
        assert!(!feed(&mut d, std::iter::repeat_n(15_000, 100 * W)));
        d.deep = true;
        assert!(feed(&mut d, std::iter::repeat_n(15_000, 100 * W)));
    }

    #[test]
    fn a_slow_mean_goes_deep_whatever_the_median() {
        let mut d = Detector::default();
        assert!(!feed(&mut d, paced(1)), "one slow window is not enough");
        assert!(feed(&mut d, paced(1)), "two in a row are the device");
        assert!(feed(&mut d, paced(20)), "and it stays deep while they last");
        // A uniformly slow device (every read 25 µs) goes deep as well.
        let mut d = Detector::default();
        assert!(feed(&mut d, std::iter::repeat_n(25_000, 2 * W)));
    }

    #[test]
    fn a_slow_window_asks_for_the_next_one_to_be_measured_with_care() {
        // Two oversubscribed cores: a third of the page-cache reads take
        // 100 µs because the reader waits for a core. On wall-clock alone
        // that is a 35 µs device, and two such windows go deep.
        let contended = || (0..W).map(|i| if i % 3 == 0 { 100_000 } else { 4_000 });
        let mut d = Detector::default();
        assert!(!d.suspicious());
        assert!(!feed(&mut d, contended()));
        assert!(d.suspicious(), "one more like it would go deep");
        assert!(feed(&mut d, contended()), "wall-clock alone goes deep");
        assert!(!d.suspicious());
        // The reader answers `suspicious` by leaving its run-queue wait
        // out of what it feeds: the contended reads are then the 4 µs reads
        // they are, the suspicion is dropped, and so on for as long as the
        // contention lasts.
        let mut d = Detector::default();
        for _ in 0..50 {
            assert!(!feed(&mut d, contended()));
            assert!(d.suspicious());
            assert!(!feed(&mut d, fast(1)), "net of the waiting: fast");
            assert!(!d.suspicious());
        }
    }

    #[test]
    fn run_queue_wait_is_read_where_the_kernel_keeps_it() {
        // Not a property of this code but of the box: where schedstat
        // exists the value must parse and never go backwards; elsewhere the
        // detector simply runs on wall-clock.
        if let Some(before) = runqueue_wait_ns() {
            std::thread::yield_now();
            assert!(runqueue_wait_ns().unwrap() >= before);
        }
    }

    #[test]
    fn a_return_inline_that_is_taken_back_doubles_the_wait() {
        // A cold file: slow, then in the page cache. One fast window inside
        // the helpers brings the reads back, and they stay.
        let mut d = Detector::default();
        assert!(feed(&mut d, paced(2)));
        assert!(feed(&mut d, fast(1).take(W - 1)));
        assert!(!feed(&mut d, [3_000]), "a whole fast window, not before");
        assert!(!feed(&mut d, fast(100)));
        assert_eq!(d.patience, 1);
        // The paced device with slack in the helpers: fast there, slow again
        // the moment one thread reads it back to back. Every return that is
        // taken back at once doubles the fast windows the next one needs.
        let mut d = Detector::default();
        assert!(feed(&mut d, paced(2)));
        for round in 0..12 {
            let patience = (1usize << round).min(MAX_PATIENCE as usize);
            assert_eq!(d.patience as usize, patience);
            assert!(feed(&mut d, fast(patience - 1)) || patience == 1);
            assert!(!feed(&mut d, fast(1)), "returns after {patience} windows");
            assert!(feed(&mut d, paced(2)), "and is sent back at once");
        }
        assert_eq!(d.patience, MAX_PATIENCE);
        // A return that holds past the probation starts over.
        assert!(!feed(&mut d, fast(MAX_PATIENCE as usize)));
        assert!(!feed(&mut d, fast(PROBATION_WINDOWS as usize)));
        assert!(feed(&mut d, paced(2)));
        assert_eq!(d.patience, 1);
    }
}
