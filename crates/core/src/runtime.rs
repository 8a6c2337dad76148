//! The persistent pipeline runtime: long-lived IO/scatter/gather workers
//! with job submission.
//!
//! The paper's pipelined execution model (Figure 5) assumes a *standing*
//! pipeline that stays saturated across an algorithm's iterations. Earlier
//! versions of this engine tore the whole pipeline down after every
//! `edge_map` — fresh scoped threads and a fresh bin space per call — so a
//! 20-iteration BFS paid 20 rounds of thread spawn/join and buffer
//! allocation, and only one job could ever be in flight. This module keeps
//! the workers alive for the lifetime of the engine instead:
//!
//! * one persistent **IO worker per device** — or, when the engine enables
//!   scan sharing, several IO *lanes* per device (see below),
//! * a persistent **scatter pool** and **gather pool**,
//! * `edge_map` becomes a *job submission* ([`Runtime::submit`]) that
//!   blocks on a completion handle.
//!
//! # IO lanes
//!
//! With exactly one IO worker per device, two concurrent jobs' IO roles on
//! the same device run back to back (the worker pops its mailbox FIFO), so
//! their device reads can never overlap in time — which would make the
//! scan-sharing flight table useless across jobs. `io_lanes > 1` spawns
//! that many IO workers per device and assigns each submitted job to one
//! lane (round-robin), so different jobs pump the same device
//! concurrently while any single job still sees the one-pumper-per-device
//! contract the IO backends rely on: a (job, device) pair is always
//! served by exactly one worker, and backend submit/reap calls remain
//! per-device single-threaded *per job*. The engine gives each lane its
//! own backend instance (the lanes of a [`ThreadedBackend`] share one
//! helper pool and one view of how fast each device is, but each reaps
//! its own completions); the flight table then dedupes the overlapping
//! reads the lanes expose.
//!
//! [`ThreadedBackend`]: blaze_storage::ThreadedBackend
//!
//! # Job lifecycle
//!
//! A job is a type-erased [`PipelineJob`]: role entry points the workers
//! call (`run_io` / `run_scatter` / `run_gather`). On submission the job is
//! enqueued — under one lock, so every worker observes the same job order —
//! into the mailbox of every participating worker. Each worker pops its
//! mailbox in FIFO order and runs its role to completion; the last
//! participant to finish signals the submitter's completion handle.
//! Because all mailboxes share the submission order and each job's roles
//! finish in pipeline order (gather after scatter after IO), independent
//! jobs from multiple caller threads interleave across the pools without
//! deadlock: a worker can be gathering job A while another is already
//! scattering job B. Per-job state (bin space, buffer pool, counters) is
//! the caller's responsibility — see `EngineArena`.
//!
//! # Panics and shutdown
//!
//! A panic inside a job role (user scatter/gather/cond code) is caught at
//! the worker's top level, recorded in the job's panic slot (first panic
//! wins), and re-raised on the *submitting* thread once the job completes —
//! exactly the behaviour the old scoped-thread pipeline had, except the
//! workers survive: the panic poisons only its job, and the runtime keeps
//! serving subsequent submissions. Dropping the runtime quiesces it:
//! shutdown is flagged, workers drain their mailboxes (no submitted job is
//! ever lost), exit, and `drop` joins every one of them (no worker leaks).

use std::any::Any;
use std::collections::VecDeque;

use blaze_sync::atomic::{AtomicUsize, Ordering};
use blaze_sync::panic::{catch_unwind, resume_unwind};
use blaze_sync::{Arc, Condvar, Mutex};

/// Role entry points of one pipeline job, called by the runtime's
/// persistent workers. All methods may run concurrently with each other;
/// the implementation coordinates its own internal hand-offs (IO → scatter
/// → gather), as `EdgeMapJob` does with its completion counters.
///
/// The `Sync` supertrait is what lets one job instance be shared by every
/// worker in the pipeline.
pub trait PipelineJob: Sync {
    /// Called once per submission, under the submission lock, with the
    /// job's global submission sequence number — the exact order every
    /// worker mailbox observes jobs in. Scan sharing uses it as the
    /// seniority rule that keeps cross-job waits acyclic (a job may park
    /// only on flights led by strictly older jobs). Default: ignored.
    fn set_order(&self, _seq: u64) {}
    /// One IO worker's share: fetch `device`'s pages into filled buffers.
    /// `lane` identifies which of the per-device IO lanes is running this
    /// job (always 0 without scan sharing); the engine keeps one IO
    /// backend per lane so concurrent pumpers never interleave on one
    /// backend's per-device queues.
    fn run_io(&self, device: usize, lane: usize);
    /// One scatter worker's share: drain filled buffers into bins.
    fn run_scatter(&self, worker: usize);
    /// One gather worker's share: drain full bins into vertex data.
    fn run_gather(&self, worker: usize);
}

/// Fixed role a worker thread is born with.
#[derive(Debug, Clone, Copy)]
enum Role {
    Io { device: usize, lane: usize },
    Scatter(usize),
    Gather(usize),
}

/// Shared per-job completion state. The `job` reference is lifetime-erased:
/// see the safety argument in [`Runtime::submit`].
struct JobState {
    job: &'static dyn PipelineJob,
    /// Participants (workers) that have not yet finished their role.
    remaining: AtomicUsize,
    /// Completion handle the submitter blocks on.
    complete: Mutex<bool>,
    completed: Condvar,
    /// First panic payload raised inside a role, re-raised by the submitter.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl JobState {
    /// Marks one participant finished; the last one signals the submitter.
    fn finish_participant(&self) {
        // AcqRel: the decrement publishes this worker's role writes to the
        // last finisher, whose mutex hand-off below publishes them onward
        // to the submitter.
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.complete.lock() = true;
            self.completed.notify_all();
        }
    }
}

/// Mailboxes plus the shutdown flag, all under one lock so that every
/// worker observes submitted jobs in the same order.
struct QueueState {
    mailboxes: Vec<VecDeque<Arc<JobState>>>,
    shutdown: bool,
    /// Jobs submitted so far; doubles as the per-job sequence number and
    /// the round-robin IO-lane selector.
    submitted: u64,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signalled on submission and on shutdown.
    work: Condvar,
}

/// The persistent pipeline runtime owned by a `BlazeEngine`: one IO worker
/// per device plus scatter and gather pools, fed through [`submit`].
///
/// [`submit`]: Runtime::submit
pub struct Runtime {
    shared: Arc<Shared>,
    workers: Vec<blaze_sync::thread::JoinHandle<()>>,
    num_devices: usize,
    io_lanes: usize,
    num_scatter: usize,
    num_gather: usize,
}

impl Runtime {
    /// Spawns the persistent worker set: `io_lanes` IO workers per device
    /// (`io_lanes * num_devices` total — 1 lane reproduces the paper's
    /// one-IO-worker-per-device pipeline), `num_scatter` scatter workers,
    /// `num_gather` gather workers. `io_lanes` below 1 is clamped to 1.
    pub fn new(num_devices: usize, io_lanes: usize, num_scatter: usize, num_gather: usize) -> Self {
        let io_lanes = io_lanes.max(1);
        let num_io = num_devices * io_lanes;
        let total = num_io + num_scatter + num_gather;
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                mailboxes: (0..total).map(|_| VecDeque::new()).collect(),
                shutdown: false,
                submitted: 0,
            }),
            work: Condvar::new(),
        });
        let mut workers = Vec::with_capacity(total);
        for index in 0..total {
            let role = if index < num_io {
                // Lane L's IO workers occupy the contiguous mailbox block
                // [L * num_devices, (L + 1) * num_devices); `submit` routes
                // each job to exactly one lane's block.
                Role::Io {
                    device: index % num_devices.max(1),
                    lane: index / num_devices.max(1),
                }
            } else if index < num_io + num_scatter {
                Role::Scatter(index - num_io)
            } else {
                Role::Gather(index - num_io - num_scatter)
            };
            let shared = shared.clone();
            workers.push(blaze_sync::thread::spawn(move || {
                worker_loop(&shared, index, role)
            }));
        }
        Self {
            shared,
            workers,
            num_devices,
            io_lanes,
            num_scatter,
            num_gather,
        }
    }

    /// Number of worker threads (IO lanes × devices + scatter + gather).
    pub fn worker_count(&self) -> usize {
        self.num_devices * self.io_lanes + self.num_scatter + self.num_gather
    }

    /// IO lanes per device.
    pub fn io_lanes(&self) -> usize {
        self.io_lanes
    }

    /// Submits `job` to the standing pipeline and blocks until every
    /// participating worker has finished its role. When `with_gather` is
    /// false (the synchronization-based variant), gather workers do not
    /// participate.
    ///
    /// If any role panicked, the first panic is re-raised here on the
    /// submitting thread; the workers themselves survive and keep serving
    /// other jobs.
    pub fn submit(&self, job: &dyn PipelineJob, with_gather: bool) {
        // One lane serves each (job, device) pair, so a job's IO
        // participation is per *device*, not per IO worker.
        let participants =
            self.num_devices + self.num_scatter + if with_gather { self.num_gather } else { 0 };
        // SAFETY: lifetime erasure only. `job` borrows from the submitting
        // thread's stack, but workers only reach it through this `JobState`,
        // and `submit` does not return until `remaining` hits zero — i.e.
        // until every worker that received the job has returned from its
        // role and will never touch the reference again (`finish_participant`
        // is the last access, and it only uses the 'static parts of
        // `JobState`). The borrow therefore strictly outlives every use,
        // which is the same argument `std::thread::scope` relies on.
        let job: &'static dyn PipelineJob =
            unsafe { std::mem::transmute::<&dyn PipelineJob, &'static dyn PipelineJob>(job) };
        let state = Arc::new(JobState {
            job,
            remaining: AtomicUsize::new(participants),
            complete: Mutex::new(false),
            completed: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut st = self.shared.state.lock();
            debug_assert!(!st.shutdown, "submit on a shut-down runtime");
            // Sequence the job under the same lock that orders the
            // mailboxes, so the seniority number handed to the job agrees
            // exactly with the order every worker pops jobs in — the
            // invariant the scan-sharing wait rule rests on.
            let seq = st.submitted;
            st.submitted += 1;
            job.set_order(seq);
            // Round-robin this job onto one IO lane: its IO roles land on
            // that lane's per-device workers, so concurrent jobs on
            // different lanes pump the same devices in parallel.
            let lane = (seq as usize) % self.io_lanes;
            let num_io = self.num_devices * self.io_lanes;
            for mailbox in &mut st.mailboxes[lane * self.num_devices..(lane + 1) * self.num_devices]
            {
                mailbox.push_back(state.clone());
            }
            for mailbox in &mut st.mailboxes[num_io..num_io + self.num_scatter] {
                mailbox.push_back(state.clone());
            }
            if with_gather {
                for mailbox in &mut st.mailboxes[num_io + self.num_scatter..] {
                    mailbox.push_back(state.clone());
                }
            }
            self.shared.work.notify_all();
        }
        let mut done = state.complete.lock();
        while !*done {
            state.completed.wait(&mut done);
        }
        drop(done);
        let payload = state.panic.lock().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for Runtime {
    /// Quiesce: flag shutdown, wake everyone, and join every worker.
    /// Workers drain their mailboxes before exiting, so a submitted job is
    /// never lost (though `submit`'s blocking semantics already guarantee
    /// no job can be pending here: drop requires `&mut self`).
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            // Worker bodies catch job panics, so join only fails if the
            // runtime itself is broken; surfacing that as a panic in drop
            // would abort, and losing the join error is the lesser evil.
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("devices", &self.num_devices)
            .field("io_lanes", &self.io_lanes)
            .field("scatter", &self.num_scatter)
            .field("gather", &self.num_gather)
            .finish()
    }
}

/// One worker's life: pop the next job from the own mailbox (FIFO), run the
/// born role on it, mark participation finished, repeat; exit once the
/// mailbox is empty *and* shutdown is flagged (drain-then-quit).
fn worker_loop(shared: &Shared, index: usize, role: Role) {
    loop {
        let job = {
            let mut st = shared.state.lock();
            loop {
                if let Some(job) = st.mailboxes[index].pop_front() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                shared.work.wait(&mut st);
            }
        };
        // A panic in user code must poison only this job, not the worker:
        // catch it (via the facade, which re-throws the model checker's
        // abort sentinel), record it for the submitter, and keep serving.
        let outcome = catch_unwind(|| match role {
            Role::Io { device, lane } => job.job.run_io(device, lane),
            Role::Scatter(worker) => job.job.run_scatter(worker),
            Role::Gather(worker) => job.job.run_gather(worker),
        });
        if let Err(payload) = outcome {
            let mut slot = job.panic.lock();
            // First panic wins; later ones are echoes of the same failure.
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        job.finish_participant();
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use blaze_sync::atomic::AtomicU64;

    /// A job that counts role invocations.
    #[derive(Default)]
    struct CountingJob {
        io: AtomicU64,
        scatter: AtomicU64,
        gather: AtomicU64,
    }

    impl PipelineJob for CountingJob {
        fn run_io(&self, _device: usize, _lane: usize) {
            self.io.fetch_add(1, Ordering::Relaxed); // sync-audit: test counter; read after submit returns (completion handle orders it).
        }
        fn run_scatter(&self, _worker: usize) {
            self.scatter.fetch_add(1, Ordering::Relaxed); // sync-audit: test counter; read after submit returns.
        }
        fn run_gather(&self, _worker: usize) {
            self.gather.fetch_add(1, Ordering::Relaxed); // sync-audit: test counter; read after submit returns.
        }
    }

    #[test]
    fn every_role_participates_once_per_worker() {
        let rt = Runtime::new(2, 1, 3, 2);
        let job = CountingJob::default();
        rt.submit(&job, true);
        assert_eq!(job.io.load(Ordering::Relaxed), 2); // sync-audit: post-submit read.
        assert_eq!(job.scatter.load(Ordering::Relaxed), 3); // sync-audit: post-submit read.
        assert_eq!(job.gather.load(Ordering::Relaxed), 2); // sync-audit: post-submit read.
    }

    #[test]
    fn sync_variant_skips_gather_workers() {
        let rt = Runtime::new(1, 1, 2, 2);
        let job = CountingJob::default();
        rt.submit(&job, false);
        assert_eq!(job.gather.load(Ordering::Relaxed), 0); // sync-audit: post-submit read.
        assert_eq!(job.scatter.load(Ordering::Relaxed), 2); // sync-audit: post-submit read.
    }

    #[test]
    fn sequential_jobs_reuse_the_same_workers() {
        let rt = Runtime::new(1, 1, 1, 1);
        for _ in 0..50 {
            let job = CountingJob::default();
            rt.submit(&job, true);
            assert_eq!(job.io.load(Ordering::Relaxed), 1); // sync-audit: post-submit read.
        }
        assert_eq!(rt.worker_count(), 3);
    }

    #[test]
    fn io_lanes_serve_each_job_once_per_device() {
        // 2 devices × 3 lanes: every job's IO role still runs exactly once
        // per device, whichever lane it round-robins onto.
        let rt = Runtime::new(2, 3, 2, 1);
        assert_eq!(rt.worker_count(), 2 * 3 + 2 + 1);
        assert_eq!(rt.io_lanes(), 3);
        for _ in 0..7 {
            let job = CountingJob::default();
            rt.submit(&job, true);
            assert_eq!(job.io.load(Ordering::Relaxed), 2); // sync-audit: post-submit read.
            assert_eq!(job.scatter.load(Ordering::Relaxed), 2); // sync-audit: post-submit read.
        }
    }

    #[test]
    fn set_order_observes_the_submission_sequence() {
        struct OrderJob {
            seq: AtomicU64,
        }
        impl PipelineJob for OrderJob {
            fn set_order(&self, seq: u64) {
                self.seq.store(seq, Ordering::Relaxed); // sync-audit: test capture; read after submit returns.
            }
            fn run_io(&self, _device: usize, _lane: usize) {}
            fn run_scatter(&self, _worker: usize) {}
            fn run_gather(&self, _worker: usize) {}
        }
        let rt = Runtime::new(1, 4, 1, 1);
        for expect in 0..5u64 {
            let job = OrderJob {
                seq: AtomicU64::new(u64::MAX),
            };
            rt.submit(&job, true);
            assert_eq!(job.seq.load(Ordering::Relaxed), expect); // sync-audit: post-submit read.
        }
    }

    #[test]
    fn concurrent_submitters_interleave_safely() {
        let rt = Runtime::new(1, 1, 2, 2);
        blaze_sync::thread::scope(|s| {
            for _ in 0..4 {
                let rt = &rt;
                s.spawn(move || {
                    for _ in 0..10 {
                        let job = CountingJob::default();
                        rt.submit(&job, true);
                        assert_eq!(job.scatter.load(Ordering::Relaxed), 2); // sync-audit: post-submit read.
                    }
                });
            }
        });
    }

    #[test]
    fn panicking_job_poisons_only_itself() {
        struct PanickingJob;
        impl PipelineJob for PanickingJob {
            fn run_io(&self, _device: usize, _lane: usize) {}
            fn run_scatter(&self, _worker: usize) {
                panic!("scatter closure exploded");
            }
            fn run_gather(&self, _worker: usize) {}
        }
        let rt = Runtime::new(1, 1, 1, 1);
        let caught = catch_unwind(|| rt.submit(&PanickingJob, true));
        assert!(caught.is_err(), "panic must surface to the submitter");
        // The runtime stays operational for the next job.
        let job = CountingJob::default();
        rt.submit(&job, true);
        assert_eq!(job.gather.load(Ordering::Relaxed), 1); // sync-audit: post-submit read.
    }

    #[test]
    fn drop_joins_all_workers() {
        let rt = Runtime::new(2, 2, 2, 2);
        let job = CountingJob::default();
        rt.submit(&job, true);
        drop(rt); // must not hang or leak
    }
}
