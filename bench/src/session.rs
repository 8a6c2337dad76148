//! The parent side of a run: make the inputs from the seed, time set-up,
//! start one worker per workload, drive their rounds round-robin, and
//! collect the samples.
//!
//! Noise is the design constraint. This microVM drifts by 15–40 % in slow
//! phases lasting from tens of seconds to minutes, so the timed work is
//! split into rounds of a few seconds, rounds are interleaved across
//! workers (A B C D, A B C D, …) so a slow phase hits every workload alike,
//! many short queries are pooled, every reported number is a median, and
//! the yardstick is timed between the rounds so each round's times can be
//! rescaled to one machine speed (see `yardstick.rs`).

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use crate::host::{self, now_ns};
use crate::json::Json;
use crate::sut::{self, Csr, GraphFiles};
use crate::trace::{Span, Tracer, TRACK_SETUP};
use crate::verify;
use crate::workload::{self, Expectations, Plan, QueryKind, Workload};
use crate::yardstick::{Speed, Yardstick};
use crate::Res;

/// Set-up is timed this many times, into fresh directories.
const SETUP_REPS: usize = 3;
/// A traced worker runs at most this many rounds when rounds are counted.
const TRACED_ROUNDS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// Each untraced worker runs exactly this many rounds.
    Rounds(usize),
    /// Rounds go on until this many seconds have passed (at least two).
    Seconds(f64),
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workloads: Vec<&'static Workload>,
    pub seed: u64,
    pub scale: u32,
    pub stop: Stop,
    /// Also run each workload in a traced worker, for the per-layer metrics.
    pub traced: bool,
    /// Scratch directory; everything the run writes is below it.
    pub out_dir: PathBuf,
    /// Test hook: hand the workers a wrong BFS digest for the last root.
    pub corrupt_expected: bool,
}

/// One timed set-up repetition, in seconds per stage as the clock read them.
#[derive(Debug, Clone, Copy)]
pub struct SetupSample {
    pub convert_s: f64,
    pub open_s: f64,
    pub engine_new_s: f64,
    pub warmup_s: f64,
    /// [`Speed::time_factor`] around the repetition; 1 behind a paced device.
    pub time_factor: f64,
}

impl SetupSample {
    pub fn raw_s(&self) -> f64 {
        self.convert_s + self.open_s + self.engine_new_s + self.warmup_s
    }

    /// The repetition's time at the nominal machine speed.
    pub fn total_s(&self) -> f64 {
        self.raw_s() * self.time_factor
    }
}

/// A workload's inputs on disk plus what was measured making them.
pub struct Prepared {
    pub workload: &'static Workload,
    pub files: GraphFiles,
    pub expect: Expectations,
    pub pagerank_ref: Option<PathBuf>,
    pub spmv_ref: Option<PathBuf>,
    pub setup: Vec<SetupSample>,
    pub gen_s: f64,
    pub num_vertices: usize,
    pub num_edges: u64,
    pub graph_checksum: u64,
    pub parent_spans: Vec<Span>,
}

fn timed<T>(f: impl FnOnce() -> Res<T>) -> Res<(T, u64, u64)> {
    let start = now_ns();
    let value = f()?;
    Ok((value, start, now_ns()))
}

fn sync_file(path: &Path) -> Res<()> {
    std::fs::File::open(path)
        .and_then(|f| f.sync_all())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Times `save_files` + `open_files` + `BlazeEngine::new` + one warm-up
/// query, [`SETUP_REPS`] times into fresh directories, and leaves the last
/// repetition's files for the workers.
fn prepare(
    w: &'static Workload,
    g: &Csr,
    gen_s: f64,
    opts: &Options,
    tracer: &Tracer,
    yardstick: &mut Yardstick,
) -> Res<Prepared> {
    let mut expect = workload::expectations(g, w, opts.seed)?;
    let dir = opts.out_dir.join(w.name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    let mut pagerank_ref = None;
    if w.uses(QueryKind::PageRank) {
        let path = dir.join("pagerank_ref.f64");
        verify::write_f64s(&path, &sut::reference_pagerank(g))?;
        pagerank_ref = Some(path);
    }
    let mut spmv_input = Vec::new();
    let mut spmv_ref = None;
    if w.uses(QueryKind::Spmv) {
        spmv_input = workload::spmv_input(g.num_vertices(), opts.seed);
        let path = dir.join("spmv_ref.f64");
        verify::write_f64s(&path, &sut::reference_spmv(g, &spmv_input))?;
        spmv_ref = Some(path);
    }

    let mut setup = Vec::new();
    let mut files = None;
    let mut spans = Vec::new();
    yardstick.lap();
    for rep in 0..SETUP_REPS {
        let rep_dir = dir.join(format!("rep{rep}"));
        std::fs::create_dir_all(&rep_dir).map_err(|e| format!("{}: {e}", rep_dir.display()))?;
        let setup_id = tracer.alloc_id();
        let mut stage = |name: &str, start_ns: u64, end_ns: u64| {
            spans.push(Span {
                id: tracer.alloc_id(),
                parent: setup_id,
                query: 0,
                name: name.into(),
                start_ns,
                end_ns,
                track: TRACK_SETUP,
                counters: Vec::new(),
            });
            (end_ns - start_ns) as f64 / 1e9
        };
        let base = format!("{}.gr", w.graph.name());
        let (saved, t0, t1) = timed(|| sut::save_graph(g, &rep_dir, &base))?;
        let convert_s = stage("convert", t0, t1);
        let (graph, t1, t2) = timed(|| sut::open_graph(&saved, w.device, None))?;
        let open_s = stage("open", t1, t2);
        let cache_bytes = w.cache.bytes(saved.adj_bytes());
        let (engine, t2, t3) = timed(|| sut::new_engine(&graph, cache_bytes))?;
        let engine_new_s = stage("engine_new", t2, t3);
        let ((), t3, t4) = timed(|| match w.clients[0][0].0 {
            QueryKind::Bfs => sut::run_bfs(&engine, expect.roots[0]).map(drop),
            QueryKind::PageRank => sut::run_pagerank(&engine).map(drop),
            QueryKind::Spmv => sut::run_spmv(&engine, &spmv_input).map(drop),
        })?;
        let warmup_s = stage("warmup", t3, t4);
        spans.push(Span {
            id: setup_id,
            parent: 0,
            query: 0,
            name: "setup".into(),
            start_ns: t0,
            end_ns: t4,
            track: TRACK_SETUP,
            counters: vec![
                ("process".into(), Json::from("parent")),
                ("repetition".into(), Json::from(rep as u64)),
            ],
        });
        drop(engine);
        drop(graph);
        setup.push(SetupSample {
            convert_s,
            open_s,
            engine_new_s,
            warmup_s,
            time_factor: w.time_factor(yardstick.lap()),
        });
        // Outside the timed span: flush the new files now, so the kernel's
        // write-back does not run under the timed rounds.
        for path in saved.adj.iter().chain([&saved.index]) {
            sync_file(path)?;
        }
        if rep > 0 {
            let _ = std::fs::remove_dir_all(dir.join(format!("rep{}", rep - 1)));
        }
        files = Some(saved);
    }

    if opts.corrupt_expected {
        if let Some(d) = expect.bfs_digests.last_mut() {
            *d ^= 1;
        }
    }
    Ok(Prepared {
        workload: w,
        files: files.ok_or("no set-up repetition ran")?,
        expect,
        pagerank_ref,
        spmv_ref,
        setup,
        gen_s,
        num_vertices: g.num_vertices(),
        num_edges: g.num_edges(),
        graph_checksum: sut::graph_checksum(g),
        parent_spans: spans,
    })
}

/// Generates each graph once and prepares every workload that uses it.
pub fn prepare_all(opts: &Options, yardstick: &mut Yardstick) -> Res<Vec<Prepared>> {
    let tracer = Tracer::new(1);
    let mut prepared: Vec<Option<Prepared>> = opts.workloads.iter().map(|_| None).collect();
    for kind in [sut::GraphKind::Rmat, sut::GraphKind::Uniform] {
        let users: Vec<usize> = (0..opts.workloads.len())
            .filter(|&i| opts.workloads[i].graph == kind)
            .collect();
        if users.is_empty() {
            continue;
        }
        let t0 = Instant::now();
        let g = sut::generate(kind, opts.scale, opts.seed);
        let gen_s = t0.elapsed().as_secs_f64();
        for i in users {
            prepared[i] = Some(prepare(
                opts.workloads[i],
                &g,
                gen_s,
                opts,
                &tracer,
                yardstick,
            )?);
        }
    }
    Ok(prepared.into_iter().flatten().collect())
}

/// A running worker process. Dropping it stops the process and waits.
struct Worker {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    name: String,
}

impl Worker {
    /// Starts a worker and waits for its set-up; returns it with its peak
    /// memory up to then.
    fn spawn(plan: &Plan, plan_path: &Path) -> Res<(Worker, f64)> {
        std::fs::write(plan_path, plan.to_json().to_string())
            .map_err(|e| format!("{}: {e}", plan_path.display()))?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("worker")
            .arg(plan_path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start a worker: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().ok_or("worker has no stdout")?);
        let name = format!(
            "{}{}",
            plan.workload,
            if plan.traced { " (traced)" } else { "" }
        );
        let mut worker = Worker {
            child,
            stdin,
            stdout,
            name,
        };
        let ready = worker.read_reply()?;
        if ready.get("ready").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "worker {}: the warm-up query returned a wrong result",
                worker.name
            ));
        }
        let setup_peak_rss_mb = ready
            .get("peak_rss_mb")
            .and_then(Json::as_f64)
            .ok_or("worker reported no peak RSS")?;
        Ok((worker, setup_peak_rss_mb))
    }

    fn read_reply(&mut self) -> Res<Json> {
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("worker {}: {e}", self.name))?;
        if n == 0 {
            return Err(format!("worker {} exited early", self.name));
        }
        Json::parse(&line).map_err(|e| format!("worker {}: {e}", self.name))
    }

    fn request(&mut self, command: &str) -> Res<Json> {
        let stdin = self.stdin.as_mut().ok_or("worker stdin is closed")?;
        writeln!(stdin, "{command}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("worker {}: {e}", self.name))?;
        self.read_reply()
    }

    /// Sends `finish`, takes the final reply and waits for a clean exit.
    fn finish(mut self) -> Res<Json> {
        let reply = self.request("finish")?;
        self.stdin = None;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("worker {} ended with {status}", self.name));
        }
        Ok(reply)
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.stdin = None;
        // After `finish` the child is already reaped and both calls are
        // harmless errors; on an error path they stop and reap it.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The samples of one worker. Times and rates are rescaled to the nominal
/// machine speed round by round (see [`Speed::time_factor`]) unless a paced
/// device sets the workload's time; `raw_*` are as the clock read them.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Ms of each query of the workload's latency client, pooled in round
    /// order (every round contributes the same number).
    pub query_ms: Vec<f64>,
    /// Per round: nominal M edges per second of round wall.
    pub medges_per_s: Vec<f64>,
    /// Per round: process CPU seconds per 10⁹ nominal edges.
    pub cpu_s_per_gedge: Vec<f64>,
    pub raw_query_ms: Vec<f64>,
    pub raw_medges_per_s: Vec<f64>,
    /// Per round: the yardstick's M edges per second around it.
    pub yardstick_medges_per_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The worker's peak memory up to the end of its set-up.
    pub setup_peak_rss_mb: f64,
    /// Per round: the worker's peak memory within the round.
    pub peak_rss_mb: Vec<f64>,
    /// The traced per-layer metrics, from a traced worker's last reply.
    pub per_layer: Vec<(String, f64)>,
}

impl Samples {
    fn absorb_round(&mut self, reply: &Json, w: &Workload, speed: Speed) -> Res<()> {
        let field = |k: &str| {
            reply
                .get(k)
                .and_then(Json::as_f64)
                .ok_or("malformed round reply")
        };
        let factor = w.time_factor(speed);
        let wall_s = field("wall_ns")? / 1e9;
        let gedges = field("nominal_edges")? / 1e9;
        self.raw_medges_per_s.push(gedges * 1e3 / wall_s);
        self.medges_per_s.push(gedges * 1e3 / wall_s / factor);
        self.cpu_s_per_gedge.push(field("cpu_s")? / gedges * factor);
        self.yardstick_medges_per_s.push(speed.medges_per_s());
        self.peak_rss_mb.push(field("peak_rss_mb")?);
        for q in reply
            .get("queries")
            .and_then(Json::as_arr)
            .ok_or("malformed round reply")?
        {
            self.attempted += 1;
            if q.get("ok").and_then(Json::as_bool) != Some(true) {
                self.failed += 1;
            }
            if q.get("client").and_then(Json::as_u64) == Some(w.latency_client as u64) {
                let ms = q
                    .get("ns")
                    .and_then(Json::as_f64)
                    .ok_or("malformed query")?
                    / 1e6;
                self.raw_query_ms.push(ms);
                self.query_ms.push(ms * factor);
            }
        }
        Ok(())
    }
}

/// What one workload produced: the untraced samples the end-to-end metrics
/// come from and, in a traced run, the traced worker's.
pub struct WorkloadRun {
    pub prepared: Prepared,
    pub untraced: Samples,
    pub traced: Option<Samples>,
}

/// Runs the rounds of every workload and collects the samples.
pub fn run(
    opts: &Options,
    prepared: Vec<Prepared>,
    yardstick: &mut Yardstick,
) -> Res<Vec<WorkloadRun>> {
    let epoch_unix_ns = host::epoch_unix_ns();
    let mut slots: Vec<(usize, bool, Worker, Samples)> = Vec::new();
    for (i, p) in prepared.iter().enumerate() {
        for traced in [false, true] {
            if traced && !opts.traced {
                continue;
            }
            let tag = if traced { "traced" } else { "untraced" };
            let plan = Plan {
                workload: p.workload.name.into(),
                traced,
                seed: opts.seed,
                epoch_unix_ns,
                files: p.files.clone(),
                expect: p.expect.clone(),
                pagerank_ref: p.pagerank_ref.clone(),
                spmv_ref: p.spmv_ref.clone(),
                trace_path: opts.out_dir.join(format!("trace_{}.json", p.workload.name)),
                parent_spans: p.parent_spans.clone(),
            };
            let plan_path = opts
                .out_dir
                .join(p.workload.name)
                .join(format!("plan_{tag}.json"));
            let (worker, setup_peak_rss_mb) = Worker::spawn(&plan, &plan_path)?;
            let samples = Samples {
                setup_peak_rss_mb,
                ..Samples::default()
            };
            slots.push((i, traced, worker, samples));
        }
    }

    // The yardstick runs here, in the parent, while every worker is idle:
    // once before the first round and once after each, so every round has
    // the machine's speed on both sides of it.
    yardstick.lap();
    let started = Instant::now();
    let mut round_s = 0.0;
    for round in 0.. {
        let go_on = match opts.stop {
            Stop::Rounds(n) => round < n,
            // As close to `s` as whole rounds come, and at least two.
            Stop::Seconds(s) => round < 2 || started.elapsed().as_secs_f64() + round_s / 2.0 < s,
        };
        if !go_on {
            break;
        }
        let round_started = Instant::now();
        for (i, traced, worker, samples) in &mut slots {
            if *traced && matches!(opts.stop, Stop::Rounds(_)) && round >= TRACED_ROUNDS {
                continue;
            }
            let reply = worker.request("round")?;
            samples.absorb_round(&reply, prepared[*i].workload, yardstick.lap())?;
        }
        round_s = round_started.elapsed().as_secs_f64();
    }

    let mut runs: Vec<WorkloadRun> = prepared
        .into_iter()
        .map(|prepared| WorkloadRun {
            prepared,
            untraced: Samples::default(),
            traced: None,
        })
        .collect();
    for (i, traced, worker, mut samples) in slots {
        let last = worker.finish()?;
        if let Some(layers) = last.get("per_layer").and_then(Json::as_obj) {
            samples.per_layer = layers
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect();
        }
        if traced {
            runs[i].traced = Some(samples);
        } else {
            runs[i].untraced = samples;
        }
    }
    Ok(runs)
}
