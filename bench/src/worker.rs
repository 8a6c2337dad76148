//! A worker: one long-lived process per workload, so that its peak RSS is
//! that engine's memory and not the generator's CSR or the reference
//! results of the parent. It sets up from the plan, then runs one round
//! per `round` line on stdin and is idle otherwise, answering each line
//! with one line of JSON on stdout.

use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::Arc;

use crate::host::{self, now_ns};
use crate::json::Json;
use crate::stats::median;
use crate::sut::{self, Counters, Engine, GATHER_WORKERS, SCATTER_WORKERS};
use crate::trace::{self, ReadLog, Span, Tracer, TRACK_CLIENT0, TRACK_SETUP};
use crate::verify::{self, Tolerance};
use crate::workload::{self, Plan, QueryKind, Workload};
use crate::Res;

/// Worker span ids start here, clear of the parent's.
const FIRST_SPAN_ID: u64 = 1_000_000;

struct Context<'a> {
    plan: &'a Plan,
    workload: &'static Workload,
    engine: Engine,
    spmv_input: Vec<f64>,
    tracer: Option<Tracer>,
    log: Option<Arc<ReadLog>>,
}

struct QueryOutcome {
    start_ns: u64,
    wall_ns: u64,
    ok: bool,
    verify_cpu_ns: u64,
}

/// What one client did in one round.
#[derive(Default)]
struct ClientRound {
    /// `(kind, wall_ns, ok)` per query, in script order.
    queries: Vec<(QueryKind, u64, bool)>,
    /// Input-defined edges the client's queries are credited with.
    nominal_edges: u64,
    /// CPU the client's thread spent checking results, outside the spans.
    verify_cpu_ns: u64,
}

impl Context<'_> {
    fn nominal_edges(&self, kind: QueryKind, root_index: usize) -> u64 {
        match kind {
            QueryKind::Bfs => self.plan.expect.bfs_edges[root_index],
            QueryKind::PageRank => self.plan.expect.pagerank_edges,
            QueryKind::Spmv => self.plan.expect.spmv_edges,
        }
    }

    /// Runs one query. The clock stops when the query returns; the result
    /// is checked after that, and the CPU the check costs is reported so
    /// the round can leave it out.
    fn query(&self, kind: QueryKind, root_index: usize) -> QueryOutcome {
        let expect = &self.plan.expect;
        let start_ns = now_ns();
        let (wall_ns, verify_start, ok);
        match kind {
            QueryKind::Bfs => {
                let root = expect.roots[root_index];
                let result = sut::run_bfs(&self.engine, root);
                wall_ns = now_ns() - start_ns;
                verify_start = host::thread_cpu_ns();
                ok = result.is_ok_and(|r| {
                    verify::parents_digest(r.len(), |v| r.parent(v), root as usize)
                        == Some(expect.bfs_digests[root_index])
                });
            }
            QueryKind::PageRank | QueryKind::Spmv => {
                let (result, reference, tolerance) = if kind == QueryKind::PageRank {
                    let r = sut::run_pagerank(&self.engine);
                    (r, &self.plan.pagerank_ref, Tolerance::PAGERANK)
                } else {
                    let r = sut::run_spmv(&self.engine, &self.spmv_input);
                    (r, &self.plan.spmv_ref, Tolerance::SPMV)
                };
                wall_ns = now_ns() - start_ns;
                verify_start = host::thread_cpu_ns();
                ok = match (result, reference) {
                    (Ok(r), Some(path)) => {
                        verify::matches_f64_file(path, r.len(), |v| r.get(v), tolerance)
                            .unwrap_or(false)
                    }
                    _ => false,
                };
            }
        }
        QueryOutcome {
            start_ns,
            wall_ns,
            ok,
            verify_cpu_ns: host::thread_cpu_ns().saturating_sub(verify_start),
        }
    }

    /// One client's script for one round. With a single client each query
    /// span owns the device reads and the engine's iteration rows that
    /// fall inside it; with two clients on one engine neither can be told
    /// apart by client, and they stay with the round.
    fn client_round(&self, client: usize, round_span: u64) -> ClientRound {
        let single = self.workload.clients.len() == 1;
        let mut out = ClientRound::default();
        let mut bfs_index = 0;
        for &(kind, count) in self.workload.clients[client] {
            for _ in 0..count {
                let root_index = if kind == QueryKind::Bfs {
                    bfs_index += 1;
                    bfs_index - 1
                } else {
                    0
                };
                let span_id = self.tracer.as_ref().map_or(0, Tracer::alloc_id);
                if let (true, Some(log)) = (single, &self.log) {
                    log.set_current(span_id, span_id);
                }
                let QueryOutcome {
                    start_ns,
                    wall_ns: wall,
                    ok,
                    verify_cpu_ns,
                } = self.query(kind, root_index);
                out.queries.push((kind, wall, ok));
                out.nominal_edges += self.nominal_edges(kind, root_index);
                out.verify_cpu_ns += verify_cpu_ns;
                let rows = if single {
                    sut::take_iteration_rows(&self.engine)
                } else {
                    Vec::new()
                };
                if let Some(tracer) = &self.tracer {
                    let mut counters = vec![
                        ("kind".to_string(), Json::from(kind.name())),
                        ("correct".to_string(), Json::from(ok)),
                        (
                            "nominal_edges".to_string(),
                            Json::from(self.nominal_edges(kind, root_index)),
                        ),
                    ];
                    if single {
                        counters.push(("iterations".into(), iteration_rows_json(&rows)));
                    }
                    tracer.push(Span {
                        id: span_id,
                        parent: round_span,
                        query: span_id,
                        name: "query".into(),
                        start_ns,
                        end_ns: start_ns + wall,
                        track: TRACK_CLIENT0 + client as u32,
                        counters,
                    });
                }
            }
        }
        out
    }

    /// Runs one round — every client's script once, concurrently — and
    /// returns the reply for the parent.
    fn round(&self, totals: &mut Totals) -> Json {
        let workload = self.workload;
        let round_id = self.tracer.as_ref().map_or(0, Tracer::alloc_id);
        if let (false, Some(log)) = (workload.clients.len() == 1, &self.log) {
            log.set_current(round_id, 0);
        }
        let before = sut::counters(&self.engine);
        // Each round has its own peak, so that one odd allocation does not
        // set the whole run's number.
        host::reset_peak_rss();
        let cpu0 = host::process_cpu_s();
        let start_ns = now_ns();
        let clients: Vec<ClientRound> = std::thread::scope(|s| {
            let others: Vec<_> = (1..workload.clients.len())
                .map(|c| s.spawn(move || self.client_round(c, round_id)))
                .collect();
            let mut all = vec![self.client_round(0, round_id)];
            for handle in others {
                all.push(handle.join().expect("a client thread panicked"));
            }
            all
        });
        let end_ns = now_ns();
        let cpu_s = host::process_cpu_s() - cpu0;
        let peak_rss_mb = host::peak_rss_mb();
        let delta = sut::counters(&self.engine).since(&before);
        if workload.clients.len() > 1 {
            sut::take_iteration_rows(&self.engine);
        }

        // A round's wall is its longest client's summed query time:
        // checking results happens between the spans.
        let wall_ns = clients
            .iter()
            .map(|c| c.queries.iter().map(|q| q.1).sum::<u64>())
            .max()
            .unwrap_or(0);
        let verify_cpu_ns: u64 = clients.iter().map(|c| c.verify_cpu_ns).sum();
        let nominal: u64 = clients.iter().map(|c| c.nominal_edges).sum();
        let mut queries = Vec::new();
        for (c, client) in clients.iter().enumerate() {
            for &(kind, ns, ok) in &client.queries {
                totals.query_wall_ns += ns;
                queries.push(Json::obj([
                    ("client", Json::from(c as u64)),
                    ("kind", Json::from(kind.name())),
                    ("ns", Json::from(ns)),
                    ("ok", Json::from(ok)),
                ]));
            }
        }
        totals.queries += queries.len() as u64;
        totals.round_wall_ns += wall_ns;
        totals.nominal_edges += nominal;
        totals.counters.add(&delta);
        if let Some(tracer) = &self.tracer {
            let mut counters = counters_json(&delta);
            counters.push(("nominal_edges".into(), Json::from(nominal)));
            tracer.push(Span {
                id: round_id,
                parent: 0,
                query: 0,
                name: "round".into(),
                start_ns,
                end_ns,
                track: TRACK_CLIENT0,
                counters,
            });
        }
        Json::obj([
            ("wall_ns", Json::from(wall_ns)),
            (
                "cpu_s",
                Json::from((cpu_s - verify_cpu_ns as f64 / 1e9).max(0.0)),
            ),
            ("nominal_edges", Json::from(nominal)),
            ("peak_rss_mb", Json::from(peak_rss_mb)),
            ("queries", Json::Arr(queries)),
        ])
    }
}

fn iteration_rows_json(rows: &[sut::IterationRow]) -> Json {
    let column = |f: fn(&sut::IterationRow) -> u64| Json::nums(rows.iter().map(|r| f(r) as f64));
    Json::obj([
        ("frontier", column(|r| r.frontier)),
        ("edges", column(|r| r.edges)),
        ("records", column(|r| r.records)),
        ("io_bytes", column(|r| r.io_bytes)),
    ])
}

fn counters_json(c: &Counters) -> Vec<(String, Json)> {
    [
        ("supersteps", c.supersteps),
        ("edges", c.edges),
        ("records", c.records),
        ("io_bytes", c.io_bytes),
        ("io_requests", c.io_requests),
        ("edge_map_ns", c.edge_map_ns),
        ("cache_hits", c.cache_hits),
        ("cache_misses", c.cache_misses),
        ("cache_evictions", c.cache_evictions),
        ("shared_pages", c.shared_pages),
        ("scatter_ns", c.scatter_ns),
        ("gather_ns", c.gather_ns),
        ("io_wait_ns", c.io_wait_ns),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), Json::from(v)))
    .collect()
}

/// Totals over the timed rounds of a traced worker.
#[derive(Default)]
struct Totals {
    queries: u64,
    round_wall_ns: u64,
    query_wall_ns: u64,
    nominal_edges: u64,
    counters: Counters,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The traced per-layer metrics of this workload, by name.
fn traced_metrics(totals: &Totals, reads: &[trace::DeviceRead]) -> Json {
    let c = &totals.counters;
    let q = totals.queries as f64;
    let wall = totals.round_wall_ns as f64;
    let read_ns: Vec<f64> = reads
        .iter()
        .map(|r| (r.end_ns - r.start_ns) as f64)
        .collect();
    let read_bytes: u64 = reads.iter().map(|r| r.bytes).sum();
    let sequential = reads
        .windows(2)
        .filter(|w| w[1].offset == w[0].offset + w[0].bytes)
        .count();
    // The paced device sleeps once per millisecond owed, not per request:
    // the median shows what a single read costs the caller, the mean what
    // the device costs per read (`dev_reads` × mean ≈ time in the device).
    // (`fold` from 0.0: the sum of no floats is -0.0, which would print.)
    let read_ns_total = read_ns.iter().fold(0.0, |a, b| a + b);
    let p50_us = if reads.is_empty() {
        0.0
    } else {
        median(&read_ns) / 1e3
    };
    Json::obj(
        [
            ("storage.dev_reads", ratio(reads.len() as f64, q)),
            ("storage.dev_read_mb", ratio(read_bytes as f64 / 1e6, q)),
            ("storage.dev_read_us_p50", p50_us),
            (
                "storage.dev_read_us_mean",
                ratio(read_ns_total / 1e3, reads.len() as f64),
            ),
            ("storage.dev_busy_share", ratio(read_ns_total, wall)),
            (
                "storage.seq_frac",
                ratio(sequential as f64, reads.len() as f64),
            ),
            (
                "storage.dev_bytes_per_edge",
                ratio(read_bytes as f64, totals.nominal_edges as f64),
            ),
            (
                "storage.cache_hit_ratio",
                ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
            ),
            (
                "storage.cache_evictions",
                ratio(c.cache_evictions as f64, q),
            ),
            ("storage.shared_pages", ratio(c.shared_pages as f64, q)),
            (
                "core.scatter_busy_share",
                ratio(c.scatter_ns as f64, wall * SCATTER_WORKERS as f64),
            ),
            (
                "core.gather_busy_share",
                ratio(c.gather_ns as f64, wall * GATHER_WORKERS as f64),
            ),
            (
                "core.io_wait_share",
                ratio(c.io_wait_ns as f64, wall * SCATTER_WORKERS as f64),
            ),
            (
                "core.records_per_edge",
                ratio(c.records as f64, c.edges as f64),
            ),
            ("core.supersteps_per_query", ratio(c.supersteps as f64, q)),
            (
                "core.edge_map_share",
                ratio(c.edge_map_ns as f64, totals.query_wall_ns as f64),
            ),
            (
                "algorithms.self_ms_per_query",
                ratio(
                    (totals.query_wall_ns as f64 - c.edge_map_ns as f64) / 1e6,
                    q,
                ),
            ),
        ]
        .map(|(k, v)| (k, Json::from(v))),
    )
}

fn timed<T>(
    tracer: Option<&Tracer>,
    name: &str,
    parent: u64,
    f: impl FnOnce() -> Res<T>,
) -> Res<T> {
    let start_ns = now_ns();
    let value = f()?;
    if let Some(tracer) = tracer {
        tracer.push(Span {
            id: tracer.alloc_id(),
            parent,
            query: 0,
            name: name.into(),
            start_ns,
            end_ns: now_ns(),
            track: TRACK_SETUP,
            counters: Vec::new(),
        });
    }
    Ok(value)
}

fn reply(value: &Json) -> Res<()> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{value}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("worker stdout: {e}"))
}

/// The worker's main: `blazebench worker <plan.json>`.
pub fn run(plan_path: &Path) -> Res<()> {
    let text =
        std::fs::read_to_string(plan_path).map_err(|e| format!("{}: {e}", plan_path.display()))?;
    let plan = Plan::from_json(&Json::parse(&text)?).ok_or("malformed plan")?;
    host::align_epoch(plan.epoch_unix_ns);
    let workload = workload::find(&plan.workload).ok_or("unknown workload in plan")?;
    let tracer = plan.traced.then(|| Tracer::new(FIRST_SPAN_ID));
    let log = plan.traced.then(|| Arc::new(ReadLog::default()));

    // Set-up, spanned like the parent's timed repetitions (which also
    // include `convert`; a worker opens what the parent saved).
    let setup_id = tracer.as_ref().map_or(0, Tracer::alloc_id);
    let setup_start = now_ns();
    let t = tracer.as_ref();
    let graph = timed(t, "open", setup_id, || {
        sut::open_graph(&plan.files, workload.device, log.clone())
    })?;
    let cache_bytes = workload.cache.bytes(plan.files.adj_bytes());
    let engine = timed(t, "engine_new", setup_id, || {
        sut::new_engine(&graph, cache_bytes)
    })?;
    let ctx = Context {
        spmv_input: if workload.uses(QueryKind::Spmv) {
            workload::spmv_input(sut::graph_vertices(&graph), plan.seed)
        } else {
            Vec::new()
        },
        plan: &plan,
        workload,
        engine,
        tracer,
        log,
    };
    let warm_kind = workload.clients[0][0].0;
    let warm_ok = timed(ctx.tracer.as_ref(), "warmup", setup_id, || {
        Ok(ctx.query(warm_kind, 0).ok)
    })?;
    sut::take_iteration_rows(&ctx.engine);
    if let Some(tracer) = &ctx.tracer {
        tracer.push(Span {
            id: setup_id,
            parent: 0,
            query: 0,
            name: "setup".into(),
            start_ns: setup_start,
            end_ns: now_ns(),
            track: TRACK_SETUP,
            counters: vec![("process".into(), Json::from("worker"))],
        });
    }
    let first_timed_read = ctx.log.as_ref().map_or(0, |l| l.len());
    reply(&Json::obj([
        ("ready", Json::from(warm_ok)),
        ("peak_rss_mb", Json::from(host::peak_rss_mb())),
    ]))?;

    let mut totals = Totals::default();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("worker stdin: {e}"))?;
        match line.trim() {
            "round" => reply(&ctx.round(&mut totals))?,
            "finish" => {
                let mut fields = Vec::new();
                if let (Some(tracer), Some(log)) = (&ctx.tracer, &ctx.log) {
                    let reads = log.snapshot();
                    fields.push((
                        "per_layer".into(),
                        traced_metrics(&totals, &reads[first_timed_read..]),
                    ));
                    let mut spans = plan.parent_spans.clone();
                    spans.extend(tracer.take());
                    spans.extend(trace::read_spans(&reads, tracer));
                    std::fs::write(&plan.trace_path, trace::chrome_trace(&spans).to_string())
                        .map_err(|e| format!("{}: {e}", plan.trace_path.display()))?;
                }
                reply(&Json::Obj(fields))?;
                return Ok(());
            }
            other => return Err(format!("worker: unknown command {other:?}")),
        }
    }
    // The parent went away without `finish`: nothing left to do.
    Ok(())
}
