//! The metric tables (`BENCHMARK.json` mirrors them; a test holds the two
//! together), the layer probes, and the assembly of a run's result.

use crate::host;
use crate::json::Json;
use crate::session::{Prepared, Samples, WorkloadRun};
use crate::stats::{median, quantile};
use crate::sut;
use crate::Res;

/// `(name, unit, better, bound)`: what a user of the engine sees. `bound`
/// is the share of the parent's median by which a metric may get worse
/// before a change counts as a regression. The three time-based metrics are
/// rescaled to the nominal machine speed by the yardstick (`yardstick.rs`);
/// their bounds stay as wide as the contract allows because the sandbox
/// this was sized on is not the one that judges it (see `README.md`).
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("query_ms_p50", "ms", "lower", 0.25),
    ("medges_per_s", "Medge/s", "higher", 0.25),
    ("cpu_s_per_gedge", "s/Gedge", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)` of every per-layer metric, layer = crate name.
/// Probes are isolated measurements through a layer's public functions;
/// the others come from the traced run of the workload.
pub const PER_LAYER: [(&str, &str, &str); 42] = [
    ("host.yardstick_medges_s", "Medge/s", "higher"),
    ("host.memcpy_mb_s", "MB/s", "higher"),
    ("host.nproc", "count", "higher"),
    ("host.steal_frac", "frac", "lower"),
    ("storage.seq_read_mb_s", "MB/s", "higher"),
    ("storage.rand_read_mb_s", "MB/s", "higher"),
    ("storage.backend_paced_mb_s.qd1", "MB/s", "higher"),
    ("storage.backend_paced_mb_s.qd8", "MB/s", "higher"),
    ("storage.cache_get_mpages_s", "Mpage/s", "higher"),
    ("storage.cache_insert_mpages_s", "Mpage/s", "higher"),
    ("storage.dev_reads", "count", "lower"),
    ("storage.dev_read_mb", "MB", "lower"),
    ("storage.dev_read_us_p50", "us", "lower"),
    ("storage.dev_read_us_mean", "us", "lower"),
    ("storage.dev_busy_share", "frac", "higher"),
    ("storage.seq_frac", "frac", "higher"),
    ("storage.dev_bytes_per_edge", "B/edge", "lower"),
    ("storage.cache_hit_ratio", "frac", "higher"),
    ("storage.cache_evictions", "count", "lower"),
    ("storage.shared_pages", "count", "higher"),
    ("graph.decode_mb_s", "MB/s", "higher"),
    ("graph.convert_mb_s", "MB/s", "higher"),
    ("graph.open_ms", "ms", "lower"),
    ("frontier.page_subset_ms.sparse", "ms", "lower"),
    ("frontier.page_subset_ms.dense", "ms", "lower"),
    ("frontier.insert_mops", "Mop/s", "higher"),
    ("binning.stage_drain_mrec_s", "Mrec/s", "higher"),
    ("core.pump_cold_mb_s", "MB/s", "higher"),
    ("core.pump_hot_mb_s", "MB/s", "higher"),
    ("core.pump_paced_mb_s", "MB/s", "higher"),
    ("core.scatter_bin_medges_s", "Medge/s", "higher"),
    ("core.dispatch_us", "us", "lower"),
    ("core.vertex_map_mvert_s", "Mvert/s", "higher"),
    ("core.engine_new_ms", "ms", "lower"),
    ("core.scatter_busy_share", "frac", "higher"),
    ("core.gather_busy_share", "frac", "higher"),
    ("core.io_wait_share", "frac", "lower"),
    ("core.records_per_edge", "ratio", "lower"),
    ("core.supersteps_per_query", "count", "lower"),
    ("core.edge_map_share", "frac", "higher"),
    ("algorithms.self_ms_per_query", "ms", "lower"),
    ("bench.trace_overhead_frac", "frac", "lower"),
];

/// Every probe is repeated this many times and its median reported.
const PROBE_REPS: usize = 5;

/// A metric value with the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Measured {
    pub fn median_of(name: &str, samples: Vec<f64>) -> Measured {
        Measured {
            name: name.into(),
            value: median(&samples),
            samples,
        }
    }

    pub fn single(name: &str, value: f64) -> Measured {
        Measured {
            name: name.into(),
            value,
            samples: vec![value],
        }
    }
}

/// The layer probes that do not depend on a workload, run on one saved
/// graph once the workers are gone. `steal_before` is `/proc/stat` at the
/// start of the run.
pub fn run_probes(p: &Prepared, seed: u64, steal_before: (f64, f64)) -> Res<Vec<Measured>> {
    let files = &p.files;
    let adj_bytes = files.adj_bytes();
    let graph = sut::open_graph(files, sut::DeviceKind::File, None)?;
    let n = sut::graph_vertices(&graph);

    let mut out = vec![
        Measured::median_of(
            "host.memcpy_mb_s",
            host::memcpy_mb_s((adj_bytes as usize).clamp(1 << 20, 64 << 20), PROBE_REPS),
        ),
        Measured::single("host.nproc", host::nproc() as f64),
    ];
    let (seq, rand) = sut::probe_file_reads(files, seed, PROBE_REPS)?;
    out.push(Measured::median_of("storage.seq_read_mb_s", seq));
    out.push(Measured::median_of("storage.rand_read_mb_s", rand));
    let (qd1, qd8) = sut::probe_backend_paced(files, seed, PROBE_REPS)?;
    out.push(Measured::median_of("storage.backend_paced_mb_s.qd1", qd1));
    out.push(Measured::median_of("storage.backend_paced_mb_s.qd8", qd8));
    let (get, insert) = sut::probe_page_cache(PROBE_REPS);
    out.push(Measured::median_of("storage.cache_get_mpages_s", get));
    out.push(Measured::median_of("storage.cache_insert_mpages_s", insert));
    out.push(Measured::median_of(
        "graph.decode_mb_s",
        sut::probe_decode(files, &graph, PROBE_REPS)?,
    ));
    out.push(Measured::median_of(
        "frontier.insert_mops",
        sut::probe_frontier_insert(n, seed, PROBE_REPS),
    ));
    out.push(Measured::median_of(
        "binning.stage_drain_mrec_s",
        sut::probe_binning(n, adj_bytes, PROBE_REPS),
    ));
    drop(graph);
    let e = sut::probe_engine(files, p.num_edges, PROBE_REPS)?;
    for (name, samples) in [
        ("frontier.page_subset_ms.sparse", e.page_subset_sparse_ms),
        ("frontier.page_subset_ms.dense", e.page_subset_dense_ms),
        ("core.pump_cold_mb_s", e.pump_cold_mb_s),
        ("core.pump_hot_mb_s", e.pump_hot_mb_s),
        ("core.pump_paced_mb_s", e.pump_paced_mb_s),
        ("core.scatter_bin_medges_s", e.scatter_bin_medges_s),
        ("core.dispatch_us", e.dispatch_us),
        ("core.vertex_map_mvert_s", e.vertex_map_mvert_s),
    ] {
        out.push(Measured::median_of(name, samples));
    }
    out.push(Measured::single(
        "host.steal_frac",
        host::steal_frac_since(steal_before),
    ));
    Ok(out)
}

/// The result of one workload, ready to print and to store.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub name: String,
    pub why: &'static str,
    /// Checksum of the generated graph: the same seed must give the same.
    pub graph_checksum: u64,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Measured>,
    /// The traced and set-up derived per-layer metrics (no probes).
    pub per_layer: Vec<Measured>,
    /// Numbers printed for information only.
    pub info: Vec<(String, f64)>,
}

/// The median query time of each round (every round pools equally many).
fn round_medians(s: &Samples) -> Vec<f64> {
    let per_round = (s.query_ms.len() / s.medges_per_s.len().max(1)).max(1);
    s.query_ms.chunks(per_round).map(median).collect()
}

fn end_to_end(s: &Samples, p: &Prepared) -> Vec<Measured> {
    // The value is the median over all queries pooled; the samples kept for
    // judging spread are per-round medians, since single queries of one
    // run differ by far more than runs do.
    let query_ms = Measured {
        name: "query_ms_p50".into(),
        value: median(&s.query_ms),
        samples: round_medians(s),
    };
    vec![
        query_ms,
        Measured::median_of("medges_per_s", s.medges_per_s.clone()),
        Measured::median_of("cpu_s_per_gedge", s.cpu_s_per_gedge.clone()),
        // A round's peak is no lower than what set-up left behind.
        Measured::median_of(
            "peak_rss_mb",
            s.peak_rss_mb
                .iter()
                .map(|round| round.max(s.setup_peak_rss_mb))
                .collect(),
        ),
        Measured::median_of("setup_s", p.setup.iter().map(|r| r.total_s()).collect()),
    ]
}

pub fn workload_result(run: &WorkloadRun) -> WorkloadResult {
    let p = &run.prepared;
    let u = &run.untraced;
    let mut per_layer = Vec::new();
    let mut failed = u.failed;
    let mut attempted = u.attempted;
    if let Some(t) = &run.traced {
        per_layer.extend(t.per_layer.iter().map(|(k, v)| Measured::single(k, *v)));
        // Like with like: the two workers' rounds alternated in time, so
        // the i-th rounds of both saw the same machine; the overhead is the
        // median over those pairs (a traced worker may run fewer rounds).
        let pairs: Vec<f64> = round_medians(t)
            .iter()
            .zip(round_medians(u))
            .map(|(traced, untraced)| (traced - untraced) / untraced)
            .collect();
        per_layer.push(Measured::median_of("bench.trace_overhead_frac", pairs));
        // A wrong answer in the traced worker is as much a failure.
        failed += t.failed;
        attempted += t.attempted;
    }
    per_layer.push(Measured::median_of(
        "host.yardstick_medges_s",
        u.yardstick_medges_per_s.clone(),
    ));
    let adj_mb = p.files.adj_bytes() as f64 / 1e6;
    per_layer.push(Measured::median_of(
        "graph.convert_mb_s",
        p.setup.iter().map(|r| adj_mb / r.convert_s).collect(),
    ));
    per_layer.push(Measured::median_of(
        "graph.open_ms",
        p.setup.iter().map(|r| r.open_s * 1e3).collect(),
    ));
    per_layer.push(Measured::median_of(
        "core.engine_new_ms",
        p.setup.iter().map(|r| r.engine_new_s * 1e3).collect(),
    ));

    let mut info = vec![
        ("gen_s".to_string(), p.gen_s),
        ("vertices".to_string(), p.num_vertices as f64),
        ("edges".to_string(), p.num_edges as f64),
        ("adjacency_mb".to_string(), adj_mb),
        ("rounds".to_string(), u.medges_per_s.len() as f64),
        ("queries_timed".to_string(), u.query_ms.len() as f64),
        (
            "warmup_s".to_string(),
            median(&p.setup.iter().map(|r| r.warmup_s).collect::<Vec<_>>()),
        ),
        // As the clock read them, before the yardstick's rescaling.
        ("raw_query_ms_p50".to_string(), median(&u.raw_query_ms)),
        ("raw_medges_per_s".to_string(), median(&u.raw_medges_per_s)),
        (
            "raw_setup_s".to_string(),
            median(&p.setup.iter().map(|r| r.raw_s()).collect::<Vec<_>>()),
        ),
    ];
    // A tail is only worth printing with ten samples beyond it.
    if u.query_ms.len() >= 50 {
        info.push(("query_ms_p80".to_string(), quantile(&u.query_ms, 0.8)));
    }
    WorkloadResult {
        name: p.workload.name.into(),
        why: p.workload.why,
        graph_checksum: p.graph_checksum,
        attempted,
        failed,
        end_to_end: end_to_end(u, p),
        per_layer,
        info,
    }
}

fn measured_json(m: &Measured, unit: &str) -> Json {
    Json::obj([
        ("value", Json::from(m.value)),
        ("unit", Json::from(unit)),
        ("n", Json::from(m.samples.len() as u64)),
        ("samples", Json::nums(m.samples.iter().copied())),
    ])
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn measured_obj(items: &[Measured]) -> Json {
    Json::Obj(
        items
            .iter()
            .map(|m| (m.name.clone(), measured_json(m, unit_of(&m.name))))
            .collect(),
    )
}

/// The full result document written to `BENCH_<rev>.json`.
pub fn bench_json(
    rev: &str,
    seed: u64,
    scale: u32,
    workloads: &[WorkloadResult],
    probes: &[Measured],
) -> Json {
    Json::obj([
        ("schema", Json::from(1u64)),
        ("rev", Json::from(rev)),
        ("seed", Json::from(seed)),
        ("scale", Json::from(u64::from(scale))),
        (
            "host",
            Json::Obj(
                host::descriptor()
                    .into_iter()
                    .map(|(k, v)| (k, Json::Str(v)))
                    .collect(),
            ),
        ),
        (
            "workloads",
            Json::Obj(
                workloads
                    .iter()
                    .map(|w| {
                        (
                            w.name.clone(),
                            Json::obj([
                                ("why", Json::from(w.why)),
                                (
                                    "graph_checksum",
                                    Json::Str(format!("{:016x}", w.graph_checksum)),
                                ),
                                ("attempted", Json::from(w.attempted)),
                                ("failed", Json::from(w.failed)),
                                ("end_to_end", measured_obj(&w.end_to_end)),
                                ("per_layer", measured_obj(&w.per_layer)),
                                (
                                    "info",
                                    Json::Obj(
                                        w.info
                                            .iter()
                                            .map(|(k, v)| (k.clone(), Json::from(*v)))
                                            .collect(),
                                    ),
                                ),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("probes", measured_obj(probes)),
    ])
}

/// The one-line result the driver reads: every end-to-end metric with
/// `--trace 0`, every per-layer metric with `--trace 1`.
pub fn driver_line(w: &WorkloadResult, probes: Option<&[Measured]>) -> Json {
    let metrics: Vec<(String, Json)> = match probes {
        None => w
            .end_to_end
            .iter()
            .map(|m| (m.name.clone(), m.value, unit_of(&m.name)))
            .map(|(n, v, u)| {
                (
                    n,
                    Json::obj([("value", Json::from(v)), ("unit", Json::from(u))]),
                )
            })
            .collect(),
        Some(probes) => PER_LAYER
            .iter()
            .filter_map(|(name, unit, _)| {
                let m = w.per_layer.iter().chain(probes).find(|m| m.name == *name)?;
                Some((
                    name.to_string(),
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::from(*unit))]),
                ))
            })
            .collect(),
    };
    Json::obj([
        ("correct", Json::from(w.failed == 0)),
        ("attempted", Json::from(w.attempted)),
        ("failed", Json::from(w.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Prints every metric by name with its unit, for people.
pub fn print_table(workloads: &[WorkloadResult], probes: &[Measured]) {
    for w in workloads {
        println!(
            "\n== {} — {} queries, {} failed\n   {}",
            w.name, w.attempted, w.failed, w.why
        );
        for m in &w.end_to_end {
            println!(
                "  {:<34} {:>14.4} {:<8} n={}",
                m.name,
                m.value,
                unit_of(&m.name),
                m.samples.len()
            );
        }
        for (k, v) in &w.info {
            println!("  ({k:<32} {v:>14.4})");
        }
        for m in &w.per_layer {
            println!("  {:<34} {:>14.4} {}", m.name, m.value, unit_of(&m.name));
        }
    }
    if !probes.is_empty() {
        println!("\n== layer probes (median of {PROBE_REPS})");
        for m in probes {
            println!("  {:<34} {:>14.4} {}", m.name, m.value, unit_of(&m.name));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root is the contract; the tables
    /// above are what the code emits. They must say the same.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string(), Some(m.3)))
            .collect();
        assert_eq!(rows("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string(), None))
            .collect();
        assert_eq!(rows("per_layer"), layers);
        let names: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).unwrap().as_str().unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let expected: Vec<(String, String)> = crate::workload::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(names, expected);
        assert_eq!(
            doc.get("paths").unwrap().as_arr().unwrap(),
            &[Json::from("bench")]
        );
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for n in &names {
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit_of(n).len() <= 16 && !unit_of(n).is_empty());
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
    }
}
