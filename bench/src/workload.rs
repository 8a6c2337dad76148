//! The four workloads, their seeded inputs, and the plan a parent process
//! hands to the worker that runs one of them.

use std::path::PathBuf;

use crate::json::Json;
use crate::sut::{self, Csr, DeviceKind, GraphFiles, GraphKind};
use crate::trace::Span;
use crate::verify;
use crate::yardstick::Speed;
use crate::Res;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    Bfs,
    PageRank,
    Spmv,
}

impl QueryKind {
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Bfs => "bfs",
            QueryKind::PageRank => "pagerank",
            QueryKind::Spmv => "spmv",
        }
    }
}

/// The clock cache of a workload's engine, relative to the adjacency file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cache {
    Off,
    /// `numerator / denominator` times the adjacency bytes.
    OfAdjacency(u64, u64),
}

impl Cache {
    pub fn bytes(self, adj_bytes: u64) -> u64 {
        match self {
            Cache::Off => 0,
            Cache::OfAdjacency(num, den) => adj_bytes * num / den,
        }
    }
}

/// One workload: a closed loop of `clients` threads on one engine, each
/// running its script of queries once per round.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload exists.
    pub why: &'static str,
    pub graph: GraphKind,
    pub device: DeviceKind,
    pub cache: Cache,
    /// Per client: the queries of one round, as `(kind, count)`. The i-th
    /// BFS of a client starts from that client's i-th root.
    pub clients: &'static [&'static [(QueryKind, usize)]],
    /// The client whose queries `query_ms_p50` is taken over.
    pub latency_client: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pr_scan",
        why: "dense PageRank scans, cache off: scatter, binning, gather and vertex_map do >90% of the work and page supply <5%; compute-path work shows here, IO-path work must not",
        graph: GraphKind::Rmat,
        device: DeviceKind::File,
        cache: Cache::Off,
        clients: &[&[(QueryKind::PageRank, 3)]],
        latency_client: 0,
    },
    Workload {
        name: "bfs_fit",
        why: "BFS on a graph that fits a warmed clock cache of 2x the adjacency: pages come from cache frames, per-superstep dispatch, frontier transform and decode dominate, device idle",
        graph: GraphKind::Uniform,
        device: DeviceKind::File,
        cache: Cache::OfAdjacency(2, 1),
        clients: &[&[(QueryKind::Bfs, 12)]],
        latency_client: 0,
    },
    Workload {
        name: "bfs_paced",
        why: "BFS behind an NVMe-paced device (60 us + 3 GB/s) with a cache of 1/8 the adjacency: device-bound, the only workload where backend, queue depth and miss path do most of the work",
        graph: GraphKind::Uniform,
        device: DeviceKind::Paced,
        cache: Cache::OfAdjacency(1, 8),
        clients: &[&[(QueryKind::Bfs, 3)]],
        latency_client: 0,
    },
    Workload {
        name: "mixed_2job",
        why: "two clients on one engine, cache off: A runs SpMV scans while B runs short BFS queries, so job submission, arenas and the IO lane are shared; query_ms_p50 is over B's queries",
        graph: GraphKind::Rmat,
        device: DeviceKind::File,
        cache: Cache::Off,
        clients: &[&[(QueryKind::Spmv, 3)], &[(QueryKind::Bfs, 8)]],
        latency_client: 1,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// BFS roots the longest BFS script of this workload needs.
    pub fn num_roots(&self) -> usize {
        self.clients
            .iter()
            .map(|script| {
                script
                    .iter()
                    .filter(|(k, _)| *k == QueryKind::Bfs)
                    .map(|(_, n)| n)
                    .sum()
            })
            .max()
            .unwrap_or(0)
    }

    /// What a time of this workload measured at `speed` is multiplied by to
    /// read as at the nominal machine speed. Behind the paced device it is
    /// left as it is: that model runs on real time, whatever the machine does.
    pub fn time_factor(&self, speed: Speed) -> f64 {
        match self.device {
            DeviceKind::File => speed.time_factor(),
            DeviceKind::Paced => 1.0,
        }
    }

    pub fn uses(&self, kind: QueryKind) -> bool {
        self.clients
            .iter()
            .flat_map(|s| s.iter())
            .any(|(k, _)| *k == kind)
    }
}

/// SplitMix64: the one generator behind every seeded choice the benchmark
/// makes itself (roots, vectors, probe access patterns).
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `count` distinct roots drawn from `seed` among the vertices of non-zero
/// out-degree.
pub fn pick_roots(g: &Csr, seed: u64, count: usize) -> Vec<u32> {
    let n = g.num_vertices() as u64;
    let mut rng = seed ^ 0x726f_6f74;
    let mut roots = Vec::with_capacity(count);
    // Rejection sampling ends: generated graphs have thousands of vertices
    // with out-edges, and the attempt cap covers a degenerate input.
    for _ in 0..count * 10_000 {
        if roots.len() == count {
            break;
        }
        let v = (splitmix(&mut rng) % n) as u32;
        if g.degree(v) > 0 && !roots.contains(&v) {
            roots.push(v);
        }
    }
    roots
}

/// The input vector of SpMV: multiples of 1/1024 in (0, 1], from `seed`.
pub fn spmv_input(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = seed ^ 0x7370_6d76;
    (0..n)
        .map(|_| ((splitmix(&mut rng) % 1024) + 1) as f64 / 1024.0)
        .collect()
}

/// What the parent works out from the generated graph before any timing:
/// the roots, what each query must return, and the input-defined edge
/// count each query is credited with.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectations {
    pub roots: Vec<u32>,
    /// [`verify::levels_digest`] of the reference levels, per root.
    pub bfs_digests: Vec<u64>,
    /// Sum of out-degrees of the vertices the reference reaches, per root.
    pub bfs_edges: Vec<u64>,
    /// 2·|E|: PageRank scans every edge in each of its two iterations.
    pub pagerank_edges: u64,
    /// |E|.
    pub spmv_edges: u64,
}

pub fn expectations(g: &Csr, w: &Workload, seed: u64) -> Res<Expectations> {
    let roots = pick_roots(g, seed, w.num_roots());
    if roots.len() < w.num_roots() {
        return Err(format!(
            "graph has too few vertices with out-edges for {}",
            w.name
        ));
    }
    let mut bfs_digests = Vec::new();
    let mut bfs_edges = Vec::new();
    for &root in &roots {
        let levels = sut::reference_bfs_levels(g, root);
        bfs_edges.push(
            levels
                .iter()
                .enumerate()
                .filter(|(_, &l)| l >= 0)
                .map(|(v, _)| u64::from(g.degree(v as u32)))
                .sum(),
        );
        bfs_digests.push(verify::levels_digest(&levels).ok_or("BFS deeper than 253 levels")?);
    }
    Ok(Expectations {
        roots,
        bfs_digests,
        bfs_edges,
        pagerank_edges: 2 * g.num_edges(),
        spmv_edges: g.num_edges(),
    })
}

/// Everything a worker needs; written as JSON by the parent.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: String,
    pub traced: bool,
    pub seed: u64,
    /// The parent's epoch, so both processes share one time axis.
    pub epoch_unix_ns: u64,
    pub files: GraphFiles,
    pub expect: Expectations,
    pub pagerank_ref: Option<PathBuf>,
    pub spmv_ref: Option<PathBuf>,
    /// Where a traced worker writes its Chrome trace.
    pub trace_path: PathBuf,
    /// The parent's set-up spans, for the same trace file.
    pub parent_spans: Vec<Span>,
}

fn path_json(p: &std::path::Path) -> Json {
    Json::Str(p.to_string_lossy().into_owned())
}

fn hex(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

impl Plan {
    pub fn to_json(&self) -> Json {
        let opt_path = |p: &Option<PathBuf>| p.as_deref().map_or(Json::Null, path_json);
        let u64s = |v: &[u64]| Json::Arr(v.iter().map(|&x| Json::from(x)).collect());
        Json::obj([
            ("workload", Json::from(self.workload.as_str())),
            ("traced", Json::from(self.traced)),
            // Seeds and digests use all 64 bits; a JSON number keeps 53.
            ("seed", hex(self.seed)),
            ("epoch_unix_ns", hex(self.epoch_unix_ns)),
            ("index", path_json(&self.files.index)),
            (
                "adj",
                Json::Arr(self.files.adj.iter().map(|p| path_json(p)).collect()),
            ),
            (
                "roots",
                Json::Arr(
                    self.expect
                        .roots
                        .iter()
                        .map(|&r| Json::from(u64::from(r)))
                        .collect(),
                ),
            ),
            (
                "bfs_digests",
                Json::Arr(self.expect.bfs_digests.iter().map(|&d| hex(d)).collect()),
            ),
            ("bfs_edges", u64s(&self.expect.bfs_edges)),
            ("pagerank_edges", Json::from(self.expect.pagerank_edges)),
            ("spmv_edges", Json::from(self.expect.spmv_edges)),
            ("pagerank_ref", opt_path(&self.pagerank_ref)),
            ("spmv_ref", opt_path(&self.spmv_ref)),
            ("trace_path", path_json(&self.trace_path)),
            (
                "parent_spans",
                Json::Arr(self.parent_spans.iter().map(Span::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Plan> {
        let unhex = |j: &Json| u64::from_str_radix(j.as_str()?, 16).ok();
        let path = |key: &str| j.get(key)?.as_str().map(PathBuf::from);
        let u64s = |key: &str| -> Option<Vec<u64>> {
            j.get(key)?.as_arr()?.iter().map(Json::as_u64).collect()
        };
        Some(Plan {
            workload: j.get("workload")?.as_str()?.to_string(),
            traced: j.get("traced")?.as_bool()?,
            seed: unhex(j.get("seed")?)?,
            epoch_unix_ns: unhex(j.get("epoch_unix_ns")?)?,
            files: GraphFiles {
                index: path("index")?,
                adj: j
                    .get("adj")?
                    .as_arr()?
                    .iter()
                    .map(|p| p.as_str().map(PathBuf::from))
                    .collect::<Option<_>>()?,
            },
            expect: Expectations {
                roots: u64s("roots")?.into_iter().map(|r| r as u32).collect(),
                bfs_digests: j
                    .get("bfs_digests")?
                    .as_arr()?
                    .iter()
                    .map(unhex)
                    .collect::<Option<_>>()?,
                bfs_edges: u64s("bfs_edges")?,
                pagerank_edges: j.get("pagerank_edges")?.as_u64()?,
                spmv_edges: j.get("spmv_edges")?.as_u64()?,
            },
            pagerank_ref: path("pagerank_ref"),
            spmv_ref: path("spmv_ref"),
            trace_path: path("trace_path")?,
            parent_spans: j
                .get("parent_spans")?
                .as_arr()?
                .iter()
                .map(Span::from_json)
                .collect::<Option<_>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_roots() {
        let w = find("bfs_fit").unwrap();
        let make = |seed| {
            let g = sut::generate(w.graph, 10, seed);
            let e = expectations(&g, w, seed).unwrap();
            (sut::graph_checksum(&g), e)
        };
        let (a, b, c) = (make(7), make(7), make(8));
        assert_eq!(
            a, b,
            "same seed: same graph, roots, digests and edge counts"
        );
        assert_ne!(a.0, c.0, "another seed gives another graph");
        assert_ne!(a.1.roots, c.1.roots, "another seed gives other roots");
        assert_eq!(a.1.roots.len(), 12);
        let mut distinct = a.1.roots.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 12, "roots are distinct");
        assert!(a.1.bfs_edges.iter().all(|&e| e > 0), "roots have out-edges");
        assert_eq!(spmv_input(100, 7), spmv_input(100, 7));
        assert_ne!(spmv_input(100, 7), spmv_input(100, 8));
    }

    #[test]
    fn workload_table_is_consistent() {
        for w in &WORKLOADS {
            assert!(w.latency_client < w.clients.len());
            assert!(
                w.why.len() <= 200,
                "{}: BENCHMARK.json caps a why at 200",
                w.name
            );
            assert!(w.clients.iter().all(|script| !script.is_empty()));
        }
        assert_eq!(find("mixed_2job").unwrap().num_roots(), 8);
        assert_eq!(find("pr_scan").unwrap().num_roots(), 0);
        assert!(find("nope").is_none());
    }

    #[test]
    fn plans_round_trip_through_json() {
        let plan = Plan {
            workload: "bfs_fit".into(),
            traced: true,
            seed: u64::MAX - 3,
            epoch_unix_ns: 1_790_000_000_123_456_789,
            files: GraphFiles {
                index: "d/g.gr.index".into(),
                adj: vec!["d/g.gr.adj.0".into()],
            },
            expect: Expectations {
                roots: vec![5, 9],
                bfs_digests: vec![u64::MAX, 1],
                bfs_edges: vec![100, 200],
                pagerank_edges: 32,
                spmv_edges: 16,
            },
            pagerank_ref: None,
            spmv_ref: Some("d/spmv.f64".into()),
            trace_path: "out/trace_bfs_fit.json".into(),
            parent_spans: vec![],
        };
        let back = Plan::from_json(&Json::parse(&plan.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back.seed, plan.seed);
        assert_eq!(back.epoch_unix_ns, plan.epoch_unix_ns);
        assert_eq!(back.expect, plan.expect);
        assert_eq!(back.files.adj, plan.files.adj);
        assert_eq!(back.pagerank_ref, None);
        assert_eq!(back.spmv_ref, plan.spmv_ref);
    }
}
