//! The one command table behind `blaze <command>`, and what its rows share.
//!
//! [`COMMANDS`] declares the eight queries and the two dataset tools once:
//! name, operands, one line of help, and the function that runs the
//! command. A query's function says by its type whether it takes the
//! transpose pair (which is also what decides who reads the transpose's two
//! flags), times its algorithm with [`timed`] and hands back its result
//! line; everything around it (reading the command line, demanding the
//! transpose, opening one engine or two, the run summary, the exit code) is
//! [`Command::execute`] and [`run`], written once. The usage text is
//! generated from this table and the flag table.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use blaze_algorithms::PageRankConfig;
use blaze_core::{BlazeEngine, VertexArray};
use blaze_graph::disk::{save_files_with_layout, LayoutMeta};
use blaze_graph::io::{read_edge_list_binary, read_edge_list_file};
use blaze_graph::{Csr, Dataset, VertexLayout};
use blaze_types::{BlazeError, Result};

use crate::flags::{self, CliArgs, FLAGS, IN_ADJ, IN_INDEX, START_NODE};
use crate::run::{exit_with, open_engine, print_run_summary};

/// What a command runs. A query adds the time its algorithm took to the
/// `Duration` and returns its result line(s).
enum Action {
    /// A query over the out-edge graph.
    Query(fn(&CliArgs, &BlazeEngine, &mut Duration) -> Result<String>),
    /// A query that also needs the transpose pair (out-edges, in-edges).
    TransposeQuery(fn(&CliArgs, &BlazeEngine, &BlazeEngine, &mut Duration) -> Result<String>),
    /// A dataset tool over its two operands, which prints for itself.
    Tool(fn(&CliArgs, &str, &str) -> Result<()>),
}

/// One row of the command table.
pub struct Command {
    /// The first argument that selects the command.
    pub name: &'static str,
    /// The non-flag arguments, as the usage text shows them.
    operands: &'static str,
    /// One line of help, printed by the usage text.
    pub help: &'static str,
    /// The function behind the name.
    action: Action,
}

const GRAPH: &str = "<graph.gr.index> <graph.gr.adj.0> [more stripes...]";

/// Every command, in the paper's order: its five queries, the three
/// further monotone ones, the two tools.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "bfs",
        operands: GRAPH,
        help: "breadth-first search from the root (Algorithm 1)",
        action: Action::Query(bfs),
    },
    Command {
        name: "pr",
        operands: GRAPH,
        help: "PageRank, delta variant (Algorithm 2)",
        action: Action::Query(pr),
    },
    Command {
        name: "wcc",
        operands: GRAPH,
        help: "weakly connected components (Algorithm 3); needs the transpose",
        action: Action::TransposeQuery(wcc),
    },
    Command {
        name: "spmv",
        operands: GRAPH,
        help: "y = A^T x with x[i] = 1/(i+1)",
        action: Action::Query(spmv),
    },
    Command {
        name: "bc",
        operands: GRAPH,
        help: "betweenness centrality from the root (Brandes); needs the transpose",
        action: Action::TransposeQuery(bc),
    },
    Command {
        name: "sssp",
        operands: GRAPH,
        help: "shortest paths from the root over deterministic synthetic weights",
        action: Action::Query(sssp),
    },
    Command {
        name: "kcore",
        operands: GRAPH,
        help: "k-core membership over the undirected view; needs the transpose",
        action: Action::TransposeQuery(kcore),
    },
    Command {
        name: "lp",
        operands: GRAPH,
        help: "forward label propagation: the minimum id among a vertex and its ancestors",
        action: Action::Query(lp),
    },
    Command {
        name: "convert",
        operands: "<edge-list-file> <output-base>",
        help: "write an edge list as <output-base>.gr.* and its transpose as <output-base>.tgr.*",
        action: Action::Tool(convert),
    },
    Command {
        name: "gengraph",
        operands: "<dataset> <output-dir>",
        help: "generate a paper dataset (rmat27 rmat30 uran27 twitter sk2005 friendster \
               hyperlink14) as <dataset>.gr.* and <dataset>.tgr.*",
        action: Action::Tool(gengraph),
    },
];

/// The usage text: every command line, then every flag with its line of
/// help and the commands that read it.
fn usage() -> String {
    let mut text = String::from("usage: blaze <command> [flags] <operands>\n\ncommands:\n");
    for c in COMMANDS {
        text += &format!("  {} {}\n      {}\n", c.name, c.operands, c.help);
    }
    text += "\nflags:\n";
    for f in FLAGS {
        let value = f.value.map(|v| format!(" {v}")).unwrap_or_default();
        let readers: Vec<_> = COMMANDS
            .iter()
            .filter(|c| (f.readers)(c))
            .map(|c| c.name)
            .collect();
        let readers = readers.join(" ");
        text += &format!("  {}{value}\n      {} [{readers}]\n", f.name, f.help);
    }
    text
}

impl Command {
    /// The row `name` selects.
    pub(crate) fn named(name: &str) -> Option<&'static Command> {
        COMMANDS.iter().find(|c| c.name == name)
    }

    /// One of the two dataset tools.
    pub(crate) fn is_tool(&self) -> bool {
        matches!(self.action, Action::Tool(_))
    }

    /// One of the eight queries.
    pub(crate) fn is_query(&self) -> bool {
        !self.is_tool()
    }

    /// One of the queries that run over a graph and its transpose.
    pub(crate) fn takes_transpose(&self) -> bool {
        matches!(self.action, Action::TransposeQuery(_))
    }

    /// The configuration error for a command line whose operands are not
    /// the ones this command takes.
    fn operand_error(&self) -> BlazeError {
        let (name, operands) = (self.name, self.operands);
        BlazeError::Config(format!("usage: blaze {name} [flags] {operands}"))
    }

    /// Parses `args` (the command line after the name) and runs the
    /// command; after a query, prints the run summary of the out-edge
    /// engine and the query's result.
    pub(crate) fn execute(&self, args: &[String]) -> Result<()> {
        let a = flags::parse(self, args)?;
        let mut wall = Duration::ZERO;
        let (out, result) = match self.action {
            Action::Tool(tool) => {
                let [from, to] = a.operands.as_slice() else {
                    return Err(self.operand_error());
                };
                return tool(&a, from, to);
            }
            Action::Query(query) => {
                let out = self.open_graph(&a)?;
                let result = query(&a, &out, &mut wall)?;
                (out, result)
            }
            Action::TransposeQuery(query) => {
                // Both halves are asked for before either engine is built.
                let (Some(in_index), false) = (&a.in_index, a.in_adj.is_empty()) else {
                    return Err(missing_transpose(&a));
                };
                let out = self.open_graph(&a)?;
                let transpose = open_engine(&a, in_index, &a.in_adj)?;
                let result = query(&a, &out, &transpose, &mut wall)?;
                (out, result)
            }
        };
        print_run_summary(self.name, &out, wall);
        println!("{result}");
        Ok(())
    }

    /// Opens the engine over the operands' graph, and checks the root
    /// against it for the commands that read one.
    fn open_graph(&self, a: &CliArgs) -> Result<BlazeEngine> {
        let operands = a.operands.split_first();
        let Some((index, adj)) = operands.filter(|(_, adj)| !adj.is_empty()) else {
            return Err(self.operand_error());
        };
        let adj: Vec<PathBuf> = adj.iter().map(PathBuf::from).collect();
        let engine = open_engine(a, Path::new(index), &adj)?;
        if (START_NODE.readers)(self) && a.start_node as usize >= engine.num_vertices() {
            return Err(BlazeError::Config(format!(
                "{} {} is out of range (graph has {} vertices)",
                START_NODE.name,
                a.start_node,
                engine.num_vertices()
            )));
        }
        Ok(engine)
    }
}

/// The configuration error for a transpose pair that is not whole, naming
/// the half that is missing.
fn missing_transpose(a: &CliArgs) -> BlazeError {
    let (index, adj) = (IN_INDEX.name, IN_ADJ.name);
    BlazeError::Config(match (a.in_index.is_some(), !a.in_adj.is_empty()) {
        (true, false) => format!("{index} is given without {adj}"),
        (false, true) => format!("{adj} is given without {index}"),
        _ => format!("the transpose graph is required ({index} / {adj})"),
    })
}

/// `blaze <argv...>`: runs the command `argv` names and ends the process.
/// A usage error exits 2 (with the usage text when no command was named),
/// anything met while running exits 1.
pub fn run(argv: &[String]) -> ! {
    let Some(command) = argv.first().and_then(|name| Command::named(name)) else {
        if let Some(name) = argv.first() {
            eprintln!("blaze: unknown command {name}");
        }
        eprint!("{}", usage());
        std::process::exit(2);
    };
    match command.execute(&argv[1..]) {
        Ok(()) => std::process::exit(0),
        Err(e) => exit_with(command.name, &e),
    }
}

/// The number of distinct values in `labels`.
fn distinct(labels: &VertexArray<u32>) -> usize {
    let mut values = labels.to_vec();
    values.sort_unstable();
    values.dedup();
    values.len()
}

/// The vertex with the largest value in `scores`, and that value.
fn top(scores: &VertexArray<f64>) -> (usize, f64) {
    let top = (0..scores.len())
        .max_by(|&a, &b| scores.get(a).total_cmp(&scores.get(b)))
        .unwrap_or(0);
    (top, scores.get(top))
}

/// Runs `f` and adds the time it took to `wall`: what a query reports as
/// its wall time is its algorithm, without the setup before it or the
/// formatting of the result after it.
fn timed<T>(wall: &mut Duration, f: impl FnOnce() -> T) -> T {
    let clock = Instant::now();
    let out = f();
    *wall += clock.elapsed();
    out
}

/// As many copies of the query as `-jobs` asked for, from separate threads
/// against the one engine; the persistent runtime interleaves them on its
/// shared IO, scatter and gather workers.
fn bfs(a: &CliArgs, g: &BlazeEngine, wall: &mut Duration) -> Result<String> {
    let job = || blaze_algorithms::bfs(g, a.start_node, a.mode);
    let parent = timed(wall, || {
        std::thread::scope(|s| {
            let others: Vec<_> = (1..a.jobs).map(|_| s.spawn(job)).collect();
            let mine = job();
            for other in others {
                other
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p))?;
            }
            mine
        })
    })?;
    let reached = (0..parent.len()).filter(|&v| parent.get(v) != -1).count();
    let concurrent = match a.jobs {
        1 => String::new(),
        jobs => format!("{jobs} concurrent jobs over one engine\n"),
    };
    let root = a.start_node;
    Ok(format!(
        "{concurrent}reached {reached} vertices from root {root}"
    ))
}

fn pr(a: &CliArgs, g: &BlazeEngine, wall: &mut Duration) -> Result<String> {
    let config = PageRankConfig {
        max_iters: a.max_iters,
        ..Default::default()
    };
    let ranks = timed(wall, || blaze_algorithms::pagerank_delta(g, config, a.mode))?;
    let (vertex, rank) = top(&ranks);
    Ok(format!("top-ranked vertex: {vertex} (rank {rank:.6})"))
}

fn wcc(a: &CliArgs, g: &BlazeEngine, t: &BlazeEngine, wall: &mut Duration) -> Result<String> {
    let labels = timed(wall, || blaze_algorithms::wcc(g, t, a.mode))?;
    Ok(format!("{} weakly connected components", distinct(&labels)))
}

fn spmv(a: &CliArgs, g: &BlazeEngine, wall: &mut Duration) -> Result<String> {
    let x: Vec<f64> = (0..g.num_vertices())
        .map(|i| 1.0 / (i + 1) as f64)
        .collect();
    let y = timed(wall, || blaze_algorithms::spmv(g, &x, a.mode))?;
    let norm: f64 = (0..y.len()).map(|v| y.get(v) * y.get(v)).sum();
    Ok(format!("|y|_2 = {:.6}", norm.sqrt()))
}

fn bc(a: &CliArgs, g: &BlazeEngine, t: &BlazeEngine, wall: &mut Duration) -> Result<String> {
    let scores = timed(wall, || blaze_algorithms::bc(g, t, a.start_node, a.mode))?;
    let (vertex, score) = top(&scores);
    Ok(format!("top broker: vertex {vertex} (score {score:.2})"))
}

fn sssp(a: &CliArgs, g: &BlazeEngine, wall: &mut Duration) -> Result<String> {
    let root = a.start_node;
    let dist = timed(wall, || blaze_algorithms::sssp(g, root, a.mode))?;
    let settled = (0..dist.len())
        .map(|v| dist.get(v))
        .filter(|&d| d != blaze_algorithms::sssp::UNREACHED);
    let (reached, max_dist) = settled.fold((0usize, 0u64), |(n, max), d| (n + 1, max.max(d)));
    Ok(format!(
        "settled {reached} vertices from root {root} (eccentricity {max_dist})"
    ))
}

fn kcore(a: &CliArgs, g: &BlazeEngine, t: &BlazeEngine, wall: &mut Duration) -> Result<String> {
    let k = a.k;
    let alive = timed(wall, || blaze_algorithms::kcore(g, t, k, a.mode))?;
    let survivors = (0..alive.len()).filter(|&v| alive.get(v) == 1).count();
    Ok(format!("{survivors} vertices in the {k}-core"))
}

fn lp(a: &CliArgs, g: &BlazeEngine, wall: &mut Duration) -> Result<String> {
    let labels = timed(wall, || blaze_algorithms::label_propagation(g, a.mode))?;
    Ok(format!("{} distinct propagation labels", distinct(&labels)))
}

/// Plans `layout` on the out-edge CSR, relabels the graph *and* its
/// transpose under that one permutation, and writes both artifact file
/// sets (`<name>.gr.*`, `<name>.tgr.*`). Returns the written paths,
/// index files first. `--layout none` produces byte-identical output to
/// the pre-layout tools.
fn write_graph_pair(
    csr: &Csr,
    dir: &Path,
    name: &str,
    stripes: usize,
    layout: VertexLayout,
) -> Result<Vec<PathBuf>> {
    let (perm, hot_vertices) = layout.plan(csr);
    let physical = perm.permute_csr(csr);
    let transpose = physical.transpose();
    let meta = LayoutMeta {
        kind: layout,
        hot_vertices,
        perm,
    };
    let (mut paths, mut stripe_files) = (Vec::new(), Vec::new());
    for (direction, suffix) in [(&physical, "gr"), (&transpose, "tgr")] {
        let base = format!("{name}.{suffix}");
        let (index, adj) = save_files_with_layout(direction, dir, &base, stripes, Some(&meta))?;
        paths.push(index);
        stripe_files.extend(adj);
    }
    paths.extend(stripe_files);
    Ok(paths)
}

/// Converts a text or binary edge list into the on-disk format.
fn convert(a: &CliArgs, input: &str, base: &str) -> Result<()> {
    let base = Path::new(base);
    let dir = base.parent().unwrap_or(Path::new("."));
    let name = base.file_name().and_then(|n| n.to_str()).unwrap_or("graph");
    std::fs::create_dir_all(dir)?;
    let csr = if a.binary {
        read_edge_list_binary(std::fs::File::open(input)?, a.dedup)
    } else {
        read_edge_list_file(input, a.dedup)
    }?;
    println!(
        "parsed {} vertices, {} edges ({} layout)",
        csr.num_vertices(),
        csr.num_edges(),
        a.layout.name()
    );
    for p in write_graph_pair(&csr, dir, name, a.stripes, a.layout)? {
        println!("wrote {}", p.display());
    }
    Ok(())
}

/// Generates one of the paper's datasets to artifact-style files.
fn gengraph(a: &CliArgs, dataset: &str, dir: &str) -> Result<()> {
    let Some(dataset) = Dataset::from_name(dataset) else {
        let known = Dataset::all().map(|d| d.name()).join(", ");
        return Err(BlazeError::Config(format!(
            "unknown dataset {dataset} (datasets: {known})"
        )));
    };
    let dir = Path::new(dir);
    std::fs::create_dir_all(dir)?;
    println!(
        "generating {dataset} at {:?} scale ({} layout)...",
        a.scale,
        a.layout.name()
    );
    let csr = dataset.generate(a.scale);
    println!(
        "  {} vertices, {} edges",
        csr.num_vertices(),
        csr.num_edges()
    );
    for p in write_graph_pair(&csr, dir, dataset.name(), a.stripes, a.layout)? {
        let len = std::fs::metadata(&p).map(|m| m.len()).unwrap_or(0);
        println!("  wrote {} ({} bytes)", p.display(), len);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A command line without the operands the command takes is a usage
    /// error that shows them, before any file is opened: a flag alone, the
    /// index without a stripe file, a tool given one path or three.
    #[test]
    fn wrong_operands_are_a_usage_error_naming_the_command() {
        for (command, line) in [
            ("bfs", ""),
            ("bfs", "-computeWorkers 4"),
            ("bfs", "g.gr.index"),
            (
                "wcc",
                "-inIndexFilename t.index -inAdjFilenames t.adj.0 g.gr.index",
            ),
            ("convert", ""),
            ("convert", "edges.txt"),
            ("convert", "edges.txt out extra"),
            ("gengraph", "rmat27"),
            ("gengraph", "rmat27 out extra --scale tiny"),
        ] {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            let command = Command::named(command).unwrap();
            match command.execute(&args) {
                Err(BlazeError::Config(message)) => assert!(
                    message.starts_with(&format!("usage: blaze {} [flags] <", command.name)),
                    "{} {line}: {message}",
                    command.name
                ),
                other => panic!("{} {line}: {other:?}", command.name),
            }
        }
    }
}
