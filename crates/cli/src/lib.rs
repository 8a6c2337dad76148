//! Shared plumbing for the artifact-style command-line binaries.
//!
//! The paper's artifact ships `bfs`, `pr`, `wcc`, `spmv`, and `bc` binaries
//! taking a `.gr.index` file plus one or more `.gr.adj.<i>` stripe files
//! and flags like `-computeWorkers`, `-startNode`, `-binSpace`,
//! `-binningRatio`, and `-binCount`. This crate reproduces that interface
//! (single-dash long flags included) over the Rust engine, plus a
//! `gengraph` tool that generates the scaled datasets to disk.

// The unsafe-audit rule (cargo xtask lint) keys off this: crates that
// need no unsafe code forbid it outright, so the audit scope cannot
// silently grow.
#![forbid(unsafe_code)]

pub mod args;
pub mod run;
pub mod toolargs;

pub use args::{parse, parse_for, CliArgs};
pub use run::{exit_with, open_engine, parse_env, print_run_summary};
pub use toolargs::{parse_tool_args, try_parse_tool_args, write_graph_pair, FlagOnce, ToolArgs};
