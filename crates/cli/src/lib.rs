//! The `blaze` command line: the paper's artifact behind one front door.
//!
//! The artifact ships a handful of query commands over one engine, each
//! taking a `.gr.index` file plus one or more `.gr.adj.<i>` stripe files
//! and single-dash long flags (`bfs -computeWorkers 16 -startNode 0 <index>
//! <adj...>`). Here they are one binary whose first argument names the
//! command and whose remaining arguments are exactly the artifact's:
//! `blaze bfs -computeWorkers 16 -startNode 0 g.gr.index g.gr.adj.0`. The
//! eight queries and the two dataset tools (`convert`, `gengraph`) are the
//! rows of one command table ([`COMMANDS`]), every flag of either dialect
//! is a row of one flag table ([`FLAGS`]) read by one parser, and `blaze`
//! with no command prints the usage text generated from the two.

// The unsafe-audit rule (cargo xtask lint) keys off this: crates that
// need no unsafe code forbid it outright, so the audit scope cannot
// silently grow.
#![forbid(unsafe_code)]

mod commands;
mod flags;
mod run;

pub use commands::{run, Command, COMMANDS};
pub use flags::{Flag, FLAGS};
