//! Shared command-line plumbing for the dataset tools (`convert` and
//! `gengraph`): one flag parser so both speak the same dialect —
//! `--stripes N` and `--layout degree|hub|none` with identical error
//! messages and exit codes — plus one writer that lays a graph and its
//! transpose out under a single vertex permutation.

use std::path::{Path, PathBuf};

use blaze_graph::disk::{save_files_with_layout, LayoutMeta};
use blaze_graph::{Csr, VertexLayout};
use blaze_types::Result;

/// Common flags plus whatever tool-specific flags the caller declared.
#[derive(Debug)]
pub struct ToolArgs {
    /// Non-flag arguments, in order.
    pub positional: Vec<String>,
    /// `--stripes N` (default 1).
    pub stripes: usize,
    /// `--layout degree|hub|none` (default `none`).
    pub layout: VertexLayout,
    /// Tool-specific boolean switches that were present (from `switches`).
    pub flags: Vec<String>,
    /// Tool-specific `--flag value` pairs, in order (from `value_flags`).
    pub values: Vec<(String, String)>,
}

/// Tracks value-taking flags that may be given at most once. Silently
/// honoring only one of two contradictory values is how a
/// `--layout degree ... --layout none` typo corrupts a dataset — so the
/// dataset tools and the query binaries (`-no-share`) share this one
/// rejection, with one diagnostic shape.
#[derive(Debug, Default)]
pub struct FlagOnce {
    seen: Vec<String>,
}

impl FlagOnce {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `flag`; errors if it was already recorded.
    pub fn check(&mut self, flag: &str) -> std::result::Result<(), String> {
        if self.seen.iter().any(|s| s == flag) {
            return Err(format!("duplicate flag {flag} (each may be given once)"));
        }
        self.seen.push(flag.to_string());
        Ok(())
    }
}

impl ToolArgs {
    /// Whether the boolean switch `name` was passed.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The last value passed for `name`, if any.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses `args` for `tool`. `switches` lists the tool's boolean flags
/// (e.g. `--dedup`), `value_flags` its flags taking one value (e.g.
/// `--scale`). Malformed common flags, unknown `--` flags, and repeated
/// value-taking flags print a `tool: ...` diagnostic and exit 2 — the
/// usage-error convention both tools share.
pub fn parse_tool_args(
    tool: &str,
    args: impl IntoIterator<Item = String>,
    switches: &[&str],
    value_flags: &[&str],
) -> ToolArgs {
    match try_parse_tool_args(args, switches, value_flags) {
        Ok(out) => out,
        Err(msg) => die(tool, &msg),
    }
}

/// [`parse_tool_args`] without the exit-2 policy: errors come back as the
/// diagnostic message so the rejection rules stay unit-testable.
pub fn try_parse_tool_args(
    args: impl IntoIterator<Item = String>,
    switches: &[&str],
    value_flags: &[&str],
) -> std::result::Result<ToolArgs, String> {
    let mut out = ToolArgs {
        positional: Vec::new(),
        stripes: 1,
        layout: VertexLayout::None,
        flags: Vec::new(),
        values: Vec::new(),
    };
    // Every value-taking flag — common or tool-specific — may be given at
    // most once; see [`FlagOnce`].
    let mut seen = FlagOnce::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stripes" => {
                seen.check("--stripes")?;
                out.stripes = it.next().and_then(|v| v.parse().ok()).unwrap_or(0);
                if out.stripes == 0 {
                    return Err("bad --stripes (want a positive integer)".into());
                }
            }
            "--layout" => {
                seen.check("--layout")?;
                let v = it.next();
                out.layout = match v.as_deref().and_then(VertexLayout::parse) {
                    Some(l) => l,
                    None => {
                        return Err(format!(
                            "bad --layout {:?} (want degree|hub|none)",
                            v.as_deref().unwrap_or("")
                        ))
                    }
                };
            }
            s if switches.contains(&s) => out.flags.push(s.to_string()),
            s if value_flags.contains(&s) => {
                seen.check(s)?;
                match it.next() {
                    Some(v) => out.values.push((s.to_string(), v)),
                    None => return Err(format!("{s} needs a value")),
                }
            }
            s if s.starts_with("--") => return Err(format!("unknown flag {s}")),
            other => out.positional.push(other.to_string()),
        }
    }
    Ok(out)
}

/// The usage line fragment for the flags [`parse_tool_args`] handles
/// itself, so both tools advertise them identically.
pub const COMMON_USAGE: &str = "[--stripes N] [--layout degree|hub|none]";

fn die(tool: &str, msg: &str) -> ! {
    eprintln!("{tool}: {msg}");
    std::process::exit(2);
}

/// Plans `layout` on the out-edge CSR, relabels the graph *and* its
/// transpose under that one permutation, and writes both artifact file
/// sets (`<name>.gr.*`, `<name>.tgr.*`). Returns the written paths,
/// index files first. `--layout none` produces byte-identical output to
/// the pre-layout tools.
pub fn write_graph_pair(
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
    let (gi, ga) =
        save_files_with_layout(&physical, dir, &format!("{name}.gr"), stripes, Some(&meta))?;
    let (ti, ta) = save_files_with_layout(
        &transpose,
        dir,
        &format!("{name}.tgr"),
        stripes,
        Some(&meta),
    )?;
    let mut paths = vec![gi, ti];
    paths.extend(ga);
    paths.extend(ta);
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn parse(s: &str) -> std::result::Result<ToolArgs, String> {
        try_parse_tool_args(args(s), &["--dedup"], &["--scale"])
    }

    #[test]
    fn accepts_each_value_flag_once() {
        let a = parse("in out --stripes 2 --layout degree --scale tiny --dedup").unwrap();
        assert_eq!(a.positional, vec!["in", "out"]);
        assert_eq!(a.stripes, 2);
        assert_eq!(a.layout, VertexLayout::Degree);
        assert_eq!(a.value_of("--scale"), Some("tiny"));
        assert!(a.has_flag("--dedup"));
    }

    #[test]
    fn rejects_duplicate_value_flags_with_one_diagnostic() {
        for dup in [
            "in out --stripes 2 --stripes 4",
            "in out --layout degree --layout none",
            "in out --scale tiny --scale small",
        ] {
            let flag = dup.split_whitespace().nth(2).unwrap();
            assert_eq!(
                parse(dup).unwrap_err(),
                format!("duplicate flag {flag} (each may be given once)"),
                "input: {dup}"
            );
        }
        // Even an identical repeat is rejected — repetition is the signal
        // of a mangled command line, not the values disagreeing.
        assert!(parse("in out --layout hub --layout hub").is_err());
        // Boolean switches are idempotent and may repeat.
        assert!(parse("in out --dedup --dedup").is_ok());
    }

    #[test]
    fn rejects_zero_and_malformed_stripes() {
        assert_eq!(
            parse("in out --stripes 0").unwrap_err(),
            "bad --stripes (want a positive integer)"
        );
        assert!(parse("in out --stripes x").is_err());
        assert!(parse("in out --stripes").is_err());
    }
}
