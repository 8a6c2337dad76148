//! Checks of query results against `blaze_algorithms::reference`, made to
//! run in a worker without the reference in memory: BFS levels compare by
//! digest, float vectors stream from a file the parent wrote.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use crate::Res;

const UNKNOWN: u8 = 255;
const UNREACHED: u8 = 254;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_step(hash: u64, level: u8) -> u64 {
    (hash ^ u64::from(level)).wrapping_mul(0x100_0000_01b3)
}

/// Digest of reference BFS levels (`-1` = unreached). `None` if a level
/// does not fit the digest's range, which no generated graph comes near.
pub fn levels_digest(levels: &[i64]) -> Option<u64> {
    levels.iter().try_fold(FNV_OFFSET, |hash, &l| match l {
        -1 => Some(fnv_step(hash, UNREACHED)),
        0..=253 => Some(fnv_step(hash, l as u8)),
        _ => None,
    })
}

/// Digest of the levels a BFS parent array implies, equal to
/// [`levels_digest`] of the reference exactly when every vertex sits at
/// its reference level. `None` when the parents are not a tree rooted at
/// `root` (a cycle, an id out of range, a reached child of an unreached
/// parent).
pub fn parents_digest(n: usize, parent: impl Fn(usize) -> i64, root: usize) -> Option<u64> {
    if root >= n || parent(root) != root as i64 {
        return None;
    }
    let mut level = vec![UNKNOWN; n];
    level[root] = 0;
    let mut chain = Vec::new();
    for v in 0..n {
        let mut cur = v;
        while level[cur] == UNKNOWN {
            let p = parent(cur);
            if p == -1 {
                level[cur] = UNREACHED;
                break;
            }
            // Only the root is its own parent, and its level is known.
            if p < 0 || p as usize >= n || p as usize == cur || chain.len() > 254 {
                return None;
            }
            chain.push(cur);
            cur = p as usize;
        }
        let mut depth = level[cur];
        for &u in chain.iter().rev() {
            if depth >= 253 {
                return None;
            }
            depth += 1;
            level[u] = depth;
        }
        chain.clear();
    }
    Some(level.into_iter().fold(FNV_OFFSET, fnv_step))
}

/// Writes `values` as little-endian `f64`s.
pub fn write_f64s(path: &Path, values: &[f64]) -> Res<()> {
    let mut w = BufWriter::new(File::create(path).map_err(|e| e.to_string())?);
    for v in values {
        w.write_all(&v.to_le_bytes()).map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())
}

/// How close a float result must be to its reference.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Per vertex: `|a - b| <= abs + rel * |b|`.
    pub abs: f64,
    pub rel: f64,
    /// Over the vector: `Σ|a - b| <= l1_rel * Σ|b|`.
    pub l1_rel: f64,
}

impl Tolerance {
    /// PageRank: 1e-6 per vertex as the repository's tests have it; at a
    /// million vertices a rank is itself about 1e-6, so the relative L1
    /// bound is the one that bites.
    pub const PAGERANK: Tolerance = Tolerance {
        abs: 1e-6,
        rel: 0.0,
        l1_rel: 1e-6,
    };
    pub const SPMV: Tolerance = Tolerance {
        abs: 0.0,
        rel: 1e-9,
        l1_rel: 1e-9,
    };
}

/// Compares `n` values from `get` with the reference file at `path`,
/// streaming it in 64 KiB pieces.
pub fn matches_f64_file(
    path: &Path,
    n: usize,
    get: impl Fn(usize) -> f64,
    tol: Tolerance,
) -> Res<bool> {
    let mut file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let expected_len = n as u64 * 8;
    let len = file.metadata().map_err(|e| e.to_string())?.len();
    if len != expected_len {
        return Ok(false);
    }
    let mut buf = vec![0u8; 64 << 10];
    let (mut i, mut l1_err, mut l1_ref) = (0usize, 0.0f64, 0.0f64);
    let mut ok = true;
    while i < n {
        let want = ((n - i) * 8).min(buf.len());
        file.read_exact(&mut buf[..want])
            .map_err(|e| e.to_string())?;
        for chunk in buf[..want].chunks_exact(8) {
            let b = f64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
            let a = get(i);
            let d = (a - b).abs();
            // A NaN result must fail, so test for "within", not "beyond".
            let within = d <= tol.abs + tol.rel * b.abs();
            ok &= within;
            l1_err += d;
            l1_ref += b.abs();
            i += 1;
        }
    }
    Ok(ok && l1_err <= tol.l1_rel * l1_ref)
}

#[cfg(test)]
mod tests {
    use super::*;

    // 0 -> 1 -> 2, 0 -> 3; 4 unreached.
    const PARENTS: [i64; 5] = [0, 0, 1, 0, -1];
    const LEVELS: [i64; 5] = [0, 1, 2, 1, -1];

    #[test]
    fn parents_and_levels_agree_on_a_valid_tree() {
        let d = parents_digest(5, |v| PARENTS[v], 0);
        assert!(d.is_some());
        assert_eq!(d, levels_digest(&LEVELS));
    }

    #[test]
    fn a_parent_one_level_off_changes_the_digest() {
        // 3 hangs off 2 instead of 0: level 3, not 1.
        let wrong = [0i64, 0, 1, 2, -1];
        let d = parents_digest(5, |v| wrong[v], 0);
        assert!(d.is_some());
        assert_ne!(d, levels_digest(&LEVELS));
    }

    #[test]
    fn malformed_parents_have_no_digest() {
        let cycle = [0i64, 2, 1, 0, -1];
        assert_eq!(parents_digest(5, |v| cycle[v], 0), None);
        let out_of_range = [0i64, 9, 1, 0, -1];
        assert_eq!(parents_digest(5, |v| out_of_range[v], 0), None);
        let orphan = [0i64, 4, 1, 0, -1];
        assert_eq!(
            parents_digest(5, |v| orphan[v], 0),
            None,
            "child of unreached"
        );
        assert_eq!(parents_digest(5, |v| PARENTS[v], 1), None, "wrong root");
        let self_parent = [0i64, 1, 1, 0, -1];
        assert_eq!(parents_digest(5, |v| self_parent[v], 0), None);
    }

    #[test]
    fn float_files_compare_within_tolerance() {
        let dir = crate::tests::TempDir::new("verify");
        let path = dir.0.join("ref.f64");
        let reference: Vec<f64> = (0..20_000).map(|i| 1.0 + i as f64 * 1e-3).collect();
        write_f64s(&path, &reference).unwrap();
        let n = reference.len();
        let near = |i: usize| reference[i] * (1.0 + 1e-12);
        assert!(matches_f64_file(&path, n, near, Tolerance::SPMV).unwrap());
        let one_off = |i: usize| reference[i] + if i == 12_345 { 1e-3 } else { 0.0 };
        assert!(!matches_f64_file(&path, n, one_off, Tolerance::SPMV).unwrap());
        assert!(!matches_f64_file(&path, n, |_| f64::NAN, Tolerance::PAGERANK).unwrap());
        assert!(
            !matches_f64_file(&path, n - 1, near, Tolerance::SPMV).unwrap(),
            "length mismatch"
        );
    }
}
