//! Plain-text and binary edge-list readers/writers, so real-world graphs
//! (SNAP dumps, `.tsv` crawls) can be converted into the Blaze on-disk
//! format.

use std::io::{BufRead, BufWriter, Read, Write};
use std::path::Path;

use blaze_types::{BlazeError, Result, VertexId};

use crate::builder::GraphBuilder;
use crate::csr::Csr;

/// Parses a whitespace-separated text edge list (`src dst` per line).
///
/// Lines starting with `#` or `%` are comments (SNAP and Matrix-Market
/// conventions). Vertex ids may be sparse; the graph is sized to the
/// maximum id seen. Duplicate edges and self-loops are preserved unless
/// `dedup` is set.
pub fn read_edge_list_text<R: Read>(reader: R, dedup: bool) -> Result<Csr> {
    let reader = std::io::BufReader::new(reader);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut max_id: u64 = 0;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut fields = trimmed.split_whitespace();
        let (Some(s), Some(d)) = (fields.next(), fields.next()) else {
            return Err(BlazeError::Format(format!(
                "line {}: expected `src dst`, got {trimmed:?}",
                lineno + 1
            )));
        };
        let parse = |tok: &str| -> Result<VertexId> {
            tok.parse::<u64>()
                .map_err(|e| {
                    BlazeError::Format(format!("line {}: bad vertex id {tok:?}: {e}", lineno + 1))
                })
                .and_then(|v| {
                    VertexId::try_from(v).map_err(|_| {
                        BlazeError::Format(format!(
                            "line {}: vertex id {v} exceeds the 32-bit id space",
                            lineno + 1
                        ))
                    })
                })
        };
        let (s, d) = (parse(s)?, parse(d)?);
        max_id = max_id.max(s as u64).max(d as u64);
        edges.push((s, d));
    }
    let n = if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    };
    let mut b = GraphBuilder::new(n).dedup(dedup);
    b.extend(edges);
    b.try_build()
}

/// Reads a text edge list from a file path.
pub fn read_edge_list_file(path: impl AsRef<Path>, dedup: bool) -> Result<Csr> {
    read_edge_list_text(std::fs::File::open(path)?, dedup)
}

/// Writes `g` as a text edge list (one `src dst` per line, `#` header).
pub fn write_edge_list_text<W: Write>(g: &Csr, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (s, d) in g.edges() {
        writeln!(w, "{s} {d}")?;
    }
    w.flush()?;
    Ok(())
}

/// Binary edge list: little-endian `(u32 src, u32 dst)` pairs after an
/// 8-byte header holding the edge count — the compact interchange format
/// the converter uses for large inputs.
pub fn write_edge_list_binary<W: Write>(g: &Csr, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(&g.num_edges().to_le_bytes())?;
    for (s, d) in g.edges() {
        w.write_all(&s.to_le_bytes())?;
        w.write_all(&d.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Reads the binary edge-list format written by [`write_edge_list_binary`].
pub fn read_edge_list_binary<R: Read>(reader: R, dedup: bool) -> Result<Csr> {
    let mut r = std::io::BufReader::new(reader);
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let m = u64::from_le_bytes(header);
    let mut edges = Vec::with_capacity(m.min(1 << 24) as usize);
    let mut rec = [0u8; 8];
    let mut max_id = 0u32;
    for i in 0..m {
        r.read_exact(&mut rec).map_err(|e| {
            BlazeError::Format(format!("edge {i}/{m}: truncated binary edge list: {e}"))
        })?;
        let s = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
        let d = u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]);
        max_id = max_id.max(s).max(d);
        edges.push((s, d));
    }
    let n = if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    };
    let mut b = GraphBuilder::new(n).dedup(dedup);
    b.extend(edges);
    b.try_build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{rmat, RmatConfig};

    #[test]
    fn text_round_trip() {
        let g = rmat(&RmatConfig::new(7));
        let mut buf = Vec::new();
        write_edge_list_text(&g, &mut buf).unwrap();
        let back = read_edge_list_text(&buf[..], false).unwrap();
        assert_eq!(back.num_edges(), g.num_edges());
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = back.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn binary_round_trip() {
        let g = rmat(&RmatConfig::new(7));
        let mut buf = Vec::new();
        write_edge_list_binary(&g, &mut buf).unwrap();
        let back = read_edge_list_binary(&buf[..], false).unwrap();
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = back.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# snap header\n% mm header\n\n0 1\n1 2\n\n2 0\n";
        let g = read_edge_list_text(text.as_bytes(), false).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn dedup_collapses_duplicates() {
        let text = "0 1\n0 1\n0 1\n";
        let g = read_edge_list_text(text.as_bytes(), true).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        let err = read_edge_list_text("0 1\nhello\n".as_bytes(), false).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = read_edge_list_text("0\n".as_bytes(), false).unwrap_err();
        assert!(err.to_string().contains("expected"), "{err}");
        let err = read_edge_list_text("0 99999999999\n".as_bytes(), false).unwrap_err();
        assert!(err.to_string().contains("32-bit"), "{err}");
    }

    #[test]
    fn truncated_binary_is_rejected() {
        let g = rmat(&RmatConfig::new(6));
        let mut buf = Vec::new();
        write_edge_list_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_edge_list_binary(&buf[..], false).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn empty_inputs_give_empty_graphs() {
        let g = read_edge_list_text("# nothing\n".as_bytes(), false).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
