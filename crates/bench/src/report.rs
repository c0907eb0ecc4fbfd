//! Plain-text reporting helpers shared by the experiment binaries.

use rdb_dist::Pdf;

/// Prints an aligned table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Renders a density as a unicode sparkline over `cols` columns.
pub fn sparkline(pdf: &Pdf, cols: usize) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let n = pdf.bins();
    let mut buckets = vec![0.0f64; cols];
    for i in 0..n {
        let b = (i * cols / n).min(cols - 1);
        buckets[b] += pdf.weight(i);
    }
    let max = buckets.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
    buckets
        .iter()
        .map(|&w| {
            let level = ((w / max) * 7.0).round() as usize;
            BLOCKS[level.min(7)]
        })
        .collect()
}

/// The checkout's commit, `-dirty` with uncommitted changes, for stamping
/// a `BENCH_*.json` report.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The host's available parallelism (1 when unknown), for stamping a
/// `BENCH_*.json` report.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Formats a float compactly.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shape_tracks_distribution() {
        let s = sparkline(&Pdf::bell(0.1, 0.02), 10);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 10);
        assert!(
            chars[0] == '█' || chars[1] == '█',
            "mass near 0.1 peaks in the first buckets: {s}"
        );
        assert_eq!(chars[9], '▁', "no mass near 1");
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(12345.6), "12346");
        assert_eq!(fmt(42.42), "42.4");
        assert_eq!(fmt(1.2345), "1.234");
    }
}
