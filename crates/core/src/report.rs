//! Text rendering of the paper's exhibits: KDE curves, overlay plots,
//! violin summaries, and CSV emission.
//!
//! The original paper plots with matplotlib; the reproduction renders the
//! same information as unicode block-art plus machine-readable CSV, so
//! every figure can be regenerated and inspected without a plotting
//! stack.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use pv_stats::kde::{Bandwidth, Kde};
use pv_stats::StatsError;

use crate::eval::EvalSummary;

/// Vertical-resolution glyphs for curve rendering.
const BLOCKS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Evaluates a KDE of `values` on a `width`-point grid over `[lo, hi]`.
///
/// # Errors
/// Fails on empty/non-finite input.
pub fn kde_curve(values: &[f64], lo: f64, hi: f64, width: usize) -> Result<Vec<f64>, StatsError> {
    let kde = Kde::fit(values, Bandwidth::Silverman)?;
    Ok(kde
        .grid(lo, hi, width.max(2))
        .into_iter()
        .map(|(_, y)| y)
        .collect())
}

/// Renders one density curve as a single sparkline row.
pub fn sparkline(curve: &[f64]) -> String {
    let max = curve.iter().cloned().fold(0.0f64, f64::max).max(1e-300);
    curve
        .iter()
        .map(|&y| BLOCKS[((y / max) * 8.0).round() as usize])
        .collect()
}

/// Renders measured and predicted distributions on a shared axis: two
/// sparkline rows plus an axis caption — the textual analogue of the
/// paper's Fig. 5/9 overlays.
///
/// # Errors
/// Fails when either sample is empty or non-finite.
pub fn overlay(
    actual: &[f64],
    predicted: &[f64],
    lo: f64,
    hi: f64,
    width: usize,
) -> Result<String, StatsError> {
    let a = kde_curve(actual, lo, hi, width)?;
    let p = kde_curve(predicted, lo, hi, width)?;
    let mut out = String::new();
    writeln!(out, "  measured : {}", sparkline(&a)).expect("string write");
    writeln!(out, "  predicted: {}", sparkline(&p)).expect("string write");
    writeln!(
        out,
        "             {:<w$.2}{:>6.2}",
        lo,
        hi,
        w = width.saturating_sub(6)
    )
    .expect("string write");
    Ok(out)
}

/// Renders a violin-style row for a set of KS scores: a sparkline of the
/// score KDE over `[0, 1]` plus the five-number summary.
///
/// # Errors
/// Fails on empty input.
pub fn violin_row(label: &str, scores: &[f64], width: usize) -> Result<String, StatsError> {
    let curve = kde_curve(scores, 0.0, 1.0, width)?;
    let spread = pv_stats::descriptive::FiveNumber::from_sample(scores)?;
    Ok(format!(
        "{label:<24} {} mean={:.3} med={:.3} iqr=[{:.3},{:.3}]",
        sparkline(&curve),
        scores.iter().sum::<f64>() / scores.len() as f64,
        spread.median,
        spread.q1,
        spread.q3,
    ))
}

/// Formats a grid of evaluation summaries (rows: labels) as an aligned
/// table with violin sparklines — the text rendition of Figs. 4/7.
///
/// # Errors
/// Fails when any summary has no scores.
pub fn summary_table(rows: &[(String, &EvalSummary)]) -> Result<String, StatsError> {
    let mut out = String::new();
    writeln!(
        out,
        "{:<24} {:<44} {:>8} {:>8} {:>8}",
        "configuration", "KS violin (0..1)", "mean", "median", "q3"
    )
    .expect("string write");
    for (label, summary) in rows {
        let scores = summary.ks_values();
        let curve = kde_curve(&scores, 0.0, 1.0, 44)?;
        writeln!(
            out,
            "{:<24} {:<44} {:>8.3} {:>8.3} {:>8.3}",
            label,
            sparkline(&curve),
            summary.mean,
            summary.spread.median,
            summary.spread.q3,
        )
        .expect("string write");
    }
    Ok(out)
}

/// Writes rows of `f64` values as CSV with a header.
///
/// # Errors
/// Fails on I/O errors (wrapped as `InvalidParameter` to stay within the
/// workspace error type).
pub fn write_csv(
    path: &Path,
    header: &[&str],
    rows: &[Vec<f64>],
    label_col: Option<&[String]>,
) -> Result<(), StatsError> {
    let to_err = |e: std::io::Error| StatsError::invalid("write_csv", e.to_string());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(to_err)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).map_err(to_err)?);
    writeln!(f, "{}", header.join(",")).map_err(to_err)?;
    for (i, row) in rows.iter().enumerate() {
        let mut cells: Vec<String> = Vec::with_capacity(row.len() + 1);
        if let Some(labels) = label_col {
            cells.push(labels[i].clone());
        }
        cells.extend(row.iter().map(|v| format!("{v}")));
        writeln!(f, "{}", cells.join(",")).map_err(to_err)?;
    }
    f.flush().map_err(to_err)?;
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::eval::{BenchScore, EvalSummary};
    use pv_sysmodel::suites;

    fn scores(vals: &[f64]) -> EvalSummary {
        let roster = suites::roster();
        EvalSummary::from_scores(
            vals.iter()
                .enumerate()
                .map(|(i, &ks)| BenchScore { id: roster[i], ks })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn kde_curve_has_requested_width() {
        let c = kde_curve(&[0.2, 0.3, 0.25, 0.4], 0.0, 1.0, 30).unwrap();
        assert_eq!(c.len(), 30);
        assert!(c.iter().all(|&y| y >= 0.0));
    }

    #[test]
    fn sparkline_peaks_where_density_peaks() {
        let c = vec![0.0, 0.1, 1.0, 0.1, 0.0];
        let s = sparkline(&c);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 5);
        assert_eq!(chars[2], '█');
        assert_eq!(chars[0], ' ');
    }

    #[test]
    fn overlay_renders_two_rows_and_axis() {
        let a = vec![1.0, 1.01, 0.99, 1.02, 1.0, 0.98];
        let b = vec![1.05, 1.04, 1.06, 1.05, 1.03, 1.07];
        let o = overlay(&a, &b, 0.9, 1.2, 40).unwrap();
        assert_eq!(o.lines().count(), 3);
        assert!(o.contains("measured"));
        assert!(o.contains("predicted"));
    }

    #[test]
    fn violin_row_contains_statistics() {
        let r = violin_row("PearsonRnd+kNN", &[0.2, 0.25, 0.3, 0.22, 0.28], 30).unwrap();
        assert!(r.contains("PearsonRnd+kNN"));
        assert!(r.contains("mean=0.250"));
    }

    #[test]
    fn summary_table_lists_all_rows() {
        let s1 = scores(&[0.2, 0.3, 0.4]);
        let s2 = scores(&[0.1, 0.15, 0.2]);
        let t = summary_table(&[("a".into(), &s1), ("b".into(), &s2)]).unwrap();
        assert!(t.contains("configuration"));
        assert_eq!(t.lines().count(), 3);
    }

    #[test]
    fn csv_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join("pv_core_report_test");
        let path = dir.join("out.csv");
        write_csv(
            &path,
            &["name", "x", "y"],
            &[vec![1.0, 2.0], vec![3.0, 4.0]],
            Some(&["a".into(), "b".into()]),
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("name,x,y\n"));
        assert!(text.contains("a,1,2"));
        assert!(text.contains("b,3,4"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
