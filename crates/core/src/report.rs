//! Plain-text table rendering for explainable decision reports (NFR2).

use crate::matrix::TraitMatrix;
use crate::rank::RankedEntry;

/// Renders an aligned plain-text table. Columns are sized to their widest
/// cell; the header is underlined with dashes.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:width$}", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with three decimals, the fixed precision used across
/// reports so diffs stay stable.
pub fn fmt_f64(v: f64) -> String {
    format!("{v:.3}")
}

/// Builds the decision-table rows for the report's top `limit` ranked
/// entries; `matrix` row `i` holds entry `i`'s trait values. Trait cells
/// list columns alphabetically (the order the seed's `BTreeMap` iteration
/// produced); notes render lazily here — only these rows ever pay the
/// formatting cost.
pub fn decision_rows(
    matrix: &TraitMatrix,
    ranked: &[RankedEntry],
    limit: usize,
) -> Vec<Vec<String>> {
    let name_order = matrix.trait_ids_by_name();
    ranked
        .iter()
        .take(limit)
        .enumerate()
        .map(|(row, e)| {
            let traits = name_order
                .iter()
                .map(|id| {
                    format!(
                        "{}={}",
                        matrix.trait_name(*id),
                        fmt_f64(matrix.value(row, *id))
                    )
                })
                .collect::<Vec<_>>()
                .join(" ");
            vec![
                e.id.to_string(),
                fmt_f64(e.score),
                if e.selected { "yes" } else { "no" }.to_string(),
                traits,
                e.note.to_string(),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let s = render_table(
            &["id", "score"],
            &[
                vec!["t1".to_string(), "0.900".to_string()],
                vec!["t2/long-partition".to_string(), "0.100".to_string()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("id"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Column 2 aligned: 'score' column starts at the same offset.
        let off0 = lines[0].find("score").unwrap();
        let off2 = lines[2].find("0.900").unwrap();
        assert_eq!(off0, off2);
    }

    #[test]
    fn float_formatting_is_stable() {
        assert_eq!(fmt_f64(1.0 / 3.0), "0.333");
        assert_eq!(fmt_f64(2.0), "2.000");
    }
}
