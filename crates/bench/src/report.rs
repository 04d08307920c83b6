//! Plain-text report rendering for the harness binaries.

/// Renders an aligned table: header row + data rows.
pub fn table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders a time series as `t  <columns>` lines.
pub fn series(title: &str, columns: &[&str], points: &[(f64, Vec<f64>)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!("{:>8}", "t(s)"));
    for c in columns {
        out.push_str(&format!("  {c:>12}"));
    }
    out.push('\n');
    for (t, vals) in points {
        out.push_str(&format!("{t:>8.1}"));
        for v in vals {
            out.push_str(&format!("  {v:>12.3}"));
        }
        out.push('\n');
    }
    out
}

/// Formats an f64 with 2 decimals (table cell helper).
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats an f64 with 3 decimals (table cell helper).
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Writes a report to `path`, creating its parent directory.
pub fn save(path: &str, text: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("report directory");
    }
    std::fs::write(path, text).expect("write report");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let out = table(
            "T",
            &["name", "v"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        assert!(out.contains("== T =="));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[1].starts_with("name"));
        assert!(lines[4].starts_with("longer"));
    }

    #[test]
    fn series_renders_points() {
        let out = series(
            "S",
            &["mean", "p99"],
            &[(0.0, vec![1.0, 2.0]), (1.0, vec![3.0, 4.0])],
        );
        assert!(out.contains("mean"));
        assert!(out.lines().count() == 4);
    }

    #[test]
    fn float_helpers() {
        assert_eq!(f2(1.2345), "1.23");
        assert_eq!(f3(1.2345), "1.234");
    }
}
