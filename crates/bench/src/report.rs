//! Plain-text table rendering for the reproduction harness.

use std::fmt::Write as _;

/// A simple aligned-column text table.
#[derive(Clone, Debug, Default)]
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub(crate) fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub(crate) fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let sep = if i + 1 == cols { "\n" } else { "  " };
                let _ = write!(out, "{c:<width$}{sep}", width = widths[i]);
            }
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

/// Formats a milliseconds value.
pub(crate) fn ms(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats an optional latency span in milliseconds; `-` when there is
/// no sample (e.g. the percentile of an all-shed stream).
pub(crate) fn opt_ms(v: Option<simcore::SimSpan>) -> String {
    match v {
        Some(s) => ms(s.as_millis_f64()),
        None => "-".to_string(),
    }
}

/// Formats a normalized ratio.
pub(crate) fn ratio(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a percentage.
pub(crate) fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Geometric mean of positive values (1.0 for empty input).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("longer-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All data lines are equally wide (aligned columns).
        assert_eq!(lines[2].find('1'), lines[3].find('2'));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn formatters() {
        assert_eq!(ms(1.2345), "1.23");
        assert_eq!(ratio(0.56789), "0.568");
        assert_eq!(pct(0.305), "30.5%");
    }
}
