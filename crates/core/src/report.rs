//! Plain-text tables and CSV rendering for exhibits.
//!
//! Every exhibit in EXPERIMENTS.md is regenerated by the `tables` binary as
//! an aligned text table (for humans) and optionally CSV (for plots). No
//! external dependencies: `std::fmt` does the work.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells.to_vec());
    }

    /// Convenience: appends a row of `&str`.
    pub fn row_str(&mut self, cells: &[&str]) {
        self.row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(line, "{:<w$}", h, w = widths[i] + 2);
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let total: usize = widths.iter().map(|w| w + 2).sum::<usize>() - 2;
        let _ = writeln!(out, "{}", "-".repeat(total.min(100)));
        for row in &self.rows {
            let mut line = String::new();
            for i in 0..cols {
                let _ = write!(line, "{:<w$}", row[i], w = widths[i] + 2);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Renders the CSV form (title as a comment line).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Formats a float with `digits` decimals.
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Formats an integer with thousands separators.
pub fn n(x: u64) -> String {
    let s = x.to_string();
    let bytes = s.as_bytes();
    let mut out = String::new();
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && (bytes.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(*b as char);
    }
    out
}

/// Formats a probability as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row_str(&["alpha", "1"]);
        t.row_str(&["b", "1000"]);
        let text = t.render();
        assert!(text.contains("## Demo"));
        let lines: Vec<&str> = text.lines().collect();
        // Header and rows start at the same columns.
        assert!(lines[1].starts_with("name"));
        assert!(lines[3].starts_with("alpha"));
        let value_col = lines[1].find("value").unwrap();
        assert_eq!(lines[3].find('1'), Some(value_col));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("X", &["a", "b"]);
        t.row_str(&["has,comma", "plain"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\",plain"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("X", &["a", "b"]);
        t.row_str(&["only-one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(n(1_234_567), "1,234,567");
        assert_eq!(n(999), "999");
        assert_eq!(pct(0.1234), "12.3%");
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new("X", &["a"]);
        assert!(t.is_empty());
        t.row_str(&["1"]);
        assert_eq!(t.len(), 1);
    }
}
