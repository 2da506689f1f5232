//! Plain-text table rendering for the experiment binaries.

use std::fmt::Write as _;

/// A simple fixed-width text table with right-aligned numeric columns.
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; it may be shorter than the header (padded empty).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert!(
            row.len() <= self.headers.len(),
            "row has more cells than headers"
        );
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table. First column left-aligned, the rest right-aligned.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if let Some(w) = widths.get_mut(i) {
                    *w = (*w).max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let emit = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let width = widths.get(i).copied().unwrap_or(0);
                if i == 0 {
                    let _ = write!(out, "{cell:<width$}");
                } else {
                    let _ = write!(out, "{cell:>width$}");
                }
            }
            out.push('\n');
        };
        emit(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }
}

/// Formats a count with thousands separators: `1234567 -> "1,234,567"`.
pub fn count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats a fraction as a percentage with one decimal: `0.824 -> "82.4%"`.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a large count with an SI-ish suffix as the paper does
/// (`2.34G`, `27.1k`).
pub fn si(x: f64) -> String {
    let (v, suffix) = if x >= 1e9 {
        (x / 1e9, "G")
    } else if x >= 1e6 {
        (x / 1e6, "M")
    } else if x >= 1e3 {
        (x / 1e3, "k")
    } else {
        (x, "")
    };
    if v >= 100.0 {
        format!("{v:.0}{suffix}")
    } else if v >= 10.0 {
        format!("{v:.1}{suffix}")
    } else {
        format!("{v:.2}{suffix}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["name", "blocks", "%"]);
        t.row(["considered", "6,877,175", ""]);
        t.row(["responding", "3,786,907", "55.1%"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines same width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].contains("55.1%"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["x"]);
        assert!(t.render().contains('x'));
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "more cells")]
    fn long_rows_rejected() {
        let mut t = TextTable::new(["a"]);
        t.row(["1", "2"]);
    }

    #[test]
    fn count_separators() {
        assert_eq!(count(0), "0");
        assert_eq!(count(999), "999");
        assert_eq!(count(1000), "1,000");
        assert_eq!(count(6_877_175), "6,877,175");
    }

    #[test]
    fn pct_and_si() {
        assert_eq!(pct(0.824), "82.4%");
        assert_eq!(pct(1.0), "100.0%");
        assert_eq!(si(2.34e9), "2.34G");
        assert_eq!(si(27_100.0), "27.1k");
        assert_eq!(si(407_000_000.0), "407M");
        assert_eq!(si(5.0), "5.00");
    }
}
