//! Fixed-width plain-text tables for the experiment harness.

use std::fmt;

/// Column alignment for [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Align {
    /// Left-justified (default).
    #[default]
    Left,
    /// Right-justified; the natural choice for numeric columns.
    Right,
}

/// A simple fixed-width text table.
///
/// Used by the experiment harness to print the paper's tables and figure
/// data in a terminal-friendly format.
///
/// # Examples
///
/// ```
/// use regshare_stats::{Align, Table};
///
/// let mut t = Table::new(vec!["benchmark".into(), "ipc".into()]);
/// t.align(1, Align::Right);
/// t.row(vec!["saxpy".into(), "1.43".into()]);
/// let text = t.render();
/// assert!(text.contains("saxpy"));
/// assert!(text.contains("1.43"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        let aligns = vec![Align::Left; headers.len()];
        Table {
            headers,
            aligns,
            rows: Vec::new(),
        }
    }

    /// Convenience constructor from string slices.
    pub fn with_headers(headers: &[&str]) -> Self {
        Table::new(headers.iter().map(|h| h.to_string()).collect())
    }

    /// Sets the alignment for column `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn align(&mut self, idx: usize, align: Align) -> &mut Self {
        self.aligns[idx] = align;
        self
    }

    /// Right-aligns every column except the first; the common layout for
    /// "name | number | number | …" tables.
    pub fn numeric(&mut self) -> &mut Self {
        for a in self.aligns.iter_mut().skip(1) {
            *a = Align::Right;
        }
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row has a different number of cells than the header.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table to a `String`, including a header separator line.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let pad = |s: &str, w: usize, a: Align| -> String {
            let len = s.chars().count();
            let fill = w.saturating_sub(len);
            match a {
                Align::Left => format!("{s}{}", " ".repeat(fill)),
                Align::Right => format!("{}{s}", " ".repeat(fill)),
            }
        };
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&pad(h, widths[i], self.aligns[i]));
        }
        out.push('\n');
        for (i, w) in widths.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&"-".repeat(*w));
        }
        out.push('\n');
        for row in &self.rows {
            for i in 0..ncols {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&pad(&row[i], widths[i], self.aligns[i]));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_headers_and_cells() {
        let mut t = Table::with_headers(&["a", "b"]);
        t.row(vec!["x".into(), "y".into()]);
        let s = t.render();
        assert!(s.contains('a') && s.contains('b') && s.contains('x') && s.contains('y'));
    }

    #[test]
    fn columns_are_aligned() {
        let mut t = Table::with_headers(&["name", "v"]);
        t.align(1, Align::Right);
        t.row(vec!["long-name".into(), "1".into()]);
        t.row(vec!["s".into(), "100".into()]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        // All lines are padded to equal width.
        assert_eq!(lines[2].len(), lines[3].len());
        // Right alignment: '1' sits at the end of row 1's value column.
        assert!(lines[2].ends_with('1'));
    }

    #[test]
    #[should_panic(expected = "row width must match")]
    fn mismatched_row_width_panics() {
        let mut t = Table::with_headers(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn numeric_right_aligns_all_but_first() {
        let mut t = Table::with_headers(&["k", "v1", "v2"]);
        t.numeric();
        assert_eq!(t.aligns[0], Align::Left);
        assert_eq!(t.aligns[1], Align::Right);
        assert_eq!(t.aligns[2], Align::Right);
    }

    #[test]
    fn rows_are_counted_and_rendered() {
        let mut t = Table::with_headers(&["a", "b"]);
        t.row(vec!["1.5".into(), "2.25".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.render().contains("2.25"));
    }

    #[test]
    fn unicode_headers_do_not_break_padding() {
        let mut t = Table::with_headers(&["α", "β"]);
        t.row(vec!["aa".into(), "bb".into()]);
        // Must not panic and must contain the data.
        assert!(t.render().contains("aa"));
    }
}
