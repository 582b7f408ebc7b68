//! Aligned ASCII table rendering.

use std::fmt::Write as _;

/// Column alignment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Align {
    Left,
    Right,
}

/// Builds aligned, monospace tables like the ones the paper prints.
///
/// ```
/// use arl_stats::TableBuilder;
///
/// let mut t = TableBuilder::new(&["Benchmark", "IPC"]);
/// t.row(&["go", "2.31"]);
/// t.row(&["gcc", "2.58"]);
/// let s = t.render();
/// assert!(s.contains("Benchmark"));
/// assert!(s.lines().count() >= 4);
/// ```
#[derive(Clone, Debug)]
pub struct TableBuilder {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    aligns: Vec<Align>,
}

impl TableBuilder {
    /// Creates a table with the given column headers. The first column is
    /// left-aligned, the rest right-aligned (the common numeric layout).
    pub fn new(headers: &[&str]) -> TableBuilder {
        let aligns = (0..headers.len())
            .map(|i| if i == 0 { Align::Left } else { Align::Right })
            .collect();
        TableBuilder {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            aligns,
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row's arity differs from the header's.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) -> &mut TableBuilder {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity must match header arity"
        );
        self.rows
            .push(cells.iter().map(|c| c.as_ref().to_string()).collect());
        self
    }

    /// Renders the table with a header rule.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let emit_row = |out: &mut String, cells: &[String]| {
            for i in 0..ncols {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = widths[i] - cells[i].chars().count();
                match self.aligns[i] {
                    Align::Left => {
                        out.push_str(&cells[i]);
                        if i + 1 < ncols {
                            out.extend(std::iter::repeat_n(' ', pad));
                        }
                    }
                    Align::Right => {
                        out.extend(std::iter::repeat_n(' ', pad));
                        out.push_str(&cells[i]);
                    }
                }
            }
            out.push('\n');
        };
        emit_row(&mut out, &self.headers);
        let rule_len = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        let _ = writeln!(out, "{}", "-".repeat(rule_len));
        for row in &self.rows {
            emit_row(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_align() {
        let mut t = TableBuilder::new(&["name", "value"]);
        t.row(&["a", "1"]);
        t.row(&["longer", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows same width (right-aligned numeric column).
        assert!(lines[2].ends_with("    1"));
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = TableBuilder::new(&["a", "b"]);
        t.row(&["only one"]);
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = TableBuilder::new(&["x"]);
        assert!(t.rows.is_empty());
        assert_eq!(t.render().lines().count(), 2);
    }
}
