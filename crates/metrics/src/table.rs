//! ASCII table rendering for experiment output, so the harness can print
//! rows shaped exactly like the paper's tables.

/// A simple monospace table builder.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table. Headers and the first column are left-aligned,
    /// every other cell right-aligned.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        Table { headers, rows: Vec::new() }
    }

    /// Appends a row; must match the header arity.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with box-drawing rules.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let rule = |out: &mut String| {
            for w in &widths {
                out.push('+');
                out.push_str(&"-".repeat(w + 2));
            }
            out.push_str("+\n");
        };
        let emit_row = |out: &mut String, cells: &[String], header: bool| {
            for i in 0..ncols {
                let pad = " ".repeat(widths[i] - cells[i].chars().count());
                out.push_str("| ");
                if header || i == 0 {
                    out.push_str(&cells[i]);
                    out.push_str(&pad);
                } else {
                    out.push_str(&pad);
                    out.push_str(&cells[i]);
                }
                out.push(' ');
            }
            out.push_str("|\n");
        };
        rule(&mut out);
        emit_row(&mut out, &self.headers, true);
        rule(&mut out);
        for row in &self.rows {
            emit_row(&mut out, row, false);
        }
        rule(&mut out);
        out
    }
}

/// Formats a value as the paper prints table cells: `mean (sd)`.
pub fn mean_sd_cell(mean: f64, sd: f64) -> String {
    format!("{:.0} ({:.0})", mean, sd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["alpha", "1"]);
        t.row(vec!["b", "12345"]);
        let s = t.render();
        assert!(s.contains("| alpha |     1 |"), "got:\n{s}");
        assert!(s.contains("| b     | 12345 |"), "got:\n{s}");
        let widths: Vec<usize> = s.lines().map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "ragged table:\n{s}");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn mean_sd_cell_matches_paper_format() {
        assert_eq!(mean_sd_cell(569.4, 3.2), "569 (3)");
    }
}
