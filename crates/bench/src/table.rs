//! Markdown table rendering for experiment output.

/// A simple right-ragged markdown table builder.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:<w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{:-<1$}|", "", w + 2));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Format seconds with sensible precision.
pub fn secs(s: f64) -> String {
    if s.is_nan() {
        "-".into()
    } else if s < 0.001 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Format a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(&["n", "failure"]);
        t.row(&["8".into(), "0.0%".into()]);
        t.row(&["12".into(), "90.0%".into()]);
        let s = t.render();
        assert!(s.starts_with("| n  | failure |\n|----|"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(0.0000005), "0.5us");
        assert_eq!(secs(0.05), "50.0ms");
        assert_eq!(secs(2.5), "2.50s");
        assert_eq!(pct(0.905), "90.5%");
    }
}
