//! Column-aligned text and markdown tables.

/// A simple table builder: a header row plus data rows, rendered with
/// aligned columns (for terminals) or as GitHub-flavored markdown (the
/// `.md` artifacts under `results/`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    title: Option<String>,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            title: None,
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Attach a title printed above the table.
    pub fn with_title<S: Into<String>>(mut self, title: S) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics when the row width differs from the header width.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        widths
    }

    /// Render with space-padded aligned columns.
    pub fn to_text(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        if let Some(t) = &self.title {
            out.push_str(t);
            out.push('\n');
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{:<w$}", c, w = w))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Render as a GitHub-flavored markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if let Some(t) = &self.title {
            out.push_str(&format!("**{t}**\n\n"));
        }
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.header.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(["name", "value"]).with_title("Demo");
        t.row(["alpha", "0.8"]);
        t.row(["very-long-name", "1"]);
        t
    }

    #[test]
    fn text_alignment() {
        let text = sample().to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "Demo");
        assert!(lines[1].starts_with("name"));
        // Both data rows align their second column.
        let col = lines[3].find("0.8").unwrap();
        let col2 = lines[4].find('1').unwrap();
        assert_eq!(col, col2);
    }

    #[test]
    fn markdown_shape() {
        let md = sample().to_markdown();
        assert!(md.contains("| name | value |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| alpha | 0.8 |"));
        assert!(md.starts_with("**Demo**"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn empty_table_renders_header() {
        let t = Table::new(["x"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.to_text().contains('x'));
    }

    #[test]
    fn unicode_width_uses_chars() {
        let mut t = Table::new(["µ", "σ"]);
        t.row(["1", "2"]);
        let text = t.to_text();
        assert!(text.contains("µ"));
    }
}
