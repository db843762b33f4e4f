//! Result presentation: text tables, ASCII plots, CSV/JSON/markdown.
//!
//! The benchmark binaries regenerate each of the paper's tables and
//! figures as terminal output plus machine-readable files under
//! `results/`; this crate is the rendering layer they share.
//!
//! # Example
//!
//! ```
//! use sss_report::Table;
//!
//! let mut table = Table::new(["tier", "budget"]).with_title("Latency tiers");
//! table.row(["1 (real-time)", "< 1 s"]);
//! table.row(["2 (near real-time)", "< 10 s"]);
//!
//! let text = table.to_text();
//! assert!(text.contains("Latency tiers"));
//! // The same table renders as GitHub-flavored markdown for reports.
//! assert!(table.to_markdown().contains("| tier |"));
//! ```

mod csv;
mod grid;
mod plot;
mod table;

pub use csv::CsvWriter;
pub use grid::CharGrid;
pub use plot::{AsciiPlot, Scale, Series};
pub use table::Table;

use std::io;
use std::path::Path;

/// Write any serializable value as pretty JSON to `path`.
pub fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> io::Result<()> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_via_file() {
        let dir = std::env::temp_dir().join("sss-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("value.json");
        write_json(&path, &vec![1, 2, 3]).unwrap();
        let back: Vec<i32> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
    }
}
