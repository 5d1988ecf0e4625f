//! Console tables and CSV output for the experiment binaries.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A simple fixed-width console table (paper-style rows).
#[derive(Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: String,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: title.to_string(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line_len: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        println!("\n{}", self.title);
        println!("{}", "=".repeat(line_len.min(120)));
        let fmt_row = |cells: &[String]| {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(&widths) {
                s.push_str(&format!(" {c:>w$} |", w = w));
            }
            s
        };
        println!("{}", fmt_row(&self.headers));
        println!("{}", "-".repeat(line_len.min(120)));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }

    /// Writes the table as CSV under `dir/name.csv`; returns the path.
    pub fn write_csv(&self, dir: &str, name: &str) -> std::io::Result<PathBuf> {
        let mut w = CsvWriter::create(dir, name)?;
        w.row(&self.headers.iter().map(|s| s.as_str()).collect::<Vec<_>>())?;
        for row in &self.rows {
            w.row(&row.iter().map(|s| s.as_str()).collect::<Vec<_>>())?;
        }
        Ok(w.path)
    }
}

/// Incremental CSV writer.
#[derive(Debug)]
pub struct CsvWriter {
    file: fs::File,
    /// Full path of the file being written.
    pub path: PathBuf,
}

impl CsvWriter {
    /// Creates `dir/name.csv` (and `dir` itself if needed).
    pub fn create(dir: &str, name: &str) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        let path = Path::new(dir).join(format!("{name}.csv"));
        let file = fs::File::create(&path)?;
        Ok(CsvWriter { file, path })
    }

    /// Writes one row, quoting cells containing commas.
    pub fn row(&mut self, cells: &[&str]) -> std::io::Result<()> {
        let line = cells
            .iter()
            .map(|c| {
                if c.contains(',') || c.contains('"') {
                    format!("\"{}\"", c.replace('"', "\"\""))
                } else {
                    c.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join(",");
        writeln!(self.file, "{line}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip_csv() {
        let mut t = Table::new("test", &["size", "gflops"]);
        t.row(vec!["1024".into(), "12.5".into()]);
        t.row(vec!["2048".into(), "13,5".into()]);
        let dir = std::env::temp_dir().join("ftgemm-bench-test");
        let p = t.write_csv(dir.to_str().unwrap(), "t1").expect("csv write");
        let s = std::fs::read_to_string(p).unwrap();
        assert!(s.starts_with("size,gflops\n"));
        assert!(s.contains("\"13,5\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
