//! Deterministic result tables: TSV for the terminal, JSON for artifacts.
//!
//! Every figure aggregates its trial results into a [`Table`], and
//! [`Report::emit`] writes it twice — as a tab-separated listing on
//! stdout, and as a `BENCH_<name>.json` artifact. Formatting is fully
//! deterministic (fixed float precision, stable key order, no timestamps),
//! so a table built from the same trial results is byte-identical no
//! matter how many workers produced them — the property the determinism
//! regression test pins across `--jobs` values.
//!
//! Wall-clock timings are deliberately *not* representable here: they vary
//! run to run, so they go to stdout only ([`Report::lines`]), never into a
//! JSON artifact.

use std::fmt::Write as _;
use std::path::Path;

/// One table cell. Construction is via `From`, so rows read as plain data:
/// `[600.into(), 12.5.into(), "pool".into()]`.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An exact count.
    Int(u64),
    /// A measured quantity; serialized with fixed 4-decimal precision.
    Num(f64),
    /// A label.
    Str(String),
    /// A yes/no regression indicator.
    Bool(bool),
}

impl Cell {
    /// The cell's JSON encoding.
    fn json(&self) -> String {
        match self {
            Cell::Int(v) => v.to_string(),
            Cell::Num(v) => format!("{v:.4}"),
            Cell::Str(s) => format!("\"{}\"", escape(s)),
            Cell::Bool(b) => b.to_string(),
        }
    }

    /// The cell's terminal encoding (TSV column).
    fn tsv(&self) -> String {
        match self {
            Cell::Int(v) => v.to_string(),
            Cell::Num(v) => format!("{v:.3}"),
            Cell::Str(s) => s.clone(),
            Cell::Bool(b) => b.to_string(),
        }
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Int(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(v as u64)
    }
}

impl From<u32> for Cell {
    fn from(v: u32) -> Self {
        Cell::Int(v as u64)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Num(v)
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Self {
        Cell::Str(v.to_owned())
    }
}

impl From<String> for Cell {
    fn from(v: String) -> Self {
        Cell::Str(v)
    }
}

impl From<bool> for Cell {
    fn from(v: bool) -> Self {
        Cell::Bool(v)
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            '\t' => "\\t".chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// An ordered, typed result table for one figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    meta: Vec<(String, Cell)>,
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table with the given figure title and column names.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            meta: Vec::new(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Attaches a scalar experiment parameter (network size, query count…)
    /// serialized under a top-level `"meta"` object.
    pub fn meta(&mut self, key: &str, value: impl Into<Cell>) -> &mut Self {
        self.meta.push((key.to_owned(), value.into()));
        self
    }

    /// Appends one result row.
    ///
    /// # Panics
    ///
    /// Panics if the row width disagrees with the column count.
    pub fn row(&mut self, cells: Vec<Cell>) -> &mut Self {
        assert_eq!(cells.len(), self.columns.len(), "row width != column count");
        self.rows.push(cells);
        self
    }

    /// Prints the table to stdout as TSV.
    fn print_tsv(&self) {
        println!("\n# {}", self.title);
        println!("{}", self.columns.join("\t"));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Cell::tsv).collect();
            println!("{}", cells.join("\t"));
        }
    }

    /// The table's canonical JSON encoding: stable key order, fixed float
    /// precision, one row object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"figure\": \"{}\",", escape(&self.title));
        out.push_str("  \"meta\": {");
        let meta: Vec<String> =
            self.meta.iter().map(|(k, v)| format!("\"{}\": {}", escape(k), v.json())).collect();
        out.push_str(&meta.join(", "));
        out.push_str("},\n");
        let cols: Vec<String> = self.columns.iter().map(|c| format!("\"{}\"", escape(c))).collect();
        let _ = writeln!(out, "  \"columns\": [{}],", cols.join(", "));
        out.push_str("  \"rows\": [\n");
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let fields: Vec<String> = self
                    .columns
                    .iter()
                    .zip(row)
                    .map(|(c, v)| format!("\"{}\": {}", escape(c), v.json()))
                    .collect();
                format!("    {{{}}}", fields.join(", "))
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// What a figure produces: the deterministic table that becomes its
/// artifact, plus lines for stdout only (wall-clock timings, summaries).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The artifact's contents.
    pub table: Table,
    /// Printed after the table, never written to the artifact.
    pub lines: Vec<String>,
}

impl From<Table> for Report {
    fn from(table: Table) -> Self {
        Report { table, lines: Vec::new() }
    }
}

impl Report {
    /// Prints the table, writes its canonical JSON to `path` (creating the
    /// directory), then prints the stdout-only lines after a blank line.
    ///
    /// # Panics
    ///
    /// Panics if the artifact cannot be written.
    pub fn emit(&self, path: &Path) {
        self.table.print_tsv();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create artifact directory");
            }
        }
        std::fs::write(path, self.table.to_json()).expect("write JSON artifact");
        println!("wrote {}", path.display());
        if !self.lines.is_empty() {
            println!();
        }
        for line in &self.lines {
            println!("{line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("unit \"test\" figure", &["nodes", "mean", "system", "ok"]);
        t.meta("queries", 100usize);
        t.row(vec![300usize.into(), 12.34567.into(), "pool".into(), true.into()]);
        t.row(vec![600usize.into(), 0.1.into(), "dim".into(), false.into()]);
        t
    }

    #[test]
    fn json_is_stable_and_parseable_shape() {
        let json = sample().to_json();
        assert_eq!(json, sample().to_json());
        assert!(json.contains("\"figure\": \"unit \\\"test\\\" figure\""));
        assert!(json.contains("\"meta\": {\"queries\": 100}"));
        assert!(json
            .contains("{\"nodes\": 300, \"mean\": 12.3457, \"system\": \"pool\", \"ok\": true}"));
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser dependency.
        for (open, close) in [('{', '}'), ('[', ']')] {
            let opens = json.matches(open).count();
            let closes = json.matches(close).count();
            assert_eq!(opens, closes, "unbalanced {open}{close}");
        }
    }

    #[test]
    fn emit_writes_the_table_json_and_keeps_lines_out_of_it() {
        let dir = std::env::temp_dir().join(format!("pool-bench-emit-{}", std::process::id()));
        let path = dir.join("nested").join("BENCH_unit.json");
        let report = Report { table: sample(), lines: vec!["wall-clock 1.5s".to_owned()] };
        report.emit(&path);
        let written = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(written, sample().to_json());
        assert!(!written.contains("wall-clock"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        Table::new("t", &["a", "b"]).row(vec![1usize.into()]);
    }
}
