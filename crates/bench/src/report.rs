//! The one reporting path every campaign shares: a flat-JSON row
//! writer for the exact counter pins, and [`finish`], which ends a
//! campaign binary.
//!
//! A campaign describes its simulated results as a [`Bench`]: a name
//! and a list of flat [`Row`]s. [`to_json`] renders several reports as
//! one JSON array,
//!
//! ```text
//! [
//!   {
//!     "benchmark": "traffic",
//!     "rows": [
//!       {"scenario": "steady", "requests_per_run": 150, "requests_per_sec": 1234.5},
//!       ...
//!     ]
//!   },
//!   ...
//! ]
//! ```
//!
//! and `tests/campaign_counters.rs` compares the smoke campaigns'
//! rendering with the committed `tests/golden/campaign_counters.json`
//! exactly. Rows hold only simulated values, so the pin does not
//! depend on the host; wall time stays in the printed tables and is
//! gated by the `benchmark` package.

use std::fmt::{self, Write as _};
use std::process::ExitCode;

use contutto_sim::MetricsRegistry;

/// One field value of a row.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    /// An exact count or size.
    Int(u64),
    /// A simulated rate or ratio.
    Num(f64),
    /// A name or a rendered fingerprint.
    Str(String),
}

impl fmt::Display for Value {
    /// JSON rendering. Floats use the shortest text that parses back
    /// to the same `f64`; non-finite floats, which JSON cannot carry,
    /// become `null`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Num(v) if v.is_finite() => write!(f, "{v:?}"),
            Value::Num(_) => f.write_str("null"),
            Value::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    if c == '"' || c == '\\' {
                        f.write_char('\\')?;
                    }
                    f.write_char(c)?;
                }
                f.write_char('"')
            }
        }
    }
}

/// One flat JSON object: named values in write order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row(Vec<(String, Value)>);

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Row::default()
    }

    /// Appends an integer field.
    pub fn int(self, key: &str, v: u64) -> Self {
        self.with(key, Value::Int(v))
    }

    /// Appends a float field.
    pub fn num(self, key: &str, v: f64) -> Self {
        self.with(key, Value::Num(v))
    }

    /// Appends a string field.
    pub fn text(self, key: &str, v: impl Into<String>) -> Self {
        self.with(key, Value::Str(v.into()))
    }

    fn with(mut self, key: &str, v: Value) -> Self {
        self.0.push((key.to_owned(), v));
        self
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('{')?;
        for (i, (k, v)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{}: {v}", Value::Str(k.clone()))?;
        }
        f.write_char('}')
    }
}

/// A campaign's pinned rows.
#[derive(Debug, Clone)]
pub struct Bench {
    /// Report name: the `benchmark` field.
    pub name: &'static str,
    /// The rows, in table order.
    pub rows: Vec<Row>,
}

/// Renders `benches` as one JSON array, one report object per entry
/// and one row per line.
pub fn to_json(benches: &[Bench]) -> String {
    let mut out = String::from("[\n");
    for (i, bench) in benches.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {{\n    \"benchmark\": {},\n    \"rows\": [",
            Value::Str(bench.name.into())
        );
        for (j, row) in bench.rows.iter().enumerate() {
            let sep = if j + 1 < bench.rows.len() { "," } else { "" };
            let _ = writeln!(out, "      {row}{sep}");
        }
        let sep = if i + 1 < benches.len() { "," } else { "" };
        let _ = writeln!(out, "    ]\n  }}{sep}");
    }
    out.push_str("]\n");
    out
}

/// Ends a campaign binary: prints `table` (and `metrics`, when asked
/// for) and returns failure when the campaign's own `violations` hold
/// anything.
pub fn finish(
    campaign: &str,
    table: &str,
    metrics: Option<&MetricsRegistry>,
    violations: Vec<String>,
) -> ExitCode {
    print!("{table}");
    if let Some(metrics) = metrics {
        println!("\nmerged metrics across all runs:");
        print!("{}", metrics.render());
    }
    for v in &violations {
        eprintln!("violation: {v}");
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{campaign} campaign FAILED: see violations above");
        ExitCode::FAILURE
    }
}
