//! The one reporting path every campaign shares: a flat-JSON BENCH
//! writer, a tolerant parser, the ≥[`REGRESSION_FLOOR`]× regression
//! gate, and [`finish`], which ties them to a binary's exit code.
//!
//! A campaign describes its results as a [`Bench`]: a list of flat
//! [`Row`]s, the fields that identify a row's workload size (its key),
//! and the higher-is-better fields the gate checks. The file it writes
//! looks like
//!
//! ```text
//! {
//!   "benchmark": "traffic",
//!   "rows": [
//!     {"scenario": "steady", "requests_per_run": 150, "requests_per_sec": 1234.5},
//!     ...
//!   ]
//! }
//! ```
//!
//! The next run reads it back as its baseline. A baseline row gates a
//! current row only when every key field matches, so a smoke run never
//! gates against a full-scale baseline. Unreadable, truncated or
//! foreign input yields no rows and therefore no gate.

use std::fmt::{self, Write as _};
use std::process::ExitCode;

use contutto_sim::MetricsRegistry;

/// A gated field may fall to this fraction of its baseline value
/// before the gate reports a regression.
pub const REGRESSION_FLOOR: f64 = 0.8;

/// One field value of a BENCH row.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An exact count or size.
    Int(u64),
    /// A measured rate or ratio.
    Num(f64),
    /// A name or a rendered fingerprint.
    Str(String),
}

impl Value {
    /// The value as a number, `None` for strings.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Num(v) => Some(*v),
            Value::Str(_) => None,
        }
    }
}

impl fmt::Display for Value {
    /// JSON rendering. Floats use the shortest text that parses back
    /// to the same `f64`; non-finite floats, which JSON cannot carry,
    /// become `null` and are dropped on parse.
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

/// One flat BENCH object: named values in write order.
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

    /// The value under `key`, if present.
    fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
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

/// A campaign's BENCH report and how the gate reads it.
#[derive(Debug, Clone)]
pub struct Bench {
    /// Report name: the `benchmark` field and the `BENCH_<name>.json`
    /// file name.
    pub name: &'static str,
    /// The rows, in table order.
    pub rows: Vec<Row>,
    /// Fields naming a row's workload; a baseline row gates only when
    /// all of them match.
    pub key: &'static [&'static str],
    /// Higher-is-better fields the gate checks.
    pub gated: &'static [&'static str],
}

impl Bench {
    /// Where the report lives, relative to the working directory.
    fn path(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Serializes the report.
    pub(crate) fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"benchmark\": {},\n  \"rows\": [\n",
            Value::Str(self.name.into())
        );
        for (i, row) in self.rows.iter().enumerate() {
            let sep = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(out, "    {row}{sep}");
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Gate failures of these rows against a previous report's JSON:
    /// one line per gated field that fell below [`REGRESSION_FLOOR`]
    /// times the value of a baseline row with the same key.
    pub(crate) fn gate(&self, baseline_json: &str) -> Vec<String> {
        let baseline = parse(baseline_json);
        let mut out = Vec::new();
        for row in &self.rows {
            let Some(id) = self.key_of(row) else {
                continue;
            };
            for old in baseline
                .iter()
                .filter(|b| self.key_of(b).as_ref() == Some(&id))
            {
                for &field in self.gated {
                    let now = row.get(field).and_then(Value::as_f64);
                    let was = old.get(field).and_then(Value::as_f64);
                    if let (Some(now), Some(was)) = (now, was) {
                        if now < REGRESSION_FLOOR * was {
                            out.push(format!(
                                "{}: {field} {now:.3} regressed below {REGRESSION_FLOOR}x baseline {was:.3}",
                                id.join(" ")
                            ));
                        }
                    }
                }
            }
        }
        out
    }

    /// The row's key rendered as `field=value` pairs, or `None` when a
    /// key field is missing.
    fn key_of(&self, row: &Row) -> Option<Vec<String>> {
        self.key
            .iter()
            .map(|k| row.get(k).map(|v| format!("{k}={v}")))
            .collect()
    }
}

/// Reads every flat object (one holding no nested object) out of
/// `json`. Tolerant: text that is not the writer's format yields fewer
/// rows, never an error, and a field whose value does not parse is
/// dropped from its row.
fn parse(json: &str) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut rest = json;
    while let Some(open) = rest.find('{') {
        rest = &rest[open + 1..];
        let Some(close) = rest.find('}') else {
            break;
        };
        let body = &rest[..close];
        if !body.contains('{') {
            rows.push(parse_fields(body));
            rest = &rest[close + 1..];
        }
    }
    rows
}

/// Parses `"key": value` pairs until the text stops looking like them.
fn parse_fields(mut body: &str) -> Row {
    let mut row = Row::new();
    loop {
        body = body.trim_start_matches([',', ' ', '\n', '\r', '\t']);
        let Some((key, after)) = take_string(body) else {
            return row;
        };
        let Some(after) = after.trim_start().strip_prefix(':') else {
            return row;
        };
        let after = after.trim_start();
        let (value, after) = if after.starts_with('"') {
            match take_string(after) {
                Some((s, after)) => (Some(Value::Str(s)), after),
                None => return row,
            }
        } else {
            let end = after.find([',', '}']).unwrap_or(after.len());
            (parse_scalar(after[..end].trim()), &after[end..])
        };
        if let Some(value) = value {
            row.0.push((key, value));
        }
        body = after;
    }
}

/// Splits a leading JSON string off `text`, unescaping `\x` to `x`.
fn take_string(text: &str) -> Option<(String, &str)> {
    let mut chars = text.strip_prefix('"')?.char_indices();
    let mut out = String::new();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &text[i + 2..])),
            '\\' => out.push(chars.next()?.1),
            c => out.push(c),
        }
    }
    None
}

/// An integer when the token is all digits, else a float.
fn parse_scalar(token: &str) -> Option<Value> {
    if !token.is_empty() && token.bytes().all(|b| b.is_ascii_digit()) {
        return token.parse().ok().map(Value::Int);
    }
    token
        .parse()
        .ok()
        .filter(|v: &f64| v.is_finite())
        .map(Value::Num)
}

/// Ends a campaign binary: prints `table` (and `metrics`, when asked
/// for), gates `bench` against the previous report at its path, writes
/// the new report, and returns failure when the campaign's own
/// `violations` or the gate found anything.
pub fn finish(
    campaign: &str,
    table: &str,
    metrics: Option<&MetricsRegistry>,
    mut violations: Vec<String>,
    bench: Option<&Bench>,
) -> ExitCode {
    print!("{table}");
    if let Some(metrics) = metrics {
        println!("\nmerged metrics across all runs:");
        print!("{}", metrics.render());
    }
    if let Some(bench) = bench {
        let path = bench.path();
        if let Ok(baseline) = std::fs::read_to_string(&path) {
            violations.extend(bench.gate(&baseline));
        }
        match std::fs::write(&path, bench.to_json()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(rows: Vec<Row>) -> Bench {
        Bench {
            name: "test",
            rows,
            key: &["scenario", "requests"],
            gated: &["per_sec"],
        }
    }

    fn steady(requests: u64, per_sec: f64) -> Row {
        Row::new()
            .text("scenario", "steady")
            .int("requests", requests)
            .num("per_sec", per_sec)
    }

    #[test]
    fn writer_round_trips_through_the_parser() {
        let rows = vec![
            Row::new()
                .text("scenario", "scrub-\"storm\"")
                .int("requests", 150)
                .num("per_sec", 1234.5678)
                .num("tiny", 1e-9)
                .num("whole", 10.0)
                .text("fingerprint", "0xdeadbeef"),
            steady(u64::MAX, 0.1),
        ];
        let json = bench(rows.clone()).to_json();
        assert_eq!(parse(&json), rows, "{json}");
    }

    #[test]
    fn non_finite_floats_are_dropped() {
        let json = bench(vec![Row::new().int("a", 1).num("b", f64::NAN)]).to_json();
        assert_eq!(parse(&json), vec![Row::new().int("a", 1)]);
    }

    #[test]
    fn empty_truncated_or_garbage_input_gates_nothing() {
        let current = bench(vec![steady(150, 1.0)]);
        let full = bench(vec![steady(150, 1e9)]).to_json();
        assert!(
            !current.gate(&full).is_empty(),
            "control: a real baseline gates"
        );
        let truncated = &full[..full.find("1000000000").unwrap()];
        for input in [
            "",
            truncated,
            "not json at all",
            "{{{",
            "}{",
            "{\"scenario\": }",
        ] {
            assert!(current.gate(input).is_empty(), "{input:?} gated");
        }
    }

    #[test]
    fn inflated_baseline_trips_the_gate() {
        let current = bench(vec![steady(150, 100.0)]);
        assert!(current.gate(&current.to_json()).is_empty());
        assert!(current
            .gate(&bench(vec![steady(150, 125.0)]).to_json())
            .is_empty());
        let v = current.gate(&bench(vec![steady(150, 126.0)]).to_json());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("scenario=\"steady\" requests=150"),
            "{}",
            v[0]
        );
        assert!(v[0].contains("per_sec 100.000 regressed"), "{}", v[0]);
    }

    #[test]
    fn baseline_with_a_different_size_key_is_skipped() {
        let current = bench(vec![steady(150, 1.0)]);
        assert!(current
            .gate(&bench(vec![steady(450, 1e9)]).to_json())
            .is_empty());
        // A row missing a key field is never comparable.
        let keyless = bench(vec![Row::new()
            .text("scenario", "steady")
            .num("per_sec", 1e9)]);
        assert!(current.gate(&keyless.to_json()).is_empty());
    }
}
