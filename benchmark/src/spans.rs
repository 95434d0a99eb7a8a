//! Host-time spans around every call the benchmark makes into
//! `power8.system`.
//!
//! Spans are recorded by the benchmark's own code only; the simulator
//! carries no instrumentation of its own yet. Each span name aggregates
//! in memory into a call count, a total and every duration, so its
//! quantiles are exact rather than rounded to histogram buckets. The
//! first [`RAW_CAP`] raw spans are kept as well and written out as JSON
//! lines when the run ends.
//!
//! Besides the `system.*` call spans there are `bench.*` phase spans
//! (set-up, measured phase, checkpoint cycle, snapshot tail). They are
//! raw-only: they give every call span a parent, and the spans of one
//! request share its id through the `req` list.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Every `power8.system` entry point the benchmark calls, by span name.
pub const SYSTEM_SPANS: [&str; 8] = [
    "system.boot",
    "system.submit",
    "system.poll",
    "system.advance",
    "system.verify",
    "system.snapshot",
    "system.restore",
    "system.metrics",
];

/// Raw spans kept for the JSON-lines file.
pub const RAW_CAP: usize = 65_536;

#[derive(Default)]
struct Agg {
    total_ns: u128,
    /// Every duration in ns, saturated at `u32::MAX` (4.3 s).
    durations: Vec<u32>,
}

impl Agg {
    /// Nearest-rank quantile of the durations, in ns. Reorders them.
    fn quantile(&mut self, q: f64) -> u64 {
        let d = &mut self.durations;
        let rank = ((q * d.len() as f64).ceil() as usize).clamp(1, d.len());
        u64::from(*d.select_nth_unstable(rank - 1).1)
    }
}

struct RawSpan {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    reqs: Vec<u64>,
}

/// The span recorder of one pass. A disabled recorder adds nothing but
/// one branch per call.
pub struct Spans {
    on: bool,
    origin: Instant,
    agg: BTreeMap<&'static str, Agg>,
    raw: Vec<RawSpan>,
    phase: Option<usize>,
    last: Option<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            agg: BTreeMap::new(),
            raw: Vec::new(),
            phase: None,
            last: None,
        }
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` as one span called `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos();
        let agg = self.agg.entry(name).or_default();
        agg.total_ns += ns;
        agg.durations.push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.last = None;
        if self.raw.len() < RAW_CAP {
            self.last = Some(self.raw.len());
            self.raw.push(RawSpan {
                name,
                start_ns: self.ns_since_origin(start),
                end_ns: self.ns_since_origin(end),
                parent: self.phase,
                reqs: Vec::new(),
            });
        }
        out
    }

    /// Attaches request ids to the span [`Spans::call`] just recorded.
    pub fn tag_reqs(&mut self, reqs: impl IntoIterator<Item = u64>) {
        if let Some(i) = self.last {
            self.raw[i].reqs.extend(reqs);
        }
    }

    /// Opens a raw-only `bench.*` phase span; later call spans name it
    /// as their parent until [`Spans::end_phase`].
    pub fn begin_phase(&mut self, name: &'static str) {
        if !self.on || self.raw.len() >= RAW_CAP {
            self.phase = None;
            return;
        }
        let now = self.ns_since_origin(Instant::now());
        self.phase = Some(self.raw.len());
        self.raw.push(RawSpan {
            name,
            start_ns: now,
            end_ns: now,
            parent: None,
            reqs: Vec::new(),
        });
    }

    pub fn end_phase(&mut self) {
        if let Some(i) = self.phase.take() {
            self.raw[i].end_ns = self.ns_since_origin(Instant::now());
        }
    }

    /// Ends the open phase and begins `name`.
    pub fn switch_phase(&mut self, name: &'static str) {
        self.end_phase();
        self.begin_phase(name);
    }

    /// Host seconds inside every call span.
    pub fn total_s(&self) -> f64 {
        self.agg.values().map(|a| a.total_ns as f64).sum::<f64>() / 1e9
    }

    /// `(.calls, .total_s, .p50_ns, .p99_ns)` of each system span, in
    /// [`SYSTEM_SPANS`] order; a name never called reports zeros.
    pub fn summary(&mut self) -> Vec<(&'static str, u64, f64, u64, u64)> {
        SYSTEM_SPANS
            .iter()
            .map(|&name| match self.agg.get_mut(name) {
                Some(a) => (
                    name,
                    a.durations.len() as u64,
                    a.total_ns as f64 / 1e9,
                    a.quantile(0.5),
                    a.quantile(0.99),
                ),
                None => (name, 0, 0.0, 0, 0),
            })
            .collect()
    }

    /// The raw spans as JSON lines.
    pub fn raw_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.raw.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let reqs: Vec<String> = s.reqs.iter().map(u64::to_string).collect();
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"req\": [{}]}}",
                s.name,
                s.start_ns,
                s.end_ns,
                reqs.join(", ")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.call("system.poll", || 7), 7);
        s.begin_phase("bench.measure");
        s.tag_reqs([1]);
        s.end_phase();
        assert_eq!(s.total_s(), 0.0);
        assert!(s.raw_jsonl().is_empty());
        assert!(s.summary().iter().all(|r| r.1 == 0));
    }

    #[test]
    fn call_spans_nest_under_phases_and_carry_request_ids() {
        let mut s = Spans::new(true);
        s.begin_phase("bench.measure");
        s.call("system.submit", || ());
        s.tag_reqs([42]);
        s.call("system.poll", || ());
        s.tag_reqs([42, 43]);
        s.end_phase();
        let raw = s.raw_jsonl();
        let lines: Vec<&str> = raw.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("\"parent\": 0") && lines[1].contains("\"req\": [42]"));
        assert!(lines[2].contains("\"req\": [42, 43]"));
        let polls = s.summary()[2];
        assert_eq!((polls.0, polls.1), ("system.poll", 1));
    }
}
