//! A hierarchical registry aggregating the [`stats`](crate::stats)
//! collectors under dotted names.
//!
//! Layers publish their counters, latency collectors and histograms
//! under names like `dmi.host.frames_tx` or `centaur.cache.hits`; the
//! registry keeps them in a sorted map so that rendering order — and
//! therefore the rendered snapshot text — is deterministic. Paper-table
//! reproduction (`tables.rs`) and test diagnostics read the same
//! snapshot.
//!
//! # Example
//!
//! ```
//! use contutto_sim::{MetricsRegistry, SimTime};
//!
//! let mut reg = MetricsRegistry::new();
//! reg.counter_mut("dmi.host.frames_tx").add(128);
//! reg.latency_mut("channel.command_latency")
//!     .record(SimTime::from_ns(640));
//! assert_eq!(reg.counter("dmi.host.frames_tx"), 128);
//! assert!(reg.render().contains("dmi.host.frames_tx"));
//! ```

use std::collections::BTreeMap;
use std::fmt;

use crate::persist_fields;
use crate::snapshot::{Persist, RestoreError, SnapReader};
use crate::stats::{Counter, LatencyStats, LogHistogram};

/// One registered metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Metric {
    Counter(Counter),
    Latency(LatencyStats),
    LogHistogram(LogHistogram),
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Metric::Counter(c) => write!(f, "{c}"),
            Metric::Latency(l) => write!(f, "{l}"),
            Metric::LogHistogram(h) => write!(f, "loghist {h}"),
        }
    }
}

/// A sorted map of named metrics with deterministic rendering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The counter under `name`, created zeroed on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter_mut(&mut self, name: &str) -> &mut Counter {
        let metric = self
            .metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Counter::new()));
        match metric {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is not a counter: {other:?}"),
        }
    }

    /// Sets the counter under `name` to an absolute value, replacing any
    /// previous value. The usual way to publish an already-maintained
    /// stat into a snapshot.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        let mut c = Counter::new();
        c.add(value);
        self.metrics.insert(name.to_owned(), Metric::Counter(c));
    }

    /// The latency collector under `name`, created empty on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn latency_mut(&mut self, name: &str) -> &mut LatencyStats {
        let metric = self
            .metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Latency(LatencyStats::new()));
        match metric {
            Metric::Latency(l) => l,
            other => panic!("metric {name:?} is not a latency collector: {other:?}"),
        }
    }

    /// Publishes a copy of an existing latency collector under `name`.
    pub fn set_latency(&mut self, name: &str, stats: &LatencyStats) {
        self.metrics
            .insert(name.to_owned(), Metric::Latency(stats.clone()));
    }

    /// Publishes a copy of an existing log-bucketed histogram under
    /// `name`.
    pub fn set_log_histogram(&mut self, name: &str, histogram: &LogHistogram) {
        self.metrics
            .insert(name.to_owned(), Metric::LogHistogram(histogram.clone()));
    }

    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// The value of the counter under `name`, or 0 when absent.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered as a non-counter metric.
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            None => 0,
            Some(Metric::Counter(c)) => c.get(),
            Some(other) => panic!("metric {name:?} is not a counter: {other:?}"),
        }
    }

    /// Iterates metrics in sorted-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Metrics under a dotted prefix (e.g. `"dmi."`), sorted.
    pub fn with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a Metric)> + 'a {
        self.iter()
            .filter(move |(name, _)| name.starts_with(prefix))
    }

    /// Merges another registry into this one: counters, latency
    /// collectors and log-histograms (of matching precision)
    /// accumulate; kind conflicts are replaced by `other`'s entry.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, metric) in other.iter() {
            match (self.metrics.get_mut(name), metric) {
                (Some(Metric::Counter(a)), Metric::Counter(b)) => a.add(b.get()),
                (Some(Metric::Latency(a)), Metric::Latency(b)) => a.merge(b),
                (Some(Metric::LogHistogram(a)), Metric::LogHistogram(b))
                    if a.sub_bits() == b.sub_bits() =>
                {
                    a.merge(b);
                }
                _ => {
                    self.metrics.insert(name.to_owned(), metric.clone());
                }
            }
        }
    }

    /// Renders every metric, one `name = value` line in sorted order.
    /// Byte-identical across same-seed runs.
    pub fn render(&self) -> String {
        let width = self.metrics.keys().map(|k| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, metric) in &self.metrics {
            out.push_str(&format!("{name:<width$} = {metric}\n"));
        }
        out
    }
}

impl Persist for Metric {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            Metric::Counter(c) => {
                out.push(0);
                c.persist(out);
            }
            Metric::Latency(l) => {
                out.push(1);
                l.persist(out);
            }
            // Discriminant 2 belonged to a retired fixed-edge histogram;
            // keeping 3 here leaves every existing image byte-identical.
            Metric::LogHistogram(h) => {
                out.push(3);
                h.persist(out);
            }
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        Ok(match r.u8()? {
            0 => Metric::Counter(Counter::restore(r)?),
            1 => Metric::Latency(LatencyStats::restore(r)?),
            3 => Metric::LogHistogram(LogHistogram::restore(r)?),
            _ => {
                return Err(RestoreError::Malformed {
                    context: "Metric discriminant",
                })
            }
        })
    }
}

persist_fields!(MetricsRegistry { metrics });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn counters_accumulate_in_place() {
        let mut reg = MetricsRegistry::new();
        reg.counter_mut("a.b").incr();
        reg.counter_mut("a.b").add(4);
        assert_eq!(reg.counter("a.b"), 5);
        assert_eq!(reg.counter("missing"), 0);
        reg.set_counter("a.b", 2);
        assert_eq!(reg.counter("a.b"), 2);
    }

    #[test]
    fn latency_publishes() {
        let mut reg = MetricsRegistry::new();
        reg.latency_mut("lat").record(SimTime::from_ns(10));
        assert_eq!(reg.len(), 1);
        match reg.get("lat").unwrap() {
            Metric::Latency(l) => assert_eq!(l.count(), 1),
            other => panic!("wrong kind: {other:?}"),
        }
        assert!(reg.render().contains("lat"));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let mut reg = MetricsRegistry::new();
        reg.latency_mut("x");
        reg.counter_mut("x");
    }

    #[test]
    fn render_is_sorted_and_aligned() {
        let mut reg = MetricsRegistry::new();
        reg.set_counter("zz.last", 1);
        reg.set_counter("aa.first", 2);
        reg.set_counter("mm.middle", 3);
        let text = reg.render();
        let names: Vec<&str> = text
            .lines()
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(names, vec!["aa.first", "mm.middle", "zz.last"]);
        // Two renders of equal registries are byte-identical.
        assert_eq!(text, reg.clone().render());
    }

    #[test]
    fn prefix_filter() {
        let mut reg = MetricsRegistry::new();
        reg.set_counter("dmi.host.frames_tx", 10);
        reg.set_counter("dmi.buffer.frames_tx", 20);
        reg.set_counter("centaur.reads", 30);
        assert_eq!(reg.with_prefix("dmi.").count(), 2);
        assert_eq!(reg.with_prefix("centaur.").count(), 1);
    }

    #[test]
    fn log_histograms_publish_and_merge() {
        let mut a = MetricsRegistry::new();
        let mut ha = LogHistogram::new();
        ha.record(100);
        a.set_log_histogram("traffic.latency", &ha);
        let mut b = MetricsRegistry::new();
        let mut hb = LogHistogram::new();
        hb.record(1_000_000);
        b.set_log_histogram("traffic.latency", &hb);
        a.merge(&b);
        match a.get("traffic.latency").unwrap() {
            Metric::LogHistogram(h) => {
                assert_eq!(h.count(), 2);
                assert_eq!(h.min(), Some(100));
                assert_eq!(h.max(), Some(1_000_000));
            }
            other => panic!("wrong kind: {other:?}"),
        }
        assert!(a.render().contains("loghist"));
    }

    #[test]
    fn merge_accumulates_matching_kinds() {
        let mut a = MetricsRegistry::new();
        a.set_counter("c", 1);
        a.latency_mut("l").record(SimTime::from_ns(10));
        let mut b = MetricsRegistry::new();
        b.set_counter("c", 2);
        b.latency_mut("l").record(SimTime::from_ns(30));
        b.set_counter("only_b", 7);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.counter("only_b"), 7);
        match a.get("l").unwrap() {
            Metric::Latency(l) => {
                assert_eq!(l.count(), 2);
                assert_eq!(l.mean(), SimTime::from_ns(20));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }
}
