//! One run of one workload: which passes it makes, the metrics it
//! derives from them, and how it prints them.

use std::fmt::Write as _;
use std::fs;

use contutto_sim::{Metric, MetricsRegistry};

use crate::json;
use crate::probes::{self, Probes};
use crate::spans::Spans;
use crate::spec::MetricSpec;
use crate::workloads::{run_pass, Pass, Plan, Window, Workload};

/// Median; the mean of the middle pair for an even count.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// First quartile, median and third quartile, computed the way
/// Python's `statistics.quantiles(values, n=4)` does.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn counter_delta(p: &Pass, name: &str) -> f64 {
    p.after.counter(name).saturating_sub(p.before.counter(name)) as f64
}

/// `(sum ps, count)` of a latency collector.
fn latency_parts(m: &MetricsRegistry, name: &str) -> (u128, u64) {
    match m.get(name) {
        Some(Metric::Latency(l)) => (u128::from(l.sum().as_ps()), l.count()),
        _ => (0, 0),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A quantile, in ns, of latencies given in ps and sorted: read off a
/// histogram of 1 ns bins, interpolating linearly inside the bin.
/// Closed-loop latencies are whole 2 ns frame slots, and a plain order
/// statistic names the same slot for every seed; the interpolation
/// keeps how the samples fall around it.
pub fn binned_quantile_ns(sorted_ps: &[u64], q: f64) -> f64 {
    let n = sorted_ps.len();
    if n == 0 {
        return 0.0;
    }
    let rank = q * n as f64;
    let bin = sorted_ps[(rank.ceil() as usize).clamp(1, n) - 1] / 1000;
    let below = sorted_ps.partition_point(|&v| v / 1000 < bin);
    let upto = sorted_ps.partition_point(|&v| v / 1000 <= bin);
    bin as f64 + ((rank - below as f64) / (upto - below) as f64).clamp(0.0, 1.0)
}

/// The prefix's latencies, sorted.
fn prefix_sorted(p: &Pass) -> Vec<u64> {
    let mut lat = p.tally.prefix_lat_ps.clone();
    lat.sort_unstable();
    lat
}

/// Simulated µs per host second at the reference speed, over the
/// windows of a pass of `w`.
///
/// The 50 ms windows of the loops each carry about the same work, and
/// the rate is their upper quartile: the reference kernel does not slow
/// down exactly as much as the simulator under every kind of
/// contention, so some windows still read slow, and the quartile skips
/// them along with the luckiest windows. A `checkpoint` window is one
/// cycle of only 64 Poisson arrivals, whose simulated span varies by
/// about 15 % from cycle to cycle; a quantile would follow that
/// variance, so there the rate is the whole phase's simulated time
/// over its host time.
fn sim_rate(w: Workload, windows: &[Window]) -> f64 {
    if w == Workload::Checkpoint {
        let sim_us: f64 = windows.iter().map(|x| x.sim_us).sum();
        ratio(sim_us, windows.iter().map(|x| x.ref_s).sum())
    } else {
        let rates: Vec<f64> = windows.iter().map(|x| ratio(x.sim_us, x.ref_s)).collect();
        quantile(&rates, 0.75)
    }
}

/// The end-to-end metrics of an untraced pass of `w`.
fn end_to_end(w: Workload, p: &Pass) -> Vec<(String, f64)> {
    let sim_us_per_s = sim_rate(w, &p.windows);
    // Requests per simulated µs over the same windows turn the rate into
    // requests per host second; counted per window, the requests of a
    // short window follow its Poisson arrivals.
    let completed: u64 = p.windows.iter().map(|x| x.completed).sum();
    let sim_us: f64 = p.windows.iter().map(|x| x.sim_us).sum();
    let lat = &p.tally.prefix_lat_ps;
    let mean_ns = ratio(lat.iter().map(|&ps| ps as f64).sum(), lat.len() as f64) / 1e3;
    let span_us = (p.tally.prefix_end - p.sim_start).as_ps() as f64 / 1e6;
    [
        ("sim_us_per_s", sim_us_per_s),
        ("req_per_s", sim_us_per_s * ratio(completed as f64, sim_us)),
        ("setup_s", median(&p.setup_s)),
        ("peak_rss_mb", peak_rss_mb()),
        ("snapshot_ms", median(&p.snapshot_ms)),
        ("snapshot_p90_ms", quantile(&p.snapshot_ms, 0.9)),
        ("restore_ms", median(&p.restore_ms)),
        ("restore_p90_ms", quantile(&p.restore_ms, 0.9)),
        ("snapshot_mb", p.image_bytes as f64 / f64::from(1 << 20)),
        ("sim_mean_ns", mean_ns),
        ("sim_req_per_us", ratio(lat.len() as f64, span_us)),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect()
}

/// The per-layer metrics: spans and counters from the traced pass `t`,
/// host ratios from the untraced pass `u` that ran the same work.
fn per_layer(
    w: Workload,
    u: &Pass,
    t: &mut Pass,
    probes: &Probes,
    boot_ms: f64,
    err_pct: f64,
) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    for (name, calls, total_s, p50, p99) in t.spans.summary() {
        out.push((format!("{name}.calls"), calls as f64));
        out.push((format!("{name}.total_s"), total_s));
        out.push((format!("{name}.p50_ns"), p50 as f64));
        out.push((format!("{name}.p99_ns"), p99 as f64));
    }
    let slots = counter_delta(t, "link.down.frames_sent");
    let done = t.tally.completed as f64;
    let both = |a: &str, b: &str| counter_delta(t, a) + counter_delta(t, b);
    let hits = counter_delta(t, "buffer.cache.hits");
    let misses = counter_delta(t, "buffer.cache.misses");
    let (sum0, n0) = latency_parts(&t.before, "channel.command_latency");
    let (sum1, n1) = latency_parts(&t.after, "channel.command_latency");
    let cmd_mean_ns = ratio((sum1 - sum0) as f64, (n1 - n0) as f64) / 1e3;
    let req_mean_ns = ratio(t.tally.lat_sum_ps as f64, t.tally.lat_count as f64) / 1e3;
    let late: Vec<f64> = t.tally.late_ps.iter().map(|&ps| ps as f64).collect();
    let lat = prefix_sorted(t);
    let wall_ns = u.measure_s * 1e9;
    let tracer_ns = if w.sim_tracer_on() {
        probes.trace_idle_slot_ns - probes.channel_idle_slot_ns
    } else {
        0.0
    };
    let plain = [
        ("bench.self_s", t.wall_s - t.spans.total_s()),
        ("channel.slots", slots),
        ("channel.slots_per_req", ratio(slots, done)),
        (
            "channel.commands_completed",
            counter_delta(t, "channel.commands_completed"),
        ),
        (
            "channel.retries_scheduled",
            counter_delta(t, "channel.retries_scheduled"),
        ),
        (
            "channel.stale_responses",
            counter_delta(t, "channel.stale_responses"),
        ),
        (
            "dmi.frames_replayed",
            both("dmi.host.frames_replayed", "dmi.buffer.frames_replayed"),
        ),
        (
            "dmi.crc_errors",
            both("dmi.host.crc_errors", "dmi.buffer.crc_errors"),
        ),
        ("buffer.reads", counter_delta(t, "buffer.reads")),
        ("buffer.writes", counter_delta(t, "buffer.writes")),
        ("buffer.rmws", counter_delta(t, "buffer.rmws")),
        (
            "buffer.avalon_transfers",
            counter_delta(t, "buffer.avalon_transfers"),
        ),
        (
            "buffer.cache.prefetch_fills",
            counter_delta(t, "buffer.cache.prefetch_fills"),
        ),
        ("centaur.cache_hit_ratio", ratio(hits, hits + misses)),
        (
            "system.mlp.peak_outstanding",
            t.after.counter("system.mlp.peak_outstanding") as f64,
        ),
        (
            "system.mlp.redirects",
            counter_delta(t, "system.mlp.redirects"),
        ),
        ("trace.records", t.trace_records as f64),
        (
            "trace.records_per_slot",
            ratio(t.trace_records as f64, slots),
        ),
        (
            "trace.overhead_frac",
            ratio(t.measure_s - u.measure_s, u.measure_s),
        ),
        ("snapshot.bytes", t.image_bytes as f64),
        ("sim.req_latency_mean_ns", req_mean_ns),
        ("sim.cmd_latency_mean_ns", cmd_mean_ns),
        (
            "sim.queue_wait_mean_ns",
            (req_mean_ns - cmd_mean_ns).max(0.0),
        ),
        ("sim.gen_late_p99_ns", quantile(&late, 0.99) / 1e3),
        ("sim.p50_ns", binned_quantile_ns(&lat, 0.5)),
        ("sim.p99_ns", binned_quantile_ns(&lat, 0.99)),
        ("sim.p999_ns", binned_quantile_ns(&lat, 0.999)),
        ("probe.channel.idle_slot_ns", probes.channel_idle_slot_ns),
        ("probe.trace.idle_slot_ns", probes.trace_idle_slot_ns),
        ("probe.trace.ns_per_record", probes.trace_ns_per_record),
        ("probe.channel.read_ns", probes.channel_read_ns),
        ("probe.channel.write_ns", probes.channel_write_ns),
        ("probe.centaur.read_ns", probes.centaur_read_ns),
        ("probe.memdev.read_ns", probes.memdev_read_ns),
        ("probe.memdev.write_ns", probes.memdev_write_ns),
        (
            "probe.snapshot.ns_per_byte",
            ratio(median(&t.snapshot_ms) * 1e6, t.image_bytes as f64),
        ),
        ("probe.boot_ms", boot_ms),
        (
            "host.slowdown",
            median(&u.windows.iter().map(|x| x.slowdown).collect::<Vec<_>>()),
        ),
        ("host.ns_per_slot", ratio(wall_ns, slots)),
        (
            "host.us_per_req",
            ratio(wall_ns / 1e3, u.tally.completed as f64),
        ),
        (
            "attr.slot_stepping_frac",
            ratio(slots * probes.channel_idle_slot_ns, wall_ns),
        ),
        ("attr.tracer_frac", ratio(slots * tracer_ns, wall_ns)),
        ("model.table3_err_pct", err_pct),
    ];
    out.extend(plain.into_iter().map(|(n, v)| (n.to_string(), v)));
    out
}

/// The outcome of one run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(String, f64)>,
    /// Human-readable context for stderr: sample counts, failures.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: every metric of `metrics`, with its unit.
    ///
    /// # Panics
    ///
    /// Panics if a listed metric was not measured, which is a bug.
    pub fn to_json(&self, metrics: &[MetricSpec]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                let v = self
                    .values
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", m.name))
                    .1;
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json::quote(&m.name),
                    json::quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }

    /// The human table for stderr.
    pub fn render(&self, metrics: &[MetricSpec], title: &str) -> String {
        let mut out = format!("{title}\n");
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        for m in metrics {
            if let Some((_, v)) = self.values.iter().find(|(n, _)| *n == m.name) {
                let _ = writeln!(out, "  {:<32} {:>16.4} {}", m.name, v, m.unit);
            }
        }
        let _ = writeln!(
            out,
            "  attempted {}, failed {}, checks {}",
            self.attempted,
            self.failed,
            if self.correct { "passed" } else { "FAILED" }
        );
        out
    }
}

fn pass_notes(label: &str, p: &Pass, notes: &mut Vec<String>) {
    notes.push(format!(
        "{label}: {} units in {:.2} s measured ({:.2} s pass), {} latency samples in the prefix, \
         {} throughput windows, {} snapshots",
        p.units,
        p.measure_s,
        p.wall_s,
        p.tally.prefix_lat_ps.len(),
        p.windows.len(),
        p.snapshot_ms.len(),
    ));
    notes.extend(
        p.tally
            .failures
            .iter()
            .map(|f| format!("{label}: FAILED: {f}")),
    );
}

/// Runs workload `w` once: an untraced timed pass, or with `traced` an
/// untraced pass, the same work again with spans on, and the probes.
pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool, smoke: bool) -> Outcome {
    let plan = Plan::new(w, seconds, smoke);
    let err_pct = probes::table3_err_pct();
    let mut notes = vec![format!(
        "model.table3_err_pct = {err_pct:.3} % (base ConTutto software-level latency vs the \
         paper's {} ns; the traffic tails have no hardware reference)",
        probes::TABLE3_CONTUTTO_NS
    )];
    if !traced {
        let p = run_pass(w, seed, &plan, None, false);
        pass_notes("untraced", &p, &mut notes);
        return Outcome {
            correct: p.tally.failures.is_empty(),
            attempted: p.tally.attempted,
            failed: p.tally.failed,
            values: end_to_end(w, &p),
            notes,
        };
    }

    // Both passes fit in one run's budget, and set up once each.
    let half = Plan {
        budget: plan.budget / 2,
        setups: 1,
        ..plan
    };
    let u = run_pass(w, seed, &half, None, false);
    let mut t = run_pass(w, seed, &half, Some(u.units), true);
    pass_notes("untraced", &u, &mut notes);
    pass_notes("traced", &t, &mut notes);
    let identical = u.fingerprint == t.fingerprint
        && u.final_metrics == t.final_metrics
        && u.tally.prefix_lat_ps == t.tally.prefix_lat_ps
        && u.tally.completed == t.tally.completed;
    if !identical {
        notes.push("FAILED: the traced pass simulated a different machine".into());
    }
    notes.push(write_spans(&t.spans, w, seed));
    let (slots, ops) = if smoke {
        (20_000, 200)
    } else {
        (200_000, 2_000)
    };
    let probes = probes::run(slots, ops);
    let boot_ms = probes::boot_ms(|| drop(std::hint::black_box(w.boot(seed))));
    Outcome {
        correct: identical && u.tally.failures.is_empty() && t.tally.failures.is_empty(),
        attempted: u.tally.attempted + t.tally.attempted,
        failed: u.tally.failed + t.tally.failed,
        values: per_layer(w, &u, &mut t, &probes, boot_ms, err_pct),
        notes,
    }
}

/// Writes the raw spans under `target/benchmark/`; returns a note.
fn write_spans(spans: &Spans, w: Workload, seed: u64) -> String {
    let dir = std::path::Path::new("target").join("benchmark");
    let path = dir.join(format!("{}-s{seed}.spans.jsonl", w.name()));
    match fs::create_dir_all(&dir).and_then(|()| fs::write(&path, spans.raw_jsonl())) {
        Ok(()) => format!("raw spans written to {}", path.display()),
        Err(e) => format!("raw spans not written to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Spec, BENCHMARK_JSON};

    /// Whether `name` matches `[A-Za-z0-9_.-]+`.
    fn legal_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.9), 5.0);
    }

    #[test]
    fn every_spec_name_is_legal_and_used_once() {
        let spec = Spec::load();
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        assert!(names.iter().all(|n| legal_name(n)), "{names:?}");
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");
    }

    /// Smoke runs of every workload, untraced and traced: the checks
    /// pass, the traced pass reproduces the untraced one exactly, and
    /// each run emits exactly the metric list `BENCHMARK.json` names.
    #[test]
    fn smoke_runs_pass_their_checks_and_emit_exactly_the_spec() {
        let spec = Spec::load();
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        let listed: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(ours, listed);
        for w in Workload::ALL {
            for traced in [false, true] {
                let out = run(w, 1, 0.0, traced, true);
                assert!(out.correct, "{} traced={traced}: {:?}", w.name(), out.notes);
                assert_eq!(out.failed, 0);
                let mut emitted: Vec<&str> = out.values.iter().map(|(n, _)| n.as_str()).collect();
                emitted.sort_unstable();
                let mut expected: Vec<&str> = spec
                    .metrics(traced)
                    .iter()
                    .map(|m| m.name.as_str())
                    .collect();
                expected.sort_unstable();
                assert_eq!(emitted, expected, "{} traced={traced}", w.name());
                if !traced {
                    assert!(
                        out.values.iter().all(|(_, v)| v.is_finite() && *v > 0.0),
                        "{}: {:?}",
                        w.name(),
                        out.values
                    );
                }
                let line = out.to_json(spec.metrics(traced));
                let doc = json::parse(&line).expect("the result line is JSON");
                assert_eq!(
                    doc.get("correct").and_then(json::Value::as_bool),
                    Some(true)
                );
                assert_eq!(
                    doc.get("attempted").and_then(json::Value::as_f64),
                    Some(out.attempted as f64)
                );
            }
        }
    }
}
