//! Memory-level-parallelism pipeline benchmark.
//!
//! Drives the non-blocking [`Power8System::submit_load`] /
//! [`Power8System::poll`] path with uniform random reads against the
//! §4.1 single-ConTutto layout at a sweep of in-flight window depths,
//! and reports:
//!
//! * **lines/sec** — simulated read throughput (reads ÷ simulated
//!   elapsed time); the paper's motivation for a deep DMI tag window;
//! * **achieved MLP** — Little's-law concurrency (Σ per-read latency ÷
//!   elapsed time), which saturates at the channel's frame-slot
//!   bandwidth no matter how deep the window goes;
//! * **reads/wall-sec** — simulator wall-clock throughput: reads per
//!   host second over both passes of a depth, boots included, the cost
//!   of running the model itself.
//!
//! Every depth runs **twice** and the two trace fingerprints must be
//! byte-identical — the determinism invariant holds at any depth. The
//! report gates on depth-16 achieving at least 4x the depth-1
//! throughput, and [`PipelineReport::bench`] lets the shared
//! [`crate::report`] gate hold each `(depth, reads)` row's simulated
//! throughput to its previous `BENCH_pipeline.json` value.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use contutto_core::ContuttoConfig;
use contutto_dmi::command::CacheLine;
use contutto_power8::firmware::layouts;
use contutto_power8::system::Power8System;
use contutto_sim::SimTime;

use crate::report::{Bench, Row};
use crate::sweep::run_twice;

/// Slot of the ConTutto card in the single-card latency layout.
const CONTUTTO_SLOT: usize = 2;

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineConfig {
    /// In-flight window depths to sweep.
    pub depths: Vec<usize>,
    /// Uniform random reads per depth.
    pub reads: u64,
    /// Distinct cache lines in the working set.
    pub lines: u64,
    /// Boot / address-stream seed.
    pub seed: u64,
}

impl PipelineConfig {
    /// The quick `scripts/verify.sh` gate.
    pub fn smoke() -> Self {
        PipelineConfig {
            depths: vec![1, 4, 16, 32],
            reads: 256,
            lines: 32,
            seed: 7,
        }
    }

    /// The full sweep.
    pub fn full() -> Self {
        PipelineConfig {
            reads: 2048,
            lines: 128,
            ..PipelineConfig::smoke()
        }
    }
}

/// Measurements for one window depth.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthRun {
    /// The in-flight window applied to every channel.
    pub depth: usize,
    /// Reads completed.
    pub reads: u64,
    /// Simulated time the sweep took.
    pub sim_seconds: f64,
    /// Host time the sweep took (both fingerprint runs).
    pub wall_seconds: f64,
    /// Simulated read throughput.
    pub lines_per_sec: f64,
    /// Reads per host wall-clock second, counted over both passes and
    /// both boots: `2 × reads ÷ wall_seconds`.
    pub reads_per_wall_sec: f64,
    /// Little's-law concurrency actually achieved.
    pub achieved_mlp: f64,
    /// Trace fingerprint of the first pass.
    pub fingerprint: u64,
    /// The second pass matched the first: same fingerprint, simulated
    /// time and latency sum.
    pub deterministic: bool,
}

/// The sweep report.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// One entry per depth, in sweep order.
    pub runs: Vec<DepthRun>,
}

fn boot(seed: u64) -> Power8System {
    Power8System::boot(
        layouts::single_contutto_for_latency(ContuttoConfig::base()),
        seed,
    )
    .expect("pipeline benchmark system boots")
}

fn contutto_base(sys: &Power8System) -> u64 {
    sys.memory_map()
        .regions()
        .iter()
        .find(|r| r.channel == CONTUTTO_SLOT)
        .expect("contutto region")
        .base
}

fn channel_now(sys: &Power8System) -> SimTime {
    sys.channels()
        .iter()
        .find(|c| c.slot == CONTUTTO_SLOT)
        .expect("contutto channel")
        .channel
        .now()
}

/// One measured pass at a depth: returns (sim elapsed, Σ latency,
/// fingerprint).
fn one_pass(cfg: &PipelineConfig, depth: usize) -> (f64, f64, u64) {
    let mut sys = boot(cfg.seed);
    let tracer = sys.enable_tracing(1 << 16);
    sys.set_mlp_window(depth);
    let base = contutto_base(&sys);
    for i in 0..cfg.lines {
        sys.store_line(base + i * 128, CacheLine::patterned(i + 1))
            .expect("working-set store");
    }
    let mut lcg = cfg.seed | 1;
    let mut next_line = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lcg % cfg.lines
    };
    let t0 = channel_now(&sys);
    let mut submit_times: BTreeMap<u64, SimTime> = BTreeMap::new();
    let mut latency_sum = 0.0f64;
    let mut submitted = 0u64;
    let mut completed = 0u64;
    while completed < cfg.reads {
        // Keep exactly `depth` requests in the system so the achieved
        // MLP measures the window, not software queueing.
        while submitted < cfg.reads && submitted - completed < depth as u64 {
            let addr = base + next_line() * 128;
            let id = sys.submit_load(addr).expect("pipeline submit");
            submit_times.insert(id.raw(), channel_now(&sys));
            submitted += 1;
        }
        for (id, result) in sys.poll() {
            let c = result.expect("pipeline read completes");
            let issued = submit_times
                .remove(&id.raw())
                .expect("completion for submitted read");
            latency_sum += (c.completed_at - issued).as_secs_f64();
            completed += 1;
        }
    }
    let elapsed = (channel_now(&sys) - t0).as_secs_f64();
    (elapsed, latency_sum, tracer.fingerprint())
}

/// Runs the sweep. Each depth runs twice; a second pass that differs
/// from the first clears [`DepthRun::deterministic`], which
/// [`PipelineReport::violations`] reports.
pub fn run_sweep(cfg: &PipelineConfig) -> PipelineReport {
    let mut runs = Vec::with_capacity(cfg.depths.len());
    for &depth in &cfg.depths {
        let wall = Instant::now();
        let ((sim, lat, fingerprint), deterministic) =
            run_twice(|| one_pass(cfg, depth), |a, b| a == b);
        let wall_seconds = wall.elapsed().as_secs_f64();
        runs.push(DepthRun {
            depth,
            reads: cfg.reads,
            sim_seconds: sim,
            wall_seconds,
            lines_per_sec: cfg.reads as f64 / sim,
            reads_per_wall_sec: 2.0 * cfg.reads as f64 / wall_seconds.max(1e-9),
            achieved_mlp: lat / sim,
            fingerprint,
            deterministic,
        });
    }
    PipelineReport { runs }
}

impl PipelineReport {
    /// The headline ratio: simulated throughput at depth 16 over
    /// depth 1, `None` if either depth was not swept.
    pub fn speedup_16_vs_1(&self) -> Option<f64> {
        let at = |d: usize| {
            self.runs
                .iter()
                .find(|r| r.depth == d)
                .map(|r| r.lines_per_sec)
        };
        Some(at(16)? / at(1)?)
    }

    /// Contract violations: determinism and the 4x depth-16 speedup
    /// floor.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for r in &self.runs {
            if !r.deterministic {
                v.push(format!(
                    "depth {}: trace fingerprints differ between identical runs",
                    r.depth
                ));
            }
        }
        match self.speedup_16_vs_1() {
            Some(s) if s < 4.0 => v.push(format!(
                "depth-16 throughput only {s:.2}x depth-1 (floor is 4x)"
            )),
            Some(_) => {}
            None => v.push("sweep must include depths 1 and 16".into()),
        }
        v
    }

    /// Renders the human table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>6} {:>14} {:>13} {:>13} {:>12} {:>18}",
            "depth", "lines/sec", "achieved MLP", "sim ms", "reads/wall-s", "fingerprint"
        );
        for r in &self.runs {
            let _ = writeln!(
                out,
                "{:>6} {:>14.0} {:>13.2} {:>13.4} {:>12.0} {:>#18x}",
                r.depth,
                r.lines_per_sec,
                r.achieved_mlp,
                r.sim_seconds * 1e3,
                r.reads_per_wall_sec,
                r.fingerprint
            );
        }
        if let Some(s) = self.speedup_16_vs_1() {
            let _ = writeln!(out, "depth-16 vs depth-1 speedup: {s:.2}x");
        }
        out
    }

    /// The `BENCH_pipeline.json` rows, one per depth, gated on
    /// simulated throughput against a baseline of the same depth and
    /// read count.
    pub fn bench(&self) -> Bench {
        let rows = self
            .runs
            .iter()
            .map(|r| {
                Row::new()
                    .int("depth", r.depth as u64)
                    .int("reads", r.reads)
                    .num("lines_per_sec", r.lines_per_sec)
                    .num("achieved_mlp", r.achieved_mlp)
                    .num("sim_seconds", r.sim_seconds)
                    .num("reads_per_wall_sec", r.reads_per_wall_sec)
                    .text("fingerprint", format!("{:#x}", r.fingerprint))
            })
            .collect();
        Bench {
            name: "pipeline",
            rows,
            key: &["depth", "reads"],
            gated: &["lines_per_sec"],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PipelineConfig {
        PipelineConfig {
            depths: vec![1, 16],
            reads: 48,
            lines: 8,
            seed: 7,
        }
    }

    #[test]
    fn depth16_is_at_least_4x_depth1() {
        let report = run_sweep(&tiny());
        let s = report.speedup_16_vs_1().unwrap();
        assert!(s >= 4.0, "speedup {s}");
        assert!(report.violations().is_empty());
    }

    #[test]
    fn achieved_mlp_tracks_the_window() {
        let report = run_sweep(&tiny());
        let d1 = &report.runs[0];
        let d16 = &report.runs[1];
        assert!(d1.achieved_mlp <= 1.05, "depth-1 MLP {}", d1.achieved_mlp);
        assert!(d16.achieved_mlp > 4.0, "depth-16 MLP {}", d16.achieved_mlp);
        assert!(d16.achieved_mlp <= 16.5);
    }

    #[test]
    fn double_runs_are_fingerprint_identical() {
        let report = run_sweep(&tiny());
        for r in &report.runs {
            assert!(r.deterministic, "depth {} not deterministic", r.depth);
        }
    }

    #[test]
    fn gate_keys_on_depth_and_reads() {
        let report = run_sweep(&tiny());
        let bench = report.bench();
        assert!(bench.gate(&bench.to_json()).is_empty());
        let inflated = |reads: u64| {
            let mut old = report.clone();
            for r in &mut old.runs {
                r.reads = reads;
                r.lines_per_sec *= 10.0;
            }
            old.bench().to_json()
        };
        // Same depth, same read count: a 10x faster baseline gates.
        assert_eq!(bench.gate(&inflated(48)).len(), report.runs.len());
        // Same depths at a different read count are another workload.
        assert!(bench.gate(&inflated(2048)).is_empty());
    }
}
