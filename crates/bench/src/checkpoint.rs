//! The checkpoint campaign: snapshot/restore throughput plus the
//! prefix-reuse identity proof.
//!
//! Two halves, one contract:
//!
//! 1. **Throughput** — a steady-state testbed (stores landed, loads
//!    in flight, tracer live) is snapshotted and restored in a tight
//!    loop; `BENCH_checkpoint.json` records snapshots/sec and
//!    restores/sec behind the shared [`crate::report`] regression
//!    gate. The image size is byte-deterministic, so it doubles as
//!    the baseline-comparability key.
//!
//! 2. **Prefix reuse** — the power crash-point sweep is run twice,
//!    straight and with [`crate::power::CampaignConfig::reuse_prefix`]
//!    set. The reused sweep must reproduce the straight sweep
//!    *record-for-record* (outcome, fingerprint, determinism verdict,
//!    rendered table) while simulating strictly fewer stores — the
//!    structural proof that the prefix really was skipped, not
//!    re-simulated. Wall-clock for both sweeps is recorded so the
//!    saving is visible, but only identity is gated: host timing is
//!    noise, simulated work is not.

use std::fmt::Write as _;
use std::time::Instant;

use contutto_core::{ContuttoConfig, MemoryPopulation};
use contutto_dmi::command::CacheLine;
use contutto_power8::firmware::layouts;
use contutto_power8::system::Power8System;

use crate::power;
use crate::report::{Bench, Row};
use crate::sweep::Sizing;

/// Campaign knobs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seeds for the prefix-reuse identity sweep.
    pub seeds: Vec<u64>,
    /// Stores per power-sweep run (crash points stride across them).
    pub lines: u64,
    /// Crash-point stride for the power sweep.
    pub cut_stride: u64,
    /// Snapshot / restore iterations for the throughput half.
    pub reps: u32,
}

/// Seeds and stores per power-sweep run of the smoke and full
/// campaigns, and the smallest store count a run accepts.
const SIZING: Sizing = Sizing {
    smoke: (1, 8),
    full: (3, 16),
    floor: 1,
    step: 1,
};

impl CampaignConfig {
    /// The smoke or full campaign with the driver's `--seeds` and
    /// `--lines` applied (see [`Sizing::resolve`]).
    pub fn sized(smoke: bool, seeds: Option<u64>, lines: Option<u64>) -> Self {
        let (seeds, lines) = SIZING.resolve(smoke, seeds, lines);
        CampaignConfig {
            seeds,
            lines,
            cut_stride: 4,
            reps: if smoke { 32 } else { 256 },
        }
    }

    /// The quick `scripts/verify.sh` gate.
    pub fn smoke() -> Self {
        CampaignConfig::sized(true, None, None)
    }
}

/// What the campaign measured and proved.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Whole-system snapshots taken per host-second.
    pub snapshots_per_sec: f64,
    /// Restores (into an already-booted twin) per host-second.
    pub restores_per_sec: f64,
    /// Size of the testbed image — deterministic, used as the
    /// baseline-comparability key.
    pub snapshot_bytes: u64,
    /// Host seconds for the straight power sweep.
    pub straight_secs: f64,
    /// Host seconds for the prefix-reused power sweep.
    pub reused_secs: f64,
    /// Stores simulated by the straight sweep.
    pub stores_straight: u64,
    /// Stores simulated by the reused sweep (strictly fewer).
    pub stores_reused: u64,
    /// Identity / contract breaches found while running.
    pub failures: Vec<String>,
}

impl CampaignReport {
    /// Wall-clock speedup of the reused sweep over the straight one.
    pub fn speedup(&self) -> f64 {
        if self.reused_secs > 0.0 {
            self.straight_secs / self.reused_secs
        } else {
            0.0
        }
    }

    /// Contract breaches: identity failures and a prefix that was not
    /// skipped.
    pub fn violations(&self) -> Vec<String> {
        let mut out = self.failures.clone();
        if self.stores_reused >= self.stores_straight {
            out.push(format!(
                "checkpoint: reused sweep simulated {} stores, straight {} — \
                 the prefix was not skipped",
                self.stores_reused, self.stores_straight
            ));
        }
        out
    }

    /// Renders the human summary.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "checkpoint campaign");
        out.push_str(&"-".repeat(60));
        out.push('\n');
        let _ = writeln!(
            out,
            "snapshot throughput   {:>12.1} snapshots/sec ({} bytes/image)",
            self.snapshots_per_sec, self.snapshot_bytes
        );
        let _ = writeln!(
            out,
            "restore throughput    {:>12.1} restores/sec",
            self.restores_per_sec
        );
        let _ = writeln!(
            out,
            "power sweep straight  {:>12.3} s  ({} stores simulated)",
            self.straight_secs, self.stores_straight
        );
        let _ = writeln!(
            out,
            "power sweep reused    {:>12.3} s  ({} stores simulated)",
            self.reused_secs, self.stores_reused
        );
        let _ = writeln!(
            out,
            "prefix-reuse speedup  {:>12.2}x wall clock, {} of {} stores skipped",
            self.speedup(),
            self.stores_straight.saturating_sub(self.stores_reused),
            self.stores_straight
        );
        if self.failures.is_empty() {
            let _ = writeln!(out, "identity              reused sweep == straight sweep");
        } else {
            for f in &self.failures {
                let _ = writeln!(out, "FAILURE: {f}");
            }
        }
        out
    }

    /// The one-row `BENCH_checkpoint.json`: snapshot and restore
    /// throughput (both gated), keyed on the image size so a format or
    /// testbed change resets the comparison.
    pub fn bench(&self) -> Bench {
        let row = Row::new()
            .int("snapshot_bytes", self.snapshot_bytes)
            .num("snapshots_per_sec", self.snapshots_per_sec)
            .num("restores_per_sec", self.restores_per_sec)
            .num("straight_secs", self.straight_secs)
            .num("reused_secs", self.reused_secs)
            .num("prefix_reuse_speedup", self.speedup())
            .int("stores_straight", self.stores_straight)
            .int("stores_reused", self.stores_reused)
            .int("violations", self.failures.len() as u64);
        Bench {
            name: "checkpoint",
            rows: vec![row],
            key: &["snapshot_bytes"],
            gated: &["snapshots_per_sec", "restores_per_sec"],
        }
    }
}

/// Boots the throughput testbed: steady state with stores landed,
/// loads in flight and the tracer live — a snapshot with every
/// section populated, not an empty boot.
fn testbed(seed: u64) -> Power8System {
    let mut sys = Power8System::boot(
        layouts::one_contutto_six_cdimm(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
        seed,
    )
    .expect("testbed boots");
    sys.enable_tracing(1 << 12);
    for i in 0..32u64 {
        sys.store_line(0x10_0000 + i * 128, CacheLine::patterned(seed * 97 + i))
            .expect("testbed store");
    }
    for i in 0..8u64 {
        sys.submit_load(0x10_0000 + i * 128).expect("testbed load");
    }
    sys
}

/// Runs the campaign.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let mut failures = Vec::new();
    let seed = 42;

    // -- Throughput half ------------------------------------------------
    let mut source = testbed(seed);
    let reps = cfg.reps.max(1);

    let started = Instant::now();
    let mut image = Vec::new();
    for _ in 0..reps {
        image = source.snapshot();
    }
    let snapshots_per_sec = f64::from(reps) / started.elapsed().as_secs_f64().max(1e-9);
    let snapshot_bytes = image.len() as u64;

    let mut twin = testbed(seed);
    let started = Instant::now();
    for _ in 0..reps {
        if let Err(e) = twin.restore(&image) {
            failures.push(format!("checkpoint: throughput restore failed: {e}"));
            break;
        }
    }
    let restores_per_sec = f64::from(reps) / started.elapsed().as_secs_f64().max(1e-9);
    if twin.tracer().fingerprint() != source.tracer().fingerprint() {
        failures.push(
            "checkpoint: restored twin's trace fingerprint diverges from the source".to_string(),
        );
    }

    // -- Prefix-reuse identity half -------------------------------------
    let mut pcfg = power::CampaignConfig {
        seeds: cfg.seeds.clone(),
        lines: cfg.lines,
        cut_stride: cfg.cut_stride.max(1),
        // Keep every record: the identity proof compares rings.
        ring_capacity: cfg.seeds.len().max(1) * (cfg.lines / cfg.cut_stride.max(1) + 2) as usize,
        reuse_prefix: false,
    };
    let started = Instant::now();
    let straight = power::run_campaign(&pcfg);
    let straight_secs = started.elapsed().as_secs_f64();

    pcfg.reuse_prefix = true;
    let started = Instant::now();
    let reused = power::run_campaign(&pcfg);
    let reused_secs = started.elapsed().as_secs_f64();

    for v in straight.violations() {
        failures.push(format!("checkpoint: straight power sweep: {v}"));
    }
    for v in reused.violations() {
        failures.push(format!("checkpoint: reused power sweep: {v}"));
    }
    if straight.render_table() != reused.render_table() {
        failures.push(
            "checkpoint: reused power sweep table differs from the straight sweep".to_string(),
        );
    }
    for (a, b) in straight.scenarios.iter().zip(&reused.scenarios) {
        if a.ring.len() != b.ring.len() {
            failures.push(format!(
                "checkpoint: {:?} kept {} records straight vs {} reused",
                a.scenario,
                a.ring.len(),
                b.ring.len()
            ));
            continue;
        }
        for (ra, rb) in a.ring.iter().zip(&b.ring) {
            let at = format!(
                "checkpoint: {:?} seed {} cut {}",
                a.scenario, ra.seed, ra.cut_after
            );
            if (ra.fingerprint, &ra.result) != (rb.fingerprint, &rb.result) {
                failures.push(format!(
                    "{at}: fingerprint {:016x} straight vs {:016x} reused, or the \
                     record diverges after restore",
                    ra.fingerprint, rb.fingerprint
                ));
            }
            if !rb.deterministic {
                failures.push(format!("{at}: restore-twice run was not deterministic"));
            }
        }
    }

    CampaignReport {
        snapshots_per_sec,
        restores_per_sec,
        snapshot_bytes,
        straight_secs,
        reused_secs,
        stores_straight: straight.stores_executed,
        stores_reused: reused.stores_executed,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_is_clean_and_skips_the_prefix() {
        let report = run_campaign(&CampaignConfig::smoke());
        let violations = report.violations();
        assert!(violations.is_empty(), "{}", violations.join("\n"));
        assert!(report.stores_reused < report.stores_straight);
        assert!(report.snapshots_per_sec > 0.0);
        assert!(report.restores_per_sec > 0.0);
        let table = report.render_table();
        assert!(table.contains("prefix-reuse speedup"), "{table}");
    }

    #[test]
    fn a_failed_structural_skip_is_a_violation() {
        let report = CampaignReport {
            snapshots_per_sec: 10.0,
            restores_per_sec: 10.0,
            snapshot_bytes: 1234,
            straight_secs: 1.0,
            reused_secs: 1.0,
            stores_straight: 100,
            stores_reused: 100,
            failures: Vec::new(),
        };
        let violations = report.violations();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("prefix was not skipped"));
    }
}
