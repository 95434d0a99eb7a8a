//! Deterministic power-fail campaign: cut the power at every K-th
//! event and demand the durability contract holds.
//!
//! Where [`crate::failover`] kills one channel, this campaign kills
//! the *whole machine*: mains power dies after an arbitrary number of
//! stores — with or without an orderly EPOW flush cascade first —
//! and the system cold-boots through [`Power8System::reboot`]. The
//! contract asserted by [`CampaignReport::violations`]:
//!
//! * **durability** — every line saved by an armed, fully-funded
//!   NVDIMM reads back byte-identical after reboot;
//! * **typed loss, never silent** — a line that did not survive
//!   (disarmed supercap, starved save energy) reads back empty *and*
//!   appears in the reboot report's `data_loss`; bytes that are
//!   neither the written value nor the reported-empty state are
//!   silent corruption, the one unforgivable outcome;
//! * **volatile means volatile** — DRAM contents never resurrect
//!   across a power cut;
//! * **starved budgets tear for real** — an armed save with too little
//!   supercap energy must produce at least one *detected* torn save
//!   ([`PowerRestoreOutcome::TornSave`]) across the sweep;
//! * **no panics, byte-identical determinism** — every scenario ×
//!   seed × crash point runs twice and the trace fingerprints must
//!   match.
//!
//! Per-run crash-point results are kept in a bounded ring per
//! scenario; the table emits a single pass/degrade/fail summary row
//! per scenario (the `--failover` table format) and logs how many
//! runs the ring dropped — the sweep never truncates silently.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::fmt;

use contutto_centaur::CentaurConfig;
use contutto_core::{ContuttoConfig, MemoryKind, MemoryPopulation};
use contutto_dmi::command::CacheLine;
use contutto_dmi::PowerRestoreOutcome;
use contutto_memdev::SAVE_COST_PER_PAGE_NJ;
use contutto_power8::firmware::SlotPopulation;
use contutto_power8::system::{Power8System, PowerConfig, EPOW_CORE_FLUSH_COST_PER_LINE_NJ};
use contutto_sim::{MetricsRegistry, SimTime};

use crate::sweep::{self, Column, Measured, Sizing};

/// Slot the NVDIMM ConTutto occupies in the campaign layout.
pub const NVDIMM_SLOT: usize = 2;

/// Supercap arming state under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arming {
    /// Supercap armed: the cut triggers the DRAM→flash save.
    Armed,
    /// Supercap disarmed: contents are lost — and must be *reported*.
    Disarmed,
}

/// Energy budget under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Ideal energy: every flush and save completes.
    Generous,
    /// Four pages of save energy against a 128-page DIMM, and a
    /// hold-up budget that dies during EPOW stage 1: the save tears.
    Starved,
}

/// One campaign cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Supercap arming.
    pub arming: Arming,
    /// Energy budget.
    pub budget: Budget,
    /// Whether the FSP gets to run the EPOW flush cascade before the
    /// cut (orderly) or the power just dies (surprise).
    pub orderly: bool,
}

impl Scenario {
    /// Every arming × budget × {orderly, surprise} combination.
    pub fn all() -> Vec<Scenario> {
        let mut out = Vec::new();
        for arming in [Arming::Armed, Arming::Disarmed] {
            for budget in [Budget::Generous, Budget::Starved] {
                for orderly in [true, false] {
                    out.push(Scenario {
                        arming,
                        budget,
                        orderly,
                    });
                }
            }
        }
        out
    }

    /// Stable display name (also the table key).
    pub fn name(self) -> String {
        format!(
            "{}+{}+{}",
            match self.arming {
                Arming::Armed => "armed",
                Arming::Disarmed => "disarmed",
            },
            match self.budget {
                Budget::Generous => "generous",
                Budget::Starved => "starved",
            },
            if self.orderly { "orderly" } else { "surprise" },
        )
    }

    /// Whether NVDIMM contents are expected to survive the cut.
    pub fn expects_durable(self) -> bool {
        self.arming == Arming::Armed && self.budget == Budget::Generous
    }

    /// Whether the sweep must demonstrate a detected torn save.
    pub fn expects_torn_save(self) -> bool {
        self.arming == Arming::Armed && self.budget == Budget::Starved
    }

    fn power_config(self) -> PowerConfig {
        match self.budget {
            Budget::Generous => PowerConfig::ideal(),
            Budget::Starved => PowerConfig {
                holdup_budget_nj: Some(EPOW_CORE_FLUSH_COST_PER_LINE_NJ * 3 + 1),
                nvdimm_supercap_nj: Some(SAVE_COST_PER_PAGE_NJ * 4),
            },
        }
    }
}

/// How a single crash-point run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Every pre-cut line accounted for: byte-identical survivors plus
    /// losses that were explicitly reported.
    Accounted {
        /// Non-volatile lines read back byte-identical.
        nv_clean: u64,
        /// Lines empty after reboot *and* covered by a typed
        /// data-loss report.
        reported_lost: u64,
    },
    /// Bytes after reboot that are neither the written value nor a
    /// reported loss — silent corruption.
    SilentCorruption {
        /// Number of offending lines.
        lines: u64,
    },
    /// An access or the reboot failed with an unexpected error.
    UnexpectedError(String),
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Accounted {
                nv_clean,
                reported_lost,
            } => write!(
                f,
                "accounted ({nv_clean} clean, {reported_lost} reported lost)"
            ),
            Outcome::SilentCorruption { lines } => write!(f, "SILENT CORRUPTION ({lines} lines)"),
            Outcome::UnexpectedError(e) => write!(f, "fail: {e}"),
        }
    }
}

/// What one crash-point run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Crash {
    /// Classified end state.
    pub outcome: Outcome,
    /// Torn saves detected at reboot.
    pub torn_saves: u64,
    /// Slots reported as data loss at reboot.
    pub reported_loss_slots: u64,
}

/// The record of one scenario × seed × crash-point run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Seed parameterizing the run.
    pub seed: u64,
    /// Stores completed before the cut.
    pub cut_after: u64,
    /// What the run measured, or the message of the panic that ended
    /// it.
    pub result: Result<Crash, String>,
    /// Same-seed rerun produced an identical fingerprint and record.
    pub deterministic: bool,
    /// Trace fingerprint of the run (0 when it panicked).
    pub fingerprint: u64,
}

impl RunRecord {
    fn is_violation(&self, scenario: Scenario) -> bool {
        !self.deterministic
            || match &self.result {
                Ok(Crash {
                    outcome: Outcome::Accounted { reported_lost, .. },
                    ..
                }) => *reported_lost > 0 && scenario.expects_durable(),
                _ => true,
            }
    }
}

/// Per-scenario result: a bounded ring of run records plus aggregate
/// counters that cover *every* run, including ones the ring dropped.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario that ran.
    pub scenario: Scenario,
    /// Most recent runs, ring-buffered to [`CampaignConfig::ring_capacity`].
    pub ring: VecDeque<RunRecord>,
    /// Total runs executed (ring may hold fewer).
    pub total_runs: u64,
    /// Runs the ring dropped (logged, never silent).
    pub ring_dropped: u64,
    /// Torn saves detected across all runs.
    pub torn_saves: u64,
    /// Runs that ended in a reported (typed) loss.
    pub reported_loss_runs: u64,
    /// Runs that violated the contract.
    pub violations: u64,
    /// Example violation text (first seen), for the report.
    pub first_violation: Option<String>,
    /// Every run was deterministic.
    pub deterministic: bool,
    /// Runs that wrote at least one NVDIMM line before the cut.
    pub runs_with_nv_writes: u64,
}

impl ScenarioResult {
    fn new(scenario: Scenario) -> Self {
        ScenarioResult {
            scenario,
            ring: VecDeque::new(),
            total_runs: 0,
            ring_dropped: 0,
            torn_saves: 0,
            reported_loss_runs: 0,
            violations: 0,
            first_violation: None,
            deterministic: true,
            runs_with_nv_writes: 0,
        }
    }

    fn push(&mut self, record: RunRecord, capacity: usize) {
        self.total_runs += 1;
        if record.cut_after > 0 {
            self.runs_with_nv_writes += 1;
        }
        if let Ok(crash) = &record.result {
            self.torn_saves += crash.torn_saves;
            if matches!(crash.outcome, Outcome::Accounted { reported_lost, .. } if reported_lost > 0)
                || crash.reported_loss_slots > 0
            {
                self.reported_loss_runs += 1;
            }
        }
        if !record.deterministic {
            self.deterministic = false;
        }
        if record.is_violation(self.scenario) {
            self.violations += 1;
            if self.first_violation.is_none() {
                let what = match &record.result {
                    Ok(crash) => crash.outcome.to_string(),
                    Err(msg) => format!("PANIC: {msg}"),
                };
                let (seed, cut) = (record.seed, record.cut_after);
                self.first_violation = Some(format!("seed {seed} cut@{cut}: {what}"));
            }
        }
        if self.ring.len() == capacity {
            self.ring.pop_front();
            self.ring_dropped += 1;
        }
        self.ring.push_back(record);
    }

    /// The one-word verdict for the summary row.
    pub fn verdict(&self) -> &'static str {
        if self.violations > 0 || self.missing_torn_save() {
            "FAIL"
        } else if self.reported_loss_runs > 0 {
            "degrade"
        } else {
            "pass"
        }
    }

    /// A starved, armed sweep that never tore a save proves nothing:
    /// the energy model would be dead code.
    pub fn missing_torn_save(&self) -> bool {
        self.scenario.expects_torn_save() && self.runs_with_nv_writes > 0 && self.torn_saves == 0
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seeds swept per scenario.
    pub seeds: Vec<u64>,
    /// Stores issued per run when nothing cuts them short.
    pub lines: u64,
    /// Crash-point stride: the cut lands after 0, K, 2K, … stores.
    pub cut_stride: u64,
    /// Ring capacity for per-run records, per scenario.
    pub ring_capacity: usize,
    /// Reuse the store prefix across crash points: per scenario ×
    /// seed the store sequence is simulated once, snapshotted at
    /// every cut point, and each crash-point run restores its
    /// snapshot into a fresh boot instead of re-simulating the
    /// prefix. Results are byte-identical to the straight sweep.
    pub reuse_prefix: bool,
}

/// Seeds and stores per run of the smoke and full sweeps, and the
/// smallest store count a run accepts.
const SIZING: Sizing = Sizing {
    smoke: (2, 8),
    full: (3, 16),
    floor: 1,
    step: 1,
};

impl CampaignConfig {
    /// The smoke or full sweep with the driver's `--seeds` and
    /// `--lines` applied (see [`Sizing::resolve`]); the full sweep has
    /// the finer crash-point stride.
    pub fn sized(smoke: bool, seeds: Option<u64>, lines: Option<u64>) -> Self {
        let (seeds, lines) = SIZING.resolve(smoke, seeds, lines);
        CampaignConfig {
            seeds,
            lines,
            cut_stride: if smoke { 4 } else { 2 },
            ring_capacity: 64,
            reuse_prefix: false,
        }
    }

    /// The crash points this config sweeps.
    pub fn cut_points(&self) -> Vec<u64> {
        let stride = self.cut_stride.max(1);
        (0..=self.lines).step_by(stride as usize).collect()
    }
}

/// The full campaign result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-scenario results, in scenario order.
    pub scenarios: Vec<ScenarioResult>,
    /// Metrics merged across every run (counters accumulate).
    pub metrics: MetricsRegistry,
    /// Store operations actually simulated, prefix recording
    /// included. The checkpoint campaign asserts prefix reuse
    /// *structurally* from this: a reused sweep must execute far
    /// fewer stores than the straight sweep for identical results.
    pub stores_executed: u64,
}

impl CampaignReport {
    /// Contract violations, one line each.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in &self.scenarios {
            if s.violations > 0 {
                out.push(format!(
                    "{}: {} violating runs (first: {})",
                    s.scenario.name(),
                    s.violations,
                    s.first_violation.as_deref().unwrap_or("?"),
                ));
            }
            if s.missing_torn_save() {
                out.push(format!(
                    "{}: starved sweep produced no detected torn save",
                    s.scenario.name()
                ));
            }
            if !s.deterministic {
                out.push(format!("{}: same-seed reruns diverged", s.scenario.name()));
            }
        }
        out
    }

    /// Renders the per-scenario summary table (one row per scenario,
    /// the `--failover` format) plus ring-truncation notes.
    pub fn render_table(&self) -> String {
        const COLUMNS: [Column; 8] = [
            Column::left("scenario", 28),
            Column::right("runs", 5),
            Column::right("ring", 5),
            Column::right("torn", 5),
            Column::right("rep-loss", 9),
            Column::right("viols", 7),
            Column::right("det", 4),
            Column::left("verdict", 10).wide(),
        ];
        let mut out = sweep::header(&COLUMNS);
        for s in &self.scenarios {
            out.push_str(&sweep::row(
                &COLUMNS,
                &[
                    s.scenario.name(),
                    s.total_runs.to_string(),
                    s.ring.len().to_string(),
                    s.torn_saves.to_string(),
                    s.reported_loss_runs.to_string(),
                    s.violations.to_string(),
                    (if s.deterministic { "yes" } else { "NO" }).to_string(),
                    s.verdict().to_string(),
                ],
            ));
        }
        for s in &self.scenarios {
            if s.ring_dropped > 0 {
                out.push_str(&format!(
                    "note: {} ring kept {} of {} runs ({} dropped)\n",
                    s.scenario.name(),
                    s.ring.len(),
                    s.total_runs,
                    s.ring_dropped,
                ));
            }
        }
        let violations = self.violations();
        out.push_str(&format!(
            "\n{} scenarios, {} total runs, {} violations\n",
            self.scenarios.len(),
            self.scenarios.iter().map(|s| s.total_runs).sum::<u64>(),
            violations.len(),
        ));
        for v in &violations {
            out.push_str(&format!("violation: {v}\n"));
        }
        out
    }
}

/// The campaign layout: minimal CDIMM DRAM at slot 0 so Linux has
/// memory at address zero, plus a small NVDIMM ConTutto at slot 2 so
/// the save/restore sweep stays fast.
fn power_layout() -> Vec<SlotPopulation> {
    vec![
        SlotPopulation::Cdimm {
            config: CentaurConfig::optimized(),
            capacity: 4 << 30,
        },
        SlotPopulation::Empty,
        SlotPopulation::ConTutto {
            config: ContuttoConfig::base(),
            population: MemoryPopulation {
                kind: MemoryKind::NvdimmN,
                dimm_capacity: 512 << 10,
                dimms: 2,
            },
        },
        SlotPopulation::Empty,
    ]
}

/// A run's measurement from the system it ran on.
fn measured(sys: &Power8System, outcome: Outcome, torn_saves: u64, lost: u64) -> Measured<Crash> {
    Measured {
        record: Crash {
            outcome,
            torn_saves,
            reported_loss_slots: lost,
        },
        fingerprint: sys.tracer().fingerprint(),
        metrics: sys.metrics(),
    }
}

/// Boots the campaign layout with tracing, arming and the scenario's
/// energy model applied — everything a run does before its stores.
fn boot_configured(scenario: Scenario, seed: u64) -> Power8System {
    let mut sys = Power8System::boot(power_layout(), seed).expect("campaign layout boots");
    sys.enable_tracing(1 << 14);
    if scenario.arming == Arming::Disarmed {
        sys.set_nvdimm_armed(false);
    }
    sys.configure_power(scenario.power_config());
    sys
}

/// The campaign's deterministic store schedule: line `i` alternates
/// between the NVDIMM region and volatile DRAM. Pure in (seed,
/// cut_after), so a restored run can rebuild its golden audit list
/// without re-simulating a single store.
fn golden_lines(nv_base: u64, seed: u64, cut_after: u64) -> Vec<(u64, CacheLine, bool)> {
    (0..cut_after)
        .map(|i| {
            let (addr, nonvolatile) = if i % 2 == 0 {
                (nv_base + (i / 2) * 128, true)
            } else {
                (0x20_0000 + (i / 2) * 128, false)
            };
            let line = CacheLine::patterned(seed.wrapping_mul(1_000_003) + i);
            (addr, line, nonvolatile)
        })
        .collect()
}

/// Optionally run the EPOW cascade, cut the power, reboot, and audit
/// every pre-cut line against the durability contract.
fn cut_and_audit(
    mut sys: Power8System,
    scenario: Scenario,
    golden: &[(u64, CacheLine, bool)],
) -> Measured<Crash> {
    if scenario.orderly {
        sys.epow();
    }
    let now = sys
        .channels()
        .iter()
        .map(|c| c.channel.now())
        .max()
        .unwrap_or(SimTime::ZERO);
    let quiet = sys.power_cut(now + SimTime::from_us(1));
    let report = match sys.reboot(quiet + SimTime::from_ms(10)) {
        Ok(r) => r,
        Err(e) => return measured(&sys, Outcome::UnexpectedError(format!("reboot: {e}")), 0, 0),
    };
    let lost_slots: BTreeSet<usize> = report.data_loss.iter().map(|d| d.slot).collect();
    let torn_saves = report
        .data_loss
        .iter()
        .filter(|d| d.outcome == PowerRestoreOutcome::TornSave)
        .count() as u64;

    let mut nv_clean = 0u64;
    let mut reported_lost = 0u64;
    let mut silent = 0u64;
    for (addr, line, nonvolatile) in golden {
        let back = match sys.load_line(*addr) {
            Ok((back, _)) => back,
            Err(e) => {
                let outcome = Outcome::UnexpectedError(format!("readback: {e}"));
                return measured(&sys, outcome, torn_saves, lost_slots.len() as u64);
            }
        };
        if *nonvolatile {
            if back == *line {
                nv_clean += 1;
            } else if back == CacheLine::default() {
                let slot = sys.route(*addr).map(|(s, _)| s);
                if slot.is_some_and(|s| lost_slots.contains(&s)) {
                    reported_lost += 1;
                } else {
                    // Empty with no loss report: silent loss.
                    silent += 1;
                }
            } else {
                // Neither the written value nor reported-empty.
                silent += 1;
            }
        } else if back != CacheLine::default() {
            // Volatile contents resurrected across a power cut.
            silent += 1;
        }
    }
    let outcome = if silent > 0 {
        Outcome::SilentCorruption { lines: silent }
    } else {
        Outcome::Accounted {
            nv_clean,
            reported_lost,
        }
    };
    measured(&sys, outcome, torn_saves, lost_slots.len() as u64)
}

/// Write `cut_after` lines (alternating NVDIMM / DRAM), then cut,
/// reboot and audit. With the `image` recorded after those stores,
/// overlay it onto a fresh boot instead of simulating them.
fn run_once(
    scenario: Scenario,
    seed: u64,
    cut_after: u64,
    image: Option<&[u8]>,
) -> Measured<Crash> {
    let mut sys = match image {
        None => boot_configured(scenario, seed),
        Some(_) => Power8System::boot(power_layout(), seed).expect("campaign layout boots"),
    };
    let nv_base = sys.memory_map().nonvolatile_regions()[0].base;
    let golden = golden_lines(nv_base, seed, cut_after);
    let prefix = match image {
        Some(image) => sys.restore(image).map_err(|e| format!("restore: {e}")),
        None => golden
            .iter()
            .try_for_each(|(addr, line, _)| sys.store_line(*addr, *line).map(|_| ()))
            .map_err(|e| format!("store: {e}")),
    };
    match prefix {
        Ok(()) => cut_and_audit(sys, scenario, &golden),
        Err(e) => measured(&sys, Outcome::UnexpectedError(e), 0, 0),
    }
}

/// Simulates the store prefix once, snapshotting at every cut point.
/// Returns the images plus the number of stores actually simulated,
/// or `None` if a store failed (the caller falls back to the
/// straight path, which will type the error per crash point).
fn record_prefix(
    scenario: Scenario,
    seed: u64,
    cut_points: &[u64],
) -> Option<(BTreeMap<u64, Vec<u8>>, u64)> {
    let mut points = cut_points.to_vec();
    points.sort_unstable();
    points.dedup();
    let mut sys = boot_configured(scenario, seed);
    let nv_base = sys.memory_map().nonvolatile_regions()[0].base;
    let max = points.last().copied().unwrap_or(0);
    let golden = golden_lines(nv_base, seed, max);
    let mut images = BTreeMap::new();
    let mut done = 0u64;
    let mut stores = 0u64;
    for &cp in &points {
        for i in done..cp {
            let (addr, line, _) = golden[i as usize];
            sys.store_line(addr, line).ok()?;
            stores += 1;
        }
        done = cp;
        images.insert(cp, sys.snapshot());
    }
    Some((images, stores))
}

/// Runs one scenario × seed × crash point — twice, because
/// byte-identical same-seed traces are part of the contract. Given the
/// crash point's prefix `image`, both runs restore it into fresh
/// boots, so the double run also proves restore deterministic.
pub fn run_crash_point(
    scenario: Scenario,
    seed: u64,
    cut_after: u64,
    image: Option<&[u8]>,
) -> (RunRecord, MetricsRegistry) {
    let (result, fingerprint, metrics, deterministic) =
        sweep::run_checked(|| run_once(scenario, seed, cut_after, image));
    let record = RunRecord {
        seed,
        cut_after,
        result,
        deterministic,
        fingerprint,
    };
    (record, metrics)
}

/// Runs every arming × budget × orderliness scenario across every
/// seed and crash point. With [`CampaignConfig::reuse_prefix`] the
/// per-(scenario, seed) store prefix is simulated once and each crash
/// point restores its snapshot — same records, far fewer stores.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let cut_points = cfg.cut_points();
    let mut scenarios = Vec::new();
    let mut metrics = MetricsRegistry::new();
    let mut stores_executed = 0u64;
    for scenario in Scenario::all() {
        let mut result = ScenarioResult::new(scenario);
        for &seed in &cfg.seeds {
            let prefix = cfg
                .reuse_prefix
                .then(|| record_prefix(scenario, seed, &cut_points))
                .flatten();
            stores_executed += prefix.as_ref().map_or(0, |(_, stores)| *stores);
            for &cut_after in &cut_points {
                let image = prefix
                    .as_ref()
                    .map(|(images, _)| images[&cut_after].as_slice());
                let (record, run_metrics) = run_crash_point(scenario, seed, cut_after, image);
                if image.is_none() {
                    // The determinism double run simulates the prefix
                    // twice.
                    stores_executed += 2 * cut_after;
                }
                metrics.merge(&run_metrics);
                result.push(record, cfg.ring_capacity.max(1));
            }
        }
        scenarios.push(result);
    }
    CampaignReport {
        scenarios,
        metrics,
        stores_executed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(r: &RunRecord) -> &Crash {
        r.result.as_ref().expect("the run finished")
    }

    #[test]
    fn smoke_campaign_upholds_the_durability_contract() {
        let report = run_campaign(&CampaignConfig {
            seeds: vec![1],
            lines: 8,
            cut_stride: 4,
            ring_capacity: 64,
            reuse_prefix: false,
        });
        let violations = report.violations();
        assert!(violations.is_empty(), "{}", violations.join("\n"));
    }

    /// The prefix-reused sweep must reproduce the straight sweep's
    /// records byte-for-byte while simulating strictly fewer stores.
    #[test]
    fn reused_prefix_sweep_is_byte_identical_to_straight() {
        let mut cfg = CampaignConfig {
            seeds: vec![1],
            lines: 8,
            cut_stride: 4,
            ring_capacity: 64,
            reuse_prefix: false,
        };
        let straight = run_campaign(&cfg);
        cfg.reuse_prefix = true;
        let reused = run_campaign(&cfg);
        assert_eq!(straight.render_table(), reused.render_table());
        for (a, b) in straight.scenarios.iter().zip(&reused.scenarios) {
            for (ra, rb) in a.ring.iter().zip(&b.ring) {
                assert_eq!(ra.fingerprint, rb.fingerprint, "{:?}", a.scenario);
                assert_eq!(ra.result, rb.result, "{:?}", a.scenario);
                assert!(rb.deterministic, "{:?}", a.scenario);
            }
        }
        // Straight runs each prefix twice per crash point; reuse
        // records it once per (scenario, seed).
        assert!(
            reused.stores_executed < straight.stores_executed,
            "reused {} vs straight {}",
            reused.stores_executed,
            straight.stores_executed
        );
        // 8 scenarios × 1 seed × cut points {0,4,8} → straight
        // simulates 2·(0+4+8) stores per scenario; reuse simulates
        // max(cut_points) = 8 once per scenario.
        assert_eq!(straight.stores_executed, 8 * 2 * 12);
        assert_eq!(reused.stores_executed, 8 * 8);
    }

    #[test]
    fn armed_generous_cut_is_fully_durable() {
        let (r, _) = run_crash_point(
            Scenario {
                arming: Arming::Armed,
                budget: Budget::Generous,
                orderly: true,
            },
            1,
            8,
            None,
        );
        assert!(r.deterministic);
        assert_eq!(
            crash(&r).outcome,
            Outcome::Accounted {
                nv_clean: 4,
                reported_lost: 0
            },
            "{}",
            crash(&r).outcome
        );
    }

    #[test]
    fn starved_supercap_tears_and_is_detected() {
        let (r, _) = run_crash_point(
            Scenario {
                arming: Arming::Armed,
                budget: Budget::Starved,
                orderly: false,
            },
            2,
            8,
            None,
        );
        assert!(
            crash(&r).torn_saves >= 1,
            "torn save must be detected, got {}",
            crash(&r).outcome
        );
        let Outcome::Accounted { reported_lost, .. } = crash(&r).outcome else {
            panic!(
                "torn save must surface as a reported loss, got {}",
                crash(&r).outcome
            );
        };
        assert_eq!(
            reported_lost, 4,
            "every lost nv line is covered by the report"
        );
    }

    #[test]
    fn disarmed_loss_is_reported_not_silent() {
        let (r, _) = run_crash_point(
            Scenario {
                arming: Arming::Disarmed,
                budget: Budget::Generous,
                orderly: true,
            },
            3,
            6,
            None,
        );
        let Outcome::Accounted {
            nv_clean,
            reported_lost,
        } = crash(&r).outcome
        else {
            panic!("expected accounted, got {}", crash(&r).outcome);
        };
        assert_eq!(nv_clean, 0);
        assert_eq!(reported_lost, 3);
    }

    #[test]
    fn ring_logs_dropped_runs_instead_of_truncating_silently() {
        let report = run_campaign(&CampaignConfig {
            seeds: vec![1],
            lines: 4,
            cut_stride: 1,
            ring_capacity: 2,
            reuse_prefix: false,
        });
        let s = &report.scenarios[0];
        assert_eq!(s.total_runs, 5);
        assert_eq!(s.ring.len(), 2);
        assert_eq!(s.ring_dropped, 3);
        let table = report.render_table();
        assert!(table.contains("ring kept 2 of 5"), "{table}");
    }
}
