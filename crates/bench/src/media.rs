//! Deterministic media-fault campaign: bit flips in the DIMM arrays.
//!
//! Where [`crate::faults`] attacks the *link*, this campaign attacks
//! the *media* behind it: seeded single-bit flips rain on a hot range
//! of each DIMM while the same write-then-read-back workload runs
//! through a ConTutto channel, for every populated technology
//! ({DRAM, STT-MRAM, NVDIMM-N}) with patrol scrub on and off. The
//! invariant asserted by [`CampaignReport::violations`] is the
//! RAS contract end to end:
//!
//! * **no silent corruption, ever** — a completed read either returns
//!   exactly the written bytes (clean or ECC-corrected) or surfaces a
//!   typed [`DmiError::Poisoned`]; a mismatch that sneaks through is a
//!   campaign violation, as is any panic;
//! * **scrub measurably helps** — the aggregate uncorrectable count
//!   with scrub disabled must exceed the scrub-enabled aggregate
//!   ([`CampaignReport::scrub_benefit`]), or the scrubber is dead
//!   weight; [`CampaignReport::violations`] reports it otherwise.
//!
//! Runs are deterministic: the same scenario and seed produce a
//! byte-identical trace fingerprint, printed in the table.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use contutto_core::{ConTutto, ContuttoConfig, MemoryPopulation};
use contutto_dmi::command::CacheLine;
use contutto_dmi::DmiError;
use contutto_memdev::{FaultConfig, MramGeneration};
use contutto_power8::channel::{ChannelConfig, DmiChannel};
use contutto_sim::{MetricsRegistry, SimTime};

use crate::faults::campaign_policy;

/// The flips are spread over this much sim time from power-on.
pub const FAULT_WINDOW: SimTime = SimTime::from_us(200);

/// Patrol-scrub interval for the scrub-enabled runs: ten passes fit
/// inside the fault window, so latent flips are healed before a second
/// flip can join them in the same ECC word.
pub const SCRUB_INTERVAL: SimTime = SimTime::from_us(20);

/// Transient single-bit flips injected per run (split across the two
/// DIMM ports). Dense enough that, unscrubbed, many words collect two
/// flips and go uncorrectable.
pub const TRANSIENT_FLIPS: u32 = 120;

/// The memory technology populated behind the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Media {
    /// 2 × 4 GB DDR3 DRAM.
    Dram,
    /// 2 × 256 MB STT-MRAM.
    Mram,
    /// 2 × 4 GB NVDIMM-N.
    Nvdimm,
}

impl Media {
    /// Every technology, in campaign order.
    pub fn all() -> [Media; 3] {
        [Media::Dram, Media::Mram, Media::Nvdimm]
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Media::Dram => "dram",
            Media::Mram => "mram",
            Media::Nvdimm => "nvdimm",
        }
    }

    fn population(self) -> MemoryPopulation {
        match self {
            Media::Dram => MemoryPopulation::dram_8gb(),
            Media::Mram => MemoryPopulation::mram_512mb(MramGeneration::Pmtj),
            Media::Nvdimm => MemoryPopulation::nvdimm_8gb(),
        }
    }
}

/// One campaign cell: a technology with scrub on or off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Populated media.
    pub media: Media,
    /// Whether patrol scrub runs at [`SCRUB_INTERVAL`].
    pub scrub: bool,
}

impl Scenario {
    /// Every media × scrub combination, scrub-on first per media.
    pub fn all() -> Vec<Scenario> {
        let mut out = Vec::new();
        for media in Media::all() {
            for scrub in [true, false] {
                out.push(Scenario { media, scrub });
            }
        }
        out
    }

    /// Stable display name (also the table key).
    pub fn name(self) -> String {
        format!(
            "{}{}",
            self.media.name(),
            if self.scrub { "+scrub" } else { "-noscrub" }
        )
    }
}

/// How a single run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Every read returned the written bytes without ECC intervention.
    Pass,
    /// Data integrity held, but the RAS machinery acted: corrections,
    /// page retirements, or loud [`DmiError::Poisoned`] reads.
    Degraded,
    /// An unexpected typed error (media faults must never hang the
    /// protocol or starve tags).
    Fail(DmiError),
    /// A read returned bytes that differ from what was written with no
    /// poison flag — silent corruption, the one unforgivable outcome.
    Corrupt {
        /// Number of mismatching lines.
        mismatches: u64,
    },
    /// The run panicked — always a campaign violation.
    Panicked(String),
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Pass => write!(f, "pass"),
            Outcome::Degraded => write!(f, "degraded"),
            Outcome::Fail(e) => write!(f, "fail: {e}"),
            Outcome::Corrupt { mismatches } => write!(f, "CORRUPT ({mismatches} lines)"),
            Outcome::Panicked(msg) => write!(f, "PANIC: {msg}"),
        }
    }
}

/// The record of one scenario × seed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario that ran.
    pub scenario: Scenario,
    /// Seed that parameterized the fault pattern.
    pub seed: u64,
    /// Classified end state.
    pub outcome: Outcome,
    /// ECC corrections (demand + scrub) across both ports.
    pub corrected: u64,
    /// Uncorrectable errors striking *demand* reads — the number that
    /// matters to the host, and the one patrol scrub exists to drive
    /// down. (Scrub's own detections recur every pass over a latent
    /// bad line, so they live in the metrics, not this column.)
    pub uncorrectable: u64,
    /// Patrol-scrub passes that ran.
    pub scrub_passes: u64,
    /// Pages retired over the correctable-error threshold.
    pub pages_retired: u64,
    /// Reads surfaced to the host as [`DmiError::Poisoned`].
    pub poisoned_reads: u64,
    /// Trace fingerprint — byte-identical across same-seed runs.
    pub fingerprint: u64,
    /// Same-seed rerun matched (fingerprint and outcome).
    pub deterministic: bool,
    /// Full metrics snapshot for `--metrics` aggregation.
    pub metrics: MetricsRegistry,
}

impl RunReport {
    /// Whether this run violates the no-silent-corruption contract.
    /// Poison is *not* a violation — it is the loud failure the whole
    /// pipeline exists to deliver.
    pub fn is_violation(&self) -> bool {
        if !self.deterministic {
            return true;
        }
        match &self.outcome {
            Outcome::Pass | Outcome::Degraded => false,
            Outcome::Fail(_) | Outcome::Corrupt { .. } | Outcome::Panicked(_) => true,
        }
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seeds swept per scenario.
    pub seeds: Vec<u64>,
    /// Cache lines written and read back per run (kept inside the hot
    /// range; rounded up to an even count so both DIMM ports see the
    /// same number of lines).
    pub lines: u64,
}

impl CampaignConfig {
    /// The quick gate used by `scripts/verify.sh`: 2 seeds, 8 lines.
    pub fn smoke() -> Self {
        CampaignConfig {
            seeds: vec![1, 2],
            lines: 8,
        }
    }

    /// The full sweep: 5 seeds, 8 lines per run.
    pub fn full() -> Self {
        CampaignConfig {
            seeds: (1..=5).collect(),
            lines: 8,
        }
    }
}

/// The full campaign result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Every run, in scenario-major order.
    pub runs: Vec<RunReport>,
}

impl CampaignReport {
    /// Runs that break the no-silent-corruption contract, one line
    /// each, plus one line when disabling scrub did not raise the
    /// aggregate uncorrectable count.
    pub fn violations(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .runs
            .iter()
            .filter(|r| r.is_violation())
            .map(|r| {
                let rerun = if r.deterministic {
                    ""
                } else {
                    ", rerun diverged"
                };
                format!(
                    "{} seed {}: {}{rerun}",
                    r.scenario.name(),
                    r.seed,
                    r.outcome
                )
            })
            .collect();
        let (on, off) = self.scrub_benefit();
        if off <= on {
            v.push(format!(
                "scrub showed no benefit: {on} uncorrectable with scrub, {off} without"
            ));
        }
        v
    }

    /// Aggregate demand-read uncorrectable counts as (scrub on, scrub
    /// off). The off total exceeding the on total is the scrubber's
    /// measurable benefit.
    pub fn scrub_benefit(&self) -> (u64, u64) {
        let mut on = 0;
        let mut off = 0;
        for r in &self.runs {
            if r.scenario.scrub {
                on += r.uncorrectable;
            } else {
                off += r.uncorrectable;
            }
        }
        (on, off)
    }

    /// All run metrics merged (counters accumulate).
    pub fn merged_metrics(&self) -> MetricsRegistry {
        let mut merged = MetricsRegistry::new();
        for r in &self.runs {
            merged.merge(&r.metrics);
        }
        merged
    }

    /// Renders the campaign table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>4}  {:<10} {:>9} {:>7} {:>6} {:>7} {:>8} {:>4}  {:<16}\n",
            "scenario",
            "seed",
            "outcome",
            "corrected",
            "uncorr",
            "scrubs",
            "retired",
            "poisoned",
            "det",
            "fingerprint"
        ));
        out.push_str(&"-".repeat(101));
        out.push('\n');
        for r in &self.runs {
            out.push_str(&format!(
                "{:<16} {:>4}  {:<10} {:>9} {:>7} {:>6} {:>7} {:>8} {:>4}  {:016x}\n",
                r.scenario.name(),
                r.seed,
                r.outcome.to_string(),
                r.corrected,
                r.uncorrectable,
                r.scrub_passes,
                r.pages_retired,
                r.poisoned_reads,
                if r.deterministic { "yes" } else { "NO" },
                r.fingerprint,
            ));
        }
        let (on, off) = self.scrub_benefit();
        out.push_str(&format!(
            "\n{} runs, {} violations; aggregate uncorrectable: {} with scrub, {} without\n",
            self.runs.len(),
            self.violations().len(),
            on,
            off,
        ));
        out
    }
}

/// Builds the channel for one run: a ConTutto card populated with the
/// scenario's media, a seeded flip storm over the first `lines` cache
/// lines of each DIMM port, and scrub armed when the scenario says so.
fn channel_for(scenario: Scenario, seed: u64, lines: u64) -> DmiChannel {
    let mut card = ConTutto::new(ContuttoConfig::base(), scenario.media.population());
    card.attach_media_faults(FaultConfig {
        transient_flips: TRANSIENT_FLIPS,
        window: FAULT_WINDOW,
        hot_start: 0,
        // Global lines interleave across the two ports, so each port's
        // hot range holds half of them (in device-local addresses).
        hot_len: (lines / 2).max(1) * 128,
        ..FaultConfig::none(seed)
    });
    if scenario.scrub {
        card.enable_scrub(SCRUB_INTERVAL);
    }
    let mut ch = DmiChannel::new(ChannelConfig::contutto(), Box::new(card));
    ch.set_retry_policy(campaign_policy());
    ch
}

/// The workload: write patterned lines, idle across the fault window,
/// read each line back. Returns (silent mismatches, unexpected error,
/// poisoned reads).
fn workload(ch: &mut DmiChannel, seed: u64, lines: u64) -> (u64, Option<DmiError>, u64) {
    let mut written = Vec::new();
    for i in 0..lines {
        let addr = i * 128;
        let line = CacheLine::patterned(seed.wrapping_mul(1000) + i);
        if let Err(e) = ch.write_line_blocking(addr, line) {
            return (0, Some(e), 0);
        }
        written.push((addr, line));
    }
    // Idle until every scheduled flip has fallen due (plus slack so
    // the final scrub pass lands before the reads).
    let resume = ch.now().max(FAULT_WINDOW) + SCRUB_INTERVAL * 3;
    ch.run_until(resume);
    let mut mismatches = 0;
    let mut poisoned = 0;
    for (addr, line) in written {
        match ch.read_line_blocking(addr) {
            Ok((back, _)) if back == line => {}
            Ok(_) => mismatches += 1,
            Err(DmiError::Poisoned { .. }) => poisoned += 1,
            Err(e) => return (mismatches, Some(e), poisoned),
        }
    }
    (mismatches, None, poisoned)
}

fn run_once(scenario: Scenario, seed: u64, lines: u64) -> RunReport {
    let result = catch_unwind(AssertUnwindSafe(move || {
        let mut ch = channel_for(scenario, seed, lines);
        let tracer = ch.enable_tracing(1 << 15);
        let (mismatches, error, poisoned) = workload(&mut ch, seed, lines);
        let metrics = ch.metrics();
        let corrected = metrics.counter("buffer.media.demand_corrected")
            + metrics.counter("buffer.media.scrub_corrected");
        let uncorrectable = metrics.counter("buffer.media.demand_uncorrectable");
        let scrub_passes = metrics.counter("buffer.media.scrub_passes");
        let pages_retired = metrics.counter("buffer.media.pages_retired");
        let ras_acted = corrected + uncorrectable + pages_retired + poisoned > 0;
        let outcome = if mismatches > 0 {
            Outcome::Corrupt { mismatches }
        } else if let Some(e) = error {
            Outcome::Fail(e)
        } else if ras_acted {
            Outcome::Degraded
        } else {
            Outcome::Pass
        };
        RunReport {
            scenario,
            seed,
            outcome,
            corrected,
            uncorrectable,
            scrub_passes,
            pages_retired,
            poisoned_reads: poisoned,
            fingerprint: tracer.fingerprint(),
            deterministic: true,
            metrics,
        }
    }));
    result.unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        RunReport {
            scenario,
            seed,
            outcome: Outcome::Panicked(msg),
            corrected: 0,
            uncorrectable: 0,
            scrub_passes: 0,
            pages_retired: 0,
            poisoned_reads: 0,
            fingerprint: 0,
            deterministic: true,
            metrics: MetricsRegistry::new(),
        }
    })
}

/// Runs one scenario at one seed — twice, because byte-identical
/// same-seed traces are part of the contract: a divergence marks the
/// run non-deterministic, which is always a violation. Panics are
/// caught so a regression shows up as a `Panicked` row rather than
/// aborting the campaign.
pub fn run_scenario(scenario: Scenario, seed: u64, lines: u64) -> RunReport {
    let lines = lines.max(2).next_multiple_of(2);
    let (mut report, deterministic) = crate::harness::run_twice_assert_identical(
        || run_once(scenario, seed, lines),
        |a, b| a.fingerprint == b.fingerprint && a.outcome == b.outcome,
    );
    report.deterministic = deterministic;
    report
}

/// Runs every media × scrub scenario across every seed.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let mut runs = Vec::new();
    for scenario in Scenario::all() {
        for &seed in &cfg.seeds {
            runs.push(run_scenario(scenario, seed, cfg.lines));
        }
    }
    CampaignReport { runs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_never_corrupts_silently() {
        let report = run_campaign(&CampaignConfig {
            seeds: vec![1, 2],
            lines: 8,
        });
        let violations = report.violations();
        assert!(violations.is_empty(), "{}", violations.join("\n"));
        let (on, off) = report.scrub_benefit();
        assert!(
            off > on,
            "disabling scrub must raise the uncorrectable aggregate"
        );
    }

    #[test]
    fn scrub_without_benefit_is_a_violation() {
        let run = |scrub: bool, uncorrectable: u64| RunReport {
            scenario: Scenario {
                media: Media::Dram,
                scrub,
            },
            seed: 1,
            outcome: Outcome::Degraded,
            corrected: 0,
            uncorrectable,
            scrub_passes: 0,
            pages_retired: 0,
            poisoned_reads: uncorrectable,
            fingerprint: 1,
            deterministic: true,
            metrics: MetricsRegistry::new(),
        };
        let report = |on: u64, off: u64| CampaignReport {
            runs: vec![run(true, on), run(false, off)],
        };
        assert!(report(1, 2).violations().is_empty());
        for (on, off) in [(2, 2), (3, 1)] {
            let v = report(on, off).violations();
            assert_eq!(v.len(), 1, "{v:?}");
            assert!(v[0].contains("scrub showed no benefit"), "{}", v[0]);
        }
    }

    #[test]
    fn unscrubbed_faults_go_loud_not_silent() {
        // Without scrub the flip storm must produce uncorrectable
        // lines, and every one of them must surface as poison — never
        // as quietly wrong data.
        let r = run_scenario(
            Scenario {
                media: Media::Dram,
                scrub: false,
            },
            1,
            8,
        );
        assert!(!r.is_violation(), "{}", r.outcome);
        assert!(r.uncorrectable > 0, "storm should defeat SEC-DED");
        assert!(r.poisoned_reads > 0, "uncorrectable reads poison loudly");
    }

    #[test]
    fn scrubbed_run_heals_and_traces_passes() {
        let r = run_scenario(
            Scenario {
                media: Media::Mram,
                scrub: true,
            },
            3,
            8,
        );
        assert!(!r.is_violation(), "{}", r.outcome);
        assert!(r.scrub_passes > 0, "scrub must actually run");
        assert!(r.corrected > 0, "scrub corrects latent flips");
    }

    #[test]
    fn same_seed_reruns_are_fingerprint_identical() {
        let s = Scenario {
            media: Media::Nvdimm,
            scrub: true,
        };
        let a = run_scenario(s, 4, 8);
        let b = run_scenario(s, 4, 8);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.outcome, b.outcome);
    }
}
