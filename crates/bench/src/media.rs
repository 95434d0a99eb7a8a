//! Deterministic media-fault campaign: bit flips in the DIMM arrays.
//!
//! Where [`crate::faults`] attacks the *link*, this campaign attacks
//! the *media* behind it: seeded single-bit flips rain on a hot range
//! of each DIMM while the same write-then-read-back workload runs
//! through a ConTutto channel, for every populated technology
//! ({DRAM, STT-MRAM, NVDIMM-N}) with patrol scrub on and off. The
//! invariant asserted by [`sweep::Report::violations`] is the
//! RAS contract end to end:
//!
//! * **no silent corruption, ever** — a completed read either returns
//!   exactly the written bytes (clean or ECC-corrected) or surfaces a
//!   typed [`DmiError::Poisoned`]; a mismatch that sneaks through is a
//!   campaign violation, as is any panic;
//! * **scrub measurably helps** — the aggregate uncorrectable count
//!   with scrub disabled must exceed the scrub-enabled aggregate
//!   ([`CampaignReport::scrub_benefit`]), or the scrubber is dead
//!   weight; [`sweep::Report::violations`] reports it otherwise.
//!
//! Runs are deterministic: the same scenario and seed produce a
//! byte-identical trace fingerprint, printed in the table.

use contutto_core::{ConTutto, ContuttoConfig, MemoryPopulation};
use contutto_dmi::command::CacheLine;
use contutto_dmi::DmiError;
use contutto_memdev::{FaultConfig, MramGeneration};
use contutto_power8::channel::{ChannelConfig, DmiChannel};
use contutto_sim::SimTime;

use crate::faults::campaign_policy;
pub use crate::faults::Outcome;
use crate::sweep::{self, Campaign, Column, Measured, Sizing};
pub use crate::sweep::{run_campaign, run_scenario};

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
    /// Stable display name (also the table key).
    pub fn name(self) -> String {
        format!(
            "{}{}",
            self.media.name(),
            if self.scrub { "+scrub" } else { "-noscrub" }
        )
    }
}

/// What one scenario × seed run recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Classified end state. `Degraded` here means the RAS machinery
    /// acted; a typed failure is never expected.
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
}

/// Seeds and lines per run (at least 2, rounded up to an even count
/// so both DIMM ports see the same number of lines).
pub type CampaignConfig = sweep::Config<Scenario>;

/// The campaign's runs.
pub type CampaignReport = sweep::Report<Scenario>;

impl CampaignReport {
    /// Aggregate demand-read uncorrectable counts as (scrub on, scrub
    /// off). The off total exceeding the on total is the scrubber's
    /// measurable benefit.
    pub fn scrub_benefit(&self) -> (u64, u64) {
        let total = |scrub: bool| -> u64 {
            let runs = self.runs.iter().filter(|r| r.scenario.scrub == scrub);
            runs.filter_map(|r| Some(r.result.as_ref().ok()?.uncorrectable))
                .sum()
        };
        (total(true), total(false))
    }
}

const COLUMNS: [Column; 6] = [
    Column::left("outcome", 10).wide(),
    Column::right("corrected", 9),
    Column::right("uncorr", 7),
    Column::right("scrubs", 6),
    Column::right("retired", 7),
    Column::right("poisoned", 8),
];

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

impl Campaign for Scenario {
    type Record = Record;
    type Size = sweep::Lines;
    const NAME: &'static str = "media-fault";
    const SIZING: Sizing = Sizing {
        smoke: (2, 8),
        full: (5, 8),
        floor: 2,
        step: 2,
    };

    /// Every media × scrub combination, scrub-on first per media.
    fn scenarios() -> Vec<Scenario> {
        let cells = |media| [true, false].map(|scrub| Scenario { media, scrub });
        Media::all().into_iter().flat_map(cells).collect()
    }

    fn label(self) -> String {
        self.name()
    }

    fn run(self, seed: u64, lines: u64) -> Measured<Record> {
        let mut ch = channel_for(self, seed, lines);
        let tracer = ch.enable_tracing(1 << 15);
        let (mismatches, error, poisoned) = workload(&mut ch, seed, lines);
        let metrics = ch.metrics();
        let corrected = metrics.counter("buffer.media.demand_corrected")
            + metrics.counter("buffer.media.scrub_corrected");
        let uncorrectable = metrics.counter("buffer.media.demand_uncorrectable");
        let scrub_passes = metrics.counter("buffer.media.scrub_passes");
        let pages_retired = metrics.counter("buffer.media.pages_retired");
        let ras_acted = corrected + uncorrectable + pages_retired + poisoned > 0;
        Measured {
            record: Record {
                outcome: Outcome::of(mismatches, error, ras_acted),
                corrected,
                uncorrectable,
                scrub_passes,
                pages_retired,
                poisoned_reads: poisoned,
            },
            fingerprint: tracer.fingerprint(),
            metrics,
        }
    }

    /// Poison is *not* a violation — it is the loud failure the whole
    /// pipeline exists to deliver. A typed failure or silent
    /// corruption is.
    fn violation(self, record: &Record) -> Option<String> {
        match &record.outcome {
            Outcome::Pass | Outcome::Degraded => None,
            broken => Some(broken.to_string()),
        }
    }

    /// Disabling scrub must raise the aggregate uncorrectable count.
    fn campaign_violations(report: &CampaignReport) -> Vec<String> {
        let (on, off) = report.scrub_benefit();
        let why = format!("scrub showed no benefit: {on} uncorrectable with scrub, {off} without");
        (off <= on).then_some(why).into_iter().collect()
    }

    fn render(report: &CampaignReport) -> String {
        let (on, off) = report.scrub_benefit();
        let note = format!("; aggregate uncorrectable: {on} with scrub, {off} without");
        report.table(16, &COLUMNS, &note, |_, r| {
            vec![
                r.outcome.to_string(),
                r.corrected.to_string(),
                r.uncorrectable.to_string(),
                r.scrub_passes.to_string(),
                r.pages_retired.to_string(),
                r.poisoned_reads.to_string(),
            ]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_never_corrupts_silently() {
        let report = run_campaign(&CampaignConfig::new(vec![1, 2], 8));
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
        let run = |scrub: bool, uncorrectable: u64| sweep::Run {
            scenario: Scenario {
                media: Media::Dram,
                scrub,
            },
            seed: 1,
            result: Ok(Record {
                outcome: Outcome::Degraded,
                corrected: 0,
                uncorrectable,
                scrub_passes: 0,
                pages_retired: 0,
                poisoned_reads: uncorrectable,
            }),
            fingerprint: 1,
            deterministic: true,
            metrics: contutto_sim::MetricsRegistry::new(),
        };
        let report = |on: u64, off: u64| CampaignReport {
            runs: vec![run(true, on), run(false, off)],
            size: 8,
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
        assert!(!r.is_violation(), "{}", r.record().outcome);
        let r = r.record();
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
        assert!(!r.is_violation(), "{}", r.record().outcome);
        assert!(r.record().scrub_passes > 0, "scrub must actually run");
        assert!(r.record().corrected > 0, "scrub corrects latent flips");
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
        assert_eq!(a.record().outcome, b.record().outcome);
    }
}
