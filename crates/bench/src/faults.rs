//! Deterministic fault-injection campaign for the DMI channel.
//!
//! Every scenario drives the same write-then-read-back workload
//! through a ConTutto channel while a specific fault pattern attacks
//! the link, then classifies the run on the degradation ladder the
//! channel implements (replay → retry with backoff → retrain → typed
//! error). The campaign's invariants, asserted by
//! [`sweep::Report::violations`]:
//!
//! * **no panics** — every failure mode surfaces as a typed
//!   [`DmiError`], never an unwind;
//! * **no corruption** — every read that completes returns the bytes
//!   that were written;
//! * **typed failure only where expected** — only a dead link (or a
//!   flaky trainer that exhausts its budget) may end in an error.
//!
//! Runs are deterministic: the same scenario and seed produce a
//! byte-identical trace fingerprint, which the table prints so drift
//! is visible at a glance.

use std::collections::BTreeMap;
use std::fmt;

use contutto_core::{ConTutto, ContuttoConfig, MemoryPopulation};
use contutto_dmi::command::{CacheLine, CommandOp};
use contutto_dmi::link::BitErrorInjector;
use contutto_dmi::training::TrainerConfig;
use contutto_dmi::DmiError;
use contutto_power8::channel::{ChannelConfig, DmiChannel, RetryPolicy};
use contutto_sim::SimTime;

use crate::sweep::{self, Campaign, Column, Measured, Sizing};
pub use crate::sweep::{run_campaign, run_scenario};

/// The retry policy every campaign run uses: tight enough that a
/// sustained fault escalates within microseconds, long enough that
/// ordinary replays never trip it.
pub fn campaign_policy() -> RetryPolicy {
    RetryPolicy {
        op_timeout: SimTime::from_us(20),
        max_attempts: 3,
        base_backoff: SimTime::from_us(4),
        max_retrains: 1,
    }
}

/// One fault pattern attacking the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// No faults — the control run.
    Clean,
    /// Sustained 2% Bernoulli bit errors on the downstream wire.
    BernoulliDown,
    /// Sustained 2% Bernoulli bit errors on the upstream wire.
    BernoulliUp,
    /// Sustained 1% Bernoulli errors on both wires at once.
    BernoulliBoth,
    /// A 120-frame burst wiping the downstream wire.
    BurstDown,
    /// A 120-frame burst wiping the upstream wire.
    BurstUp,
    /// A 3000-frame upstream blackout: every ACK (and read datum) is
    /// lost for 6 µs — shorter than the op timeout, so replay alone
    /// must recover it.
    AckStarvation,
    /// Bernoulli noise while ~24 reads are pipelined at once, keeping
    /// the replay buffers under pressure from many in-flight tags.
    ReplayPressure,
    /// A 30 µs downstream blackout — longer than the 20 µs op timeout,
    /// so the first attempt times out, the tag is quarantined and a
    /// backed-off retry completes the operation.
    TimeoutRetry,
    /// A 120 µs blackout of both wires — outlasts every retry, forcing
    /// escalation to a full link retrain before traffic recovers.
    RetrainLadder,
    /// Both wires corrupt every frame forever: the ladder must end in
    /// a typed timeout with every tag reclaimed, not a hang or panic.
    DeadLink,
    /// Link training itself is flaky (50% pattern-lock probability);
    /// functional traffic afterwards is clean.
    TrainingFlaky,
}

impl Scenario {
    /// Stable display name (also the table key).
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Clean => "clean",
            Scenario::BernoulliDown => "bernoulli-down",
            Scenario::BernoulliUp => "bernoulli-up",
            Scenario::BernoulliBoth => "bernoulli-both",
            Scenario::BurstDown => "burst-down",
            Scenario::BurstUp => "burst-up",
            Scenario::AckStarvation => "ack-starvation",
            Scenario::ReplayPressure => "replay-pressure",
            Scenario::TimeoutRetry => "timeout-retry",
            Scenario::RetrainLadder => "retrain-ladder",
            Scenario::DeadLink => "dead-link",
            Scenario::TrainingFlaky => "training-flaky",
        }
    }

    /// Whether a typed error is an acceptable end state. A dead link
    /// *must* fail (that is the point); a flaky trainer may exhaust
    /// its attempt budget for some seeds.
    pub fn may_fail(self) -> bool {
        matches!(self, Scenario::DeadLink | Scenario::TrainingFlaky)
    }
}

/// How a run of the link-fault or media-fault campaign ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Every read returned the written bytes and no recovery
    /// machinery had to act.
    Pass,
    /// Data intact, but the recovery machinery acted: replays,
    /// retries or retrains on the link; corrections, page retirements
    /// or loud [`DmiError::Poisoned`] reads on the media.
    Degraded,
    /// The run ended in a typed error.
    Fail(DmiError),
    /// A read returned bytes that differ from what was written, with
    /// no poison flag: silent corruption.
    Corrupt {
        /// Number of mismatching lines.
        mismatches: u64,
    },
}

impl Outcome {
    /// Classifies a run: any mismatch is corruption, else the typed
    /// error fails it, else it degraded when recovery `acted`.
    pub fn of(mismatches: u64, error: Option<DmiError>, acted: bool) -> Outcome {
        match error {
            _ if mismatches > 0 => Outcome::Corrupt { mismatches },
            Some(e) => Outcome::Fail(e),
            None if acted => Outcome::Degraded,
            None => Outcome::Pass,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Pass => write!(f, "pass"),
            Outcome::Degraded => write!(f, "degraded"),
            Outcome::Fail(e) => write!(f, "fail: {e}"),
            Outcome::Corrupt { mismatches } => write!(f, "CORRUPT ({mismatches} lines)"),
        }
    }
}

/// What one scenario × seed run recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Classified end state.
    pub outcome: Outcome,
    /// Retries the channel scheduled.
    pub retries: u64,
    /// Link retrains the channel escalated to.
    pub retrains: u64,
    /// Tags reclaimed from quarantine or retrain flushes.
    pub reclaimed: u64,
    /// Replays triggered on either wire.
    pub replays: u64,
    /// CRC errors observed on either wire.
    pub crc_errors: u64,
    /// Free tags after the run settled (32 = nothing leaked).
    pub tags_free_after: usize,
}

/// Seeds and lines per run.
pub type CampaignConfig = sweep::Config<Scenario>;

/// The campaign's runs.
pub type CampaignReport = sweep::Report<Scenario>;

const COLUMNS: [Column; 6] = [
    Column::left("outcome", 10).wide(),
    Column::right("retries", 7),
    Column::right("retrains", 8),
    Column::right("reclaimed", 9),
    Column::right("replays", 8),
    Column::right("crc", 6),
];

/// Builds the channel for one scenario run. Fault windows start at a
/// seed-jittered frame so the sweep probes different protocol phases.
fn channel_for(scenario: Scenario, seed: u64) -> DmiChannel {
    let mut cfg = ChannelConfig::contutto();
    let start = 200 + seed % 64;
    let window = |frames: u64| -> BitErrorInjector {
        BitErrorInjector::at_frames((start..start + frames).collect())
    };
    match scenario {
        Scenario::Clean | Scenario::TrainingFlaky => {}
        Scenario::BernoulliDown => {
            cfg.down_errors = BitErrorInjector::bernoulli(0.02, seed);
        }
        Scenario::BernoulliUp => {
            cfg.up_errors = BitErrorInjector::bernoulli(0.02, seed.wrapping_add(1));
        }
        Scenario::BernoulliBoth => {
            cfg.down_errors = BitErrorInjector::bernoulli(0.01, seed.wrapping_mul(2));
            cfg.up_errors = BitErrorInjector::bernoulli(0.01, seed.wrapping_mul(2) + 1);
        }
        Scenario::BurstDown => cfg.down_errors = window(120),
        Scenario::BurstUp => cfg.up_errors = window(120),
        Scenario::AckStarvation => cfg.up_errors = window(3000),
        Scenario::ReplayPressure => {
            cfg.down_errors = BitErrorInjector::bernoulli(0.02, seed.wrapping_mul(3));
            cfg.up_errors = BitErrorInjector::bernoulli(0.02, seed.wrapping_mul(3) + 1);
        }
        Scenario::TimeoutRetry => cfg.down_errors = window(15_000),
        Scenario::RetrainLadder => {
            cfg.down_errors = window(60_000);
            cfg.up_errors = window(60_000);
        }
        Scenario::DeadLink => {
            cfg.down_errors = BitErrorInjector::bernoulli(1.0, seed);
            cfg.up_errors = BitErrorInjector::bernoulli(1.0, seed.wrapping_add(1));
        }
    }
    let mut ch = DmiChannel::new(
        cfg,
        Box::new(ConTutto::new(
            ContuttoConfig::base(),
            MemoryPopulation::dram_8gb(),
        )),
    );
    ch.set_retry_policy(campaign_policy());
    ch
}

/// The workload: write `lines` patterned cache lines, read each back
/// and compare. Returns (mismatches, first typed error).
fn serial_workload(ch: &mut DmiChannel, seed: u64, lines: u64) -> (u64, Option<DmiError>) {
    let mut mismatches = 0;
    for i in 0..lines {
        let addr = i * 128;
        let line = CacheLine::patterned(seed.wrapping_mul(1000) + i);
        if let Err(e) = ch.write_line_blocking(addr, line) {
            return (mismatches, Some(e));
        }
        match ch.read_line_blocking(addr) {
            Ok((back, _)) if back == line => {}
            Ok(_) => mismatches += 1,
            Err(e) => return (mismatches, Some(e)),
        }
    }
    (mismatches, None)
}

/// The replay-pressure phase: fill the tag pool with pipelined reads
/// over already-written lines and match completions back by tag.
fn pipelined_workload(ch: &mut DmiChannel, seed: u64, lines: u64) -> (u64, Option<DmiError>) {
    let mut expect: BTreeMap<u8, (u64, CacheLine)> = BTreeMap::new();
    let inflight = lines.min(24);
    for i in 0..inflight {
        let addr = i * 128;
        let line = CacheLine::patterned(seed.wrapping_mul(1000) + (i % lines));
        match ch.submit(CommandOp::Read { addr }) {
            Ok(tag) => {
                expect.insert(tag.raw(), (addr, line));
            }
            Err(e) => return (0, Some(e)),
        }
    }
    let mut mismatches = 0;
    for _ in 0..inflight {
        let deadline = ch.now() + campaign_policy().op_timeout;
        match ch.next_completion(deadline) {
            Some(c) => {
                let Some((_, want)) = expect.remove(&c.tag.raw()) else {
                    mismatches += 1;
                    continue;
                };
                if c.data != Some(want) {
                    mismatches += 1;
                }
            }
            None => {
                return (
                    mismatches,
                    Some(DmiError::Timeout {
                        tag: 0xFF,
                        waited: campaign_policy().op_timeout,
                    }),
                );
            }
        }
    }
    (mismatches, None)
}

impl Campaign for Scenario {
    type Record = Record;
    type Size = sweep::Lines;
    const NAME: &'static str = "fault";
    const SIZING: Sizing = Sizing {
        smoke: (3, 6),
        full: (5, 12),
        floor: 1,
        step: 1,
    };

    fn scenarios() -> Vec<Scenario> {
        vec![
            Scenario::Clean,
            Scenario::BernoulliDown,
            Scenario::BernoulliUp,
            Scenario::BernoulliBoth,
            Scenario::BurstDown,
            Scenario::BurstUp,
            Scenario::AckStarvation,
            Scenario::ReplayPressure,
            Scenario::TimeoutRetry,
            Scenario::RetrainLadder,
            Scenario::DeadLink,
            Scenario::TrainingFlaky,
        ]
    }

    fn label(self) -> String {
        self.name().into()
    }

    fn run(self, seed: u64, lines: u64) -> Measured<Record> {
        let mut ch = channel_for(self, seed);
        let tracer = ch.enable_tracing(1 << 15);
        let train_error = if self == Scenario::TrainingFlaky {
            ch.train(TrainerConfig::flaky(0.5), seed).err()
        } else {
            None
        };
        let (mut mismatches, mut error) = match train_error {
            Some(e) => (0, Some(e)),
            None => serial_workload(&mut ch, seed, lines),
        };
        if error.is_none() && self == Scenario::ReplayPressure {
            let (m, e) = pipelined_workload(&mut ch, seed, lines);
            mismatches += m;
            error = e;
        }
        // Settle past the quarantine TTL so timed-out tags age back
        // into the pool even when no late response ever arrives.
        let ttl = campaign_policy().op_timeout * 2 + SimTime::from_us(1);
        ch.run_until(ch.now() + ttl);
        let metrics = ch.metrics();
        let replays = metrics.counter("dmi.host.replays_triggered")
            + metrics.counter("dmi.buffer.replays_triggered");
        let crc_errors =
            metrics.counter("dmi.host.crc_errors") + metrics.counter("dmi.buffer.crc_errors");
        let recovered = ch.retries_scheduled() + ch.link_retrains() + replays;
        Measured {
            record: Record {
                outcome: Outcome::of(mismatches, error, recovered > 0),
                retries: ch.retries_scheduled(),
                retrains: ch.link_retrains(),
                reclaimed: ch.tags_reclaimed(),
                replays,
                crc_errors,
                tags_free_after: ch.tags_available(),
            },
            fingerprint: tracer.fingerprint(),
            metrics,
        }
    }

    /// Corruption always breaks the contract; a typed failure does
    /// unless the scenario may fail.
    fn violation(self, record: &Record) -> Option<String> {
        match &record.outcome {
            Outcome::Pass | Outcome::Degraded => None,
            Outcome::Fail(_) if self.may_fail() => None,
            broken => Some(broken.to_string()),
        }
    }

    /// The pass/degrade/fail table.
    fn render(report: &CampaignReport) -> String {
        report.table(
            16,
            &COLUMNS,
            " (fail* = typed failure, expected for the scenario)",
            |run, r| {
                let outcome = match &r.outcome {
                    Outcome::Fail(_) if !run.is_violation() => "fail*".to_string(),
                    other => other.to_string(),
                };
                vec![
                    outcome,
                    r.retries.to_string(),
                    r.retrains.to_string(),
                    r.reclaimed.to_string(),
                    r.replays.to_string(),
                    r.crc_errors.to_string(),
                ]
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_passes_with_full_tag_pool() {
        let r = run_scenario(Scenario::Clean, 1, 4);
        assert_eq!(r.record().outcome, Outcome::Pass);
        assert_eq!(r.record().tags_free_after, 32);
        assert!(!r.is_violation());
    }

    #[test]
    fn dead_link_fails_typed_and_reclaims_tags() {
        let run = run_scenario(Scenario::DeadLink, 1, 2);
        let r = run.record();
        assert!(
            matches!(r.outcome, Outcome::Fail(DmiError::Timeout { .. })),
            "{:?}",
            r.outcome
        );
        assert!(!run.is_violation(), "dead link may fail");
        assert_eq!(r.tags_free_after, 32, "no leaked tags");
        assert!(r.reclaimed > 0 || r.retrains > 0);
    }

    #[test]
    fn smoke_campaign_has_no_violations() {
        let report = run_campaign(&CampaignConfig::new(vec![1], 3));
        let violations = report.violations();
        assert!(violations.is_empty(), "{}", violations.join("\n"));
    }

    #[test]
    fn same_seed_reruns_are_fingerprint_identical() {
        let a = run_scenario(Scenario::TimeoutRetry, 2, 3);
        let b = run_scenario(Scenario::TimeoutRetry, 2, 3);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.record().outcome, b.record().outcome);
    }
}
