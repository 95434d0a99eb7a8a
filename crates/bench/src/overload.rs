//! Metastable-failure campaign: does the system *stay* congested after
//! the trigger clears?
//!
//! A metastable failure needs two ingredients: a trigger that
//! temporarily cuts capacity, and a sustaining feedback loop — retries,
//! queue backlog — that keeps demand above the restored capacity after
//! the trigger is gone. This campaign builds exactly that trigger (a
//! slow-not-dead channel plus link noise for a bounded window, mid-run,
//! under open-loop load that does not slow down) and runs it against
//! two service-path configurations:
//!
//! * **naive** — client retries on, every overload defense off
//!   ([`OverloadConfig::off`]). The contract is that congestion
//!   *persists*: the recovery-phase p99 must stay more than
//!   [`NAIVE_CONGESTION_FACTOR`]× the steady-phase p99 after the
//!   trigger has cleared. If the naive row recovers cleanly the
//!   trigger is too weak and the campaign proves nothing.
//! * **protected** — the same trigger, same retrying clients, but with
//!   deadlines on every request and [`OverloadConfig::protective`]:
//!   admission control, the success-funded retry budget, per-channel
//!   circuit breakers, hedged reads against the mirror, brownout. The
//!   contract is the opposite: recovery-phase p99 back within
//!   [`PROTECTED_RECOVERY_FACTOR`]× of steady, with zero duplicate
//!   completions (a hedge and its loser must never both deliver).
//!
//! Both rows run over the mirrored failover testbed (hedging needs a
//! shadow copy), both run twice per seed, and fingerprint + full
//! report must be byte-identical — the defenses are deterministic
//! policy, not wall-clock heuristics.

use contutto_core::{ContuttoConfig, MemoryPopulation};
use contutto_power8::failover::FailoverMode;
use contutto_power8::firmware::layouts;
use contutto_power8::inject::FaultAction;
use contutto_power8::system::Power8System;
use contutto_power8::{HedgeConfig, OverloadConfig};
use contutto_sim::{LogHistogram, SimTime};
use contutto_workloads::traffic::{Phase, TrafficConfig, TrafficEngine};

use crate::failover::{SPARE_SLOT, VICTIM_SLOT};
use crate::faults::campaign_policy;
use crate::report::{Bench, Row};
use crate::sweep::{self, Campaign, Column, Measured, Sizing};
pub use crate::sweep::{run_campaign, run_scenario};
use crate::traffic::scenario_rps;
pub use crate::traffic::Record;

/// How long the trigger holds: the victim channel's in-flight window is
/// collapsed to one tag and its links are noisy for this long, then
/// both clear.
pub const FAULT_HOLD: SimTime = SimTime::from_us(25);

/// Per-frame corruption probability on the victim's links during the
/// trigger window — enough CRC replays to feed the ladder, not a
/// blackout.
pub const LINK_NOISE: f64 = 0.06;

/// Client retries per logical request, both rows. The naive row is not
/// allowed to win by simply not retrying — the retries *are* the
/// sustaining feedback loop under test.
pub const CLIENT_RETRIES: u32 = 4;

/// Request deadline in the protected row, relative to nominal arrival
/// — a small multiple of the steady-state p99 (~1.3 µs on this
/// testbed), the way latency-sensitive clients actually set them. The
/// deadline is what stops backlog survivors from being serviced long
/// after anyone wants the answer: a completion past its deadline is a
/// typed error, not a late success.
pub const DEADLINE: SimTime = SimTime::from_ns(1300);

/// Hedge threshold in the protected row. It must sit *below* the
/// deadline or the hedge can never rescue a read before the deadline
/// kills it.
pub const HEDGE_AFTER: SimTime = SimTime::from_ns(600);

/// The naive row must stay at least this many times worse than steady
/// in the recovery phase — the evidence that congestion outlived the
/// trigger.
pub const NAIVE_CONGESTION_FACTOR: u64 = 5;

/// The protected row must be back within this factor of steady p99 in
/// the recovery phase.
pub const PROTECTED_RECOVERY_FACTOR: u64 = 2;

/// Service-path configuration under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Client retries, no defenses: must go metastable.
    Naive,
    /// Deadlines + the full overload policy: must recover.
    Protected,
}

impl Scenario {
    /// Stable display name (also the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Naive => "naive",
            Scenario::Protected => "protected",
        }
    }

    fn overload_config(self) -> OverloadConfig {
        match self {
            Scenario::Naive => OverloadConfig::off(),
            Scenario::Protected => {
                let mut cfg = OverloadConfig::protective();
                cfg.hedge = Some(HedgeConfig {
                    after: HEDGE_AFTER,
                    ..HedgeConfig::default()
                });
                cfg
            }
        }
    }

    fn deadline(self) -> Option<SimTime> {
        match self {
            Scenario::Naive => None,
            Scenario::Protected => Some(DEADLINE),
        }
    }
}

/// The demand stream: the traffic campaign's open-loop zipfian mix
/// (arrivals do not slow down when the system congests — the
/// precondition for metastability; mostly reads so the mirror can
/// hedge), faster and with retrying clients.
fn traffic_config(scenario: Scenario, requests: u64, seed: u64) -> TrafficConfig {
    TrafficConfig {
        per_user_rps: 6_000.0, // 6M rps aggregate of simulated time
        deadline: scenario.deadline(),
        client_retries: CLIENT_RETRIES,
        ..crate::traffic::traffic_config(requests, seed)
    }
}

/// Seeds and requests per run (at least 60).
pub type CampaignConfig = sweep::Config<Scenario>;

/// The campaign's runs. Its `size`, the requests per run, is part of
/// the BENCH key, so a smoke run never gates against a full-campaign
/// baseline.
pub type CampaignReport = sweep::Report<Scenario>;

/// Recovery-phase p99 of a run, in picoseconds.
pub fn recovery_p99(record: &Record) -> u64 {
    record.report.quantile(Phase::Recovery, 0.99).as_ps()
}

impl Campaign for Scenario {
    type Record = Record;
    type Size = sweep::Requests;
    const NAME: &'static str = "overload";
    const SIZING: Sizing = Sizing {
        smoke: (2, 420),
        full: (3, 840),
        floor: 60,
        step: 1,
    };

    fn scenarios() -> Vec<Scenario> {
        vec![Scenario::Naive, Scenario::Protected]
    }

    fn label(self) -> String {
        self.name().into()
    }

    /// Drives one run: boots the mirrored testbed, arms the scenario's
    /// overload policy, runs open-loop traffic with the trigger hook, and
    /// snapshots metrics. `fault_fired` means the trigger fired and
    /// cleared, and work completed under it.
    fn run(self, seed: u64, requests: u64) -> Measured<Record> {
        let mut sys = Power8System::boot_with_failover(
            layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            seed,
            FailoverMode::Mirrored {
                primary: VICTIM_SLOT,
                mirror: SPARE_SLOT,
            },
        )
        .expect("overload testbed boots");
        sys.set_retry_policy(campaign_policy());
        sys.set_overload_config(self.overload_config());
        let tracer = sys.enable_tracing(1 << 16);
        let engine = TrafficEngine::new(traffic_config(self, requests, seed), &sys);
        let trigger = requests / 3;
        let mut fired_at: Option<SimTime> = None;
        let mut cleared = false;
        let report = engine.run(&mut sys, |sys, tick| {
            if fired_at.is_none() && tick.completed >= trigger {
                fired_at = Some(tick.now);
                sys.apply_fault_action(
                    tick.now,
                    &FaultAction::SlowChannel {
                        slot: VICTIM_SLOT,
                        window: FAULT_HOLD,
                    },
                );
                sys.apply_fault_action(
                    tick.now,
                    &FaultAction::LinkNoise {
                        slot: VICTIM_SLOT,
                        down: LINK_NOISE,
                        up: LINK_NOISE,
                        seed: seed.wrapping_mul(0x9E37_79B9).wrapping_add(7),
                    },
                );
            }
            match fired_at {
                None => Phase::Steady,
                Some(at) if !cleared && tick.now < at + FAULT_HOLD => Phase::Fault,
                Some(_) => {
                    if !cleared {
                        cleared = true;
                        sys.apply_fault_action(
                            tick.now,
                            &FaultAction::LinkClear { slot: VICTIM_SLOT },
                        );
                    }
                    Phase::Recovery
                }
            }
        });
        let mut metrics = sys.metrics();
        report.publish(&mut metrics);
        let fault_fired = fired_at.is_some() && cleared && report.fault.count() > 0;
        Measured {
            record: Record {
                report,
                fault_fired,
            },
            fingerprint: tracer.fingerprint(),
            metrics,
        }
    }

    /// The first broken structural clause, if any — the table and the
    /// gate both name it.
    fn violation(self, record: &Record) -> Option<String> {
        let r = &record.report;
        if r.completed == 0 {
            return Some("nothing completed".into());
        }
        if r.completed + r.errors + r.orphaned != r.submitted {
            return Some(format!(
                "accounting leak: {} + {} + {} != {}",
                r.completed, r.errors, r.orphaned, r.submitted
            ));
        }
        if !record.fault_fired {
            return Some("trigger never fired/cleared under load".into());
        }
        if r.duplicate_completions > 0 {
            return Some(format!(
                "{} duplicate completions (hedge double-apply)",
                r.duplicate_completions
            ));
        }
        if r.recovery.count() == 0 {
            return Some("no recovery-phase completions to judge".into());
        }
        if self == Scenario::Protected {
            // A protected row where no defense ever engaged proves only
            // that the trigger missed it.
            let shed: u64 = r.shed.iter().sum();
            let hedges: u64 = r.hedges.iter().sum();
            if shed + hedges + r.client_retries_denied == 0 {
                return Some("no defense engaged (nothing shed, hedged or denied)".into());
            }
        }
        None
    }

    /// The metastability verdicts: the naive row must stay congested
    /// after the trigger clears and the protected row must recover.
    fn campaign_violations(report: &CampaignReport) -> Vec<String> {
        let mut v = Vec::new();
        let steady = steady_ref_ps(report);
        if steady == 0 {
            v.push("no steady-phase completions anywhere: no yardstick".into());
            return v;
        }
        for run in report.runs.iter().filter(|r| !r.is_violation()) {
            let recovery = recovery_p99(run.record());
            match run.scenario {
                // The whole campaign rests on the naive row actually
                // going metastable: congestion must outlive the
                // trigger.
                Scenario::Naive if recovery <= NAIVE_CONGESTION_FACTOR * steady => {
                    v.push(format!(
                        "naive seed {}: metastable congestion did not reproduce: recovery \
                         p99 {recovery} ps <= {NAIVE_CONGESTION_FACTOR}x steady {steady} ps",
                        run.seed
                    ));
                }
                Scenario::Protected if recovery > PROTECTED_RECOVERY_FACTOR * steady => {
                    v.push(format!(
                        "protected seed {}: defenses failed to restore service: recovery \
                         p99 {recovery} ps > {PROTECTED_RECOVERY_FACTOR}x steady {steady} ps",
                        run.seed
                    ));
                }
                _ => {}
            }
        }
        v
    }

    /// The metastability table: steady / fault / recovery p99 side by
    /// side, plus what the defenses did.
    fn render(report: &CampaignReport) -> String {
        let q = |h: &LogHistogram| -> String {
            if h.count() == 0 {
                "-".into()
            } else {
                format!("{:.1}", h.quantile(0.99) as f64 / 1000.0)
            }
        };
        let steady_ref = steady_ref_ps(report);
        let note = format!(
            " (p99 latencies in µs; r/s = recovery p99 : merged steady p99 ({:.1} µs); \
             retries = granted/denied)",
            steady_ref as f64 / 1_000_000.0
        );
        report.table(10, &COLUMNS, &note, |_, r| {
            let t = &r.report;
            let ratio = if steady_ref > 0 {
                format!("{:.1}", recovery_p99(r) as f64 / steady_ref as f64)
            } else {
                "-".into()
            };
            vec![
                t.completed.to_string(),
                t.errors.to_string(),
                q(&t.steady),
                q(&t.fault),
                q(&t.recovery),
                ratio,
                t.shed.iter().sum::<u64>().to_string(),
                t.deadline_expired.to_string(),
                format!("{}/{}", t.client_retries, t.client_retries_denied),
                t.hedges.iter().sum::<u64>().to_string(),
            ]
        })
    }

    /// The `BENCH_overload.json` rows, one per scenario: requests/sec
    /// (gated), worst recovery ratio and what the defenses did, keyed
    /// on the request count per run.
    fn bench(report: &CampaignReport) -> Option<Bench> {
        let rows = Scenario::scenarios()
            .into_iter()
            .map(|s| {
                let (shed, hedges) = report.records_of(s).fold((0, 0), |(sh, h), r| {
                    (
                        sh + r.report.shed.iter().sum::<u64>(),
                        h + r.report.hedges.iter().sum::<u64>(),
                    )
                });
                Row::new()
                    .text("scenario", s.name())
                    .int("requests_per_run", report.size)
                    .num("requests_per_sec", scenario_rps(report, s))
                    .num("recovery_ratio", worst_recovery_ratio(report, s))
                    .int("shed", shed)
                    .int("hedges", hedges)
            })
            .collect();
        Some(Bench {
            name: "overload",
            rows,
            key: &["scenario", "requests_per_run"],
            gated: &["requests_per_sec"],
        })
    }
}

/// The steady-state p99 yardstick in picoseconds, from the
/// seeds-merged steady-phase histogram of every finished run. Per-run
/// steady p99 over ~100 completions is one unlucky arrival wide;
/// pooling every run's pre-trigger phase (same testbed, same load)
/// makes the baseline the factor checks divide by statistically
/// stable.
pub fn steady_ref_ps(report: &CampaignReport) -> u64 {
    let mut merged = LogHistogram::new();
    for r in report.runs.iter().filter_map(|r| r.result.as_ref().ok()) {
        merged.merge(&r.report.steady);
    }
    if merged.count() == 0 {
        0
    } else {
        SimTime::from_ns(merged.quantile(0.99)).as_ps()
    }
}

/// Worst recovery p99 : steady-yardstick ratio across a scenario's
/// finished runs.
fn worst_recovery_ratio(report: &CampaignReport, scenario: Scenario) -> f64 {
    let steady = steady_ref_ps(report);
    if steady == 0 {
        return 0.0;
    }
    report
        .records_of(scenario)
        .map(|r| recovery_p99(r) as f64 / steady as f64)
        .fold(0.0, f64::max)
}

const COLUMNS: [Column; 10] = [
    Column::right("done", 5),
    Column::right("err", 5),
    Column::right("s-p99us", 8).wide(),
    Column::right("f-p99us", 8),
    Column::right("r-p99us", 8),
    Column::right("r/s", 6),
    Column::right("shed", 5).wide(),
    Column::right("dlexp", 6),
    Column::right("retries", 7),
    Column::right("hedge", 6),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_row_goes_metastable_and_protected_recovers() {
        let report = run_campaign(&CampaignConfig::new(vec![1], 420));
        let violations = report.violations();
        assert!(
            violations.is_empty(),
            "{violations:?}\n{}",
            report.render_table()
        );
        // The pair is the point: same trigger, opposite outcomes.
        let naive = report.runs[0].record();
        let protected = report.runs[1].record();
        assert!(
            recovery_p99(naive) > recovery_p99(protected),
            "naive recovery p99 ({}) must exceed protected ({})",
            recovery_p99(naive),
            recovery_p99(protected)
        );
    }
}
