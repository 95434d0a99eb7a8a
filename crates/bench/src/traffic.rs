//! SLO-under-fault traffic campaign: what does the tail do *during* a
//! fault?
//!
//! Every prior campaign asserts correctness (no lost bytes, typed
//! errors, determinism). This one asserts the *service level*: an
//! open-loop zipfian request stream runs over the failover testbed
//! while a fault fires mid-run, and the report answers the question
//! none of the earlier tables could — p50/p99/p99.9/p99.99 and
//! SLO-violation counts for steady state versus the fault window, for
//! each of:
//!
//! * **steady** — no fault; the baseline row;
//! * **scrub-storm** — a seeded media flip storm lands while patrol
//!   scrub sweeps the victim card and both link directions turn noisy
//!   (CRC replays are what genuinely stretch the tail — scrub itself
//!   runs in the controller's idle slots);
//! * **failover** — a concurrent-maintenance pull evacuates the victim
//!   to the hot spare while demand traffic keeps arriving;
//! * **epow-reboot** — an orderly EPOW flush, a power cut that orphans
//!   every in-flight request, and a cold reboot, with arrivals
//!   continuing on the nominal clock throughout (open loop: recovery
//!   backlog is measured, not hidden).
//!
//! Determinism is part of the contract: every scenario × seed runs
//! twice and both the trace fingerprint *and the full
//! [`TrafficReport`] — histograms included —* must be identical.

use contutto_core::{ConTutto, ContuttoConfig, MemoryPopulation};
use contutto_dmi::link::BitErrorInjector;
use contutto_memdev::FaultConfig;
use contutto_power8::channel::{ChannelConfig, DmiChannel};
use contutto_power8::failover::FailoverMode;
use contutto_power8::firmware::layouts;
use contutto_power8::system::Power8System;
use contutto_sim::{LogHistogram, SimTime};
use contutto_workloads::traffic::{
    ArrivalProcess, LoopMode, Phase, TrafficConfig, TrafficEngine, TrafficReport,
};

use crate::failover::{SPARE_SLOT, VICTIM_SLOT};
use crate::faults::campaign_policy;
use crate::report::{Bench, Row};
use crate::sweep::{self, Campaign, Column, Measured, Sizing};
pub use crate::sweep::{run_campaign, run_scenario};

/// Flips rained on the victim during the scrub storm. Spread across a
/// wide hot range so they stay single-bit per ECC word (corrected, not
/// uncorrectable — this scenario measures the tail, not the budget).
pub const SCRUB_STORM_FLIPS: u32 = 40;

/// The storm lands inside this window from the victim's power-on.
pub const SCRUB_STORM_WINDOW: SimTime = SimTime::from_us(20);

/// Patrol-scrub interval on the victim during the storm.
pub const SCRUB_STORM_INTERVAL: SimTime = SimTime::from_us(8);

/// Per-frame corruption probability on each link direction during the
/// storm — the CRC-replay traffic that actually moves the tail.
pub const SCRUB_STORM_NOISE: f64 = 0.002;

/// Simulated outage between the power cut and the reboot.
pub const OUTAGE: SimTime = SimTime::from_us(50);

/// What fires mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// No fault: the baseline SLO row.
    Steady,
    /// Media flip storm + armed patrol scrub + noisy links.
    ScrubStorm,
    /// Concurrent-maintenance pull, evacuation to the hot spare.
    Failover,
    /// EPOW flush, power cut, cold reboot.
    EpowReboot,
}

impl Scenario {
    /// Stable display name (also the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Steady => "steady",
            Scenario::ScrubStorm => "scrub-storm",
            Scenario::Failover => "failover",
            Scenario::EpowReboot => "epow-reboot",
        }
    }
}

/// The traffic shape every scenario runs: open-loop Poisson (queueing
/// delay during the fault is the result), zipfian keys, mostly reads.
pub(crate) fn traffic_config(requests: u64, seed: u64) -> TrafficConfig {
    TrafficConfig {
        mode: LoopMode::Open,
        arrival: ArrivalProcess::Poisson,
        requests,
        users: 1000,
        per_user_rps: 4_000.0, // 4M rps aggregate of simulated time
        think: SimTime::from_us(1),
        keys: 2048,
        zipf_theta: 0.99,
        read_fraction: 0.9,
        mlp_window: 16,
        slo: SimTime::from_us(4),
        deadline: None,
        client_retries: 0,
        client_backoff: SimTime::from_us(2),
        seed,
    }
}

/// What one traffic or overload run recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The traffic engine's full report (histograms included), so the
    /// same-seed rerun is held to histogram identity.
    pub report: TrafficReport,
    /// Scenario-specific evidence that the fault actually fired.
    pub fault_fired: bool,
}

/// Seeds and requests per run (at least 30).
pub type CampaignConfig = sweep::Config<Scenario>;

/// The campaign's runs. Its `size` is the requests per run, which each
/// pinned row carries (a reboot outage amortizes differently over 150
/// vs 450 requests).
pub type CampaignReport = sweep::Report<Scenario>;

impl Campaign for Scenario {
    type Record = Record;
    type Size = sweep::Requests;
    const NAME: &'static str = "traffic";
    const SIZING: Sizing = Sizing {
        smoke: (2, 150),
        full: (3, 450),
        floor: 30,
        step: 1,
    };

    fn scenarios() -> Vec<Scenario> {
        vec![
            Scenario::Steady,
            Scenario::ScrubStorm,
            Scenario::Failover,
            Scenario::EpowReboot,
        ]
    }

    fn label(self) -> String {
        self.name().into()
    }

    /// Drives one run: boots the failover testbed (with the scrub-storm
    /// victim pre-armed when the scenario needs it), runs the traffic with
    /// the scenario's fault hook, and snapshots metrics.
    fn run(self, seed: u64, requests: u64) -> Measured<Record> {
        let mut sys = Power8System::boot_with_failover(
            layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            seed,
            FailoverMode::Spare { spare: SPARE_SLOT },
        )
        .expect("traffic testbed boots");
        if self == Scenario::ScrubStorm {
            let mut card = ConTutto::new(ContuttoConfig::base(), MemoryPopulation::dram_8gb());
            card.attach_media_faults(FaultConfig {
                transient_flips: SCRUB_STORM_FLIPS,
                window: SCRUB_STORM_WINDOW,
                hot_start: 0,
                hot_len: 1 << 20, // thin spread: single-bit, correctable
                ..FaultConfig::none(seed)
            });
            card.enable_scrub(SCRUB_STORM_INTERVAL);
            let victim = DmiChannel::new(ChannelConfig::contutto(), Box::new(card));
            sys.channel_mut(VICTIM_SLOT).expect("victim slot").channel = victim;
        }
        sys.set_retry_policy(campaign_policy());
        let tracer = sys.enable_tracing(1 << 16);
        let engine = TrafficEngine::new(traffic_config(requests, seed), &sys);
        let trigger = requests / 3;
        let mut fired = false;
        let report = engine.run(&mut sys, |sys, tick| {
            if !fired && tick.completed >= trigger {
                fired = true;
                match self {
                    Scenario::Steady => {}
                    Scenario::ScrubStorm => {
                        // The flips and scrub are armed from power-on;
                        // the trigger turns the links noisy.
                        let ch = sys.channel_mut(VICTIM_SLOT).expect("victim slot");
                        ch.channel.set_down_injector(BitErrorInjector::bernoulli(
                            SCRUB_STORM_NOISE,
                            seed.wrapping_mul(31).wrapping_add(1),
                        ));
                        ch.channel.set_up_injector(BitErrorInjector::bernoulli(
                            SCRUB_STORM_NOISE,
                            seed.wrapping_mul(31).wrapping_add(2),
                        ));
                    }
                    Scenario::Failover => {
                        sys.maintenance_pull(VICTIM_SLOT)
                            .expect("pull has a spare to fail over to");
                    }
                    Scenario::EpowReboot => {
                        sys.epow();
                        let at = sys.now();
                        sys.power_cut(at);
                        sys.reboot(at + OUTAGE).expect("reboot after the outage");
                    }
                }
            }
            if fired && self != Scenario::Steady {
                Phase::Fault
            } else {
                Phase::Steady
            }
        });
        let mut metrics = sys.metrics();
        report.publish(&mut metrics);
        let fault_fired = match self {
            Scenario::Steady => true,
            Scenario::ScrubStorm => {
                metrics.counter("buffer.media.scrub_passes") > 0
                    && metrics.counter("buffer.media.scrub_corrected")
                        + metrics.counter("buffer.media.demand_corrected")
                        > 0
            }
            Scenario::Failover => metrics.counter("system.failover.failovers") > 0,
            // The power counters, not lost requests: a cut that lands
            // with nothing in flight orphans nothing, yet the EPOW,
            // cut and reboot still happened.
            Scenario::EpowReboot => {
                metrics.counter("system.power.cuts") > 0
                    && metrics.counter("system.power.reboots") > 0
            }
        };
        Measured {
            record: Record {
                report,
                fault_fired,
            },
            fingerprint: tracer.fingerprint(),
            metrics,
        }
    }

    /// Every issued request must be accounted for and some must
    /// complete; the steady baseline must be clean, and a fault
    /// scenario's fault must have fired.
    fn violation(self, record: &Record) -> Option<String> {
        let r = &record.report;
        let broken = r.completed == 0
            || r.completed + r.errors + r.orphaned != r.submitted
            || match self {
                // Any error or orphan in steady state is a failure of
                // the serving layer itself.
                Scenario::Steady => r.errors + r.orphaned > 0 || r.fault.count() > 0,
                // A fault scenario whose fault never fired proves
                // nothing.
                _ => !record.fault_fired || r.fault.count() == 0,
            };
        broken.then(|| {
            format!(
                "contract violated (completed {}, errors {}, orphaned {}, fault_fired {})",
                r.completed, r.errors, r.orphaned, record.fault_fired,
            )
        })
    }

    /// The SLO-under-fault table: per run, the steady-phase and
    /// fault-phase tails side by side.
    fn render(report: &CampaignReport) -> String {
        let q = |h: &LogHistogram, q: f64| -> String {
            if h.count() == 0 {
                "-".into()
            } else {
                format!("{:.1}", h.quantile(q) as f64 / 1000.0)
            }
        };
        report.table(12, &COLUMNS, " (latencies in µs)", |_, r| {
            let t = &r.report;
            vec![
                t.completed.to_string(),
                t.errors.to_string(),
                t.orphaned.to_string(),
                q(&t.steady, 0.5),
                q(&t.steady, 0.99),
                q(&t.steady, 0.999),
                q(&t.steady, 0.9999),
                q(&t.fault, 0.999),
                q(&t.fault, 0.9999),
                format!("{}/{}", t.steady_slo_violations, t.fault_slo_violations),
            ]
        })
    }
}

impl CampaignReport {
    /// The pinned rows, one per scenario: simulated requests/sec,
    /// merged p99.9 and SLO violations at the request count per run.
    pub fn bench(&self) -> Bench {
        let rows = Scenario::scenarios()
            .into_iter()
            .map(|s| {
                let slo: u64 = self
                    .records_of(s)
                    .map(|r| r.report.steady_slo_violations + r.report.fault_slo_violations)
                    .sum();
                Row::new()
                    .text("scenario", s.name())
                    .int("requests_per_run", self.size)
                    .num("requests_per_sec", scenario_rps(self, s))
                    .int("p999_ns", merged_latency(self, s).quantile(0.999))
                    .int("slo_violations", slo)
            })
            .collect();
        Bench {
            name: "traffic",
            rows,
        }
    }
}

/// Mean achieved requests/sec across a scenario's finished runs.
pub(crate) fn scenario_rps<S: Campaign<Record = Record>>(
    report: &sweep::Report<S>,
    scenario: S,
) -> f64 {
    let (sum, n) = report.records_of(scenario).fold((0.0, 0u32), |(s, n), r| {
        (s + r.report.achieved_rps(), n + 1)
    });
    if n > 0 {
        sum / f64::from(n)
    } else {
        0.0
    }
}

/// A scenario's seeds-merged latency distribution (steady + fault
/// phases folded together), exercising histogram mergeability.
fn merged_latency(report: &CampaignReport, scenario: Scenario) -> LogHistogram {
    let mut h = LogHistogram::new();
    for r in report.records_of(scenario) {
        h.merge(&r.report.steady);
        h.merge(&r.report.fault);
    }
    h
}

const COLUMNS: [Column; 10] = [
    Column::right("done", 5),
    Column::right("err", 4),
    Column::right("orph", 4),
    Column::right("s-p50us", 8).wide(),
    Column::right("s-p99us", 8),
    Column::right("s-p99.9", 8),
    Column::right("s-p99.99", 9),
    Column::right("f-p99.9", 8).wide(),
    Column::right("f-p99.99", 9),
    Column::right("slo s/f", 7).wide(),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_run_is_clean_and_deterministic() {
        let run = run_scenario(Scenario::Steady, 1, 90);
        assert!(run.result.is_ok(), "{:?}", run.result);
        assert!(!run.is_violation(), "steady run violated the contract");
        let r = &run.record().report;
        assert_eq!(r.errors, 0);
        assert_eq!(r.fault.count(), 0);
        assert!(run.deterministic);
    }

    #[test]
    fn failover_moves_the_tail_but_loses_nothing() {
        let run = run_scenario(Scenario::Failover, 1, 90);
        assert!(!run.is_violation(), "failover run violated the contract");
        let r = run.record();
        assert!(r.fault_fired, "maintenance pull must register a failover");
        assert!(r.report.fault.count() > 0, "no fault-phase completions");
    }

    #[test]
    fn epow_reboot_orphans_and_recovers() {
        let run = run_scenario(Scenario::EpowReboot, 1, 90);
        assert!(!run.is_violation(), "epow run violated the contract");
        let r = &run.record().report;
        assert!(
            r.orphaned + r.errors > 0,
            "a power cut mid-traffic must orphan or fail something"
        );
        assert!(r.completed > 0, "traffic must resume after reboot");
    }

    #[test]
    fn epow_reboot_with_nothing_in_flight_still_counts_as_fired() {
        // At these seeds the cut lands between requests: nothing is
        // orphaned, but the power cycle happened and the run is clean.
        for seed in [4, 5] {
            let run = run_scenario(Scenario::EpowReboot, seed, 150);
            let r = run.record();
            assert!(r.fault_fired, "seed {seed}: the power cycle must count");
            assert!(!run.is_violation(), "seed {seed} violated the contract");
            assert_eq!(run.metrics.counter("system.power.reboots"), 1);
        }
    }

    #[test]
    fn scrub_storm_scrubs_and_corrects() {
        let r = run_scenario(Scenario::ScrubStorm, 1, 90);
        assert!(!r.is_violation(), "scrub-storm run violated the contract");
        assert!(r.metrics.counter("buffer.media.scrub_passes") > 0);
    }
}
