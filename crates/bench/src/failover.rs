//! Deterministic channel-failover campaign: kill a memory buffer and
//! demand that not one byte is lost.
//!
//! Where [`crate::faults`] attacks the link and [`crate::media`] the
//! DIMM arrays, this campaign attacks the *channel as a whole*: a
//! victim ConTutto card dies mid-workload — by FSP error budget, by a
//! dead DMI link, or by a concurrent-maintenance pull — while the
//! system runs with either a hot spare or a mirrored pair. The
//! invariant asserted by [`sweep::Report::violations`]:
//!
//! * **zero lost lines** — after the failover settles, every line ever
//!   written reads back byte-identical or surfaces a typed
//!   [`DmiError::Poisoned`], and poison is tolerated only where media
//!   faults genuinely destroyed data (spare mode under the flip storm;
//!   a mirror always holds a clean copy);
//! * **the failover actually happened** — a run whose channel survived
//!   unscathed proves nothing, so `failovers == 0` is a violation;
//! * **no panics, ever** — a dead channel must surface typed errors;
//! * **byte-identical determinism** — every scenario × seed runs
//!   twice and the trace fingerprints must match.
//!
//! [`DmiError::Poisoned`]: contutto_dmi::DmiError::Poisoned

use std::fmt;

use contutto_core::{ConTutto, ContuttoConfig, MemoryPopulation};
use contutto_dmi::command::CacheLine;
use contutto_dmi::link::BitErrorInjector;
use contutto_dmi::DmiError;
use contutto_memdev::FaultConfig;
use contutto_power8::channel::{ChannelConfig, DmiChannel};
use contutto_power8::failover::FailoverMode;
use contutto_power8::firmware::layouts;
use contutto_power8::system::{Power8System, SystemError};
use contutto_sim::SimTime;

use crate::faults::campaign_policy;
use crate::sweep::{self, Campaign, Column, Measured, Sizing};
pub use crate::sweep::{run_campaign, run_scenario};

/// Slot the victim ConTutto occupies in [`layouts::failover_pair`].
pub const VICTIM_SLOT: usize = 2;

/// Slot of the spare/mirror card.
pub const SPARE_SLOT: usize = 4;

/// Flips rained on the victim's hot range in the error-budget fault.
/// Dense enough that most ECC words collect two and go uncorrectable,
/// so the FSP budget (3 unrecovered) blows within a few reads.
pub const STORM_FLIPS: u32 = 200;

/// The flip storm lands inside this window from the victim's power-on.
pub const STORM_WINDOW: SimTime = SimTime::from_us(60);

/// Redundancy arrangement under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Trained hot spare + sideband evacuation.
    Spare,
    /// Mirrored pair: every store shadowed, reads fail over per-access.
    Mirrored,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Spare => "spare",
            Mode::Mirrored => "mirrored",
        }
    }

    fn failover_mode(self) -> FailoverMode {
        match self {
            Mode::Spare => FailoverMode::Spare { spare: SPARE_SLOT },
            Mode::Mirrored => FailoverMode::Mirrored {
                primary: VICTIM_SLOT,
                mirror: SPARE_SLOT,
            },
        }
    }
}

/// How the victim channel dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A media flip storm poisons demand reads until the FSP's
    /// unrecovered-error budget deconfigures the channel.
    ErrorBudget,
    /// Both link directions go fully lossy: commands hang, the retrain
    /// ladder fails, firmware deconfigures on the timeout.
    DeadLink,
    /// Concurrent maintenance: the operator pulls the card.
    MaintenancePull,
}

impl Fault {
    fn name(self) -> &'static str {
        match self {
            Fault::ErrorBudget => "error-budget",
            Fault::DeadLink => "dead-link",
            Fault::MaintenancePull => "maintenance-pull",
        }
    }
}

/// One campaign cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Redundancy arrangement.
    pub mode: Mode,
    /// The way the victim dies.
    pub fault: Fault,
}

impl Scenario {
    /// Stable display name (also the table key).
    pub fn name(self) -> String {
        format!("{}+{}", self.mode.name(), self.fault.name())
    }

    /// Whether typed poison is an acceptable end state: only when the
    /// media genuinely destroyed lines and there is no second copy.
    /// A mirror always has clean data; link death and maintenance
    /// pulls never touch the media.
    pub fn allows_poison(self) -> bool {
        self.mode == Mode::Spare && self.fault == Fault::ErrorBudget
    }
}

/// How a single run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Every written line accounted for: byte-identical reads plus
    /// (where the scenario permits) explicitly poisoned ones.
    Survived {
        /// Lines read back byte-identical.
        clean: u64,
        /// Lines surfaced as typed poison.
        poisoned: u64,
    },
    /// A read completed with bytes that differ from what was written —
    /// silent corruption, the one unforgivable outcome.
    LostData {
        /// Number of mismatching lines.
        mismatches: u64,
    },
    /// An access failed with an error the scenario does not permit.
    UnexpectedError(String),
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Survived { clean, poisoned } => {
                write!(f, "survived ({clean} clean, {poisoned} poisoned)")
            }
            Outcome::LostData { mismatches } => write!(f, "LOST ({mismatches} lines)"),
            Outcome::UnexpectedError(e) => write!(f, "fail: {e}"),
        }
    }
}

/// What one scenario × seed run recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Classified end state.
    pub outcome: Outcome,
    /// Completed failovers.
    pub failovers: u64,
    /// Lines moved by the evacuation migrator.
    pub lines_migrated: u64,
    /// Of those, lines that travelled as poison.
    pub poison_migrated: u64,
    /// Lines pulled ahead of the frontier by demand accesses.
    pub demand_migrations: u64,
    /// Reads served from the mirror after a primary fault.
    pub mirror_fallbacks: u64,
}

/// Seeds and cache lines written through the victim per run (at
/// least 4, rounded up to an even count).
pub type CampaignConfig = sweep::Config<Scenario>;

/// The campaign's runs.
pub type CampaignReport = sweep::Report<Scenario>;

const COLUMNS: [Column; 6] = [
    Column::left("outcome", 28).wide(),
    Column::right("fails", 5),
    Column::right("migrated", 8),
    Column::right("poison", 6),
    Column::right("demand", 6),
    Column::right("mirr", 5),
];

/// Builds the system for one run and, for the error-budget fault,
/// swaps in a victim card pre-armed with a seeded flip storm (the same
/// trick `Power8System` unit tests use — the fault pattern must exist
/// from the card's power-on for determinism).
fn system_for(scenario: Scenario, seed: u64, lines: u64) -> Power8System {
    let mut sys = Power8System::boot_with_failover(
        layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
        seed,
        scenario.mode.failover_mode(),
    )
    .expect("failover testbed boots");
    if scenario.fault == Fault::ErrorBudget {
        let mut card = ConTutto::new(ContuttoConfig::base(), MemoryPopulation::dram_8gb());
        card.attach_media_faults(FaultConfig {
            transient_flips: STORM_FLIPS,
            window: STORM_WINDOW,
            hot_start: 0,
            // Victim lines interleave across the two DIMM ports, so a
            // port-local range of lines/4 lines covers half the
            // working set: the campaign then proves both halves of the
            // contract in one run — rotted lines travel as poison,
            // untouched ones migrate byte-identical.
            hot_len: (lines / 4).max(1) * 128,
            ..FaultConfig::none(seed)
        });
        let victim = DmiChannel::new(ChannelConfig::contutto(), Box::new(card));
        sys.channel_mut(VICTIM_SLOT).expect("victim slot").channel = victim;
    }
    sys.set_retry_policy(campaign_policy());
    sys
}

/// Write the working set, kill the victim per the scenario, read
/// everything back (twice: mid-failover and after the migration
/// drains). Returns (clean, poisoned, mismatches, unexpected error).
fn workload(
    sys: &mut Power8System,
    scenario: Scenario,
    seed: u64,
    lines: u64,
) -> (u64, u64, u64, Option<SystemError>) {
    let victim_base = sys
        .memory_map()
        .regions()
        .iter()
        .find(|r| r.channel == VICTIM_SLOT)
        .expect("victim backs a region")
        .base;
    let mut written = Vec::new();
    for i in 0..lines {
        let addr = victim_base + i * 128;
        let line = CacheLine::patterned(seed.wrapping_mul(2000) + i);
        if let Err(e) = sys.store_line(addr, line) {
            return (0, 0, 0, Some(e));
        }
        written.push((addr, line));
    }

    // Kill the victim.
    match scenario.fault {
        Fault::ErrorBudget => {
            // Idle the victim past the storm window so every flip has
            // fallen due before the read pass exercises the budget.
            let ch = sys.channel_mut(VICTIM_SLOT).expect("victim slot");
            let t = ch.channel.now().max(STORM_WINDOW) + SimTime::from_us(10);
            ch.channel.run_until(t);
        }
        Fault::DeadLink => {
            let ch = sys.channel_mut(VICTIM_SLOT).expect("victim slot");
            ch.channel
                .set_down_injector(BitErrorInjector::bernoulli(1.0, seed));
            ch.channel
                .set_up_injector(BitErrorInjector::bernoulli(1.0, seed.wrapping_add(1)));
        }
        Fault::MaintenancePull => {
            sys.maintenance_pull(VICTIM_SLOT)
                .expect("pull has a failover target");
        }
    }

    // Read back mid-failover: demand accesses must be forwarded or
    // served from the copy frontier, never lost.
    let mid = read_back(sys, &written);
    if mid.3.is_some() {
        return mid;
    }
    // Drain the migration, then verify again: the settled system must
    // account for every line with no channel help remaining.
    sys.complete_migration();
    let (clean, poisoned, mismatches, error) = read_back(sys, &written);
    if error.is_some() {
        return (clean, poisoned, mismatches, error);
    }
    (clean, mid.1.max(poisoned), mid.2 + mismatches, None)
}

/// Loads every written line back. Returns (clean, poisoned,
/// mismatches, the unexpected error that stopped the pass).
fn read_back(
    sys: &mut Power8System,
    written: &[(u64, CacheLine)],
) -> (u64, u64, u64, Option<SystemError>) {
    let (mut clean, mut poisoned, mut mismatches) = (0, 0, 0);
    for (addr, line) in written {
        match sys.load_line(*addr) {
            Ok((back, _)) if back == *line => clean += 1,
            Ok(_) => mismatches += 1,
            Err(SystemError::Dmi(DmiError::Poisoned { .. })) => poisoned += 1,
            Err(e) => return (clean, poisoned, mismatches, Some(e)),
        }
    }
    (clean, poisoned, mismatches, None)
}

impl Campaign for Scenario {
    type Record = Record;
    type Size = sweep::Lines;
    const NAME: &'static str = "failover";
    const SIZING: Sizing = Sizing {
        smoke: (2, 12),
        full: (5, 24),
        floor: 4,
        step: 2,
    };

    /// Every mode × fault combination.
    fn scenarios() -> Vec<Scenario> {
        let faults = [Fault::ErrorBudget, Fault::DeadLink, Fault::MaintenancePull];
        let cells = |mode| faults.map(|fault| Scenario { mode, fault });
        [Mode::Spare, Mode::Mirrored]
            .into_iter()
            .flat_map(cells)
            .collect()
    }

    fn label(self) -> String {
        self.name()
    }

    fn run(self, seed: u64, lines: u64) -> Measured<Record> {
        let mut sys = system_for(self, seed, lines);
        let tracer = sys.enable_tracing(1 << 15);
        let (clean, poisoned, mismatches, error) = workload(&mut sys, self, seed, lines);
        let stats = *sys.failover_stats();
        let outcome = if let Some(e) = error {
            Outcome::UnexpectedError(e.to_string())
        } else if mismatches > 0 {
            Outcome::LostData { mismatches }
        } else {
            Outcome::Survived { clean, poisoned }
        };
        Measured {
            record: Record {
                outcome,
                failovers: stats.failovers,
                lines_migrated: stats.lines_migrated,
                poison_migrated: stats.poison_migrated,
                demand_migrations: stats.demand_migrations,
                mirror_fallbacks: stats.mirror_read_fallbacks,
            },
            fingerprint: tracer.fingerprint(),
            metrics: sys.metrics(),
        }
    }

    /// Lost or unreadable data breaks the zero-loss contract, as does
    /// a run that never failed over or poison the scenario does not
    /// permit.
    fn violation(self, record: &Record) -> Option<String> {
        let broken = match &record.outcome {
            Outcome::Survived { poisoned, .. } => {
                record.failovers == 0 || (*poisoned > 0 && !self.allows_poison())
            }
            Outcome::LostData { .. } | Outcome::UnexpectedError(_) => true,
        };
        broken.then(|| format!("{} after {} failovers", record.outcome, record.failovers))
    }

    fn render(report: &CampaignReport) -> String {
        report.table(26, &COLUMNS, "", |_, r| {
            vec![
                r.outcome.to_string(),
                r.failovers.to_string(),
                r.lines_migrated.to_string(),
                r.poison_migrated.to_string(),
                r.demand_migrations.to_string(),
                r.mirror_fallbacks.to_string(),
            ]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_loses_nothing() {
        let report = run_campaign(&CampaignConfig::new(vec![1], 12));
        let violations = report.violations();
        assert!(violations.is_empty(), "{}", violations.join("\n"));
    }

    /// Runs one scenario at 12 lines and checks it kept the contract.
    fn survived(mode: Mode, fault: Fault, seed: u64) -> Record {
        let run = run_scenario(Scenario { mode, fault }, seed, 12);
        assert!(!run.is_violation(), "{}", run.record().outcome);
        run.record().clone()
    }

    #[test]
    fn spare_error_budget_migrates_poison_as_poison() {
        let r = survived(Mode::Spare, Fault::ErrorBudget, 1);
        assert!(r.failovers >= 1, "budget exhaustion must fail over");
        assert!(
            r.poison_migrated > 0,
            "the storm defeats SEC-DED somewhere, and that poison must travel"
        );
    }

    #[test]
    fn mirrored_dead_link_survives_clean() {
        let r = survived(Mode::Mirrored, Fault::DeadLink, 2);
        let Outcome::Survived { clean, poisoned } = r.outcome else {
            panic!("expected survival, got {}", r.outcome);
        };
        assert_eq!(poisoned, 0, "the mirror always has clean data");
        assert_eq!(clean, 12);
    }

    #[test]
    fn maintenance_pull_drains_backlog() {
        let r = survived(Mode::Spare, Fault::MaintenancePull, 3);
        assert!(r.lines_migrated >= 12, "every written line must move");
        assert_eq!(r.poison_migrated, 0, "a pull does not destroy data");
    }
}
