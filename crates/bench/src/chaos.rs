//! The deterministic chaos engine: composable fault plans, a global
//! durability oracle, and automatic shrinking to minimal reproducers.
//!
//! The per-campaign harnesses (`faults`, `media`, `failover`, `power`,
//! `traffic`) each exercise one fault family against one invariant.
//! This module closes the gap between them: a [`FaultPlan`] is a
//! time-ordered list of typed actions — link noise windows, media flip
//! storms, scrub toggles, maintenance pulls, EPOW, surprise power
//! cuts, slow-channel windows, traffic-rate steps, bounded demand
//! spikes, and whole-system checkpoints with timeline rewinds
//! (`Checkpoint` / `RestoreLatest`) — generated from a seed at a configurable
//! intensity and applied against a live system through
//! [`contutto_power8::Power8System::apply_fault_action`] while a
//! ledgered key/value load
//! ([`contutto_workloads::chaos_load::ChaosLoad`]) runs. Compositions
//! no hand-written campaign enumerates (a power cut mid-evacuation, a
//! flip storm during a link blackout) fall out of the generator for
//! free.
//!
//! After every plan the global durability [`Oracle`] holds the system
//! to one contract, whatever the fault mix was:
//!
//! * every **acknowledged** store is readable with its last acked
//!   value, or surfaced as a *typed* loss (a poison error, an orphan,
//!   a reboot `data_loss` report) — never silently wrong
//!   ([`Violation::SilentCorruption`], [`Violation::UnreportedLoss`]);
//! * volatile contents never survive a power cut
//!   ([`Violation::Resurrection`]);
//! * nothing panics ([`Violation::Panicked`]);
//! * a same-seed rerun is byte-identical — trace fingerprint and
//!   violation list ([`Violation::NonDeterministic`]).
//!
//! When a plan fails, [`shrink`] greedily deletes actions, truncates
//! the request stream and narrows fault parameters while the failure
//! (same violation kind) persists, and the minimal plan serializes to
//! a JSON reproducer replayable with `faults --chaos --replay <file>`.
//!
//! Plan actions trigger on the load's *logical* step counter (requests
//! submitted), not on wall-clock picoseconds, so a latency shift
//! cannot reorder a plan against its workload.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};

use contutto_centaur::CentaurConfig;
use contutto_core::{ContuttoConfig, MemoryKind, MemoryPopulation};
use contutto_dmi::command::CacheLine;
use contutto_power8::failover::FailoverMode;
use contutto_power8::firmware::{layouts, BootError, SlotPopulation};
use contutto_power8::system::{Power8System, SystemError};
use contutto_power8::{FaultAction, FaultOutcome};
use contutto_sim::{SimRng, SimTime};
use contutto_workloads::chaos_load::{
    ChaosLoad, ChaosLoadConfig, HookVerdict, RewindPoint, StoreEvent, StoreOutcome,
};

use crate::failover::{SPARE_SLOT, VICTIM_SLOT};
use crate::faults::campaign_policy;
use crate::report::{Bench, Row};
use crate::sweep::{self, Column, Sizing};

/// Keys the chaos load spreads across the memory map.
const LOAD_KEYS: u64 = 64;

/// Read fraction of the chaos load (the rest are versioned stores).
const LOAD_READ_FRACTION: f64 = 0.5;

/// Default inter-submit gap (a plan's `RateStep` actions rewrite it).
const DEFAULT_GAP: SimTime = SimTime::from_ns(400);

// ------------------------------------------------------------- layouts

/// Which testbed a plan runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanLayout {
    /// The failover pair: CDIMM system memory, a ConTutto DRAM victim
    /// at slot 2 and a hot spare at slot 4 (all volatile).
    Failover,
    /// CDIMM system memory plus a small NVDIMM ConTutto at slot 2 —
    /// the layout where a power cut has something durable to lose.
    Nvdimm,
}

impl PlanLayout {
    /// Stable display name (also the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            PlanLayout::Failover => "failover",
            PlanLayout::Nvdimm => "nvdimm",
        }
    }

    /// Parses [`PlanLayout::name`] back.
    pub fn parse(s: &str) -> Option<PlanLayout> {
        match s {
            "failover" => Some(PlanLayout::Failover),
            "nvdimm" => Some(PlanLayout::Nvdimm),
            _ => None,
        }
    }

    /// Slots a plan may target with link-level faults.
    fn fault_slots(self) -> &'static [usize] {
        match self {
            PlanLayout::Failover => &[0, VICTIM_SLOT, SPARE_SLOT],
            PlanLayout::Nvdimm => &[0, 2],
        }
    }

    /// The ConTutto slot with fault-capable media hooks.
    fn contutto_slot(self) -> usize {
        2
    }

    fn boot(self, seed: u64) -> Result<Power8System, BootError> {
        match self {
            PlanLayout::Failover => Power8System::boot_with_failover(
                layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
                seed,
                FailoverMode::Spare { spare: SPARE_SLOT },
            ),
            PlanLayout::Nvdimm => Power8System::boot(
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
                ],
                seed,
            ),
        }
    }
}

// ---------------------------------------------------------------- plans

/// One plan-level action: a typed system fault, or a load-shape change.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanAction {
    /// A fault routed through `apply_fault_action`.
    Fault(FaultAction),
    /// A traffic-rate step: the load's inter-submit gap becomes `gap`.
    RateStep {
        /// New inter-submit gap.
        gap: SimTime,
    },
    /// A bounded demand burst: the inter-submit gap drops to `gap` for
    /// `steps` logical steps, then snaps back to whatever the base
    /// rate was (the plan's gap, or the last `RateStep`). Composed
    /// with a `SlowChannel` window this is the metastable-failure
    /// trigger shape: a load spike landing on degraded capacity.
    TrafficSpike {
        /// Burst inter-submit gap (smaller = harder).
        gap: SimTime,
        /// Logical steps the burst lasts.
        steps: u64,
    },
    /// Snapshot the whole system mid-plan. A later `RestoreLatest`
    /// rewinds to it; a checkpoint nobody restores is still a fault
    /// (the snapshot walk itself must not perturb the run).
    Checkpoint,
    /// Restore the most recent `Checkpoint`, abandoning everything
    /// simulated since: in-flight requests, faults, even power cuts.
    /// The ledger demotes the abandoned timeline and the oracle holds
    /// the system to the *surviving* one — a rolled-back value
    /// showing up afterwards is a resurrection. Skipped if no
    /// checkpoint has been taken yet.
    RestoreLatest,
}

/// An action bound to the logical step it fires at.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedAction {
    /// Fires when the load has submitted this many requests.
    pub at_step: u64,
    /// What fires.
    pub action: PlanAction,
}

/// A serializable, seed-generated chaos plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Testbed the plan runs against.
    pub layout: PlanLayout,
    /// Seed for boot and the load's key/op stream.
    pub seed: u64,
    /// Requests the load submits.
    pub requests: u64,
    /// Initial inter-submit gap.
    pub gap: SimTime,
    /// Actions in firing order (sorted by `at_step`).
    pub actions: Vec<PlannedAction>,
}

fn in_range(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    lo + rng.gen_below(hi - lo + 1)
}

impl FaultPlan {
    /// Generates plan `index` for `(layout, seed)` with `intensity`
    /// action draws. Deterministic: the same inputs always yield the
    /// same plan. Link noise is always paired with a later clear; at
    /// most one power cut and one maintenance pull per plan so runs
    /// stay bounded.
    pub fn generate(
        layout: PlanLayout,
        seed: u64,
        index: u64,
        intensity: u32,
        requests: u64,
    ) -> FaultPlan {
        let requests = requests.max(16);
        let mut rng = SimRng::seed_from_stream(seed, 0xC4A0_5000 ^ index);
        let mut actions = Vec::new();
        let mut cuts = 0u32;
        let mut pulls = 0u32;
        for _ in 0..intensity {
            let at_step = rng.gen_below(requests);
            let slots = layout.fault_slots();
            let slot = slots[rng.gen_below(slots.len() as u64) as usize];
            let contutto = layout.contutto_slot();
            match rng.gen_below(12) {
                0 | 1 => {
                    // Noise window: per-frame corruption the retry
                    // ladder must absorb, cleared later in the run.
                    let p = in_range(&mut rng, 1, 20) as f64 / 1000.0;
                    let noise_seed = rng.next_u64();
                    actions.push(PlannedAction {
                        at_step,
                        action: PlanAction::Fault(FaultAction::LinkNoise {
                            slot,
                            down: p,
                            up: p / 2.0,
                            seed: noise_seed,
                        }),
                    });
                    actions.push(PlannedAction {
                        at_step: (at_step + requests / 8 + 1).min(requests),
                        action: PlanAction::Fault(FaultAction::LinkClear { slot }),
                    });
                }
                2 => {
                    let storm_seed = rng.next_u64();
                    let flips = in_range(&mut rng, 4, 24) as u32;
                    let window = SimTime::from_us(in_range(&mut rng, 20, 60));
                    let hot_start = in_range(&mut rng, 0, 8191) * 128;
                    let hot_len = in_range(&mut rng, 1, 16) * 4096;
                    let stuck = in_range(&mut rng, 0, 1) as u32;
                    actions.push(PlannedAction {
                        at_step,
                        action: PlanAction::Fault(FaultAction::FlipStorm {
                            slot: contutto,
                            seed: storm_seed,
                            flips,
                            window,
                            hot_start,
                            hot_len,
                            stuck,
                        }),
                    });
                }
                3 => actions.push(PlannedAction {
                    at_step,
                    action: PlanAction::Fault(FaultAction::ScrubOn {
                        slot: contutto,
                        interval: SimTime::from_us(in_range(&mut rng, 5, 25)),
                    }),
                }),
                4 => actions.push(PlannedAction {
                    at_step,
                    action: PlanAction::Fault(FaultAction::ScrubOff { slot: contutto }),
                }),
                5 => actions.push(PlannedAction {
                    at_step,
                    action: PlanAction::Fault(FaultAction::Epow),
                }),
                6 => {
                    let action = if cuts == 0 {
                        cuts += 1;
                        FaultAction::PowerCut {
                            outage: SimTime::from_us(in_range(&mut rng, 30, 120)),
                        }
                    } else {
                        FaultAction::Epow
                    };
                    actions.push(PlannedAction {
                        at_step,
                        action: PlanAction::Fault(action),
                    });
                }
                8 => {
                    // Latency degradation: the channel goes slow, not
                    // dead — the shape retry storms feed on.
                    actions.push(PlannedAction {
                        at_step,
                        action: PlanAction::Fault(FaultAction::SlowChannel {
                            slot,
                            window: SimTime::from_us(in_range(&mut rng, 10, 40)),
                        }),
                    });
                }
                9 => {
                    let steps = in_range(&mut rng, 4, requests / 4 + 4);
                    actions.push(PlannedAction {
                        at_step,
                        action: PlanAction::TrafficSpike {
                            gap: SimTime::from_ps(in_range(&mut rng, 50_000, 200_000)),
                            steps,
                        },
                    });
                }
                10 => {
                    // Checkpoint paired with a later rewind: whatever
                    // other draws land in between gets un-happened.
                    actions.push(PlannedAction {
                        at_step,
                        action: PlanAction::Checkpoint,
                    });
                    actions.push(PlannedAction {
                        at_step: (at_step + requests / 8 + 1).min(requests),
                        action: PlanAction::RestoreLatest,
                    });
                }
                11 => actions.push(PlannedAction {
                    at_step,
                    action: PlanAction::Checkpoint,
                }),
                _ => {
                    if layout == PlanLayout::Failover && pulls == 0 {
                        pulls += 1;
                        actions.push(PlannedAction {
                            at_step,
                            action: PlanAction::Fault(FaultAction::MaintenancePull {
                                slot: VICTIM_SLOT,
                            }),
                        });
                    } else {
                        actions.push(PlannedAction {
                            at_step,
                            action: PlanAction::RateStep {
                                gap: SimTime::from_ps(in_range(&mut rng, 100_000, 1_500_000)),
                            },
                        });
                    }
                }
            }
        }
        actions.sort_by_key(|a| a.at_step);
        FaultPlan {
            layout,
            seed,
            requests,
            gap: DEFAULT_GAP,
            actions,
        }
    }

    /// Serializes the plan as a self-contained JSON reproducer
    /// (hand-rolled; the workspace carries no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"chaos_plan\": 1,");
        let _ = writeln!(out, "  \"layout\": \"{}\",", self.layout.name());
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"requests\": {},", self.requests);
        let _ = writeln!(out, "  \"gap_ps\": {},", self.gap.as_ps());
        let _ = writeln!(out, "  \"actions\": [");
        for (i, pa) in self.actions.iter().enumerate() {
            let body = match &pa.action {
                PlanAction::Fault(FaultAction::LinkNoise {
                    slot,
                    down,
                    up,
                    seed,
                }) => format!(
                    "\"kind\": \"link_noise\", \"slot\": {slot}, \"down\": {down:.6}, \
                     \"up\": {up:.6}, \"seed\": {seed}"
                ),
                PlanAction::Fault(FaultAction::LinkClear { slot }) => {
                    format!("\"kind\": \"link_clear\", \"slot\": {slot}")
                }
                PlanAction::Fault(FaultAction::SlowChannel { slot, window }) => format!(
                    "\"kind\": \"slow_channel\", \"slot\": {slot}, \"window_ps\": {}",
                    window.as_ps()
                ),
                PlanAction::Fault(FaultAction::FlipStorm {
                    slot,
                    seed,
                    flips,
                    window,
                    hot_start,
                    hot_len,
                    stuck,
                }) => format!(
                    "\"kind\": \"flip_storm\", \"slot\": {slot}, \"seed\": {seed}, \
                     \"flips\": {flips}, \"window_ps\": {}, \"hot_start\": {hot_start}, \
                     \"hot_len\": {hot_len}, \"stuck\": {stuck}",
                    window.as_ps()
                ),
                PlanAction::Fault(FaultAction::ScrubOn { slot, interval }) => format!(
                    "\"kind\": \"scrub_on\", \"slot\": {slot}, \"interval_ps\": {}",
                    interval.as_ps()
                ),
                PlanAction::Fault(FaultAction::ScrubOff { slot }) => {
                    format!("\"kind\": \"scrub_off\", \"slot\": {slot}")
                }
                PlanAction::Fault(FaultAction::MaintenancePull { slot }) => {
                    format!("\"kind\": \"maintenance_pull\", \"slot\": {slot}")
                }
                PlanAction::Fault(FaultAction::Epow) => "\"kind\": \"epow\"".to_string(),
                PlanAction::Fault(FaultAction::PowerCut { outage }) => {
                    format!("\"kind\": \"power_cut\", \"outage_ps\": {}", outage.as_ps())
                }
                PlanAction::Fault(FaultAction::Sabotage { slot, addr }) => {
                    format!("\"kind\": \"sabotage\", \"slot\": {slot}, \"addr\": {addr}")
                }
                PlanAction::Checkpoint => "\"kind\": \"checkpoint\"".to_string(),
                PlanAction::RestoreLatest => "\"kind\": \"restore\"".to_string(),
                PlanAction::RateStep { gap } => {
                    format!("\"kind\": \"rate_step\", \"gap_ps\": {}", gap.as_ps())
                }
                PlanAction::TrafficSpike { gap, steps } => format!(
                    "\"kind\": \"traffic_spike\", \"gap_ps\": {}, \"steps\": {steps}",
                    gap.as_ps()
                ),
            };
            let _ = writeln!(
                out,
                "    {{\"at_step\": {}, {body}}}{}",
                pa.at_step,
                if i + 1 < self.actions.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses a reproducer produced by [`FaultPlan::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first unparseable field. Hostile
    /// values (absurd probabilities, zero ranges) are *not* rejected
    /// here — the injection layer clamps them, because a reproducer is
    /// external input and must never abort the process.
    pub fn from_json(json: &str) -> Result<FaultPlan, String> {
        if !json.contains("\"chaos_plan\"") {
            return Err("not a chaos plan (missing \"chaos_plan\" marker)".into());
        }
        let num = |chunk: &str, key: &str| -> Option<f64> {
            let rest = chunk.split(key).nth(1)?;
            let text: String = rest
                .trim_start_matches([':', ' '])
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
                .collect();
            text.parse().ok()
        };
        // Integers parse directly — a u64 round-tripped through f64
        // loses low bits above 2^53, and seeds use the full range.
        let int = |chunk: &str, key: &str| -> Option<u64> {
            let rest = chunk.split(key).nth(1)?;
            let text: String = rest
                .trim_start_matches([':', ' '])
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            text.parse().ok()
        };
        let layout_name = json
            .split("\"layout\"")
            .nth(1)
            .and_then(|rest| rest.split('"').nth(1))
            .ok_or("missing layout")?;
        let layout =
            PlanLayout::parse(layout_name).ok_or_else(|| format!("bad layout {layout_name:?}"))?;
        let head = json.split("\"actions\"").next().unwrap_or(json);
        let seed = int(head, "\"seed\"").ok_or("missing seed")?;
        let requests = int(head, "\"requests\"").ok_or("missing requests")?;
        let gap = SimTime::from_ps(int(head, "\"gap_ps\"").ok_or("missing gap_ps")?.max(1));
        let mut actions = Vec::new();
        for chunk in json.split("{\"at_step\"").skip(1) {
            let at_step = int(chunk, ":").ok_or("action missing at_step")?;
            let kind = chunk
                .split("\"kind\"")
                .nth(1)
                .and_then(|rest| rest.split('"').nth(1))
                .ok_or("action missing kind")?;
            let slot = || int(chunk, "\"slot\"").ok_or("action missing slot");
            let action = match kind {
                "link_noise" => PlanAction::Fault(FaultAction::LinkNoise {
                    slot: slot()? as usize,
                    down: num(chunk, "\"down\"").ok_or("link_noise missing down")?,
                    up: num(chunk, "\"up\"").ok_or("link_noise missing up")?,
                    seed: int(chunk, "\"seed\"").ok_or("link_noise missing seed")?,
                }),
                "link_clear" => PlanAction::Fault(FaultAction::LinkClear {
                    slot: slot()? as usize,
                }),
                "slow_channel" => PlanAction::Fault(FaultAction::SlowChannel {
                    slot: slot()? as usize,
                    window: SimTime::from_ps(
                        int(chunk, "\"window_ps\"")
                            .ok_or("slow_channel missing window_ps")?
                            .max(1),
                    ),
                }),
                "flip_storm" => PlanAction::Fault(FaultAction::FlipStorm {
                    slot: slot()? as usize,
                    seed: int(chunk, "\"seed\"").ok_or("flip_storm missing seed")?,
                    flips: int(chunk, "\"flips\"").ok_or("flip_storm missing flips")? as u32,
                    window: SimTime::from_ps(
                        int(chunk, "\"window_ps\"").ok_or("flip_storm missing window_ps")?,
                    ),
                    hot_start: int(chunk, "\"hot_start\"").ok_or("flip_storm missing hot_start")?,
                    hot_len: int(chunk, "\"hot_len\"").ok_or("flip_storm missing hot_len")?,
                    stuck: int(chunk, "\"stuck\"").ok_or("flip_storm missing stuck")? as u32,
                }),
                "scrub_on" => PlanAction::Fault(FaultAction::ScrubOn {
                    slot: slot()? as usize,
                    interval: SimTime::from_ps(
                        int(chunk, "\"interval_ps\"").ok_or("scrub_on missing interval_ps")?,
                    ),
                }),
                "scrub_off" => PlanAction::Fault(FaultAction::ScrubOff {
                    slot: slot()? as usize,
                }),
                "maintenance_pull" => PlanAction::Fault(FaultAction::MaintenancePull {
                    slot: slot()? as usize,
                }),
                "epow" => PlanAction::Fault(FaultAction::Epow),
                "power_cut" => PlanAction::Fault(FaultAction::PowerCut {
                    outage: SimTime::from_ps(
                        int(chunk, "\"outage_ps\"").ok_or("power_cut missing outage_ps")?,
                    ),
                }),
                "sabotage" => PlanAction::Fault(FaultAction::Sabotage {
                    slot: slot()? as usize,
                    addr: int(chunk, "\"addr\"").ok_or("sabotage missing addr")?,
                }),
                "checkpoint" => PlanAction::Checkpoint,
                "restore" => PlanAction::RestoreLatest,
                "rate_step" => PlanAction::RateStep {
                    gap: SimTime::from_ps(
                        int(chunk, "\"gap_ps\"")
                            .ok_or("rate_step missing gap_ps")?
                            .max(1),
                    ),
                },
                "traffic_spike" => PlanAction::TrafficSpike {
                    gap: SimTime::from_ps(
                        int(chunk, "\"gap_ps\"")
                            .ok_or("traffic_spike missing gap_ps")?
                            .max(1),
                    ),
                    steps: int(chunk, "\"steps\"")
                        .ok_or("traffic_spike missing steps")?
                        .max(1),
                },
                other => return Err(format!("unknown action kind {other:?}")),
            };
            actions.push(PlannedAction { at_step, action });
        }
        actions.sort_by_key(|a| a.at_step);
        Ok(FaultPlan {
            layout,
            seed,
            requests,
            gap,
            actions,
        })
    }
}

// --------------------------------------------------------------- oracle

/// One breach of the durability contract. The taxonomy is the oracle's
/// public interface: the shrinker preserves the *kind* while deleting
/// everything else from a failing plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A read completed cleanly with bytes that were never any
    /// acceptable value for the address — corruption with no report.
    SilentCorruption {
        /// Affected physical address.
        phys: u64,
    },
    /// A read returned a value from *before* a power cut that wiped
    /// the address — volatile contents must not survive — or from a
    /// timeline a snapshot restore abandoned: a rolled-back store's
    /// value must never be visible again.
    Resurrection {
        /// Affected physical address.
        phys: u64,
    },
    /// A read returned a stale or zero line where an acknowledged
    /// store should live, with no typed loss reported anywhere.
    UnreportedLoss {
        /// Affected physical address.
        phys: u64,
    },
    /// The harness hit an error outside the contract (boot failure,
    /// replay of an inapplicable plan…).
    UnexpectedError {
        /// What failed.
        context: String,
    },
    /// The run panicked — always a violation.
    Panicked(String),
    /// The same-seed rerun diverged (fingerprint or violations).
    NonDeterministic,
    /// The system never dug itself out after the plan's faults: the
    /// post-load drain tripped the no-progress watchdog and stranded
    /// requests as `Stalled`. Recovery — not just durability — is
    /// part of the contract: a wedged channel after every fault has
    /// cleared is a metastable outcome, not an acceptable end state.
    NoRecovery {
        /// Requests stranded by the watchdog.
        stranded: u64,
    },
}

impl Violation {
    /// The taxonomy label ([`shrink`] preserves it).
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::SilentCorruption { .. } => "silent-corruption",
            Violation::Resurrection { .. } => "resurrection",
            Violation::UnreportedLoss { .. } => "unreported-loss",
            Violation::UnexpectedError { .. } => "unexpected-error",
            Violation::Panicked(_) => "panic",
            Violation::NonDeterministic => "non-deterministic",
            Violation::NoRecovery { .. } => "no-recovery",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::SilentCorruption { phys } => {
                write!(f, "silent corruption at {phys:#x}")
            }
            Violation::Resurrection { phys } => {
                write!(f, "pre-cut data resurrected at {phys:#x}")
            }
            Violation::UnreportedLoss { phys } => {
                write!(f, "acked store lost without a report at {phys:#x}")
            }
            Violation::UnexpectedError { context } => write!(f, "unexpected error: {context}"),
            Violation::Panicked(msg) => write!(f, "PANIC: {msg}"),
            Violation::NonDeterministic => write!(f, "double run diverged"),
            Violation::NoRecovery { stranded } => {
                write!(f, "no recovery: {stranded} requests stranded in the drain")
            }
        }
    }
}

/// A power cut observed during a run, for the oracle's wipe model.
#[derive(Debug, Clone)]
pub struct Wipe {
    /// When the rail dropped.
    pub at: SimTime,
    /// Slots whose *preserved* media failed to restore (from the
    /// reboot report) — their loss is typed, so it is excused.
    pub reported_loss: BTreeSet<usize>,
}

#[derive(Debug, Clone)]
struct RegionInfo {
    base: u64,
    os_size: u64,
    preserved: bool,
    channel: usize,
}

/// The global durability oracle: replays a [`StoreEvent`] ledger
/// against the post-run system and classifies every discrepancy.
#[derive(Debug, Clone)]
pub struct Oracle {
    regions: Vec<RegionInfo>,
}

/// What a line may legally contain: all-zero (boot / post-wipe) or a
/// specific store's pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Candidate {
    Zero,
    Token(u64),
}

impl Candidate {
    fn matches(self, line: &CacheLine) -> bool {
        match self {
            Candidate::Zero => *line == CacheLine::ZERO,
            Candidate::Token(t) => *line == CacheLine::patterned(t),
        }
    }
}

impl Oracle {
    /// Snapshots the freshly booted system's memory map. Region
    /// attributes (base, size, preserved flag, owning channel) anchor
    /// the wipe model; take the snapshot before any fault runs.
    pub fn new(sys: &Power8System) -> Self {
        Oracle {
            regions: sys
                .memory_map()
                .regions()
                .iter()
                .map(|r| RegionInfo {
                    base: r.base,
                    os_size: r.os_size,
                    preserved: r.flags.preserved,
                    channel: r.channel,
                })
                .collect(),
        }
    }

    fn region_of(&self, phys: u64) -> Option<&RegionInfo> {
        self.regions
            .iter()
            .find(|r| phys >= r.base && phys < r.base + r.os_size)
    }

    /// Checks every address the ledger touched against the durability
    /// contract and returns the violations found. Reads go through the
    /// normal load path, so a typed error (poison, route loss, powered
    /// off) counts as a *reported* loss — acceptable; only clean reads
    /// with wrong bytes violate.
    pub fn check(
        &self,
        sys: &mut Power8System,
        ledger: &[StoreEvent],
        wipes: &[Wipe],
    ) -> Vec<Violation> {
        let mut by_addr: BTreeMap<u64, Vec<&StoreEvent>> = BTreeMap::new();
        for ev in ledger {
            by_addr.entry(ev.phys).or_default().push(ev);
        }
        let mut violations = Vec::new();
        for (phys, events) in by_addr {
            let region = self.region_of(phys);
            let preserved = region.map(|r| r.preserved).unwrap_or(false);
            let channel = region.map(|r| r.channel);
            // Walk stores and wipes in time order, maintaining the set
            // of values the line may legally hold plus the set it must
            // *no longer* hold (for resurrection classification).
            let mut acceptable: BTreeSet<Candidate> = BTreeSet::from([Candidate::Zero]);
            let mut superseded: BTreeSet<Candidate> = BTreeSet::new();
            let mut rolled_back: BTreeSet<Candidate> = BTreeSet::new();
            let mut excused = false;
            let mut wiped = false;
            let mut wi = 0usize;
            for ev in events {
                // Rolled-back stores belong to an abandoned timeline:
                // their submit times are not on the surviving clock,
                // so they don't advance the wipe cursor. Their value
                // must simply never be seen again.
                if ev.outcome == StoreOutcome::RolledBack {
                    rolled_back.insert(Candidate::Token(ev.token));
                    continue;
                }
                while wi < wipes.len() && wipes[wi].at <= ev.submitted_at {
                    apply_wipe(
                        &wipes[wi],
                        preserved,
                        channel,
                        &mut acceptable,
                        &mut superseded,
                        &mut excused,
                        &mut wiped,
                    );
                    wi += 1;
                }
                match ev.outcome {
                    StoreOutcome::Acked(_) => {
                        superseded.extend(acceptable.iter().copied());
                        acceptable.clear();
                        acceptable.insert(Candidate::Token(ev.token));
                    }
                    // The write may or may not have landed: both the
                    // old and the new value are legal.
                    StoreOutcome::Pending | StoreOutcome::Errored | StoreOutcome::Orphaned => {
                        acceptable.insert(Candidate::Token(ev.token));
                    }
                    // Filtered above.
                    StoreOutcome::RolledBack => unreachable!(),
                }
            }
            while wi < wipes.len() {
                apply_wipe(
                    &wipes[wi],
                    preserved,
                    channel,
                    &mut acceptable,
                    &mut superseded,
                    &mut excused,
                    &mut wiped,
                );
                wi += 1;
            }
            match sys.load_line(phys) {
                // A typed error is a *reported* loss — the contract's
                // loud path, never a violation.
                Err(_) => {}
                Ok((line, _)) => {
                    if excused || acceptable.iter().any(|c| c.matches(&line)) {
                        continue;
                    }
                    if rolled_back.iter().any(|c| c.matches(&line)) {
                        // A value from a timeline a restore abandoned
                        // is back: the rewind leaked.
                        violations.push(Violation::Resurrection { phys });
                    } else if superseded.iter().any(|c| c.matches(&line)) {
                        if wiped {
                            violations.push(Violation::Resurrection { phys });
                        } else {
                            violations.push(Violation::UnreportedLoss { phys });
                        }
                    } else if line == CacheLine::ZERO {
                        violations.push(Violation::UnreportedLoss { phys });
                    } else {
                        violations.push(Violation::SilentCorruption { phys });
                    }
                }
            }
        }
        violations
    }
}

fn apply_wipe(
    wipe: &Wipe,
    preserved: bool,
    channel: Option<usize>,
    acceptable: &mut BTreeSet<Candidate>,
    superseded: &mut BTreeSet<Candidate>,
    excused: &mut bool,
    wiped: &mut bool,
) {
    if preserved {
        // Durable media survives a cut — unless the reboot reported
        // the slot's restore failed, which excuses the address (the
        // loss is typed, exactly what the contract demands).
        if channel.is_some_and(|c| wipe.reported_loss.contains(&c)) {
            *excused = true;
        }
    } else {
        superseded.extend(acceptable.iter().copied());
        superseded.remove(&Candidate::Zero);
        acceptable.clear();
        acceptable.insert(Candidate::Zero);
        *wiped = true;
    }
}

// ------------------------------------------------------------ execution

/// The result of executing one plan (once or twice).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanRunReport {
    /// Everything the oracle (or the harness) found wrong.
    pub violations: Vec<Violation>,
    /// Trace fingerprint of the run.
    pub fingerprint: u64,
    /// Actions that applied (including reboots).
    pub applied: u64,
    /// Actions skipped as inapplicable to the layout.
    pub skipped: u64,
    /// Power-cut reboots that completed.
    pub reboots: u64,
    /// Requests the load resolved (completed + errors + orphans).
    pub resolved: u64,
    /// Same-seed rerun was byte-identical. Set by [`run_plan`];
    /// a single run reports `true`.
    pub deterministic: bool,
}

impl PlanRunReport {
    /// A run that ended before doing anything: one violation and
    /// nothing applied, skipped, rebooted or resolved.
    fn failed(violation: Violation) -> Self {
        PlanRunReport {
            violations: vec![violation],
            deterministic: true,
            ..Default::default()
        }
    }

    /// Whether the run upheld the whole contract.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Executes a plan once: boot, snapshot the oracle, run the ledgered
/// load with the plan's actions firing on their steps, then hold the
/// final state to the durability contract. Panics anywhere inside
/// become [`Violation::Panicked`].
pub fn run_plan_once(plan: &FaultPlan) -> PlanRunReport {
    let result = sweep::catch(|| {
        let mut sys = match plan.layout.boot(plan.seed) {
            Ok(sys) => sys,
            Err(e) => {
                return PlanRunReport::failed(Violation::UnexpectedError {
                    context: format!("boot: {e}"),
                })
            }
        };
        sys.set_retry_policy(campaign_policy());
        let tracer = sys.enable_tracing(1 << 16);
        let oracle = Oracle::new(&sys);
        let load = ChaosLoad::new(
            ChaosLoadConfig {
                requests: plan.requests,
                gap: plan.gap,
                keys: LOAD_KEYS,
                read_fraction: LOAD_READ_FRACTION,
                mlp_window: 8,
                seed: plan.seed,
            },
            &sys,
        );
        let mut cursor = 0usize;
        let mut wipes: Vec<Wipe> = Vec::new();
        let mut applied = 0u64;
        let mut skipped = 0u64;
        let mut reboots = 0u64;
        let mut base_gap = plan.gap;
        let mut spike_until: Option<u64> = None;
        // The latest `Checkpoint`'s image plus the rewind point a
        // `RestoreLatest` hands back to the driver.
        let mut checkpoint: Option<(Vec<u8>, RewindPoint)> = None;
        let mut restore_failures: Vec<String> = Vec::new();
        let report = load.run(&mut sys, |sys, tick| {
            let mut new_gap = None;
            let mut rewound = None;
            if spike_until.is_some_and(|until| tick.step >= until) {
                spike_until = None;
                new_gap = Some(base_gap);
            }
            while cursor < plan.actions.len() && plan.actions[cursor].at_step <= tick.step {
                let now = sys.now();
                match &plan.actions[cursor].action {
                    PlanAction::RateStep { gap } => {
                        base_gap = *gap;
                        new_gap = Some(*gap);
                        applied += 1;
                    }
                    PlanAction::TrafficSpike { gap, steps } => {
                        new_gap = Some(*gap);
                        spike_until = Some(tick.step + (*steps).max(1));
                        applied += 1;
                    }
                    PlanAction::Checkpoint => {
                        checkpoint = Some((
                            sys.snapshot(),
                            RewindPoint {
                                at: sys.now(),
                                stores: tick.stores,
                            },
                        ));
                        applied += 1;
                    }
                    PlanAction::RestoreLatest => match &checkpoint {
                        Some((image, rp)) => match sys.restore(image) {
                            Ok(()) => {
                                applied += 1;
                                // Wipes in the abandoned timeline
                                // never happened.
                                wipes.retain(|w| w.at <= rp.at);
                                rewound = Some(*rp);
                            }
                            Err(e) => {
                                // Same-topology in-place restore must
                                // not fail; surface it loudly.
                                restore_failures.push(format!("in-place restore: {e}"));
                                skipped += 1;
                            }
                        },
                        None => skipped += 1,
                    },
                    PlanAction::Fault(action) => match sys.apply_fault_action(now, action) {
                        FaultOutcome::Applied => applied += 1,
                        FaultOutcome::Rebooted(r) => {
                            applied += 1;
                            reboots += 1;
                            wipes.push(Wipe {
                                at: now,
                                reported_loss: r.data_loss.iter().map(|d| d.slot).collect(),
                            });
                        }
                        FaultOutcome::RebootFailed(_) => {
                            // Terminal but typed: the machine stays
                            // dark, every later access errors loudly
                            // and the readback sees typed losses.
                            applied += 1;
                            wipes.push(Wipe {
                                at: now,
                                reported_loss: BTreeSet::new(),
                            });
                        }
                        FaultOutcome::Skipped(_) => skipped += 1,
                    },
                }
                cursor += 1;
            }
            HookVerdict { new_gap, rewound }
        });
        let drained = sys.drain();
        let stranded = drained
            .iter()
            .filter(|(_, r)| matches!(r, Err(SystemError::Stalled)))
            .count() as u64;
        let mut violations = oracle.check(&mut sys, &report.ledger, &wipes);
        if stranded > 0 {
            violations.push(Violation::NoRecovery { stranded });
        }
        for context in restore_failures {
            violations.push(Violation::UnexpectedError { context });
        }
        PlanRunReport {
            violations,
            fingerprint: tracer.fingerprint(),
            applied,
            skipped,
            reboots,
            resolved: report.completed + report.errors + report.orphaned,
            deterministic: true,
        }
    });
    result.unwrap_or_else(|msg| PlanRunReport::failed(Violation::Panicked(msg)))
}

/// Executes a plan twice (the campaign's double-run contract): the
/// fingerprints and violation lists must match, or
/// [`Violation::NonDeterministic`] is appended.
pub fn run_plan(plan: &FaultPlan) -> PlanRunReport {
    let (mut report, deterministic) = sweep::run_twice(|| run_plan_once(plan), |a, b| a == b);
    report.deterministic = deterministic;
    if !deterministic {
        report.violations.push(Violation::NonDeterministic);
    }
    report
}

// -------------------------------------------------------------- shrinker

/// Greedily minimizes a failing plan while it keeps failing with the
/// same violation kind: (1) delete actions one at a time to fixpoint,
/// (2) truncate the request stream, (3) narrow fault parameters
/// (noise probabilities, flip counts, outages). Returns `None` if the
/// plan does not fail at all; otherwise the minimal plan and the kind
/// it reproduces.
pub fn shrink(plan: &FaultPlan) -> Option<(FaultPlan, &'static str)> {
    let kind = run_plan_once(plan).violations.first().map(|v| v.kind())?;
    let fails = |candidate: &FaultPlan| {
        run_plan_once(candidate)
            .violations
            .iter()
            .any(|v| v.kind() == kind)
    };
    let mut current = plan.clone();
    // Phase 1: action deletion to fixpoint.
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < current.actions.len() {
            let mut candidate = current.clone();
            candidate.actions.remove(i);
            if fails(&candidate) {
                current = candidate;
                progressed = true;
            } else {
                i += 1;
            }
        }
        if !progressed {
            break;
        }
    }
    // Phase 2: request truncation (never below the last trigger).
    let last_step = current.actions.iter().map(|a| a.at_step).max().unwrap_or(0);
    loop {
        let target = (current.requests / 2).max(last_step + 4).max(16);
        if target >= current.requests {
            break;
        }
        let mut candidate = current.clone();
        candidate.requests = target;
        if fails(&candidate) {
            current = candidate;
        } else {
            break;
        }
    }
    // Phase 3: parameter narrowing while the failure persists.
    for _ in 0..4 {
        let candidate = FaultPlan {
            actions: current.actions.iter().map(narrow).collect(),
            ..current.clone()
        };
        if candidate == current || !fails(&candidate) {
            break;
        }
        current = candidate;
    }
    Some((current, kind))
}

fn narrow(pa: &PlannedAction) -> PlannedAction {
    let action = match &pa.action {
        PlanAction::Fault(FaultAction::LinkNoise {
            slot,
            down,
            up,
            seed,
        }) => PlanAction::Fault(FaultAction::LinkNoise {
            slot: *slot,
            down: down / 2.0,
            up: up / 2.0,
            seed: *seed,
        }),
        PlanAction::Fault(FaultAction::FlipStorm {
            slot,
            seed,
            flips,
            window,
            hot_start,
            hot_len,
            stuck,
        }) => PlanAction::Fault(FaultAction::FlipStorm {
            slot: *slot,
            seed: *seed,
            flips: (*flips / 2).max(1),
            window: *window,
            hot_start: *hot_start,
            hot_len: *hot_len,
            stuck: *stuck / 2,
        }),
        PlanAction::Fault(FaultAction::PowerCut { outage }) => {
            PlanAction::Fault(FaultAction::PowerCut {
                outage: SimTime::from_ps((outage.as_ps() / 2).max(1_000_000)),
            })
        }
        PlanAction::Fault(FaultAction::SlowChannel { slot, window }) => {
            PlanAction::Fault(FaultAction::SlowChannel {
                slot: *slot,
                window: SimTime::from_ps((window.as_ps() / 2).max(1_000_000)),
            })
        }
        PlanAction::TrafficSpike { gap, steps } => PlanAction::TrafficSpike {
            gap: SimTime::from_ps(gap.as_ps().saturating_mul(2)),
            steps: (*steps / 2).max(1),
        },
        other => other.clone(),
    };
    PlannedAction {
        at_step: pa.at_step,
        action,
    }
}

// -------------------------------------------------------------- campaign

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seeds swept.
    pub seeds: Vec<u64>,
    /// Generated plans per seed (layouts alternate per plan).
    pub plans_per_seed: u64,
    /// Requests per plan.
    pub requests: u64,
    /// Action draws per plan.
    pub intensity: u32,
}

/// Seeds and requests per plan of the smoke and full campaigns, and
/// the smallest request count a plan accepts.
const SIZING: Sizing = Sizing {
    smoke: (2, 72),
    full: (4, 160),
    floor: 16,
    step: 1,
};

impl CampaignConfig {
    /// The smoke or full campaign with the driver's `--seeds` and
    /// `--lines` (requests per plan) applied (see
    /// [`Sizing::resolve`]).
    pub fn sized(smoke: bool, seeds: Option<u64>, requests: Option<u64>) -> Self {
        let (seeds, requests) = SIZING.resolve(smoke, seeds, requests);
        CampaignConfig {
            seeds,
            plans_per_seed: if smoke { 2 } else { 16 },
            requests,
            intensity: if smoke { 4 } else { 6 },
        }
    }

    /// The quick gate used by `scripts/verify.sh`.
    pub fn smoke() -> Self {
        CampaignConfig::sized(true, None, None)
    }
}

/// One plan's campaign record.
#[derive(Debug, Clone)]
pub struct PlanRecord {
    /// Seed the plan was generated from.
    pub seed: u64,
    /// Plan index within the seed.
    pub index: u64,
    /// Testbed it ran on.
    pub layout: PlanLayout,
    /// Actions in the plan.
    pub actions: usize,
    /// The double-run result.
    pub report: PlanRunReport,
    /// The minimal reproducer, when the plan failed.
    pub reproducer: Option<FaultPlan>,
}

/// The whole campaign's result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Every plan, seed-major.
    pub records: Vec<PlanRecord>,
    /// Requests per plan.
    pub requests: u64,
    /// Plans executed per host-second (each plan runs twice).
    pub plans_per_sec: f64,
}

impl CampaignReport {
    /// Contract breaches, one line per oracle violation.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for r in &self.records {
            for v in &r.report.violations {
                out.push(format!(
                    "{} seed {} plan {}: {v}",
                    r.layout.name(),
                    r.seed,
                    r.index
                ));
            }
        }
        out
    }

    /// Renders the per-plan table.
    pub fn render_table(&self) -> String {
        const COLUMNS: [Column; 10] = [
            Column::left("layout", 9),
            Column::right("seed", 4),
            Column::right("plan", 4),
            Column::right("actions", 7),
            Column::right("applied", 7),
            Column::right("skipped", 7),
            Column::right("reboots", 7),
            Column::right("resolved", 8),
            Column::right("det", 4),
            Column::left("fingerprint", 16).wide(),
        ];
        let mut out = sweep::header(&COLUMNS);
        for r in &self.records {
            out.push_str(&sweep::row(
                &COLUMNS,
                &[
                    r.layout.name().to_string(),
                    r.seed.to_string(),
                    r.index.to_string(),
                    r.actions.to_string(),
                    r.report.applied.to_string(),
                    r.report.skipped.to_string(),
                    r.report.reboots.to_string(),
                    r.report.resolved.to_string(),
                    (if r.report.deterministic { "yes" } else { "NO" }).to_string(),
                    format!("{:016x}", r.report.fingerprint),
                ],
            ));
            for v in &r.report.violations {
                let _ = writeln!(out, "    VIOLATION: {v}");
            }
        }
        let violations: usize = self.records.iter().map(|r| r.report.violations.len()).sum();
        let _ = writeln!(
            out,
            "\n{} plans (each run twice), {} violations, {:.2} plans/sec",
            self.records.len(),
            violations,
            self.plans_per_sec,
        );
        out
    }

    /// The pinned rows, one per plan: what the plan did and its trace
    /// fingerprint, at the requests per plan.
    pub fn bench(&self) -> Bench {
        let rows = self
            .records
            .iter()
            .map(|r| {
                Row::new()
                    .text("layout", r.layout.name())
                    .int("seed", r.seed)
                    .int("plan", r.index)
                    .int("requests_per_plan", self.requests)
                    .int("actions", r.actions as u64)
                    .int("applied", r.report.applied)
                    .int("skipped", r.report.skipped)
                    .int("reboots", r.report.reboots)
                    .int("resolved", r.report.resolved)
                    .int("violations", r.report.violations.len() as u64)
                    .text("fingerprint", format!("{:#x}", r.report.fingerprint))
            })
            .collect();
        Bench {
            name: "chaos",
            rows,
        }
    }
}

/// Runs the campaign: per seed, `plans_per_seed` generated plans with
/// layouts alternating, every plan executed twice and held to the
/// oracle. Failing plans are shrunk to minimal reproducers on the
/// spot.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let started = std::time::Instant::now();
    let mut records = Vec::new();
    for &seed in &cfg.seeds {
        for index in 0..cfg.plans_per_seed {
            let layout = if index % 2 == 0 {
                PlanLayout::Failover
            } else {
                PlanLayout::Nvdimm
            };
            let plan = FaultPlan::generate(layout, seed, index, cfg.intensity, cfg.requests);
            let report = run_plan(&plan);
            let reproducer = if report.clean() {
                None
            } else {
                shrink(&plan).map(|(minimal, _)| minimal)
            };
            records.push(PlanRecord {
                seed,
                index,
                layout,
                actions: plan.actions.len(),
                report,
                reproducer,
            });
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let plans = records.len() as f64;
    CampaignReport {
        records,
        requests: cfg.requests,
        plans_per_sec: if elapsed > 0.0 { plans / elapsed } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_plans_are_deterministic_and_sorted() {
        let a = FaultPlan::generate(PlanLayout::Failover, 3, 1, 6, 96);
        let b = FaultPlan::generate(PlanLayout::Failover, 3, 1, 6, 96);
        assert_eq!(a, b);
        assert!(a.actions.windows(2).all(|w| w[0].at_step <= w[1].at_step));
        let c = FaultPlan::generate(PlanLayout::Failover, 3, 2, 6, 96);
        assert_ne!(a, c, "different index must give a different plan");
    }

    #[test]
    fn plans_round_trip_through_json() {
        for (layout, seed) in [(PlanLayout::Failover, 5), (PlanLayout::Nvdimm, 9)] {
            let plan = FaultPlan::generate(layout, seed, 0, 8, 96);
            let json = plan.to_json();
            let back = FaultPlan::from_json(&json).expect("parse back");
            assert_eq!(plan, back, "{json}");
        }
        // A sabotage action (never generated) round-trips too.
        let plan = FaultPlan {
            layout: PlanLayout::Failover,
            seed: 1,
            requests: 48,
            gap: DEFAULT_GAP,
            actions: vec![PlannedAction {
                at_step: 40,
                action: PlanAction::Fault(FaultAction::Sabotage { slot: 2, addr: 0 }),
            }],
        };
        let back = FaultPlan::from_json(&plan.to_json()).expect("parse back");
        assert_eq!(plan, back);
        // The overload-trigger actions round-trip too.
        let plan = FaultPlan {
            layout: PlanLayout::Failover,
            seed: 1,
            requests: 48,
            gap: DEFAULT_GAP,
            actions: vec![
                PlannedAction {
                    at_step: 8,
                    action: PlanAction::Fault(FaultAction::SlowChannel {
                        slot: 2,
                        window: SimTime::from_us(25),
                    }),
                },
                PlannedAction {
                    at_step: 12,
                    action: PlanAction::TrafficSpike {
                        gap: SimTime::from_ns(100),
                        steps: 16,
                    },
                },
            ],
        };
        let back = FaultPlan::from_json(&plan.to_json()).expect("parse back");
        assert_eq!(plan, back);
        assert!(FaultPlan::from_json("{}").is_err());
        assert!(FaultPlan::from_json("not json at all").is_err());
    }

    #[test]
    fn clean_plan_upholds_the_contract_twice() {
        let plan = FaultPlan::generate(PlanLayout::Failover, 1, 0, 4, 72);
        let r = run_plan(&plan);
        assert!(r.clean(), "violations: {:?}", r.violations);
        assert!(r.deterministic);
        assert_eq!(r.resolved, plan.requests);
    }

    #[test]
    fn nvdimm_plan_with_power_cut_upholds_the_contract() {
        let mut plan = FaultPlan::generate(PlanLayout::Nvdimm, 2, 1, 4, 72);
        plan.actions.push(PlannedAction {
            at_step: 36,
            action: PlanAction::Fault(FaultAction::PowerCut {
                outage: SimTime::from_us(60),
            }),
        });
        plan.actions.sort_by_key(|a| a.at_step);
        let r = run_plan(&plan);
        assert!(r.clean(), "violations: {:?}", r.violations);
        assert!(r.reboots >= 1, "the added cut must fire");
    }

    #[test]
    fn seeded_sabotage_is_caught_shrunk_and_replayable() {
        // Key 1 of the chaos load stripes to line 0 of the victim
        // region. Sabotage rewrites that line behind the controller's
        // back with no poison — exactly the silent corruption the
        // oracle exists to catch. The seed is searched so the load
        // acks a store to the line before the sabotage fires and none
        // after (a later ack would legitimately overwrite it).
        let requests = 96u64;
        let make_plan = |seed: u64| {
            let mut plan = FaultPlan::generate(PlanLayout::Failover, seed, 0, 3, requests);
            plan.actions.push(PlannedAction {
                at_step: requests * 3 / 4,
                action: PlanAction::Fault(FaultAction::Sabotage {
                    slot: VICTIM_SLOT,
                    addr: 0,
                }),
            });
            plan.actions.sort_by_key(|a| a.at_step);
            plan
        };
        let plan = (1..=24)
            .map(make_plan)
            .find(|plan| {
                run_plan_once(plan)
                    .violations
                    .iter()
                    .any(|v| matches!(v, Violation::SilentCorruption { .. }))
            })
            .expect("some seed must expose the sabotage");
        let actions_before = plan.actions.len();
        let (minimal, kind) = shrink(&plan).expect("failing plan must shrink");
        assert_eq!(kind, "silent-corruption");
        assert!(
            minimal.actions.len() <= 3,
            "minimal plan still has {} actions (from {actions_before})",
            minimal.actions.len()
        );
        assert!(minimal
            .actions
            .iter()
            .any(|a| matches!(a.action, PlanAction::Fault(FaultAction::Sabotage { .. }))));
        // The reproducer survives serialization and replays the same
        // violation deterministically (full double-run).
        let replayed = FaultPlan::from_json(&minimal.to_json()).expect("reproducer parses");
        assert_eq!(minimal, replayed);
        let report = run_plan(&replayed);
        assert!(report.deterministic);
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind() == "silent-corruption"));
    }

    #[test]
    fn checkpoint_actions_round_trip_through_json() {
        let plan = FaultPlan {
            layout: PlanLayout::Nvdimm,
            seed: 3,
            requests: 48,
            gap: DEFAULT_GAP,
            actions: vec![
                PlannedAction {
                    at_step: 8,
                    action: PlanAction::Checkpoint,
                },
                PlannedAction {
                    at_step: 24,
                    action: PlanAction::RestoreLatest,
                },
            ],
        };
        let back = FaultPlan::from_json(&plan.to_json()).expect("parse back");
        assert_eq!(plan, back);
    }

    #[test]
    fn checkpoint_rewind_plan_upholds_the_contract() {
        // A rewind across live faults: noise lands between the
        // checkpoint and the restore, so the whole window — faults,
        // in-flight requests, acks — must un-happen cleanly, on both
        // layouts, twice each.
        for layout in [PlanLayout::Failover, PlanLayout::Nvdimm] {
            let plan = FaultPlan {
                layout,
                seed: 7,
                requests: 72,
                gap: DEFAULT_GAP,
                actions: vec![
                    PlannedAction {
                        at_step: 12,
                        action: PlanAction::Checkpoint,
                    },
                    PlannedAction {
                        at_step: 20,
                        action: PlanAction::Fault(FaultAction::LinkNoise {
                            slot: 2,
                            down: 0.01,
                            up: 0.005,
                            seed: 99,
                        }),
                    },
                    PlannedAction {
                        at_step: 36,
                        action: PlanAction::RestoreLatest,
                    },
                ],
            };
            let r = run_plan(&plan);
            assert!(r.clean(), "{layout:?} violations: {:?}", r.violations);
            assert!(r.deterministic, "{layout:?} rewind must be deterministic");
            // Checkpoint, noise and restore all applied.
            assert_eq!(r.applied, 3, "{layout:?}");
        }
    }

    #[test]
    fn rewind_across_a_power_cut_discards_the_wipe() {
        // Cut the power after the checkpoint, then rewind across the
        // reboot: the wipe belongs to the abandoned timeline and must
        // not excuse (or demand) anything in the oracle's replay.
        let plan = FaultPlan {
            layout: PlanLayout::Nvdimm,
            seed: 11,
            requests: 72,
            gap: DEFAULT_GAP,
            actions: vec![
                PlannedAction {
                    at_step: 10,
                    action: PlanAction::Checkpoint,
                },
                PlannedAction {
                    at_step: 24,
                    action: PlanAction::Fault(FaultAction::PowerCut {
                        outage: SimTime::from_us(60),
                    }),
                },
                PlannedAction {
                    at_step: 40,
                    action: PlanAction::RestoreLatest,
                },
            ],
        };
        let r = run_plan(&plan);
        assert!(r.clean(), "violations: {:?}", r.violations);
        assert!(r.deterministic);
        assert_eq!(r.reboots, 1, "the cut fired before the rewind");
    }

    #[test]
    fn restore_without_a_checkpoint_is_skipped() {
        let plan = FaultPlan {
            layout: PlanLayout::Failover,
            seed: 5,
            requests: 48,
            gap: DEFAULT_GAP,
            actions: vec![PlannedAction {
                at_step: 8,
                action: PlanAction::RestoreLatest,
            }],
        };
        let r = run_plan(&plan);
        assert!(r.clean(), "violations: {:?}", r.violations);
        assert_eq!(r.skipped, 1);
        assert_eq!(r.applied, 0);
    }

    #[test]
    fn shrinker_keeps_the_checkpoint_a_failing_rewind_needs() {
        // Sabotage between checkpoint and restore: the corruption is
        // un-happened by the rewind, so the failure needs sabotage
        // *after* the rewind window — build a plan whose sabotage
        // fires post-restore and check shrinking never drops the
        // sabotage while hunting, and that checkpoint/restore actions
        // survive shrinking only if they matter.
        let requests = 96u64;
        let make_plan = |seed: u64| FaultPlan {
            layout: PlanLayout::Failover,
            seed,
            requests,
            gap: DEFAULT_GAP,
            actions: vec![
                PlannedAction {
                    at_step: 8,
                    action: PlanAction::Checkpoint,
                },
                PlannedAction {
                    at_step: 16,
                    action: PlanAction::RestoreLatest,
                },
                PlannedAction {
                    at_step: requests * 3 / 4,
                    action: PlanAction::Fault(FaultAction::Sabotage {
                        slot: VICTIM_SLOT,
                        addr: 0,
                    }),
                },
            ],
        };
        let plan = (1..=24)
            .map(make_plan)
            .find(|plan| {
                run_plan_once(plan)
                    .violations
                    .iter()
                    .any(|v| matches!(v, Violation::SilentCorruption { .. }))
            })
            .expect("some seed must expose the sabotage");
        let (minimal, kind) = shrink(&plan).expect("failing plan must shrink");
        assert_eq!(kind, "silent-corruption");
        assert!(minimal
            .actions
            .iter()
            .any(|a| matches!(a.action, PlanAction::Fault(FaultAction::Sabotage { .. }))));
        // The minimal reproducer (with or without the rewind pair)
        // still replays the violation after a JSON round trip.
        let replayed = FaultPlan::from_json(&minimal.to_json()).expect("reproducer parses");
        assert_eq!(minimal, replayed);
        assert!(run_plan(&replayed)
            .violations
            .iter()
            .any(|v| v.kind() == "silent-corruption"));
    }
}
