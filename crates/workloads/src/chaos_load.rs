//! The chaos-campaign load driver: a deterministic key/value loop
//! whose every store is remembered.
//!
//! [`TrafficEngine`](crate::traffic::TrafficEngine) measures *latency*
//! under faults; this driver exists to check *durability*. It issues a
//! deterministic mix of loads and versioned stores against a booted
//! [`Power8System`] while a per-step hook injects faults, and it keeps
//! a [`StoreEvent`] ledger: for every store, the address, the exact
//! line written, when it was submitted, and how it ended (acked,
//! errored, orphaned by a power cut). The chaos oracle replays that
//! ledger against the post-run system to decide whether any
//! acknowledged write was silently lost — without the ledger there is
//! nothing to hold the system to.
//!
//! Determinism is load-bearing: same seed + same hook decisions ⇒
//! byte-identical ledger and report, which is what lets the campaign
//! run every plan twice and diff the fingerprints.

use std::collections::BTreeMap;

use contutto_dmi::command::CacheLine;
use contutto_power8::system::{Power8System, ReqId};
use contutto_sim::{SimRng, SimTime};

/// Configuration for one chaos load run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosLoadConfig {
    /// Total requests to submit.
    pub requests: u64,
    /// Inter-submit gap; the hook may rewrite it mid-run (a
    /// traffic-rate step is a fault action too).
    pub gap: SimTime,
    /// Distinct keys; each maps to one line address.
    pub keys: u64,
    /// Fraction of requests that are loads (rest are stores).
    pub read_fraction: f64,
    /// Memory-level-parallelism window handed to the system.
    pub mlp_window: usize,
    /// RNG seed for the key/op stream.
    pub seed: u64,
}

impl Default for ChaosLoadConfig {
    fn default() -> Self {
        ChaosLoadConfig {
            requests: 256,
            gap: SimTime::from_ns(400),
            keys: 64,
            read_fraction: 0.5,
            mlp_window: 8,
            seed: 1,
        }
    }
}

/// How one store ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// Submitted but its completion never arrived before the run ended.
    Pending,
    /// Completed successfully at this time — the system *acknowledged*
    /// the write, so the oracle holds it durable.
    Acked(SimTime),
    /// Surfaced a typed error (submit refused or completion failed);
    /// the write may or may not have landed.
    Errored,
    /// Its in-flight record was wiped by a power cut; no ack was ever
    /// given.
    Orphaned,
    /// Submitted in a timeline the hook later abandoned by restoring
    /// an earlier snapshot. The store un-happened: its value must
    /// *not* be visible afterwards (seeing it is a resurrection), and
    /// any ack it collected before the rewind does not stand.
    RolledBack,
}

/// One store, as the driver saw it. The oracle's unit of evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreEvent {
    /// Physical line address written.
    pub phys: u64,
    /// Token whose [`CacheLine::patterned`] expansion was written —
    /// unique per store, so "which version survived?" is answerable.
    pub token: u64,
    /// When the store was submitted.
    pub submitted_at: SimTime,
    /// How it ended.
    pub outcome: StoreOutcome,
}

impl StoreEvent {
    /// The exact line this store wrote.
    pub fn line(&self) -> CacheLine {
        CacheLine::patterned(self.token)
    }
}

/// Per-iteration view handed to the hook.
#[derive(Debug, Clone, Copy)]
pub struct ChaosTick {
    /// Requests submitted so far — the plan's logical clock: fault
    /// actions trigger on this, not on wall-clock picoseconds, so a
    /// latency shift can't reorder a plan.
    pub step: u64,
    /// Requests resolved so far (completed + errors + orphaned).
    pub resolved: u64,
    /// Global simulated time.
    pub now: SimTime,
    /// Ledger length so far (stores submitted). A hook snapshotting
    /// the system records this alongside the image so a later rewind
    /// can tell the driver where the surviving ledger ends.
    pub stores: u64,
}

/// The checkpoint a hook just rewound to by restoring a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RewindPoint {
    /// Simulated time the restored snapshot was taken at.
    pub at: SimTime,
    /// Ledger length ([`ChaosTick::stores`]) when it was taken.
    pub stores: u64,
}

/// What the per-tick hook decided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookVerdict {
    /// New inter-submit gap (a traffic-rate step), if any.
    pub new_gap: Option<SimTime>,
    /// Set when the hook restored an earlier snapshot of the system:
    /// the driver demotes the abandoned timeline's ledger entries and
    /// realigns its clocks to the rewound present.
    pub rewound: Option<RewindPoint>,
}

impl HookVerdict {
    /// Change nothing this tick.
    pub const KEEP: HookVerdict = HookVerdict {
        new_gap: None,
        rewound: None,
    };
}

/// What a run produced: counters plus the full store ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosLoadReport {
    /// Requests submitted.
    pub submitted: u64,
    /// Of those, stores.
    pub stores: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that surfaced a typed error.
    pub errors: u64,
    /// Requests orphaned by a power cut.
    pub orphaned: u64,
    /// Every store, in submit order.
    pub ledger: Vec<StoreEvent>,
    /// Global time when the run finished.
    pub finished_at: SimTime,
}

impl ChaosLoadReport {
    /// The last store *acknowledged* per address, in ledger order.
    pub fn last_acked_by_addr(&self) -> BTreeMap<u64, StoreEvent> {
        let mut out = BTreeMap::new();
        for ev in &self.ledger {
            if matches!(ev.outcome, StoreOutcome::Acked(_)) {
                out.insert(ev.phys, *ev);
            }
        }
        out
    }
}

/// The driver itself: owns the key→address table for one layout.
#[derive(Debug, Clone)]
pub struct ChaosLoad {
    cfg: ChaosLoadConfig,
    addrs: Vec<u64>,
}

enum PendingKind {
    Load,
    /// Index into the ledger.
    Store(usize),
}

impl ChaosLoad {
    /// Builds the key table against the system's memory map, striping
    /// keys across every mapped region so faults on any slot are
    /// exercised.
    ///
    /// # Panics
    ///
    /// Panics if the system has no mapped memory.
    pub fn new(cfg: ChaosLoadConfig, sys: &Power8System) -> Self {
        let regions = sys.memory_map().regions();
        assert!(!regions.is_empty(), "system has no mapped memory");
        let keys = cfg.keys.max(1);
        let addrs = (0..keys)
            .map(|key| {
                let region = &regions[(key % regions.len() as u64) as usize];
                let lines = (region.os_size / 128).max(1);
                let line = (key / regions.len() as u64) % lines;
                region.base + line * 128
            })
            .collect();
        ChaosLoad { cfg, addrs }
    }

    /// Runs the load. `hook` fires once per engine iteration *before*
    /// any submission; it may mutate the system (that is the point)
    /// and returns a [`HookVerdict`]: a new inter-submit gap to model
    /// a traffic-rate step, and/or a [`RewindPoint`] after restoring
    /// an earlier snapshot. [`HookVerdict::KEEP`] changes nothing.
    ///
    /// On a rewind every in-flight request is resolved on the spot
    /// (its completion belongs to a timeline that no longer exists),
    /// ledger entries submitted after the checkpoint become
    /// [`StoreOutcome::RolledBack`], acks collected after the
    /// checkpoint are demoted to [`StoreOutcome::Orphaned`] (the
    /// restored system re-executes those writes, so they may or may
    /// not land again), and pacing restarts from the rewound clock.
    pub fn run<H>(&self, sys: &mut Power8System, mut hook: H) -> ChaosLoadReport
    where
        H: FnMut(&mut Power8System, &ChaosTick) -> HookVerdict,
    {
        sys.set_mlp_window(self.cfg.mlp_window);
        let mut rng = SimRng::seed_from_stream(self.cfg.seed, 0x006C_0AD5);
        let mut gap = self.cfg.gap;
        let mut next_submit = sys.now() + gap;
        let mut submitted = 0u64;
        let mut stores = 0u64;
        let mut completed = 0u64;
        let mut errors = 0u64;
        let mut orphaned = 0u64;
        let mut seq = 0u64;
        let mut ledger: Vec<StoreEvent> = Vec::new();
        let mut pending: BTreeMap<ReqId, PendingKind> = BTreeMap::new();
        loop {
            let tick = ChaosTick {
                step: submitted,
                resolved: completed + errors + orphaned,
                now: sys.now(),
                stores: ledger.len() as u64,
            };
            let verdict = hook(sys, &tick);
            if let Some(new_gap) = verdict.new_gap {
                gap = new_gap.max(SimTime::from_ps(1));
                next_submit = next_submit.min(sys.now() + gap);
            }
            if let Some(rp) = verdict.rewound {
                // The post-checkpoint timeline is abandoned: no
                // completion for anything in flight can ever arrive
                // (the restored system's re-completions carry request
                // ids we either already resolved or never issued).
                for (_, kind) in std::mem::take(&mut pending) {
                    orphaned += 1;
                    if let PendingKind::Store(idx) = kind {
                        ledger[idx].outcome = if idx as u64 >= rp.stores {
                            StoreOutcome::RolledBack
                        } else {
                            StoreOutcome::Orphaned
                        };
                    }
                }
                for (idx, ev) in ledger.iter_mut().enumerate() {
                    if idx as u64 >= rp.stores {
                        ev.outcome = StoreOutcome::RolledBack;
                    } else if matches!(ev.outcome, StoreOutcome::Acked(t) if t > rp.at) {
                        // Acked in the abandoned timeline: the write
                        // is in flight again and may or may not land.
                        ev.outcome = StoreOutcome::Orphaned;
                    }
                }
                // Pacing restarts from the rewound clock — do NOT
                // drag the restored system forward to abandoned time.
                next_submit = sys.now() + gap;
            } else {
                // A fault hook may have rebooted the system and moved
                // some channel clocks; keep every local clock at the
                // global now.
                sys.advance_to(tick.now.max(sys.now()));
            }
            while submitted < self.cfg.requests && next_submit <= sys.now() {
                let key = rng.gen_below(self.addrs.len() as u64);
                let phys = self.addrs[key as usize];
                submitted += 1;
                next_submit += gap;
                if rng.gen_bool(self.cfg.read_fraction) {
                    match sys.submit_load(phys) {
                        Ok(id) => {
                            pending.insert(id, PendingKind::Load);
                        }
                        Err(_) => errors += 1,
                    }
                } else {
                    stores += 1;
                    seq += 1;
                    // Unique per store: the high bits carry the key so
                    // a misrouted line is visibly foreign, the low
                    // bits the sequence so versions are ordered.
                    let token = (key << 40) | seq;
                    let event = StoreEvent {
                        phys,
                        token,
                        submitted_at: sys.now(),
                        outcome: StoreOutcome::Pending,
                    };
                    match sys.submit_store(phys, CacheLine::patterned(token)) {
                        Ok(id) => {
                            ledger.push(event);
                            pending.insert(id, PendingKind::Store(ledger.len() - 1));
                        }
                        Err(_) => {
                            errors += 1;
                            ledger.push(StoreEvent {
                                outcome: StoreOutcome::Errored,
                                ..event
                            });
                        }
                    }
                }
            }
            let finished = sys.poll();
            let progressed = !finished.is_empty();
            for (id, result) in finished {
                let Some(kind) = pending.remove(&id) else {
                    continue;
                };
                match result {
                    Ok(c) => {
                        completed += 1;
                        if let PendingKind::Store(idx) = kind {
                            ledger[idx].outcome = StoreOutcome::Acked(c.completed_at);
                        }
                    }
                    Err(_) => {
                        errors += 1;
                        if let PendingKind::Store(idx) = kind {
                            ledger[idx].outcome = StoreOutcome::Errored;
                        }
                    }
                }
            }
            if submitted >= self.cfg.requests && pending.is_empty() {
                break;
            }
            if !progressed {
                if pending.is_empty() {
                    sys.advance_to(next_submit.max(sys.now()));
                } else if sys.outstanding_reqs() == 0 {
                    // A power cut wiped the in-flight set; these
                    // completions can never arrive.
                    for (_, kind) in std::mem::take(&mut pending) {
                        orphaned += 1;
                        if let PendingKind::Store(idx) = kind {
                            ledger[idx].outcome = StoreOutcome::Orphaned;
                        }
                    }
                }
            }
        }
        ChaosLoadReport {
            submitted,
            stores,
            completed,
            errors,
            orphaned,
            ledger,
            finished_at: sys.now(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contutto_centaur::CentaurConfig;
    use contutto_power8::firmware::layouts;

    fn boot() -> Power8System {
        Power8System::boot(layouts::all_cdimm(CentaurConfig::optimized(), 4 << 30), 7)
            .expect("cdimm system must boot")
    }

    fn quick(seed: u64) -> ChaosLoadConfig {
        ChaosLoadConfig {
            requests: 96,
            keys: 32,
            seed,
            ..ChaosLoadConfig::default()
        }
    }

    #[test]
    fn every_request_resolves_and_the_ledger_matches() {
        let mut sys = boot();
        let load = ChaosLoad::new(quick(3), &sys);
        let r = load.run(&mut sys, |_, _| HookVerdict::KEEP);
        assert_eq!(r.submitted, 96);
        assert_eq!(r.completed + r.errors + r.orphaned, 96);
        assert_eq!(r.errors, 0);
        assert_eq!(r.ledger.len() as u64, r.stores);
        assert!(r.stores > 0, "mixed workload must include stores");
        assert!(r
            .ledger
            .iter()
            .all(|e| matches!(e.outcome, StoreOutcome::Acked(_))));
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let mut a = boot();
        let ra = ChaosLoad::new(quick(17), &a).run(&mut a, |_, _| HookVerdict::KEEP);
        let mut b = boot();
        let rb = ChaosLoad::new(quick(17), &b).run(&mut b, |_, _| HookVerdict::KEEP);
        assert_eq!(ra, rb);
    }

    #[test]
    fn last_acked_value_is_what_memory_holds() {
        // The mini-oracle: after a clean run, every address's last
        // acked token must be exactly what a load returns.
        let mut sys = boot();
        let load = ChaosLoad::new(quick(29), &sys);
        let r = load.run(&mut sys, |_, _| HookVerdict::KEEP);
        let last = r.last_acked_by_addr();
        assert!(!last.is_empty());
        for (phys, ev) in last {
            let (line, _) = sys.load_line(phys).expect("clean run, line readable");
            assert_eq!(line, ev.line(), "addr {phys:#x} lost its last ack");
        }
    }

    #[test]
    fn hook_rate_step_changes_pacing() {
        let mut slow = boot();
        let r_slow = ChaosLoad::new(quick(5), &slow).run(&mut slow, |_, tick| HookVerdict {
            new_gap: (tick.step == 8).then(|| SimTime::from_us(2)),
            rewound: None,
        });
        let mut fast = boot();
        let r_fast = ChaosLoad::new(quick(5), &fast).run(&mut fast, |_, _| HookVerdict::KEEP);
        assert_eq!(r_slow.submitted, r_fast.submitted);
        assert!(
            r_slow.finished_at > r_fast.finished_at,
            "throttled run must take longer ({} !> {})",
            r_slow.finished_at,
            r_fast.finished_at
        );
    }

    #[test]
    fn power_cut_orphans_are_typed_in_the_ledger() {
        let mut sys = boot();
        let cfg = ChaosLoadConfig {
            requests: 64,
            gap: SimTime::from_ps(100), // flood so plenty are in flight
            read_fraction: 0.0,
            ..quick(13)
        };
        let load = ChaosLoad::new(cfg, &sys);
        let mut cut = false;
        let r = load.run(&mut sys, |sys, tick| {
            if !cut && tick.resolved >= 8 {
                cut = true;
                let at = sys.now();
                let quiet = sys.power_cut(at);
                sys.reboot(quiet + SimTime::from_us(5))
                    .expect("reboot after cut");
            }
            HookVerdict::KEEP
        });
        assert!(r.orphaned > 0, "flood + cut must orphan something");
        assert_eq!(
            r.ledger
                .iter()
                .filter(|e| e.outcome == StoreOutcome::Orphaned)
                .count() as u64,
            r.orphaned
        );
        assert!(r.ledger.iter().all(|e| e.outcome != StoreOutcome::Pending));
    }

    #[test]
    fn rewind_demotes_the_abandoned_timeline() {
        let mut sys = boot();
        let cfg = ChaosLoadConfig {
            requests: 64,
            read_fraction: 0.0,
            ..quick(21)
        };
        let load = ChaosLoad::new(cfg, &sys);
        let mut checkpoint: Option<(Vec<u8>, RewindPoint)> = None;
        let mut rewound = false;
        let r = load.run(&mut sys, |sys, tick| {
            if checkpoint.is_none() && tick.step >= 8 {
                checkpoint = Some((
                    sys.snapshot(),
                    RewindPoint {
                        at: sys.now(),
                        stores: tick.stores,
                    },
                ));
                return HookVerdict::KEEP;
            }
            if !rewound && tick.step >= 32 {
                if let Some((image, rp)) = &checkpoint {
                    rewound = true;
                    sys.restore(image).expect("in-place restore");
                    return HookVerdict {
                        new_gap: None,
                        rewound: Some(*rp),
                    };
                }
            }
            HookVerdict::KEEP
        });
        assert!(rewound, "the hook must have fired");
        let rolled_back = r
            .ledger
            .iter()
            .filter(|e| e.outcome == StoreOutcome::RolledBack)
            .count();
        assert!(rolled_back > 0, "stores past the checkpoint must roll back");
        assert!(r.ledger.iter().all(|e| e.outcome != StoreOutcome::Pending));
        // Post-rewind stores resubmit and must still resolve cleanly.
        let cp_stores = checkpoint.expect("taken").1.stores;
        assert!(
            r.ledger[cp_stores as usize..]
                .iter()
                .any(|e| matches!(e.outcome, StoreOutcome::Acked(_))),
            "the surviving timeline must make progress after the rewind"
        );
    }
}
