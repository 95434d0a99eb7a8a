//! The unified fault-injection surface.
//!
//! Every fault the per-campaign harnesses inject by hand — link
//! bit-error windows, tag-hang blackouts, media flip storms, scrub
//! toggles, maintenance pulls, EPOW, surprise power cuts — is
//! expressible as one [`FaultAction`], and
//! [`Power8System::apply_fault_action`] routes it to the existing
//! injector for its layer. This is what lets a chaos plan (a
//! serialized, seed-generated list of actions) compose faults that no
//! hand-written campaign enumerates: a power cut mid-evacuation, a
//! scrub storm during a link retrain, noise on two channels at once.
//!
//! Actions are total: anything that cannot be applied against the
//! current layout (a slot with no channel, a buffer without media
//! hooks, a pull with no failover target) comes back as
//! [`FaultOutcome::Skipped`] with a reason — plan files are external
//! input and must never abort the process.

use contutto_dmi::{BitErrorInjector, MediaFaultSpec};
use contutto_sim::SimTime;

use crate::system::{Power8System, RebootReport};

/// One typed fault, applicable to any [`Power8System`] layout.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Bernoulli bit-error noise on a channel's wires. `down`/`up` are
    /// per-frame corruption probabilities (clamped to `[0, 1]`);
    /// `1.0` on both is a blackout — every frame dies, tags hang, and
    /// the recovery ladder (or failover) must dig the channel out.
    LinkNoise {
        /// Target slot.
        slot: usize,
        /// Downstream per-frame corruption probability.
        down: f64,
        /// Upstream per-frame corruption probability.
        up: f64,
        /// Seed for the noise streams (upstream is decorrelated).
        seed: u64,
    },
    /// Removes all injected noise from a channel's wires.
    LinkClear {
        /// Target slot.
        slot: usize,
    },
    /// Latency degradation: collapses the channel's tracked in-flight
    /// window to a single tag for `window` of channel time, modelling
    /// a link that still works but has gone slow (a retraining lane, a
    /// thermally throttled FPGA). The overload layer's metastable
    /// campaign uses this as its trigger: a slow — not dead — channel
    /// is what retry storms feed on.
    SlowChannel {
        /// Target slot.
        slot: usize,
        /// How long the degradation lasts, in channel time.
        window: SimTime,
    },
    /// A media fault burst on the DIMMs behind a slot: transient
    /// flips over a window starting now, concentrated in a hot range,
    /// plus permanently stuck cells.
    FlipStorm {
        /// Target slot.
        slot: usize,
        /// Seed for the burst's flip schedule.
        seed: u64,
        /// Transient flips to schedule.
        flips: u32,
        /// Window the flips land in, starting at the apply time.
        window: SimTime,
        /// First line-aligned byte of the hot range.
        hot_start: u64,
        /// Hot-range length in bytes.
        hot_len: u64,
        /// Stuck cells planted immediately.
        stuck: u32,
    },
    /// (Re)arms patrol scrub on a slot with the given interval.
    ScrubOn {
        /// Target slot.
        slot: usize,
        /// Scrub pass interval.
        interval: SimTime,
    },
    /// Disables patrol scrub on a slot.
    ScrubOff {
        /// Target slot.
        slot: usize,
    },
    /// Concurrent maintenance: pull the buffer card in `slot`.
    MaintenancePull {
        /// Slot being pulled.
        slot: usize,
    },
    /// Early-power-off warning: run the FSP flush cascade.
    Epow,
    /// Surprise mains cut (no EPOW), dark for `outage`, then reboot.
    PowerCut {
        /// How long the machine stays dark before power returns.
        outage: SimTime,
    },
    /// Test-only oracle bait: deposits garbage in a line over the
    /// sideband, bypassing the host's written-line bookkeeping and the
    /// poison marker — exactly the silent corruption the durability
    /// oracle exists to catch. Never emitted by the plan generator;
    /// constructed directly by shrinker/oracle tests and replayable
    /// from a reproducer file.
    Sabotage {
        /// Slot whose media is corrupted.
        slot: usize,
        /// Channel-local byte address of the line to clobber.
        addr: u64,
    },
}

/// What applying a [`FaultAction`] did.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultOutcome {
    /// The fault is armed/applied.
    Applied,
    /// The action included a power cut and the system rebooted.
    Rebooted(RebootReport),
    /// The machine could not come back from a power cut (too little
    /// memory retrained). Terminal for the run, but still typed.
    RebootFailed(String),
    /// The action was inapplicable to this layout; reason attached.
    Skipped(&'static str),
}

impl Power8System {
    /// Applies one typed fault at `now`, routing it to the injector
    /// that owns its layer. Inapplicable actions return
    /// [`FaultOutcome::Skipped`] rather than failing: a chaos plan is
    /// external input and must be safe against any layout.
    pub fn apply_fault_action(&mut self, now: SimTime, action: &FaultAction) -> FaultOutcome {
        match *action {
            FaultAction::LinkNoise {
                slot,
                down,
                up,
                seed,
            } => {
                let Some(ch) = self.channel_mut(slot) else {
                    return FaultOutcome::Skipped("no live channel in slot");
                };
                let noise = |p: f64, s: u64| {
                    let p = if p.is_finite() {
                        p.clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    if p > 0.0 {
                        BitErrorInjector::bernoulli(p, s)
                    } else {
                        BitErrorInjector::never()
                    }
                };
                ch.channel.set_down_injector(noise(down, seed));
                ch.channel
                    .set_up_injector(noise(up, seed.wrapping_add(0x9E37_79B9)));
                FaultOutcome::Applied
            }
            FaultAction::LinkClear { slot } => {
                let Some(ch) = self.channel_mut(slot) else {
                    return FaultOutcome::Skipped("no live channel in slot");
                };
                ch.channel.set_down_injector(BitErrorInjector::never());
                ch.channel.set_up_injector(BitErrorInjector::never());
                FaultOutcome::Applied
            }
            FaultAction::SlowChannel { slot, window } => {
                let Some(ch) = self.channel_mut(slot) else {
                    return FaultOutcome::Skipped("no live channel in slot");
                };
                ch.channel.degrade_for(window.max(SimTime::from_ps(1)));
                FaultOutcome::Applied
            }
            FaultAction::FlipStorm {
                slot,
                seed,
                flips,
                window,
                hot_start,
                hot_len,
                stuck,
            } => {
                let Some(ch) = self.channel_mut(slot) else {
                    return FaultOutcome::Skipped("no live channel in slot");
                };
                let spec = MediaFaultSpec {
                    seed,
                    transient_flips: flips,
                    window,
                    hot_start,
                    hot_len: hot_len.max(1),
                    stuck_cells: stuck,
                };
                if ch.channel.buffer_mut().arm_media_faults(now, spec) {
                    FaultOutcome::Applied
                } else {
                    FaultOutcome::Skipped("buffer has no fault-capable media")
                }
            }
            FaultAction::ScrubOn { slot, interval } => {
                let Some(ch) = self.channel_mut(slot) else {
                    return FaultOutcome::Skipped("no live channel in slot");
                };
                if ch.channel.buffer_mut().set_scrub(now, Some(interval)) {
                    FaultOutcome::Applied
                } else {
                    FaultOutcome::Skipped("buffer has no scrub engine")
                }
            }
            FaultAction::ScrubOff { slot } => {
                let Some(ch) = self.channel_mut(slot) else {
                    return FaultOutcome::Skipped("no live channel in slot");
                };
                if ch.channel.buffer_mut().set_scrub(now, None) {
                    FaultOutcome::Applied
                } else {
                    FaultOutcome::Skipped("buffer has no scrub engine")
                }
            }
            FaultAction::MaintenancePull { slot } => match self.maintenance_pull(slot) {
                Ok(()) => FaultOutcome::Applied,
                Err(_) => FaultOutcome::Skipped("pull would orphan mapped memory"),
            },
            FaultAction::Epow => {
                let _ = self.epow();
                FaultOutcome::Applied
            }
            FaultAction::PowerCut { outage } => {
                let at = now.max(self.now());
                let quiet = self.power_cut(at);
                match self.reboot(quiet + outage) {
                    Ok(report) => FaultOutcome::Rebooted(report),
                    Err(e) => FaultOutcome::RebootFailed(e.to_string()),
                }
            }
            FaultAction::Sabotage { slot, addr } => {
                let Some(ch) = self.channel_mut(slot) else {
                    return FaultOutcome::Skipped("no live channel in slot");
                };
                // Garbage that no workload pattern produces, deposited
                // clean (poison = false): undetectable at read time.
                let garbage = [0xB6u8; 128];
                if ch
                    .channel
                    .buffer_mut()
                    .sideband_write_line(addr, &garbage, false)
                {
                    FaultOutcome::Applied
                } else {
                    FaultOutcome::Skipped("no sideband path or address out of range")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firmware::SlotPopulation;
    use contutto_centaur::CentaurConfig;
    use contutto_core::{ContuttoConfig, MemoryPopulation};
    use contutto_dmi::command::CacheLine;

    fn system() -> Power8System {
        Power8System::boot(
            vec![
                SlotPopulation::Cdimm {
                    config: CentaurConfig::optimized(),
                    capacity: 1 << 30,
                },
                SlotPopulation::Empty,
                SlotPopulation::ConTutto {
                    config: ContuttoConfig::base(),
                    population: MemoryPopulation::dram_8gb(),
                },
            ],
            7,
        )
        .expect("boot")
    }

    #[test]
    fn actions_route_to_their_layers_or_skip_loudly() {
        let mut sys = system();
        let now = sys.now();
        // Media hooks exist on the ConTutto slot, not the Centaur one.
        let storm = |slot| FaultAction::FlipStorm {
            slot,
            seed: 5,
            flips: 8,
            window: SimTime::from_us(50),
            hot_start: 0,
            hot_len: 4096,
            stuck: 0,
        };
        assert_eq!(
            sys.apply_fault_action(now, &storm(2)),
            FaultOutcome::Applied
        );
        assert!(matches!(
            sys.apply_fault_action(now, &storm(0)),
            FaultOutcome::Skipped(_)
        ));
        assert!(matches!(
            sys.apply_fault_action(now, &storm(6)),
            FaultOutcome::Skipped(_)
        ));
        assert_eq!(
            sys.apply_fault_action(
                now,
                &FaultAction::ScrubOn {
                    slot: 2,
                    interval: SimTime::from_us(10),
                }
            ),
            FaultOutcome::Applied
        );
        assert_eq!(
            sys.apply_fault_action(now, &FaultAction::ScrubOff { slot: 2 }),
            FaultOutcome::Applied
        );
        assert_eq!(
            sys.apply_fault_action(now, &FaultAction::Epow),
            FaultOutcome::Applied
        );
        // No failover target: the pull is refused, typed, non-fatal.
        assert!(matches!(
            sys.apply_fault_action(now, &FaultAction::MaintenancePull { slot: 2 }),
            FaultOutcome::Skipped(_)
        ));
    }

    #[test]
    fn link_noise_clamps_hostile_probabilities_and_clears() {
        let mut sys = system();
        let now = sys.now();
        for p in [f64::NAN, f64::INFINITY, -3.0, 42.0] {
            assert_eq!(
                sys.apply_fault_action(
                    now,
                    &FaultAction::LinkNoise {
                        slot: 2,
                        down: p,
                        up: p,
                        seed: 1,
                    }
                ),
                FaultOutcome::Applied,
                "p = {p} must clamp, not panic"
            );
        }
        assert_eq!(
            sys.apply_fault_action(now, &FaultAction::LinkClear { slot: 2 }),
            FaultOutcome::Applied
        );
        // The channel still serves traffic after a clear.
        sys.store_line(0, CacheLine::patterned(1)).expect("store");
        let (line, _) = sys.load_line(0).expect("load");
        assert_eq!(line, CacheLine::patterned(1));
    }

    #[test]
    fn slow_channel_degrades_live_slots_and_skips_dead_ones() {
        let mut sys = system();
        let now = sys.now();
        let slow = |slot| FaultAction::SlowChannel {
            slot,
            window: SimTime::from_us(30),
        };
        assert_eq!(sys.apply_fault_action(now, &slow(2)), FaultOutcome::Applied);
        assert!(matches!(
            sys.apply_fault_action(now, &slow(1)),
            FaultOutcome::Skipped(_)
        ));
        // Degrade the channel serving address 0 too: a degraded channel
        // still completes traffic (window = 1, not 0).
        assert_eq!(sys.apply_fault_action(now, &slow(0)), FaultOutcome::Applied);
        sys.store_line(0, CacheLine::patterned(3)).expect("store");
        let (line, _) = sys.load_line(0).expect("load");
        assert_eq!(line, CacheLine::patterned(3));
    }

    #[test]
    fn power_cut_action_reboots_and_reports() {
        let mut sys = system();
        let now = sys.now();
        let out = sys.apply_fault_action(
            now,
            &FaultAction::PowerCut {
                outage: SimTime::from_ms(1),
            },
        );
        let FaultOutcome::Rebooted(report) = out else {
            panic!("expected a reboot, got {out:?}");
        };
        assert!(report.ready_at > now);
        assert!(sys.powered());
    }

    #[test]
    fn sabotage_corrupts_without_a_trace() {
        let mut sys = system();
        let value = CacheLine::patterned(9);
        sys.store_line(0, value).expect("store");
        let (slot, local) = sys.route(0).expect("mapped");
        let now = sys.now();
        assert_eq!(
            sys.apply_fault_action(now, &FaultAction::Sabotage { slot, addr: local }),
            FaultOutcome::Applied
        );
        // The load succeeds cleanly — no poison, no error — with the
        // wrong bytes. Only the durability oracle can catch this.
        let (read, _) = sys.load_line(0).expect("clean load");
        assert_ne!(read, value, "the line silently changed");
    }

    #[test]
    fn hostile_sabotage_address_is_skipped_not_a_panic() {
        // A reproducer is external input: an absurd or unaligned
        // address must come back as a typed skip, never abort the
        // process, on the Centaur (slot 0) and the ConTutto (slot 2).
        let mut sys = system();
        let now = sys.now();
        for slot in [0, 2] {
            for addr in [u64::MAX, u64::MAX - 64, 1 << 60, 1, 64] {
                assert_eq!(
                    sys.apply_fault_action(now, &FaultAction::Sabotage { slot, addr }),
                    FaultOutcome::Skipped("no sideband path or address out of range"),
                );
            }
        }
    }
}
