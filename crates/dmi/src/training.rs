//! Link training and FRTL determination.
//!
//! Paper §2.3: "a Frame Round Trip Latency (FRTL) is calculated during
//! channel initialization, both by the processor and the memory
//! buffer. FRTL is determined by transmission of frames with specific
//! signatures and computing the latency between two such frames. ...
//! The processor, however, has a maximum tolerable FRTL value and the
//! latency through the FPGA must be lower than that."
//!
//! Paper §3.4: "link training often does not complete successfully in
//! a single try" — firmware retries the sequence, power-cycling only
//! the FPGA. [`LinkTrainer`] models the alignment stages with a
//! per-stage lock probability and a retry budget; the FRTL measurement
//! itself is performed with **real probe/echo frames** through the
//! link segments ([`measure_frtl`]).

use contutto_sim::persist_fields;
use contutto_sim::{Cycles, Frequency, SimRng, SimTime};

use crate::error::DmiError;
use crate::frame::{
    ControlKind, DownstreamFrame, DownstreamPayload, UpstreamFrame, UpstreamPayload,
};
use crate::link::LinkSegment;

/// Hard maximum FRTL tolerated by the POWER8 DMI master, in 2 GHz bus
/// cycles. The real value is proprietary; 400 cycles (200 ns) is chosen
/// so that the optimized ConTutto design fits with margin while the
/// naive FPGA design (clock-crossing FIFO + 4-stage CRC, paper
/// §3.3(ii)) does not.
pub const MAX_FRTL_BUS_CYCLES: u64 = 400;

/// Stages of the link-training sequence (paper §3.3(i): "bit, word and
/// frame-level alignment and link training before any functional loads
/// & stores").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrainingState {
    /// Per-lane bit alignment (CDR lock on ConTutto's receive side).
    BitAlign,
    /// Word alignment within each lane.
    WordAlign,
    /// Frame boundary alignment across lanes.
    FrameAlign,
    /// Scrambler synchronization.
    ScramblerSync,
    /// FRTL measurement with signature frames.
    FrtlMeasure,
    /// Training complete; functional traffic may flow.
    Done,
}

impl TrainingState {
    fn next(self) -> TrainingState {
        match self {
            TrainingState::BitAlign => TrainingState::WordAlign,
            TrainingState::WordAlign => TrainingState::FrameAlign,
            TrainingState::FrameAlign => TrainingState::ScramblerSync,
            TrainingState::ScramblerSync => TrainingState::FrtlMeasure,
            TrainingState::FrtlMeasure | TrainingState::Done => TrainingState::Done,
        }
    }
}

/// Result of a successful training run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainingOutcome {
    /// Measured frame round-trip latency.
    pub frtl: SimTime,
    /// FRTL expressed in 2 GHz bus cycles (the unit the processor's
    /// hardware limit is stated in).
    pub frtl_bus_cycles: Cycles,
    /// Training attempts used (≥1).
    pub attempts: u32,
}

persist_fields!(TrainingOutcome {
    frtl,
    frtl_bus_cycles,
    attempts
});

persist_fields!(TrainerConfig {
    lock_probability,
    max_attempts,
    bus,
    max_frtl_bus_cycles
});

/// Configuration for [`LinkTrainer`].
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Probability that one alignment stage locks on a given attempt.
    /// Real links lock most of the time; the paper's point is only
    /// that *occasional* failure must not require a system reboot.
    pub lock_probability: f64,
    /// Attempts before giving up (firmware retry budget, paper §3.4).
    pub max_attempts: u32,
    /// Bus clock in which the FRTL limit is expressed.
    pub bus: Frequency,
    /// Maximum FRTL the processor tolerates, in bus cycles.
    pub max_frtl_bus_cycles: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            lock_probability: 0.8,
            max_attempts: 16,
            bus: contutto_sim::time::clocks::POWER_BUS,
            max_frtl_bus_cycles: MAX_FRTL_BUS_CYCLES,
        }
    }
}

impl TrainerConfig {
    /// A configuration whose alignment stages lock with the given
    /// probability and the default retry budget — the knob the fault
    /// campaign's training-flakiness scenarios sweep (paper §3.4:
    /// "link training often does not complete successfully in a
    /// single try").
    ///
    /// # Panics
    ///
    /// Panics if `lock_probability` is not within `0.0..=1.0`.
    pub fn flaky(lock_probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&lock_probability),
            "lock probability must be within 0..=1"
        );
        TrainerConfig {
            lock_probability,
            ..TrainerConfig::default()
        }
    }
}

/// Measures FRTL by bouncing a real signature probe frame down the
/// channel and timing the echo, exactly as paper §2.3 describes.
///
/// `buffer_turnaround` is the far-end latency from probe reception to
/// echo transmission (the through-latency of the buffer's PHY + MBI).
///
/// Returns the measured round trip and its value in `bus` cycles.
pub fn measure_frtl(
    down: &mut LinkSegment<DownstreamFrame>,
    up: &mut LinkSegment<UpstreamFrame>,
    buffer_turnaround: SimTime,
    bus: Frequency,
) -> (SimTime, Cycles) {
    const SIGNATURE: u32 = 0xF17A_C0DE;
    let t0 = SimTime::ZERO;
    let probe = DownstreamFrame {
        seq: 0,
        ack: None,
        payload: DownstreamPayload::Control(ControlKind::FrtlProbe {
            signature: SIGNATURE,
        }),
    };
    down.transmit_frame(t0, probe);

    // Step time forward in frame slots until the probe lands.
    let slot = down.speed().frame_time();
    let mut now = t0;
    let arrival = loop {
        match down.receive_frame(now) {
            Some(rx) => {
                let frame = rx.expect("clean training channel");
                match frame.payload {
                    DownstreamPayload::Control(ControlKind::FrtlProbe { signature })
                        if signature == SIGNATURE =>
                    {
                        break now;
                    }
                    _ => unreachable!("only the probe is in flight"),
                }
            }
            None => now += slot,
        }
    };

    // Far end echoes after its turnaround latency.
    let echo_tx_time = arrival + buffer_turnaround;
    let echo = UpstreamFrame {
        seq: 0,
        ack: None,
        payload: UpstreamPayload::Control(ControlKind::FrtlEcho {
            signature: SIGNATURE,
        }),
    };
    up.transmit_frame(echo_tx_time, echo);

    let mut now = echo_tx_time;
    let roundtrip_end = loop {
        match up.receive_frame(now) {
            Some(rx) => {
                let frame = rx.expect("clean training channel");
                match frame.payload {
                    UpstreamPayload::Control(ControlKind::FrtlEcho { signature })
                        if signature == SIGNATURE =>
                    {
                        break now;
                    }
                    _ => unreachable!("only the echo is in flight"),
                }
            }
            None => now += slot,
        }
    };

    let frtl = roundtrip_end - t0;
    (frtl, bus.time_to_cycles_ceil(frtl))
}

/// Drives the training sequence for one channel.
#[derive(Debug)]
pub struct LinkTrainer {
    cfg: TrainerConfig,
    rng: SimRng,
    state: TrainingState,
}

impl LinkTrainer {
    /// Creates a trainer with a deterministic seed.
    pub fn new(cfg: TrainerConfig, seed: u64) -> Self {
        LinkTrainer {
            cfg,
            rng: SimRng::seed_from_u64(seed),
            state: TrainingState::BitAlign,
        }
    }

    /// Current FSM state.
    pub fn state(&self) -> TrainingState {
        self.state
    }

    /// Runs training to completion against a channel whose measured
    /// round trip (probe to echo) is `frtl`.
    ///
    /// # Errors
    ///
    /// * [`DmiError::FrtlExceeded`] if the round trip violates the
    ///   processor's hard limit — retrying cannot help, so this is
    ///   returned immediately (the firmware deconfigures the channel).
    /// * [`DmiError::TrainingFailed`] if alignment never locks within
    ///   the retry budget.
    pub fn train(&mut self, frtl: SimTime) -> Result<TrainingOutcome, DmiError> {
        let frtl_cycles = self.cfg.bus.time_to_cycles_ceil(frtl);
        for attempt in 1..=self.cfg.max_attempts {
            self.state = TrainingState::BitAlign;
            let mut locked = true;
            while self.state != TrainingState::FrtlMeasure {
                if self.rng.gen_bool(self.cfg.lock_probability) {
                    self.state = self.state.next();
                } else {
                    locked = false;
                    break;
                }
            }
            if !locked {
                continue; // firmware retry without bringing the system down
            }
            // FRTL check: a hardware property, independent of retries.
            if frtl_cycles.count() > self.cfg.max_frtl_bus_cycles {
                return Err(DmiError::FrtlExceeded {
                    measured_bus_cycles: frtl_cycles.count(),
                    max_bus_cycles: self.cfg.max_frtl_bus_cycles,
                });
            }
            self.state = TrainingState::Done;
            return Ok(TrainingOutcome {
                frtl,
                frtl_bus_cycles: frtl_cycles,
                attempts: attempt,
            });
        }
        Err(DmiError::TrainingFailed {
            attempts: self.cfg.max_attempts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{BitErrorInjector, LinkSpeed};

    fn segments() -> (LinkSegment<DownstreamFrame>, LinkSegment<UpstreamFrame>) {
        (
            LinkSegment::new(
                LinkSpeed::Gbps8,
                SimTime::from_ns(1),
                BitErrorInjector::never(),
            ),
            LinkSegment::new(
                LinkSpeed::Gbps8,
                SimTime::from_ns(1),
                BitErrorInjector::never(),
            ),
        )
    }

    #[test]
    fn frtl_measurement_accounts_for_wire_and_turnaround() {
        let (mut down, mut up) = segments();
        let turnaround = SimTime::from_ns(50);
        let (frtl, cycles) = measure_frtl(&mut down, &mut up, turnaround, Frequency::from_ghz(2));
        // Round trip >= 2 x (1 ns wire + 2 ns frame) + 50 ns turnaround.
        assert!(frtl >= SimTime::from_ns(56), "frtl = {frtl}");
        assert!(frtl <= SimTime::from_ns(60), "frtl = {frtl}");
        assert_eq!(cycles, Frequency::from_ghz(2).time_to_cycles_ceil(frtl));
    }

    #[test]
    fn frtl_scales_with_turnaround() {
        let (mut d1, mut u1) = segments();
        let (mut d2, mut u2) = segments();
        let bus = Frequency::from_ghz(2);
        let (fast, _) = measure_frtl(&mut d1, &mut u1, SimTime::from_ns(20), bus);
        let (slow, _) = measure_frtl(&mut d2, &mut u2, SimTime::from_ns(120), bus);
        let delta = slow - fast;
        // The difference is the turnaround difference, up to frame-slot
        // quantization (2 ns slots).
        assert!(
            delta >= SimTime::from_ns(98) && delta <= SimTime::from_ns(102),
            "delta {delta}"
        );
    }

    #[test]
    fn training_succeeds_within_budget() {
        let mut tr = LinkTrainer::new(TrainerConfig::default(), 3);
        let outcome = tr.train(SimTime::from_ns(120)).unwrap();
        assert!(outcome.attempts >= 1);
        assert_eq!(tr.state(), TrainingState::Done);
        assert_eq!(outcome.frtl_bus_cycles, Cycles(240));
    }

    #[test]
    fn training_retries_on_lock_failures() {
        // Low lock probability: with 4 stages at p=0.3, a single attempt
        // succeeds ~0.8% of the time, so retries are certain to occur.
        let cfg = TrainerConfig {
            lock_probability: 0.3,
            max_attempts: 4096,
            ..TrainerConfig::default()
        };
        let mut tr = LinkTrainer::new(cfg, 1);
        let outcome = tr.train(SimTime::from_ns(100)).unwrap();
        assert!(
            outcome.attempts > 1,
            "expected retries, got {}",
            outcome.attempts
        );
    }

    #[test]
    fn flaky_config_sets_lock_probability_only() {
        let cfg = TrainerConfig::flaky(0.25);
        let defaults = TrainerConfig::default();
        assert!((cfg.lock_probability - 0.25).abs() < f64::EPSILON);
        assert_eq!(cfg.max_attempts, defaults.max_attempts);
        assert_eq!(cfg.max_frtl_bus_cycles, defaults.max_frtl_bus_cycles);
    }

    #[test]
    #[should_panic(expected = "lock probability")]
    fn flaky_rejects_out_of_range() {
        let _ = TrainerConfig::flaky(1.5);
    }

    #[test]
    fn training_fails_after_budget() {
        let cfg = TrainerConfig {
            lock_probability: 0.0,
            max_attempts: 5,
            ..TrainerConfig::default()
        };
        let mut tr = LinkTrainer::new(cfg, 1);
        assert_eq!(
            tr.train(SimTime::from_ns(100)),
            Err(DmiError::TrainingFailed { attempts: 5 })
        );
    }

    #[test]
    fn frtl_over_limit_is_fatal_not_retried() {
        let mut tr = LinkTrainer::new(TrainerConfig::default(), 9);
        // 400 bus cycles at 2 GHz = 200 ns; 250 ns must fail.
        let err = tr.train(SimTime::from_ns(250)).unwrap_err();
        assert!(matches!(
            err,
            DmiError::FrtlExceeded {
                measured_bus_cycles: 500,
                max_bus_cycles: 400
            }
        ));
    }

    #[test]
    fn frtl_exactly_at_limit_passes() {
        let mut tr = LinkTrainer::new(TrainerConfig::default(), 9);
        let outcome = tr.train(SimTime::from_ns(200)).unwrap();
        assert_eq!(outcome.frtl_bus_cycles, Cycles(400));
    }

    #[test]
    fn state_progression() {
        assert_eq!(TrainingState::BitAlign.next(), TrainingState::WordAlign);
        assert_eq!(
            TrainingState::ScramblerSync.next(),
            TrainingState::FrtlMeasure
        );
        assert_eq!(TrainingState::Done.next(), TrainingState::Done);
    }
}
