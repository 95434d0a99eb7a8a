//! Differential check of event-horizon stepping.
//!
//! `DmiChannel::run_until` applies idle stretches of the link in closed
//! form; `DmiChannel::step` simulates one frame slot and is the
//! reference. Each case drives two identically built channels through
//! the same seeded schedule of reads, writes, gaps, fault windows,
//! degrade windows and retrains. Gaps pass on one twin through
//! `run_until` and on the other through a loop of `step()` calls. After
//! every call the twins must agree on the clock, the snapshot image,
//! the trace fingerprint and rendering, the metrics registry and every
//! polled result.

use contutto_system::centaur::{Centaur, CentaurConfig};
use contutto_system::contutto::{ConTutto, ContuttoConfig, MemoryPopulation};
use contutto_system::dmi::{BitErrorInjector, CacheLine, CommandOp};
use contutto_system::power8::channel::{ChannelConfig, DmiChannel, RetryPolicy};
use contutto_system::sim::{SimRng, SimTime, Tracer};

/// Trace ring of the traced cases: smaller than the records of one
/// long idle jump, so jumps evict from the ring.
const RING: usize = 97;

#[derive(Debug, Clone, Copy)]
enum Buffer {
    Centaur,
    ConTutto,
}

#[derive(Debug, Clone, Copy)]
enum Injector {
    Never,
    AtFrames,
    Bernoulli,
}

impl Injector {
    fn build(self, seed: u64) -> BitErrorInjector {
        match self {
            Injector::Never => BitErrorInjector::never(),
            Injector::AtFrames => {
                let mut rng = SimRng::seed_from_u64(seed);
                BitErrorInjector::at_frames((0..40).map(|_| rng.gen_below(120_000)).collect())
            }
            Injector::Bernoulli => BitErrorInjector::bernoulli(0.0005, seed),
        }
    }
}

/// A policy short enough that blackouts time commands out, park their
/// tags in quarantine, retry them and escalate to a retrain.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        op_timeout: SimTime::from_us(2),
        max_attempts: 2,
        base_backoff: SimTime::from_ns(500),
        max_retrains: 1,
    }
}

fn channel(buffer: Buffer, down: BitErrorInjector, up: BitErrorInjector) -> DmiChannel {
    let (mut cfg, model): (_, Box<dyn contutto_system::dmi::DmiBuffer>) = match buffer {
        Buffer::Centaur => (
            ChannelConfig::centaur(),
            Box::new(Centaur::new(CentaurConfig::optimized(), 1 << 24)),
        ),
        Buffer::ConTutto => (
            ChannelConfig::contutto(),
            Box::new(ConTutto::new(
                ContuttoConfig::base(),
                MemoryPopulation::dram_8gb(),
            )),
        ),
    };
    cfg.down_errors = down;
    cfg.up_errors = up;
    let mut ch = DmiChannel::new(cfg, model);
    ch.set_retry_policy(fast_policy());
    ch
}

/// Two identical channels: `jump` passes gaps with `run_until`,
/// `step` with single slots.
struct Twins {
    jump: DmiChannel,
    step: DmiChannel,
    tracers: Option<(Tracer, Tracer)>,
    slot: SimTime,
    /// Each wire's injector kind, restored after a blackout.
    injectors: (Injector, Injector),
    results: usize,
}

impl Twins {
    fn new(buffer: Buffer, down: Injector, up: Injector, traced: bool, seed: u64) -> Self {
        let build = || channel(buffer, down.build(seed ^ 0xd0), up.build(seed ^ 0x0f));
        let (mut jump, mut step) = (build(), build());
        let tracers = traced.then(|| (jump.enable_tracing(RING), step.enable_tracing(RING)));
        let slot = match buffer {
            Buffer::Centaur => ChannelConfig::centaur().speed.frame_time(),
            Buffer::ConTutto => ChannelConfig::contutto().speed.frame_time(),
        };
        Twins {
            jump,
            step,
            tracers,
            slot,
            injectors: (down, up),
            results: 0,
        }
    }

    fn both(&mut self, f: impl Fn(&mut DmiChannel)) {
        f(&mut self.jump);
        f(&mut self.step);
    }

    /// Passes time up to `slots` frame slots (plus `extra_ps`, so the
    /// target may fall between slots) on both twins, then compares.
    fn gap(&mut self, slots: u64, extra_ps: u64, ctx: &str) {
        let t = self.jump.now() + self.slot * slots + SimTime::from_ps(extra_ps);
        self.jump.run_until(t);
        while self.step.now() < t {
            self.step.step();
        }
        self.compare(ctx);
    }

    fn compare(&mut self, ctx: &str) {
        assert_eq!(self.jump.now(), self.step.now(), "{ctx}: clock");
        let (mut a, mut b) = (Vec::new(), Vec::new());
        self.jump.snapshot_state(&mut a);
        self.step.snapshot_state(&mut b);
        assert!(a == b, "{ctx}: snapshot images differ");
        if let Some((ta, tb)) = &self.tracers {
            assert_eq!(ta.fingerprint(), tb.fingerprint(), "{ctx}: fingerprint");
            assert_eq!(ta.render(), tb.render(), "{ctx}: trace render");
        }
        assert_eq!(
            self.jump.metrics().render(),
            self.step.metrics().render(),
            "{ctx}: metrics"
        );
        loop {
            let (ra, rb) = (self.jump.poll_command(), self.step.poll_command());
            assert_eq!(ra, rb, "{ctx}: polled result");
            if ra.is_none() {
                break;
            }
            self.results += 1;
        }
        assert_eq!(
            self.jump.take_completions(),
            self.step.take_completions(),
            "{ctx}: raw completions"
        );
    }
}

/// Runs one seeded schedule and returns how many command results the
/// twins agreed on.
fn run_schedule(twins: &mut Twins, seed: u64, ops: usize) -> usize {
    let mut rng = SimRng::seed_from_u64(seed);
    for op in 0..ops {
        let ctx = format!("seed {seed} op {op}");
        match rng.gen_below(100) {
            0..=24 => {
                let addr = rng.gen_below(64) * 128;
                twins.both(|ch| {
                    ch.enqueue_command(CommandOp::Read { addr });
                });
            }
            25..=29 => {
                let addr = rng.gen_below(64) * 128;
                let budget = SimTime::from_ns(rng.gen_range(50..3_000));
                twins.both(|ch| {
                    let deadline = ch.now() + budget;
                    ch.enqueue_command_deadline(CommandOp::Read { addr }, Some(deadline));
                });
            }
            30..=49 => {
                let addr = rng.gen_below(64) * 128;
                let data = CacheLine::patterned(rng.next_u64());
                twins.both(|ch| {
                    ch.enqueue_command(CommandOp::Write { addr, data });
                });
            }
            50..=54 => {
                let window = SimTime::from_ns(rng.gen_range(200..6_000));
                twins.both(|ch| ch.degrade_for(window));
            }
            55..=57 => {
                // A blackout of one wire: commands in flight time out,
                // quarantine their tags, retry and may escalate. Then
                // the wire gets a fresh injector of its case's kind.
                let seed = rng.next_u64();
                let down = rng.gen_below(2) == 0;
                let (down_kind, up_kind) = twins.injectors;
                let set = |ch: &mut DmiChannel, injector: BitErrorInjector| {
                    if down {
                        ch.set_down_injector(injector);
                    } else {
                        ch.set_up_injector(injector);
                    }
                };
                twins.both(|ch| set(ch, BitErrorInjector::bernoulli(1.0, seed)));
                let slots = rng.gen_range(500..4_000);
                twins.gap(slots, 0, &ctx);
                let kind = if down { down_kind } else { up_kind };
                twins.both(|ch| set(ch, kind.build(seed)));
            }
            59..=61 => {
                // Deadlines shorter than the buffer's turnaround expire
                // while the link idles, waiting for the response.
                let policy = if rng.gen_below(2) == 0 {
                    RetryPolicy {
                        op_timeout: SimTime::from_ns(rng.gen_range(10..600)),
                        ..fast_policy()
                    }
                } else {
                    fast_policy()
                };
                twins.both(|ch| ch.set_retry_policy(policy.clone()));
            }
            58 => {
                let (a, b) = (twins.jump.retrain(), twins.step.retrain());
                assert_eq!(a, b, "{ctx}: retrain outcome");
            }
            _ => {
                // Gaps from a few slots (mid-burst) to thousands (many
                // wraps of the 128-entry sequence space).
                let slots = match rng.gen_below(4) {
                    0 => rng.gen_below(8),
                    1 => rng.gen_range(8..200),
                    2 => rng.gen_range(200..1_500),
                    _ => rng.gen_range(1_500..6_000),
                };
                let extra_ps = rng.gen_below(2) * rng.gen_below(twins.slot.as_ps());
                twins.gap(slots, extra_ps, &ctx);
            }
        }
        twins.compare(&ctx);
    }
    // Drain everything still in flight.
    twins.gap(20_000, 0, &format!("seed {seed} drain"));
    twins.results
}

fn check_cases(cases: &[(Buffer, Injector, Injector, bool)], ops: usize) {
    // Every ladder rung and window kind must occur somewhere in the set.
    let mut totals = [
        ("channel.retries_scheduled", 0),
        ("channel.link_retrains", 0),
        ("channel.degrade_windows", 0),
        ("channel.tags_reclaimed", 0),
    ];
    for (i, &(buffer, down, up, traced)) in cases.iter().enumerate() {
        let seed = 0x5eed + i as u64;
        let mut twins = Twins::new(buffer, down, up, traced, seed);
        let results = run_schedule(&mut twins, seed, ops);
        let m = twins.jump.metrics();
        for (counter, total) in totals.iter_mut() {
            *total += m.counter(counter);
        }
        assert!(
            results > 0,
            "{buffer:?} {down:?}/{up:?} traced={traced}: no command finished"
        );
    }
    for (counter, total) in totals {
        assert!(total > 0, "no case exercised {counter}");
    }
}

#[test]
fn clean_links_jump_like_they_step() {
    use Injector::Never;
    check_cases(
        &[
            (Buffer::ConTutto, Never, Never, true),
            (Buffer::ConTutto, Never, Never, false),
            (Buffer::Centaur, Never, Never, true),
            (Buffer::Centaur, Never, Never, false),
        ],
        120,
    );
}

#[test]
fn scheduled_errors_jump_like_they_step() {
    use Injector::{AtFrames, Never};
    check_cases(
        &[
            (Buffer::ConTutto, AtFrames, Never, true),
            (Buffer::ConTutto, Never, AtFrames, false),
            (Buffer::Centaur, AtFrames, AtFrames, true),
            (Buffer::Centaur, Never, AtFrames, false),
        ],
        120,
    );
}

#[test]
fn random_errors_jump_like_they_step() {
    use Injector::{AtFrames, Bernoulli, Never};
    check_cases(
        &[
            (Buffer::ConTutto, Bernoulli, Never, true),
            (Buffer::ConTutto, Never, Bernoulli, true),
            (Buffer::Centaur, Bernoulli, AtFrames, false),
            (Buffer::Centaur, Bernoulli, Bernoulli, true),
        ],
        120,
    );
}

#[test]
fn an_idle_gap_longer_than_one_jump_matches_stepping() {
    // 200,000 clean idle slots take several maximal jumps back to back.
    // That the jump engages at all is shown by `tests/alloc_guard.rs`:
    // an idle run allocates no frames.
    let mut twins = Twins::new(Buffer::ConTutto, Injector::Never, Injector::Never, true, 1);
    twins.gap(64, 0, "warm-up");
    twins.gap(200_000, 0, "long idle gap");
}
