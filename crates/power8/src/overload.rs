//! Overload-resilience primitives: circuit breakers, deterministic
//! retry budgets, admission control, hedging and brownout policy.
//!
//! The recovery machinery built in earlier layers — the channel's
//! retry→retrain ladder, failover evacuation, patrol scrub — all
//! *generate load* exactly when capacity drops. Left ungoverned, that
//! feedback loop is the classic trigger for a metastable failure: the
//! system stays congested after the original fault clears because the
//! retry traffic alone exceeds the remaining capacity. This module
//! holds the policy objects the service path uses to break the loop:
//!
//! * [`RetryBudget`] — a global token bucket refilled by *successes*,
//!   so the aggregate retry rate is capped as a ratio of the success
//!   rate instead of multiplying under stress.
//! * [`CircuitBreaker`] — a per-channel closed → open → half-open
//!   machine wrapping the recovery ladder: a channel that keeps
//!   exhausting its ladder fast-fails new work for a fixed window,
//!   then probes with a bounded number of trial requests.
//! * [`AdmissionConfig`] — a bounded admission queue ahead of the
//!   in-flight window, with deadline-aware shedding: work that would
//!   blow its deadline while queued is rejected *before* issue.
//! * [`HedgeConfig`] — hedged reads for mirrored regions: a read stuck
//!   past a latency threshold issues a duplicate to the mirror; the
//!   first completion wins and the loser is cancelled.
//! * [`BrownoutConfig`] — under sustained queue pressure, background
//!   work (evacuation migration batches, patrol scrub) yields
//!   bandwidth to demand traffic.
//!
//! Everything here is integer/deterministic: same seed, same decision
//! sequence, byte-identical runs — the workspace's hard invariant.

use contutto_sim::persist_fields;
use contutto_sim::snapshot::{Persist, RestoreError, SnapReader};
use contutto_sim::SimTime;

/// Circuit-breaker states, the classic three-state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every request is admitted.
    Closed,
    /// Tripped: every request is rejected until the open window ends.
    Open,
    /// Probing: a bounded number of trial requests are admitted; enough
    /// successes close the breaker, any failure re-opens it.
    HalfOpen,
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive ladder-final failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker rejects before probing (deterministic:
    /// the first admission attempt at or past `opened_at + open_for`
    /// transitions to half-open).
    pub open_for: SimTime,
    /// Probe requests admitted concurrently while half-open.
    pub probe_budget: u32,
    /// Probe successes required to close again.
    pub close_after: u32,
    /// Distinct open transitions after which the FSP treats the
    /// channel as persistently failing and deconfigures it.
    pub deconfigure_after_opens: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 4,
            open_for: SimTime::from_us(40),
            probe_budget: 2,
            close_after: 3,
            deconfigure_after_opens: 8,
        }
    }
}

/// A per-channel circuit breaker wrapping the recovery ladder.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: SimTime,
    probes_in_flight: u32,
    probe_successes: u32,
    times_opened: u32,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: SimTime::ZERO,
            probes_in_flight: 0,
            probe_successes: 0,
            times_opened: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Open transitions so far — the FSP's persistence signal.
    pub fn times_opened(&self) -> u32 {
        self.times_opened
    }

    /// Admission decision for one request at `now`. Returns `true` when
    /// the request may proceed. An open breaker whose window has ended
    /// transitions to half-open here (the probe schedule is driven by
    /// the deterministic request stream, not wall time).
    pub fn admit(&mut self, now: SimTime) -> bool {
        if self.state == BreakerState::Open {
            if now < self.opened_at + self.cfg.open_for {
                return false;
            }
            self.state = BreakerState::HalfOpen;
            self.probes_in_flight = 0;
            self.probe_successes = 0;
        }
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => {
                if self.probes_in_flight < self.cfg.probe_budget {
                    self.probes_in_flight += 1;
                    true
                } else {
                    false
                }
            }
            BreakerState::Open => unreachable!("open handled above"),
        }
    }

    /// Records a successful completion. Returns `true` when this
    /// success closed a half-open breaker.
    pub fn on_success(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures = 0;
                false
            }
            BreakerState::HalfOpen => {
                self.probes_in_flight = self.probes_in_flight.saturating_sub(1);
                self.probe_successes += 1;
                if self.probe_successes >= self.cfg.close_after {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                    true
                } else {
                    false
                }
            }
            BreakerState::Open => false,
        }
    }

    /// Records a ladder-final failure. Returns `true` when this failure
    /// tripped the breaker open (closed past the threshold, or any
    /// half-open probe failure).
    pub fn on_failure(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.failure_threshold {
                    self.trip(now);
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                self.trip(now);
                true
            }
            BreakerState::Open => false,
        }
    }

    fn trip(&mut self, now: SimTime) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.consecutive_failures = 0;
        self.probes_in_flight = 0;
        self.probe_successes = 0;
        self.times_opened += 1;
    }

    /// This breaker's state under another tuning: a restored breaker
    /// takes the tuning of the restored overload policy.
    pub(crate) fn with_config(self, cfg: BreakerConfig) -> Self {
        CircuitBreaker { cfg, ..self }
    }

    contutto_sim::state_fields! {
        /// Serializes the breaker's dynamic state (the tuning is a
        /// construction parameter the restorer already holds).
        pub {
            state,
            consecutive_failures,
            opened_at,
            probes_in_flight,
            probe_successes,
            times_opened,
        }
    }
}

impl Persist for BreakerState {
    fn persist(&self, out: &mut Vec<u8>) {
        out.push(match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        });
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        match r.u8()? {
            0 => Ok(BreakerState::Closed),
            1 => Ok(BreakerState::Open),
            2 => Ok(BreakerState::HalfOpen),
            _ => Err(RestoreError::Malformed {
                context: "breaker state discriminant",
            }),
        }
    }
}

/// Retry-budget tuning: the token bucket's refill ratio and burst cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudgetConfig {
    /// Milli-tokens granted per successful completion. 100 caps the
    /// sustained retry rate at 10 % of the success rate; 1000 allows
    /// one retry per success.
    pub refill_per_success_milli: u64,
    /// Bucket capacity in whole tokens — the burst of retries allowed
    /// from a full bucket before the ratio governs.
    pub burst: u64,
}

impl Default for RetryBudgetConfig {
    fn default() -> Self {
        RetryBudgetConfig {
            refill_per_success_milli: 100,
            burst: 10,
        }
    }
}

/// A deterministic token-bucket retry budget, shared between the
/// channel ladder's backoff retries and traffic-layer client retries.
/// All integer arithmetic: refills are milli-tokens per success, spends
/// are whole tokens, so the retry:success ratio is exact.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    cfg: RetryBudgetConfig,
    milli: u64,
    spent: u64,
    denied: u64,
}

impl RetryBudget {
    /// A full bucket.
    pub fn new(cfg: RetryBudgetConfig) -> Self {
        RetryBudget {
            cfg,
            milli: cfg.burst * 1000,
            spent: 0,
            denied: 0,
        }
    }

    /// Credits one successful completion.
    pub fn on_success(&mut self) {
        self.milli = (self.milli + self.cfg.refill_per_success_milli).min(self.cfg.burst * 1000);
    }

    /// Tries to spend one token for a retry. `false` means the retry
    /// must not happen — the caller fails fast instead.
    pub fn try_spend(&mut self) -> bool {
        if self.milli >= 1000 {
            self.milli -= 1000;
            self.spent += 1;
            true
        } else {
            self.denied += 1;
            false
        }
    }

    /// Whole tokens currently available.
    pub fn tokens(&self) -> u64 {
        self.milli / 1000
    }

    /// Retries granted so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Retries denied so far.
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// This bucket's state under another tuning, as for
    /// [`CircuitBreaker`].
    pub(crate) fn with_config(self, cfg: RetryBudgetConfig) -> Self {
        RetryBudget { cfg, ..self }
    }

    contutto_sim::state_fields! {
        /// Serializes the bucket's dynamic state (fill level and
        /// counters).
        pub {
            milli,
            spent,
            denied,
        }
    }
}

/// Admission control ahead of the per-channel in-flight window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Max commands waiting on a channel's software issue queue; a
    /// submission past this sheds with [`SystemError::Shed`].
    ///
    /// [`SystemError::Shed`]: crate::system::SystemError::Shed
    pub queue_limit: usize,
    /// Estimated service time per queued command, used for
    /// deadline-aware shedding: if `now + (queued + 1) × estimate`
    /// already exceeds the request's deadline, the request is shed
    /// before issue rather than queued to die.
    pub service_estimate: SimTime,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_limit: 64,
            service_estimate: SimTime::from_ns(400),
        }
    }
}

/// Hedged-read tuning. Hedging applies to reads against mirrored
/// regions only: the mirror holds a full shadow copy by construction,
/// so a duplicate read has no side effects to double-apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgeConfig {
    /// Age past which an outstanding read issues a hedge to the mirror
    /// (pick the steady-state p99-ish latency).
    pub after: SimTime,
    /// Max hedged requests in flight at once.
    pub max_in_flight: usize,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            after: SimTime::from_us(4),
            max_in_flight: 8,
        }
    }
}

/// Brownout: background work yields to demand traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutConfig {
    /// Total queued commands (across channels) above which brownout
    /// engages.
    pub queue_high: usize,
    /// Total queued commands at or below which brownout releases
    /// (hysteresis; must be < `queue_high`).
    pub queue_low: usize,
    /// Evacuation-migration lines moved per pump while browned out
    /// (normal batch: [`MIGRATION_BATCH`]).
    ///
    /// [`MIGRATION_BATCH`]: crate::failover::MIGRATION_BATCH
    pub migration_batch: usize,
    /// Patrol-scrub interval multiplier while browned out: scrub slows
    /// by this factor, returning media bandwidth to demand reads.
    pub scrub_stretch: u32,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            queue_high: 48,
            queue_low: 12,
            migration_batch: crate::failover::BROWNOUT_MIGRATION_BATCH,
            scrub_stretch: 4,
        }
    }
}

/// The whole overload policy. `Default` (all `None`) is the legacy
/// behavior: no shedding, no budgets, no breakers, no hedging — every
/// pre-existing run stays byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverloadConfig {
    /// Bounded admission queue + deadline-aware shedding.
    pub admission: Option<AdmissionConfig>,
    /// Global retry budget (ladder + client retries).
    pub retry_budget: Option<RetryBudgetConfig>,
    /// Per-channel circuit breakers.
    pub breaker: Option<BreakerConfig>,
    /// Hedged reads for mirrored regions.
    pub hedge: Option<HedgeConfig>,
    /// Background-work brownout under queue pressure.
    pub brownout: Option<BrownoutConfig>,
}

impl OverloadConfig {
    /// No overload protection at all (the legacy service path).
    pub fn off() -> Self {
        OverloadConfig::default()
    }

    /// Every defense on with default tuning.
    pub fn protective() -> Self {
        OverloadConfig {
            admission: Some(AdmissionConfig::default()),
            retry_budget: Some(RetryBudgetConfig::default()),
            breaker: Some(BreakerConfig::default()),
            hedge: Some(HedgeConfig::default()),
            brownout: Some(BrownoutConfig::default()),
        }
    }
}

/// System-level overload counters, published as `system.overload.*`.
#[derive(Debug, Clone, Default)]
pub struct OverloadStats {
    /// Submissions rejected by the bounded admission queue.
    pub shed_admission: u64,
    /// Submissions rejected because queue delay would blow the deadline.
    pub shed_deadline: u64,
    /// Submissions rejected by an open circuit breaker.
    pub shed_breaker: u64,
    /// Submissions whose deadline had already expired at submit.
    pub expired_at_submit: u64,
    /// Completions translated to `DeadlineExceeded` (the channel's
    /// answer arrived after the request's deadline).
    pub deadline_expired: u64,
    /// Hedge reads issued to mirrors.
    pub hedges_issued: u64,
    /// Hedged requests finished by their first completion.
    pub hedges_won: u64,
    /// Loser completions cancelled (route entries dropped so the late
    /// arm's completion is absorbed without a second delivery).
    pub hedges_cancelled: u64,
    /// Brownout engagements.
    pub brownout_entries: u64,
    /// Requests failed by the no-progress watchdog.
    pub stalls: u64,
}

persist_fields!(BreakerConfig {
    failure_threshold,
    open_for,
    probe_budget,
    close_after,
    deconfigure_after_opens
});

persist_fields!(RetryBudgetConfig {
    refill_per_success_milli,
    burst
});

persist_fields!(AdmissionConfig {
    queue_limit,
    service_estimate
});

persist_fields!(HedgeConfig {
    after,
    max_in_flight
});

persist_fields!(BrownoutConfig {
    queue_high,
    queue_low,
    migration_batch,
    scrub_stretch
});

persist_fields!(OverloadConfig {
    admission,
    retry_budget,
    breaker,
    hedge,
    brownout
});

persist_fields!(OverloadStats {
    shed_admission,
    shed_deadline,
    shed_breaker,
    expired_at_submit,
    deadline_expired,
    hedges_issued,
    hedges_won,
    hedges_cancelled,
    brownout_entries,
    stalls
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_probes_and_closes() {
        let cfg = BreakerConfig {
            failure_threshold: 2,
            open_for: SimTime::from_us(10),
            probe_budget: 1,
            close_after: 2,
            deconfigure_after_opens: 8,
        };
        let mut b = CircuitBreaker::new(cfg);
        let t0 = SimTime::from_us(1);
        assert!(b.admit(t0));
        assert!(!b.on_failure(t0));
        assert!(b.on_failure(t0), "second failure trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.times_opened(), 1);
        assert!(!b.admit(t0 + SimTime::from_us(5)), "open rejects");
        // Window over: half-open admits exactly probe_budget probes.
        let t1 = t0 + SimTime::from_us(10);
        assert!(b.admit(t1));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.admit(t1), "probe budget exhausted");
        assert!(!b.on_success(), "one success is not enough");
        assert!(b.admit(t1));
        assert!(b.on_success(), "second success closes");
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_reopens_on_probe_failure() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            ..BreakerConfig::default()
        });
        let t0 = SimTime::from_us(1);
        assert!(b.on_failure(t0));
        let t1 = t0 + b.cfg.open_for;
        assert!(b.admit(t1));
        assert!(b.on_failure(t1), "probe failure re-opens");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.times_opened(), 2);
    }

    #[test]
    fn retry_budget_caps_ratio_of_success_rate() {
        let mut budget = RetryBudget::new(RetryBudgetConfig {
            refill_per_success_milli: 100, // 10 %
            burst: 2,
        });
        // Burst drains first.
        assert!(budget.try_spend());
        assert!(budget.try_spend());
        assert!(!budget.try_spend(), "bucket empty");
        assert_eq!(budget.denied(), 1);
        // 10 successes buy exactly one retry at 10 %.
        for _ in 0..9 {
            budget.on_success();
            assert!(!budget.try_spend());
        }
        budget.on_success();
        assert!(budget.try_spend());
        assert_eq!(budget.spent(), 3);
    }

    #[test]
    fn retry_budget_refill_saturates_at_burst() {
        let mut budget = RetryBudget::new(RetryBudgetConfig {
            refill_per_success_milli: 1000,
            burst: 3,
        });
        for _ in 0..100 {
            budget.on_success();
        }
        assert_eq!(budget.tokens(), 3);
    }

    #[test]
    fn off_config_is_default() {
        assert_eq!(OverloadConfig::off(), OverloadConfig::default());
        assert!(OverloadConfig::protective().breaker.is_some());
    }
}
