//! Service-level traffic generator: open-loop Poisson arrivals with
//! tail-latency SLOs.
//!
//! The paper's DB2/GPFS/FIO results are latency-sensitivity curves;
//! the production-scale extension is the *tail*. This module drives a
//! KV-style serving layer over [`Power8System`]'s pipelined
//! submit/poll path with open-loop Poisson arrivals at a fixed offered
//! rate and zipfian key skew, recording every per-request latency into
//! a [`LogHistogram`] so p50/p99/p99.9/p99.99 are reported with
//! bounded relative error and no silent overflow.
//!
//! Arrivals are independent of completions, so queueing delay is part
//! of the measured latency (`completion − nominal arrival`). This is
//! what exposes tail collapse under a fault: arrivals keep coming
//! while the system recovers, and no coordinated omission hides the
//! backlog.
//!
//! A per-iteration hook lets a campaign trigger faults mid-run
//! (patrol-scrub storm, channel failover, EPOW/reboot) and label the
//! current [`Phase`]; steady and fault latencies accumulate into
//! separate histograms so "p99.9 *during* the fault" is a first-class
//! result. Every run is deterministic: same seed, same byte-identical
//! trace and histograms.

use std::collections::BTreeMap;

use contutto_dmi::command::CacheLine;
use contutto_power8::system::{Power8System, ReqId, SystemError};
use contutto_sim::{LogHistogram, MetricsRegistry, SimRng, SimTime};

/// Which regime a request was issued in (set by the campaign hook).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// No fault active.
    Steady,
    /// A fault (scrub storm, failover, EPOW…) is in progress.
    Fault,
    /// The fault trigger has cleared but the system may still be
    /// digging out — the window where metastable congestion shows (or
    /// doesn't). Labelled by the campaign hook after its trigger ends.
    Recovery,
}

/// Traffic generator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Total requests to issue.
    pub requests: u64,
    /// Offered load: mean Poisson arrivals per second of simulated
    /// time.
    pub offered_rps: f64,
    /// Key-space size (each key maps to one cache line, spread across
    /// every memory-map region for channel-level parallelism).
    pub keys: u64,
    /// Zipf exponent for key popularity (0 = uniform; 0.99 = YCSB-ish).
    pub zipf_theta: f64,
    /// Fraction of requests that are reads (the rest are writes).
    pub read_fraction: f64,
    /// Per-channel in-flight window applied at run start.
    pub mlp_window: usize,
    /// The latency SLO; completions above it count as violations.
    pub slo: SimTime,
    /// Per-request deadline, relative to the nominal arrival: requests
    /// are submitted with an absolute deadline of `arrival + deadline`
    /// and the system sheds them (pre-issue) once it passes. `None`
    /// disables deadline propagation.
    pub deadline: Option<SimTime>,
    /// Client-side retries per logical request after a retryable
    /// error. Each retry asks the system's shared retry budget first —
    /// with no budget configured, retries are unconditional, which is
    /// exactly the metastable-failure amplifier the overload campaign
    /// demonstrates.
    pub client_retries: u32,
    /// Base client backoff; retry `n` waits `n × client_backoff`.
    pub client_backoff: SimTime,
    /// RNG seed — same seed, byte-identical run.
    pub seed: u64,
}

/// Everything a campaign hook needs to decide whether to fire a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficTick {
    /// Requests issued so far.
    pub submitted: u64,
    /// Requests finished so far (ok or error).
    pub completed: u64,
    /// The system clock.
    pub now: SimTime,
}

/// Results of one traffic run. Structural equality covers the full
/// latency distributions, so two same-seed runs can be asserted
/// identical with `==`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrafficReport {
    /// Requests issued (including failed submissions).
    pub submitted: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that surfaced a typed error (submit or completion).
    pub errors: u64,
    /// Requests orphaned by a power cut (no completion ever arrived).
    pub orphaned: u64,
    /// Simulated time from first submission to last completion.
    pub elapsed: SimTime,
    /// Latency distribution (ns) for steady-phase requests.
    pub steady: LogHistogram,
    /// Latency distribution (ns) for fault-phase requests.
    pub fault: LogHistogram,
    /// Latency distribution (ns) for recovery-phase requests.
    pub recovery: LogHistogram,
    /// Steady-phase completions over the SLO.
    pub steady_slo_violations: u64,
    /// Fault-phase completions over the SLO.
    pub fault_slo_violations: u64,
    /// Recovery-phase completions over the SLO.
    pub recovery_slo_violations: u64,
    /// Requests shed by the overload layer per phase
    /// ([`SystemError::Shed`] + [`SystemError::DeadlineExceeded`]
    /// events, at submit or completion), indexed steady/fault/recovery.
    pub shed: [u64; 3],
    /// The [`SystemError::DeadlineExceeded`] subset of `shed`.
    pub deadline_expired: u64,
    /// Client retries actually issued (budget-approved).
    pub client_retries: u64,
    /// Client retries the shared budget refused.
    pub client_retries_denied: u64,
    /// Completions for requests already finished — a hedge that
    /// double-applied would show here. Must stay zero.
    pub duplicate_completions: u64,
    /// Hedged reads issued per phase (sampled from the system's
    /// overload stats at each tick), indexed steady/fault/recovery.
    pub hedges: [u64; 3],
    /// Completions that hit the hottest 1 % of keys (zipf sanity).
    pub hot_key_completions: u64,
}

/// Index of a [`Phase`] into the per-phase count arrays.
fn phase_idx(phase: Phase) -> usize {
    match phase {
        Phase::Steady => 0,
        Phase::Fault => 1,
        Phase::Recovery => 2,
    }
}

impl TrafficReport {
    /// A latency quantile for one phase.
    pub fn quantile(&self, phase: Phase, q: f64) -> SimTime {
        let hist = match phase {
            Phase::Steady => &self.steady,
            Phase::Fault => &self.fault,
            Phase::Recovery => &self.recovery,
        };
        SimTime::from_ns(hist.quantile(q))
    }

    /// Successful completions per simulated second.
    pub fn achieved_rps(&self) -> f64 {
        contutto_sim::stats::ops_per_sec(self.completed, self.elapsed)
    }

    /// Fraction of completions that hit the hottest 1 % of keys.
    pub fn hot_key_share(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.hot_key_completions as f64 / self.completed as f64
        }
    }

    /// Publishes the run under `system.traffic.*` in a registry.
    pub fn publish(&self, reg: &mut MetricsRegistry) {
        reg.set_counter("system.traffic.submitted", self.submitted);
        reg.set_counter("system.traffic.completed", self.completed);
        reg.set_counter("system.traffic.errors", self.errors);
        reg.set_counter("system.traffic.orphaned", self.orphaned);
        reg.set_log_histogram("system.traffic.latency.steady", &self.steady);
        reg.set_log_histogram("system.traffic.latency.fault", &self.fault);
        reg.set_log_histogram("system.traffic.latency.recovery", &self.recovery);
        reg.set_counter(
            "system.traffic.slo_violations.steady",
            self.steady_slo_violations,
        );
        reg.set_counter(
            "system.traffic.slo_violations.fault",
            self.fault_slo_violations,
        );
        reg.set_counter(
            "system.traffic.slo_violations.recovery",
            self.recovery_slo_violations,
        );
        reg.set_counter("system.traffic.shed.steady", self.shed[0]);
        reg.set_counter("system.traffic.shed.fault", self.shed[1]);
        reg.set_counter("system.traffic.shed.recovery", self.shed[2]);
        reg.set_counter("system.traffic.deadline_expired", self.deadline_expired);
        reg.set_counter("system.traffic.client_retries", self.client_retries);
        reg.set_counter(
            "system.traffic.client_retries_denied",
            self.client_retries_denied,
        );
        reg.set_counter(
            "system.traffic.duplicate_completions",
            self.duplicate_completions,
        );
        reg.set_counter("system.traffic.hedges.steady", self.hedges[0]);
        reg.set_counter("system.traffic.hedges.fault", self.hedges[1]);
        reg.set_counter("system.traffic.hedges.recovery", self.hedges[2]);
    }
}

struct PendingReq {
    /// Nominal arrival — the latency epoch. Retries keep the
    /// *original* epoch: a retried request's latency honestly includes
    /// every failed attempt.
    issued: SimTime,
    /// Absolute deadline submitted with every attempt. Fixed at the
    /// first issue, so an expired retry is refused at submit and never
    /// re-queued.
    deadline: Option<SimTime>,
    phase: Phase,
    key: u64,
    /// The op is sampled once per logical request so a retry replays
    /// the same operation, not a fresh coin flip.
    is_read: bool,
    /// Client retries performed so far.
    attempts: u32,
}

/// Client-side retries waiting out their backoff, ordered by due time
/// with a sequence tiebreaker so same-instant retries re-issue in a
/// deterministic order.
struct RetryQueue {
    items: BTreeMap<(SimTime, u64), PendingReq>,
    seq: u64,
}

impl RetryQueue {
    fn new() -> Self {
        RetryQueue {
            items: BTreeMap::new(),
            seq: 0,
        }
    }

    fn push(&mut self, due: SimTime, req: PendingReq) {
        self.items.insert((due, self.seq), req);
        self.seq += 1;
    }

    fn pop_due(&mut self, now: SimTime) -> Option<PendingReq> {
        let (&(due, seq), _) = self.items.iter().next()?;
        if due > now {
            return None;
        }
        self.items.remove(&(due, seq))
    }

    fn next_due(&self) -> Option<SimTime> {
        self.items.keys().next().map(|&(t, _)| t)
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// The traffic engine: key table and popularity distribution. Build
/// once per run with [`TrafficEngine::new`], then drive a system with
/// [`TrafficEngine::run`].
pub struct TrafficEngine {
    cfg: TrafficConfig,
    /// key → physical line address, spread across regions.
    addrs: Vec<u64>,
    /// Zipf CDF over keys (hotness order: key 0 is hottest).
    cdf: Vec<f64>,
    hot_keys: u64,
}

impl TrafficEngine {
    /// Builds the key table against a booted system's memory map.
    ///
    /// # Panics
    ///
    /// Panics if the config is degenerate (no keys, no requests, a
    /// non-positive rate, or an unbootable empty map).
    pub fn new(cfg: TrafficConfig, sys: &Power8System) -> Self {
        assert!(cfg.requests > 0, "need at least one request");
        assert!(cfg.keys > 0 && cfg.keys <= 1 << 22, "keys must be 1..=4M");
        assert!(cfg.offered_rps > 0.0, "offered rate must be positive");
        assert!(
            (0.0..=1.0).contains(&cfg.read_fraction),
            "read fraction must be a probability"
        );
        let regions = sys.memory_map().regions();
        assert!(!regions.is_empty(), "system has no mapped memory");
        let mut addrs = Vec::with_capacity(cfg.keys as usize);
        for key in 0..cfg.keys {
            let region = &regions[(key % regions.len() as u64) as usize];
            let lines = (region.os_size / 128).max(1);
            let line = (key / regions.len() as u64) % lines;
            addrs.push(region.base + line * 128);
        }
        // Zipf CDF: weight(i) = 1/(i+1)^theta, normalized.
        let mut cdf = Vec::with_capacity(cfg.keys as usize);
        let mut acc = 0.0;
        for i in 0..cfg.keys {
            acc += 1.0 / ((i + 1) as f64).powf(cfg.zipf_theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        TrafficEngine {
            cfg,
            addrs,
            cdf,
            hot_keys: (cfg.keys / 100).max(1),
        }
    }

    fn sample_key(&self, rng: &mut SimRng) -> u64 {
        let u = rng.next_f64();
        // First key whose CDF covers u.
        self.cdf
            .partition_point(|&c| c < u)
            .min(self.addrs.len() - 1) as u64
    }

    /// The next exponential inter-arrival gap with the given mean,
    /// floored at one picosecond so time always moves.
    fn next_gap(rng: &mut SimRng, mean_ps: f64) -> SimTime {
        let u = rng.next_f64();
        let ps = -(1.0 - u).ln() * mean_ps;
        SimTime::from_ps((ps as u64).max(1))
    }

    fn submit_req(&self, sys: &mut Power8System, req: &PendingReq) -> Result<ReqId, SystemError> {
        let phys = self.addrs[req.key as usize];
        if req.is_read {
            sys.submit_load_deadline(phys, req.deadline)
        } else {
            sys.submit_store_deadline(phys, CacheLine::patterned(req.key), req.deadline)
        }
    }

    /// Whether a failed request may be re-submitted: within the retry
    /// limit, and the error isn't terminal. Expired deadlines are
    /// never retried (the deadline is absolute — a retry would be
    /// refused at submit anyway), and a dead rail or stranded request
    /// has nothing to retry against.
    fn retry_eligible(&self, req: &PendingReq, e: &SystemError) -> bool {
        req.attempts < self.cfg.client_retries
            && !matches!(
                e,
                SystemError::DeadlineExceeded
                    | SystemError::PoweredOff
                    | SystemError::UnknownRequest
            )
    }

    /// One failed attempt, at submit or completion: the request is
    /// re-queued with linear backoff (retry `n` waits
    /// `n × client_backoff`) if it may retry and the shared retry
    /// budget allows, otherwise counted as finished.
    fn fail(
        &self,
        sys: &mut Power8System,
        acc: &mut Accumulator,
        retries: &mut RetryQueue,
        mut req: PendingReq,
        e: SystemError,
    ) {
        acc.note_error_kind(req.phase, &e);
        let eligible = self.retry_eligible(&req, &e);
        if eligible && sys.client_retry_allowed() {
            acc.report.client_retries += 1;
            req.attempts += 1;
            let backoff = self.cfg.client_backoff.max(SimTime::from_ps(1));
            retries.push(sys.now() + backoff * u64::from(req.attempts), req);
        } else {
            if eligible {
                acc.report.client_retries_denied += 1;
            }
            acc.finish(&req, Err(e));
        }
    }

    /// Submits one logical request (first attempt or retry) stamped
    /// with the current phase.
    fn issue(
        &self,
        sys: &mut Power8System,
        acc: &mut Accumulator,
        pending: &mut BTreeMap<ReqId, PendingReq>,
        retries: &mut RetryQueue,
        mut req: PendingReq,
        phase: Phase,
    ) {
        req.phase = phase;
        match self.submit_req(sys, &req) {
            Ok(id) => {
                pending.insert(id, req);
            }
            Err(e) => self.fail(sys, acc, retries, req, e),
        }
    }

    /// Runs the configured traffic with no fault hook: all requests
    /// are steady-phase.
    pub fn run_steady(&self, sys: &mut Power8System) -> TrafficReport {
        self.run(sys, |_, _| Phase::Steady)
    }

    /// Runs the configured traffic. `hook` is called once per engine
    /// iteration; it may mutate the system (fire a scrub storm, pull a
    /// channel, cut power) and returns the phase label stamped on
    /// requests issued from that point on.
    ///
    /// Requests whose completions were wiped by a power cut are
    /// reconciled as `orphaned` (the system clears its in-flight set;
    /// the engine must not wait forever for completions that can never
    /// arrive).
    pub fn run<H>(&self, sys: &mut Power8System, mut hook: H) -> TrafficReport
    where
        H: FnMut(&mut Power8System, &TrafficTick) -> Phase,
    {
        sys.set_mlp_window(self.cfg.mlp_window);
        let mut rng = SimRng::seed_from_u64(self.cfg.seed);
        let mean_gap_ps = 1e12 / self.cfg.offered_rps;
        let start = sys.now();
        let mut next_arrival = start + Self::next_gap(&mut rng, mean_gap_ps);
        let mut acc = Accumulator::new(&self.cfg, self.hot_keys, start);
        let mut pending: BTreeMap<ReqId, PendingReq> = BTreeMap::new();
        let mut retries = RetryQueue::new();
        loop {
            let r = &acc.report;
            let tick = TrafficTick {
                submitted: r.submitted,
                completed: r.completed + r.errors + r.orphaned,
                now: sys.now(),
            };
            let phase = hook(sys, &tick);
            acc.note_hedges(sys, phase);
            // Latencies are measured against the global clock (the max
            // across channels); a lagging channel would stamp
            // completions before the arrival that caused them. Keep
            // every local clock at or past the global now.
            sys.advance_to(tick.now);
            // Re-issue retries whose backoff has elapsed (they predate
            // any arrival due this round).
            while let Some(req) = retries.pop_due(sys.now()) {
                self.issue(sys, &mut acc, &mut pending, &mut retries, req, phase);
            }
            // Issue every arrival that is due.
            while acc.report.submitted < self.cfg.requests && next_arrival <= sys.now() {
                let key = self.sample_key(&mut rng);
                let is_read = rng.gen_bool(self.cfg.read_fraction);
                let arrival = next_arrival;
                acc.report.submitted += 1;
                next_arrival += Self::next_gap(&mut rng, mean_gap_ps);
                let req = PendingReq {
                    issued: arrival,
                    deadline: self.cfg.deadline.map(|d| arrival + d),
                    phase,
                    key,
                    is_read,
                    attempts: 0,
                };
                self.issue(sys, &mut acc, &mut pending, &mut retries, req, phase);
            }
            let finished = sys.poll();
            let progressed = !finished.is_empty();
            for (id, result) in finished {
                let Some(req) = pending.remove(&id) else {
                    acc.report.duplicate_completions += 1;
                    continue;
                };
                match result {
                    Ok(c) => acc.finish(&req, Ok(c.completed_at)),
                    Err(e) => self.fail(sys, &mut acc, &mut retries, req, e),
                }
            }
            let all_issued = acc.report.submitted >= self.cfg.requests;
            if all_issued && pending.is_empty() && retries.is_empty() {
                break;
            }
            if !progressed && pending.is_empty() {
                // Idle: jump to the next arrival or due retry.
                let next_new = (!all_issued).then_some(next_arrival);
                if let Some(t) = [next_new, retries.next_due()].into_iter().flatten().min() {
                    sys.advance_to(t.max(sys.now()));
                }
            } else if !progressed && sys.outstanding_reqs() == 0 {
                // A power cut wiped the in-flight set — these
                // completions will never arrive.
                acc.report.orphaned += pending.len() as u64;
                pending.clear();
                acc.last_event = acc.last_event.max(sys.now());
            }
        }
        acc.into_report()
    }
}

/// Per-run bookkeeping: the report being filled in, plus what it is
/// derived from.
struct Accumulator {
    report: TrafficReport,
    /// Last `hedges_issued` sample from the system's overload stats
    /// (`None` until the first tick sets the baseline).
    hedge_seen: Option<u64>,
    hot_keys: u64,
    slo: SimTime,
    start: SimTime,
    last_event: SimTime,
}

impl Accumulator {
    fn new(cfg: &TrafficConfig, hot_keys: u64, start: SimTime) -> Self {
        Accumulator {
            report: TrafficReport::default(),
            hedge_seen: None,
            hot_keys,
            slo: cfg.slo,
            start,
            last_event: start,
        }
    }

    /// Classifies an overload-layer refusal into the per-phase shed
    /// counters. Other error kinds are left to the plain error count.
    fn note_error_kind(&mut self, phase: Phase, e: &SystemError) {
        match e {
            SystemError::Shed { .. } => self.report.shed[phase_idx(phase)] += 1,
            SystemError::DeadlineExceeded => {
                self.report.shed[phase_idx(phase)] += 1;
                self.report.deadline_expired += 1;
            }
            _ => {}
        }
    }

    /// Attributes newly issued hedges to the current phase by diffing
    /// the system's cumulative counter at each tick.
    fn note_hedges(&mut self, sys: &Power8System, phase: Phase) {
        let issued = sys.overload_stats().hedges_issued;
        if let Some(seen) = self.hedge_seen {
            self.report.hedges[phase_idx(phase)] += issued.saturating_sub(seen);
        }
        self.hedge_seen = Some(issued);
    }

    /// Records one finished request.
    fn finish(&mut self, req: &PendingReq, result: Result<SimTime, SystemError>) {
        let r = &mut self.report;
        let Ok(completed_at) = result else {
            r.errors += 1;
            return;
        };
        r.completed += 1;
        self.last_event = self.last_event.max(completed_at);
        let latency = completed_at.saturating_sub(req.issued);
        if req.key < self.hot_keys {
            r.hot_key_completions += 1;
        }
        let (hist, violations) = match req.phase {
            Phase::Steady => (&mut r.steady, &mut r.steady_slo_violations),
            Phase::Fault => (&mut r.fault, &mut r.fault_slo_violations),
            Phase::Recovery => (&mut r.recovery, &mut r.recovery_slo_violations),
        };
        hist.record(latency.as_ns());
        if latency > self.slo {
            *violations += 1;
        }
    }

    fn into_report(mut self) -> TrafficReport {
        self.report.elapsed = self.last_event.saturating_sub(self.start);
        self.report
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

    fn quick(seed: u64) -> TrafficConfig {
        TrafficConfig {
            requests: 96,
            offered_rps: 4e6,
            keys: 256,
            zipf_theta: 0.99,
            read_fraction: 0.9,
            mlp_window: 16,
            slo: SimTime::from_us(2),
            deadline: None,
            client_retries: 0,
            client_backoff: SimTime::from_us(2),
            seed,
        }
    }

    #[test]
    fn open_loop_completes_every_request() {
        let mut sys = boot();
        let engine = TrafficEngine::new(quick(7), &sys);
        let r = engine.run_steady(&mut sys);
        assert_eq!(r.submitted, 96);
        assert_eq!(r.completed, 96);
        assert_eq!(r.errors, 0);
        assert_eq!(r.orphaned, 0);
        assert_eq!(r.steady.count(), 96);
        assert_eq!(r.fault.count(), 0);
        assert!(r.elapsed > SimTime::ZERO);
        assert!(r.achieved_rps() > 0.0);
    }

    #[test]
    fn same_seed_reports_are_identical() {
        let cfg = quick(21);
        let mut a = boot();
        let ra = TrafficEngine::new(cfg, &a).run_steady(&mut a);
        let mut b = boot();
        let rb = TrafficEngine::new(cfg, &b).run_steady(&mut b);
        assert_eq!(ra, rb);
    }

    #[test]
    fn open_loop_latency_includes_queueing() {
        // Same system, same request count: offered load far above
        // capacity must show a worse tail than a trickle (queueing
        // delay measured from the *nominal* arrival).
        let base = quick(33);
        let mut sys = boot();
        let trickle = TrafficEngine::new(
            TrafficConfig {
                offered_rps: 1e6, // well under capacity
                ..base
            },
            &sys,
        )
        .run_steady(&mut sys);
        let mut sys2 = boot();
        let flood = TrafficEngine::new(
            TrafficConfig {
                offered_rps: 6.4e10, // everything arrives at once: pure queueing
                ..base
            },
            &sys2,
        )
        .run_steady(&mut sys2);
        assert!(
            flood.quantile(Phase::Steady, 0.99) > trickle.quantile(Phase::Steady, 0.99),
            "flood p99 {} !> trickle p99 {}",
            flood.quantile(Phase::Steady, 0.99),
            trickle.quantile(Phase::Steady, 0.99),
        );
    }

    #[test]
    fn zipfian_skew_concentrates_on_hot_keys() {
        let mut sys = boot();
        let cfg = TrafficConfig {
            requests: 256,
            keys: 1000,
            zipf_theta: 0.99,
            ..quick(5)
        };
        let skewed = TrafficEngine::new(cfg, &sys).run_steady(&mut sys);
        let mut sys2 = boot();
        let uniform = TrafficEngine::new(
            TrafficConfig {
                zipf_theta: 0.0,
                ..cfg
            },
            &sys2,
        )
        .run_steady(&mut sys2);
        // Hottest 1% of 1000 keys = 10 keys: zipf(0.99) sends >20% of
        // traffic there; uniform sends ~1%.
        assert!(
            skewed.hot_key_share() > 0.2,
            "hot share {}",
            skewed.hot_key_share()
        );
        assert!(
            uniform.hot_key_share() < 0.1,
            "uniform hot share {}",
            uniform.hot_key_share()
        );
    }

    #[test]
    fn fault_phase_is_recorded_separately() {
        let mut sys = boot();
        let engine = TrafficEngine::new(quick(11), &sys);
        let r = engine.run(&mut sys, |_, tick| {
            if tick.completed >= 48 {
                Phase::Fault
            } else {
                Phase::Steady
            }
        });
        assert_eq!(r.steady.count() + r.fault.count(), 96);
        assert!(r.steady.count() > 0);
        assert!(r.fault.count() > 0);
    }

    #[test]
    fn power_cut_orphans_inflight_requests() {
        let mut sys = boot();
        let cfg = TrafficConfig {
            requests: 64,
            offered_rps: 6.4e7, // flood so plenty are in flight
            ..quick(13)
        };
        let engine = TrafficEngine::new(cfg, &sys);
        let mut cut = false;
        let r = engine.run(&mut sys, |sys, tick| {
            if !cut && tick.completed >= 16 {
                cut = true;
                let at = sys.now();
                sys.power_cut(at);
                let back = sys.now() + SimTime::from_us(5);
                sys.reboot(back).expect("reboot after cut");
                return Phase::Fault;
            }
            if cut {
                Phase::Fault
            } else {
                Phase::Steady
            }
        });
        assert!(r.orphaned > 0, "no in-flight request was orphaned");
        assert_eq!(r.submitted, 64);
        assert_eq!(r.completed + r.errors + r.orphaned, 64);
    }
}
