//! Integration: the overload-resilience layer.
//!
//! Three contracts are pinned here. **Hedging is exactly-once**: a
//! hedged read races the primary against its mirror, the first clean
//! completion wins, and the loser is absorbed — one delivery per
//! request, correct bytes, never a double-apply. **The no-progress
//! watchdogs are typed and loud**: a wedged channel turns into
//! [`SystemError::Stalled`], an unknown request id into
//! [`SystemError::UnknownRequest`] — never a hang, never a livelock.
//! **The defenses are deterministic policy**: for every overload-config
//! combination × 8 seeds, two same-seed runs of traffic-under-trigger
//! must produce identical trace fingerprints AND identical reports,
//! histograms included.

use contutto_system::centaur::{Centaur, CentaurConfig};
use contutto_system::contutto::{ContuttoConfig, MemoryPopulation};
use contutto_system::dmi::CacheLine;
use contutto_system::power8::channel::{ChannelConfig, DmiChannel};
use contutto_system::power8::failover::FailoverMode;
use contutto_system::power8::firmware::layouts;
use contutto_system::power8::inject::FaultAction;
use contutto_system::power8::system::SystemError;
use contutto_system::power8::{
    AdmissionConfig, BreakerConfig, HedgeConfig, OverloadConfig, Power8System, RetryBudgetConfig,
};
use contutto_system::sim::SimTime;
use contutto_system::workloads::traffic::{Phase, TrafficConfig, TrafficEngine, TrafficReport};

/// ConTutto slot backing live regions in [`layouts::failover_pair`].
const PRIMARY: usize = 2;
/// Its mirror.
const MIRROR: usize = 4;

fn boot_mirrored(seed: u64) -> Power8System {
    Power8System::boot_with_failover(
        layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
        seed,
        FailoverMode::Mirrored {
            primary: PRIMARY,
            mirror: MIRROR,
        },
    )
    .expect("mirrored testbed boots")
}

/// First `n` line-granular physical addresses routed to `slot`.
fn slot_addrs(sys: &Power8System, slot: usize, n: usize) -> Vec<u64> {
    let mut out = Vec::new();
    let mut phys = 0u64;
    while out.len() < n && phys < 64 << 30 {
        if sys.route(phys).is_some_and(|(s, _)| s == slot) {
            out.push(phys);
        }
        phys += 128 * 1024;
    }
    assert_eq!(out.len(), n, "slot {slot} backs too little memory");
    out
}

/// A hedged read delivers exactly once with the correct bytes: lines
/// are written first (the mirror shadows every store by construction),
/// the primary is then made slow-not-dead, and every read must come
/// back once, clean, and pattern-correct — with the hedge machinery
/// demonstrably engaged and every loser absorbed.
#[test]
fn hedged_reads_deliver_exactly_once_with_correct_data() {
    let mut sys = boot_mirrored(7);
    sys.set_mlp_window(16);
    let mut cfg = OverloadConfig::off();
    cfg.hedge = Some(HedgeConfig {
        after: SimTime::from_ns(300),
        max_in_flight: 8,
    });
    sys.set_overload_config(cfg);

    let addrs = slot_addrs(&sys, PRIMARY, 16);
    for (i, &a) in addrs.iter().enumerate() {
        let id = sys
            .submit_store(a, CacheLine::patterned(i as u64 + 1))
            .expect("store submits");
        sys.wait_req(id).expect("store completes");
    }

    // Slow — not dead. The primary still answers, just late enough
    // that every read ages past the hedge threshold.
    sys.apply_fault_action(
        sys.now(),
        &FaultAction::SlowChannel {
            slot: PRIMARY,
            window: SimTime::from_us(50),
        },
    );

    let mut ids = Vec::new();
    for &a in &addrs {
        ids.push(sys.submit_load(a).expect("read submits"));
    }
    let done = sys.drain();

    assert_eq!(done.len(), ids.len(), "every read delivers exactly once");
    for (i, id) in ids.iter().enumerate() {
        let matches: Vec<_> = done.iter().filter(|(r, _)| r == id).collect();
        assert_eq!(matches.len(), 1, "request {id:?} delivered once");
        let completion = matches[0].1.as_ref().expect("read succeeds");
        assert_eq!(
            completion.data,
            Some(CacheLine::patterned(i as u64 + 1)),
            "request {id:?} returned the written bytes"
        );
    }

    let st = sys.overload_stats();
    assert!(st.hedges_issued >= 1, "the slow primary forces hedges");
    assert!(st.hedges_won >= 1, "at least one hedge wins the race");
    assert!(
        st.hedges_won <= st.hedges_issued,
        "wins never exceed issues ({} > {})",
        st.hedges_won,
        st.hedges_issued
    );
    assert!(
        st.hedges_cancelled <= st.hedges_issued,
        "cancellations never exceed issues ({} > {})",
        st.hedges_cancelled,
        st.hedges_issued
    );
    assert_eq!(sys.outstanding_reqs(), 0, "nothing left behind");
}

/// Without a mirror there is nothing safe to hedge against: the same
/// slow primary on a spare-less, mirror-less testbed must finish every
/// read on its own, with zero hedge activity.
#[test]
fn hedging_requires_a_mirror() {
    let mut sys = Power8System::boot_with_failover(
        layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
        7,
        FailoverMode::None,
    )
    .expect("boot");
    let mut cfg = OverloadConfig::off();
    cfg.hedge = Some(HedgeConfig {
        after: SimTime::from_ns(300),
        max_in_flight: 8,
    });
    sys.set_overload_config(cfg);
    sys.apply_fault_action(
        sys.now(),
        &FaultAction::SlowChannel {
            slot: PRIMARY,
            window: SimTime::from_us(50),
        },
    );
    let addrs = slot_addrs(&sys, PRIMARY, 8);
    let ids: Vec<_> = addrs
        .iter()
        .map(|&a| sys.submit_load(a).expect("submit"))
        .collect();
    let done = sys.drain();
    assert_eq!(done.len(), ids.len());
    assert!(done.iter().all(|(_, r)| r.is_ok()));
    assert_eq!(sys.overload_stats().hedges_issued, 0, "no mirror, no hedge");
}

/// The drain watchdog: a channel that loses its in-flight state (here:
/// the buffer is hot-swapped under outstanding requests) must surface
/// every stranded request as a typed [`SystemError::Stalled`] — and the
/// system must stay fully usable afterwards.
#[test]
fn drain_watchdog_fails_wedged_requests_typed() {
    let mut sys = Power8System::boot(layouts::all_cdimm(CentaurConfig::optimized(), 4 << 30), 3)
        .expect("boot");
    let addrs = slot_addrs(&sys, 0, 4);
    let ids: Vec<_> = addrs
        .iter()
        .map(|&a| sys.submit_load(a).expect("submit"))
        .collect();
    // Swap in a fresh idle channel: the in-flight commands vanish, the
    // clock freezes, and without the watchdog `drain` would spin
    // forever.
    sys.channel_mut(0).expect("slot 0 exists").channel = DmiChannel::new(
        ChannelConfig::centaur(),
        Box::new(Centaur::new(CentaurConfig::optimized(), 4 << 30)),
    );
    let done = sys.drain();
    assert_eq!(done.len(), ids.len(), "every stranded request surfaces");
    for (id, r) in &done {
        assert!(
            matches!(r, Err(SystemError::Stalled)),
            "{id:?} must be Stalled, got {r:?}"
        );
    }
    assert_eq!(sys.overload_stats().stalls, 1, "one watchdog verdict");
    assert_eq!(sys.outstanding_reqs(), 0);
    // The wedge is cleared, not smeared: new work completes normally.
    let id = sys.submit_load(addrs[0]).expect("resubmit");
    sys.wait_req(id).expect("post-stall request completes");
}

/// The blocking-wait watchdog: same wedge, same typed verdict —
/// `wait_req` returns [`SystemError::Stalled`] instead of hanging.
#[test]
fn wait_req_watchdog_returns_stalled() {
    let mut sys = Power8System::boot(layouts::all_cdimm(CentaurConfig::optimized(), 4 << 30), 3)
        .expect("boot");
    let addr = slot_addrs(&sys, 0, 1)[0];
    let id = sys.submit_load(addr).expect("submit");
    sys.channel_mut(0).expect("slot 0 exists").channel = DmiChannel::new(
        ChannelConfig::centaur(),
        Box::new(Centaur::new(CentaurConfig::optimized(), 4 << 30)),
    );
    assert!(matches!(sys.wait_req(id), Err(SystemError::Stalled)));
    assert_eq!(sys.overload_stats().stalls, 1);
}

/// `wait_req` on an id whose result was already collected — by a prior
/// `wait_req` or by `drain` — is a typed [`SystemError::UnknownRequest`],
/// not a hang and not someone else's completion.
#[test]
fn wait_req_on_collected_id_is_unknown_request() {
    let mut sys = Power8System::boot(layouts::all_cdimm(CentaurConfig::optimized(), 4 << 30), 3)
        .expect("boot");
    let addr = slot_addrs(&sys, 0, 1)[0];

    let id = sys.submit_load(addr).expect("submit");
    sys.wait_req(id).expect("first wait succeeds");
    assert!(matches!(sys.wait_req(id), Err(SystemError::UnknownRequest)));

    let id = sys.submit_load(addr).expect("submit");
    let drained = sys.drain();
    assert!(drained.iter().any(|(r, res)| *r == id && res.is_ok()));
    assert!(matches!(sys.wait_req(id), Err(SystemError::UnknownRequest)));
}

/// A total link blackout with work in flight must stay *live*: the
/// recovery ladder, failover and watchdog between them turn every
/// request into a completion or a typed error — `drain` terminates
/// with nothing left outstanding.
#[test]
fn blackout_drain_terminates_with_typed_errors() {
    let mut sys = boot_mirrored(42);
    sys.set_mlp_window(16);
    let addrs = slot_addrs(&sys, PRIMARY, 8);
    let ids: Vec<_> = addrs
        .iter()
        .map(|&a| sys.submit_load(a).expect("submit"))
        .collect();
    for slot in [PRIMARY, MIRROR] {
        sys.apply_fault_action(
            sys.now(),
            &FaultAction::LinkNoise {
                slot,
                down: 1.0,
                up: 1.0,
                seed: 9 + slot as u64,
            },
        );
    }
    let done = sys.drain();
    assert_eq!(done.len(), ids.len(), "every request is accounted for");
    assert_eq!(sys.outstanding_reqs(), 0, "drain left nothing behind");
}

// ---------------------------------------------------------------------
// The determinism matrix: every overload-config combination × 8 seeds,
// run twice under traffic with a mid-run slow-channel trigger. The
// defenses are deterministic policy — fingerprints and full reports
// (histograms included) must be byte-identical.
// ---------------------------------------------------------------------

fn matrix_traffic(deadline: Option<SimTime>, seed: u64) -> TrafficConfig {
    TrafficConfig {
        requests: 72,
        offered_rps: 5.12e6,
        keys: 512,
        zipf_theta: 0.99,
        read_fraction: 0.9,
        mlp_window: 16,
        slo: SimTime::from_us(4),
        deadline,
        client_retries: 2,
        client_backoff: SimTime::from_us(2),
        seed,
    }
}

fn matrix_run(cfg: OverloadConfig, deadline: Option<SimTime>, seed: u64) -> (TrafficReport, u64) {
    let mut sys = boot_mirrored(seed);
    sys.set_overload_config(cfg);
    let tracer = sys.enable_tracing(1 << 14);
    let engine = TrafficEngine::new(matrix_traffic(deadline, seed), &sys);
    let mut fired = false;
    let report = engine.run(&mut sys, |sys, tick| {
        if !fired && tick.completed >= 24 {
            fired = true;
            sys.apply_fault_action(
                tick.now,
                &FaultAction::SlowChannel {
                    slot: PRIMARY,
                    window: SimTime::from_us(10),
                },
            );
        }
        if fired {
            Phase::Fault
        } else {
            Phase::Steady
        }
    });
    (report, tracer.fingerprint())
}

fn assert_deterministic(name: &str, cfg: OverloadConfig, deadline: Option<SimTime>) {
    for seed in 1..=8u64 {
        let (a, fp_a) = matrix_run(cfg, deadline, seed);
        let (b, fp_b) = matrix_run(cfg, deadline, seed);
        assert_eq!(fp_a, fp_b, "{name} seed {seed}: fingerprint diverged");
        assert_eq!(a, b, "{name} seed {seed}: report diverged");
        assert_eq!(
            a.completed + a.errors + a.orphaned,
            a.submitted,
            "{name} seed {seed}: accounting leak"
        );
        assert_eq!(a.duplicate_completions, 0, "{name} seed {seed}");
    }
}

#[test]
fn matrix_no_defenses_is_deterministic() {
    assert_deterministic("off", OverloadConfig::off(), None);
}

#[test]
fn matrix_admission_only_is_deterministic() {
    let cfg = OverloadConfig {
        admission: Some(AdmissionConfig::default()),
        ..OverloadConfig::off()
    };
    assert_deterministic("admission", cfg, Some(SimTime::from_us(2)));
}

#[test]
fn matrix_retry_budget_only_is_deterministic() {
    let cfg = OverloadConfig {
        retry_budget: Some(RetryBudgetConfig::default()),
        ..OverloadConfig::off()
    };
    assert_deterministic("budget", cfg, None);
}

#[test]
fn matrix_breaker_only_is_deterministic() {
    let cfg = OverloadConfig {
        breaker: Some(BreakerConfig::default()),
        ..OverloadConfig::off()
    };
    assert_deterministic("breaker", cfg, None);
}

#[test]
fn matrix_hedge_only_is_deterministic() {
    let cfg = OverloadConfig {
        hedge: Some(HedgeConfig {
            after: SimTime::from_ns(600),
            max_in_flight: 8,
        }),
        ..OverloadConfig::off()
    };
    assert_deterministic("hedge", cfg, None);
}

#[test]
fn matrix_full_protective_is_deterministic() {
    let mut cfg = OverloadConfig::protective();
    cfg.hedge = Some(HedgeConfig {
        after: SimTime::from_ns(600),
        max_in_flight: 8,
    });
    assert_deterministic("protective", cfg, Some(SimTime::from_us(2)));
}
