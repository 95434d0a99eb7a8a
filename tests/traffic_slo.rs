//! Integration: the service-level traffic generator.
//!
//! The contract under test is *byte-identical determinism of the whole
//! serving report*: for every seed of the matrix, two runs from the
//! same seed must produce the same trace fingerprint and a
//! structurally identical [`TrafficReport`] — latency histograms
//! included, which is exactly the identity the old `p99=0` bug class
//! would have broken. Plus sanity on the zipfian skew and the
//! SLO-accounting arithmetic.

use contutto_system::centaur::CentaurConfig;
use contutto_system::power8::firmware::layouts;
use contutto_system::power8::Power8System;
use contutto_system::sim::SimTime;
use contutto_system::workloads::traffic::{TrafficConfig, TrafficEngine, TrafficReport};

fn boot(seed: u64) -> Power8System {
    Power8System::boot(
        layouts::all_cdimm(CentaurConfig::optimized(), 4 << 30),
        seed,
    )
    .expect("boot")
}

fn config(seed: u64) -> TrafficConfig {
    TrafficConfig {
        requests: 120,
        offered_rps: 4e6,
        keys: 512,
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

fn run_once(seed: u64) -> (TrafficReport, u64) {
    let mut sys = boot(seed);
    let tracer = sys.enable_tracing(1 << 16);
    let engine = TrafficEngine::new(config(seed), &sys);
    let report = engine.run_steady(&mut sys);
    (report, tracer.fingerprint())
}

/// The determinism matrix: eight seeds, each run twice — fingerprints
/// AND full reports (histograms included) must be identical.
#[test]
fn same_seed_identity_across_seeds() {
    for seed in [1, 2, 3, 7, 11, 42, 1234, 9001] {
        let (a, fp_a) = run_once(seed);
        let (b, fp_b) = run_once(seed);
        assert_eq!(fp_a, fp_b, "fingerprint diverged for seed {seed}");
        assert_eq!(a, b, "report diverged for seed {seed}");
        assert_eq!(a.completed, 120, "seed {seed}");
        assert_eq!(a.errors, 0);
        assert_eq!(a.orphaned, 0);
    }
}

/// Different seeds must actually produce different traffic — otherwise
/// the identity test above proves nothing.
#[test]
fn different_seeds_diverge() {
    let (a, fp_a) = run_once(3);
    let (b, fp_b) = run_once(4);
    assert_ne!(fp_a, fp_b, "two seeds produced the same trace");
    assert_ne!(a, b, "two seeds produced the same report");
}

/// Zipfian skew at theta=0.99: the hot keys must take a far larger
/// completion share than a uniform draw would give them.
#[test]
fn zipf_hot_keys_dominate() {
    let (report, _) = run_once(7);
    let share = report.hot_key_share();
    // The engine tracks its hottest 1% of keys; uniform traffic would
    // give them ~1% of completions. Zipf(0.99) gives them many times
    // that.
    assert!(
        share > 0.05,
        "hot-key completion share {share:.3} is not skewed"
    );
    assert!(share < 1.0, "all traffic on hot keys is a sampling bug");
}

/// SLO accounting arithmetic: with the SLO below the minimum observed
/// latency every completion violates; with it above the maximum, none
/// do.
#[test]
fn slo_violation_counting_brackets() {
    let mut sys = boot(3);
    let mut cfg = config(3);
    cfg.slo = SimTime::from_ps(1);
    let tight = TrafficEngine::new(cfg, &sys).run_steady(&mut sys);
    assert_eq!(
        tight.steady_slo_violations, tight.completed,
        "a 1 ps SLO must be violated by every completion"
    );

    let mut sys = boot(3);
    cfg.slo = SimTime::from_ms(10);
    let loose = TrafficEngine::new(cfg, &sys).run_steady(&mut sys);
    assert_eq!(
        loose.steady_slo_violations, 0,
        "a 10 ms SLO must never be violated in steady state"
    );
}
