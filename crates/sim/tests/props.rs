//! Randomized property tests for the simulation kernel, driven by the
//! kernel's own deterministic [`SimRng`] (fixed seeds, fixed case
//! counts — every run exercises the same inputs).

use contutto_sim::{stats, Cycles, Frequency, LatencyStats, SimRng, SimTime};

const CASES: u64 = 64;

#[test]
fn frequency_cycle_roundtrip() {
    let mut rng = SimRng::seed_from_u64(0x51A7_1000);
    for case in 0..CASES * 4 {
        let mhz = rng.gen_range(1..5000);
        let cycles = rng.gen_range(0..1_000_000);
        let f = Frequency::from_mhz(mhz);
        let t = f.cycles_to_time(Cycles(cycles));
        assert_eq!(f.time_to_cycles_ceil(t), Cycles(cycles), "case {case}");
    }
}

#[test]
fn next_edge_is_aligned_and_minimal() {
    let mut rng = SimRng::seed_from_u64(0x51A7_2000);
    for case in 0..CASES * 4 {
        let f = Frequency::from_mhz(rng.gen_range(1..5000));
        let ps = rng.gen_range(0..10_000_000);
        let t = SimTime::from_ps(ps);
        let edge = f.next_edge(t);
        assert!(edge >= t, "case {case}");
        assert_eq!(edge.as_ps() % f.period().as_ps(), 0, "case {case}");
        assert!(edge.as_ps() < ps + f.period().as_ps(), "case {case}");
    }
}

#[test]
fn latency_stats_merge_equals_combined() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x51A7_3000 + case);
        let sample = |rng: &mut SimRng| -> Vec<u64> {
            let n = rng.gen_range(1..50) as usize;
            (0..n).map(|_| rng.gen_range(0..10_000_000)).collect()
        };
        let a = sample(&mut rng);
        let b = sample(&mut rng);
        let mut sa = LatencyStats::new();
        for v in &a {
            sa.record(SimTime::from_ps(*v));
        }
        let mut sb = LatencyStats::new();
        for v in &b {
            sb.record(SimTime::from_ps(*v));
        }
        let mut merged = sa.clone();
        merged.merge(&sb);
        let mut combined = LatencyStats::new();
        for v in a.iter().chain(&b) {
            combined.record(SimTime::from_ps(*v));
        }
        assert_eq!(merged.count(), combined.count(), "case {case}");
        assert_eq!(merged.min(), combined.min(), "case {case}");
        assert_eq!(merged.max(), combined.max(), "case {case}");
        assert_eq!(merged.sum(), combined.sum(), "case {case}");
    }
}

#[test]
fn throughput_is_linear_in_ops() {
    let mut rng = SimRng::seed_from_u64(0x51A7_5000);
    for case in 0..CASES * 4 {
        let ops = rng.gen_range(1..1_000_000);
        let t = SimTime::from_secs(rng.gen_range(1..100));
        let single = stats::ops_per_sec(ops, t);
        let double = stats::ops_per_sec(ops * 2, t);
        assert!(
            (double - single * 2.0).abs() < 1e-6 * double.max(1.0),
            "case {case}"
        );
    }
}
