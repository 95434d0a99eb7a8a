//! Integration: every chaos plan action survives its boundary values.
//!
//! A reproducer file is external input, so any field may hold 0, 1 or
//! the largest value its type allows. Each action kind runs alone
//! through [`run_plan_once`] with every duration, count and address
//! set to one of those three, on both plan layouts. The run must end,
//! and end without a [`Violation::Panicked`]: clock sums saturate,
//! and the injection layer and the plan runner clamp what would
//! otherwise simulate for hours. Each run has a minute, so a clamp
//! that regresses fails the test instead of hanging it.

use std::sync::mpsc;
use std::time::Duration;

use contutto_bench::chaos::{
    run_plan_once, FaultPlan, PlanAction, PlanLayout, PlanRunReport, PlannedAction, Violation,
};
use contutto_system::power8::inject::FaultAction;
use contutto_system::sim::SimTime;

/// The ConTutto slot of both layouts: the one with media hooks.
const SLOT: usize = 2;

/// Every action kind, with each duration, count and address set to
/// `v` (a `u32` count saturates at `u32::MAX`).
fn actions(v: u64) -> Vec<PlanAction> {
    let t = SimTime::from_ps(v);
    let count = u32::try_from(v).unwrap_or(u32::MAX);
    let fault = PlanAction::Fault;
    vec![
        PlanAction::RateStep { gap: t },
        PlanAction::TrafficSpike { gap: t, steps: v },
        PlanAction::Checkpoint,
        PlanAction::RestoreLatest,
        fault(FaultAction::LinkNoise {
            slot: SLOT,
            down: v as f64,
            up: v as f64,
            seed: v,
        }),
        fault(FaultAction::LinkClear { slot: SLOT }),
        fault(FaultAction::SlowChannel {
            slot: SLOT,
            window: t,
        }),
        fault(FaultAction::FlipStorm {
            slot: SLOT,
            seed: v,
            flips: count,
            window: t,
            hot_start: v,
            hot_len: v,
            stuck: count,
        }),
        fault(FaultAction::ScrubOn {
            slot: SLOT,
            interval: t,
        }),
        fault(FaultAction::ScrubOff { slot: SLOT }),
        fault(FaultAction::MaintenancePull { slot: SLOT }),
        fault(FaultAction::Epow),
        fault(FaultAction::PowerCut { outage: t }),
        fault(FaultAction::Sabotage {
            slot: SLOT,
            addr: v,
        }),
    ]
}

/// Runs `plan` on a thread of its own and fails if it has not ended
/// within a minute. A runaway run is left behind; it ends with the
/// test process.
fn run_within_a_minute(plan: FaultPlan, case: &str) -> PlanRunReport {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(run_plan_once(&plan)));
    rx.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|e| panic!("{case} did not end within a minute: {e}"))
}

#[test]
fn every_action_kind_at_0_1_and_max_ends_without_a_panic() {
    for layout in [PlanLayout::Failover, PlanLayout::Nvdimm] {
        for v in [u64::MAX, 0, 1] {
            for action in actions(v) {
                // A checkpoint ahead of each action gives
                // `RestoreLatest` an image to rewind to.
                let plan = FaultPlan {
                    layout,
                    seed: 1,
                    requests: 48,
                    gap: SimTime::from_ns(400),
                    actions: vec![
                        PlannedAction {
                            at_step: 4,
                            action: PlanAction::Checkpoint,
                        },
                        PlannedAction { at_step: 8, action },
                    ],
                };
                let case = format!("{layout:?}, value {v}, {:?}", plan.actions[1].action);
                let report = run_within_a_minute(plan, &case);
                assert!(
                    !report
                        .violations
                        .iter()
                        .any(|v| matches!(v, Violation::Panicked(_))),
                    "{case}: {:?}",
                    report.violations
                );
            }
        }
    }
}
