//! Golden trace fingerprints: a change meant to keep simulated
//! behaviour the same must keep these runs bit-identical.
//!
//! Each constant is the trace fingerprint of one smoke-sized campaign
//! run. The fingerprint folds every trace record of the run (every
//! frame, ACK, replay, tag and device event with its timestamp), so a
//! single event that moves, appears or disappears changes it. Update a
//! constant only with a change that is meant to alter what the
//! simulator does, and say so in its description.

use contutto_bench::{failover, faults, pipeline, traffic};

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: fingerprint {got:016x}, golden {want:016x}"
    );
}

#[test]
fn faults_scenarios_match_their_golden_fingerprints() {
    let lines = faults::CampaignConfig::smoke().lines;
    for (scenario, want) in [
        (faults::Scenario::Clean, 0x4db7_64c2_7716_29af),
        (faults::Scenario::BernoulliDown, 0xf338_abb8_7ee4_471c),
        (faults::Scenario::BurstDown, 0x6d49_13a4_4fb2_f9a7),
    ] {
        let run = faults::run_scenario(scenario, 1, lines);
        assert!(
            run.deterministic,
            "{}: same-seed rerun diverged",
            scenario.name()
        );
        check(scenario.name(), run.fingerprint, want);
    }
}

#[test]
fn failover_run_matches_its_golden_fingerprint() {
    let scenario = failover::Scenario {
        mode: failover::Mode::Spare,
        fault: failover::Fault::MaintenancePull,
    };
    let run = failover::run_scenario(scenario, 1, failover::CampaignConfig::smoke().lines);
    assert!(run.deterministic, "same-seed rerun diverged");
    check(&scenario.name(), run.fingerprint, 0x2fac_f8ae_8df5_02e0);
}

#[test]
fn traffic_runs_match_their_golden_fingerprints() {
    let requests = traffic::CampaignConfig::smoke().requests;
    for (scenario, want) in [
        (traffic::Scenario::Steady, 0xa1d7_5807_6120_3b37),
        (traffic::Scenario::Failover, 0xc56c_1582_65e7_356f),
    ] {
        let run = traffic::run_scenario(scenario, 1, requests);
        assert!(
            run.deterministic,
            "{}: same-seed rerun diverged",
            scenario.name()
        );
        check(scenario.name(), run.fingerprint, want);
    }
}

#[test]
fn pipeline_depth_16_matches_its_golden_fingerprint() {
    let cfg = pipeline::PipelineConfig {
        depths: vec![16],
        ..pipeline::PipelineConfig::smoke()
    };
    let report = pipeline::run_sweep(&cfg);
    let run = &report.runs[0];
    assert!(run.deterministic, "same-seed rerun diverged");
    check("pipeline depth 16", run.fingerprint, 0x93d4_9356_4e00_f3e6);
}
