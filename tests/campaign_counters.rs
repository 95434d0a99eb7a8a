//! Exact pins of the smoke campaigns' simulated results.
//!
//! Runs the pipeline, traffic, overload, chaos and checkpoint smoke
//! campaigns once each, renders their rows with
//! `contutto_bench::report::to_json` and compares the text with
//! `tests/golden/campaign_counters.json` exactly. Every pinned value
//! is simulated (counts, simulated rates and latencies, fingerprints,
//! image sizes), so the file does not depend on the host. Wall-clock
//! rates stay in the campaigns' printed tables; wall time is gated by
//! the `benchmark` package. Update the file only with a change that is
//! meant to alter what the simulator does, and say so in its
//! description: on a mismatch the test prints the rendered text.

use contutto_bench::{chaos, checkpoint, overload, pipeline, report, traffic};

const GOLDEN: &str = include_str!("golden/campaign_counters.json");

fn clean(name: &str, violations: Vec<String>) {
    assert!(
        violations.is_empty(),
        "{name} smoke campaign: {}",
        violations.join("\n")
    );
}

#[test]
fn smoke_campaigns_match_their_pinned_counters() {
    let pipeline = pipeline::run_sweep(&pipeline::PipelineConfig::smoke());
    let traffic = traffic::run_campaign(&traffic::CampaignConfig::smoke());
    let overload = overload::run_campaign(&overload::CampaignConfig::smoke());
    let chaos = chaos::run_campaign(&chaos::CampaignConfig::smoke());
    let checkpoint = checkpoint::run_campaign(&checkpoint::CampaignConfig::smoke());

    clean("pipeline", pipeline.violations());
    clean("traffic", traffic.violations());
    clean("overload", overload.violations());
    clean("chaos", chaos.violations());
    clean("checkpoint", checkpoint.violations());

    assert!(chaos.plans_per_sec > 0.0);
    assert!(checkpoint.stores_reused < checkpoint.stores_straight);
    assert!(checkpoint.snapshots_per_sec > 0.0);
    assert!(checkpoint.restores_per_sec > 0.0);
    let table = checkpoint.render_table();
    assert!(table.contains("prefix-reuse speedup"), "{table}");

    let got = report::to_json(&[
        pipeline.bench(),
        traffic.bench(),
        overload.bench(),
        chaos.bench(),
        checkpoint.bench(),
    ]);
    if got != GOLDEN {
        let same = got
            .lines()
            .zip(GOLDEN.lines())
            .take_while(|(a, b)| a == b)
            .count();
        panic!(
            "campaign counters differ from tests/golden/campaign_counters.json \
             from line {}; the smoke campaigns render:\n{got}",
            same + 1
        );
    }
}
