//! Runs the deterministic fault-injection campaigns and renders the
//! pass/degrade/fail tables.
//!
//! ```text
//! faults [--chaos | --media | --failover | --power | --traffic | --overload
//!         | --checkpoint]
//!        [--smoke] [--seeds N] [--lines N] [--metrics] [--replay FILE]
//!        [--reuse-prefix]
//! ```
//!
//! * `--chaos` — run the chaos campaign: seed-generated composable
//!   fault plans (link noise, flip storms, scrub toggles, maintenance
//!   pulls, EPOW, power cuts, rate steps, checkpoints and timeline
//!   rewinds) against a ledgered load,
//!   every plan executed twice and held to the global durability
//!   oracle; failing plans are shrunk to minimal JSON reproducers
//!   (`CHAOS_repro_*.json`) replayable with `--replay FILE`, and
//!   `BENCH_chaos.json` is written with a ≥0.8× plans/sec gate;
//! * `--traffic` — run the SLO-under-fault traffic campaign: an
//!   open-loop zipfian request stream over the failover testbed while
//!   {nothing, a scrub storm, a channel failover, an EPOW + reboot}
//!   fires mid-run; steady-phase vs fault-phase tail percentiles and
//!   SLO-violation counts are reported, every run is executed twice
//!   and must be byte-identical (fingerprint + histogram identity),
//!   and `BENCH_traffic.json` is written with a ≥0.8× requests/sec
//!   regression gate against any prior baseline;
//! * `--overload` — run the metastable-failure campaign: the same
//!   open-loop stream over the *mirrored* testbed while a slow-channel
//!   plus link-noise trigger holds for a bounded window mid-run; the
//!   naive row (client retries, no defenses) must stay congested after
//!   the trigger clears, the protected row (deadlines, admission
//!   control, retry budget, breakers, hedged reads, brownout) must
//!   recover to within 2× of steady p99 with zero duplicate
//!   completions; `BENCH_overload.json` is written with a ≥0.8×
//!   requests/sec regression gate;
//! * `--media`   — run the media-fault campaign (seeded bit flips in
//!   the DIMM arrays across {DRAM, MRAM, NVDIMM} × {scrub on/off})
//!   instead of the link-fault campaign;
//! * `--failover` — run the channel-failover campaign ({spare,
//!   mirrored} × {error-budget, dead-link, maintenance-pull}): a
//!   victim buffer dies mid-workload and zero data loss is asserted;
//! * `--power`   — run the power-fail crash-point sweep ({armed,
//!   disarmed supercap} × {generous, starved energy} × {orderly EPOW,
//!   surprise cut} × crash points): the whole system loses power and
//!   the durability contract is asserted — NVDIMM contents survive or
//!   produce a typed loss report, never silent corruption;
//! * `--reuse-prefix` — with `--power`: simulate each (scenario, seed)
//!   store prefix once, snapshot it at every crash point, and restore
//!   the snapshot instead of re-simulating the stores. Results are
//!   byte-identical to the straight sweep;
//! * `--checkpoint` — run the checkpoint campaign: snapshot/restore
//!   throughput plus a prefix-reuse identity proof (the reused power
//!   sweep must match the straight sweep record-for-record while
//!   simulating strictly fewer stores); writes `BENCH_checkpoint.json`
//!   with ≥0.8× snapshots/sec and restores/sec regression gates;
//! * `--smoke`   — the quick `scripts/verify.sh` gate;
//! * `--seeds N` — sweep seeds 1..=N (default: the full 5-seed sweep);
//! * `--lines N` — lines written/read back per run;
//! * `--metrics` — also print the merged metrics registry.
//!
//! Every mode ends in [`finish`]: it prints the table, gates
//! the campaign's `BENCH_*.json` rows (when it writes any) against the
//! previous file, writes the new one, and exits nonzero on any
//! violation — a run that panics, corrupts data, or fails where the
//! scenario does not permit a typed failure; for `--media`, disabling
//! scrub not raising the uncorrectable aggregate; or a gated
//! throughput below 0.8× its baseline.

use std::process::ExitCode;

use contutto_bench::report::finish;
use contutto_bench::{chaos, checkpoint, failover, faults, media, overload, power, traffic};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let text = |name: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let value = |name: &str| -> Option<u64> { text(name).and_then(|v| v.parse().ok()) };
    let smoke = flag("--smoke");
    let seeds = value("--seeds").map(|n| (1..=n.max(1)).collect::<Vec<u64>>());
    let lines = value("--lines");
    let show_metrics = flag("--metrics");
    // The campaign's smoke or full configuration with `--seeds` and
    // `--lines` applied; `--lines` sets `$size`, floored at `$min`.
    macro_rules! config {
        ($campaign:ident, $size:ident, $min:expr) => {{
            let mut cfg = if smoke {
                $campaign::CampaignConfig::smoke()
            } else {
                $campaign::CampaignConfig::full()
            };
            if let Some(seeds) = &seeds {
                cfg.seeds = seeds.clone();
            }
            cfg.$size = lines.map_or(cfg.$size, |n| n.max($min));
            cfg
        }};
    }

    if flag("--chaos") {
        if let Some(path) = text("--replay") {
            return replay(path);
        }
        let cfg = config!(chaos, requests, 16);
        let report = chaos::run_campaign(&cfg);
        write_reproducers(&report);
        return finish(
            "chaos",
            &report.render_table(),
            None,
            report.violations(),
            Some(&report.bench()),
        );
    }

    if flag("--traffic") {
        let cfg = config!(traffic, requests, 30);
        let report = traffic::run_campaign(&cfg);
        return finish(
            "traffic",
            &report.render_table(),
            show_metrics.then(|| report.merged_metrics()).as_ref(),
            report.violations(),
            Some(&report.bench()),
        );
    }

    if flag("--overload") {
        let cfg = config!(overload, requests, 60);
        let report = overload::run_campaign(&cfg);
        return finish(
            "overload",
            &report.render_table(),
            show_metrics.then(|| report.merged_metrics()).as_ref(),
            report.violations(),
            Some(&report.bench()),
        );
    }

    if flag("--checkpoint") {
        let cfg = config!(checkpoint, lines, 1);
        let report = checkpoint::run_campaign(&cfg);
        return finish(
            "checkpoint",
            &report.render_table(),
            None,
            report.violations(),
            Some(&report.bench()),
        );
    }

    if flag("--power") {
        let mut cfg = config!(power, lines, 1);
        cfg.reuse_prefix = flag("--reuse-prefix");
        let report = power::run_campaign(&cfg);
        let table = format!(
            "{}stores simulated: {}{}\n",
            report.render_table(),
            report.stores_executed,
            if cfg.reuse_prefix {
                " (prefix reused)"
            } else {
                ""
            }
        );
        return finish(
            "power-fail",
            &table,
            show_metrics.then(|| report.merged_metrics()).as_ref(),
            report.violations(),
            None,
        );
    }

    if flag("--failover") {
        let cfg = config!(failover, lines, 1);
        let report = failover::run_campaign(&cfg);
        return finish(
            "failover",
            &report.render_table(),
            show_metrics.then(|| report.merged_metrics()).as_ref(),
            report.violations(),
            None,
        );
    }

    if flag("--media") {
        let cfg = config!(media, lines, 1);
        let report = media::run_campaign(&cfg);
        return finish(
            "media-fault",
            &report.render_table(),
            show_metrics.then(|| report.merged_metrics()).as_ref(),
            report.violations(),
            None,
        );
    }

    let cfg = config!(faults, lines, 1);
    let report = faults::run_campaign(&cfg);
    finish(
        "fault",
        &report.render_table(),
        show_metrics.then(|| report.merged_metrics()).as_ref(),
        report.violations(),
        None,
    )
}

/// Replays one chaos reproducer and reports its verdict.
fn replay(path: &str) -> ExitCode {
    let plan = match std::fs::read_to_string(path) {
        Ok(json) => match chaos::FaultPlan::from_json(&json) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("cannot parse reproducer {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("cannot read reproducer {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "replaying {path}: {} layout, seed {}, {} requests, {} actions",
        plan.layout.name(),
        plan.seed,
        plan.requests,
        plan.actions.len()
    );
    let report = chaos::run_plan(&plan);
    println!(
        "fingerprint {:016x}, {} applied, {} reboots, deterministic: {}",
        report.fingerprint,
        report.applied,
        report.reboots,
        if report.deterministic { "yes" } else { "NO" }
    );
    for v in &report.violations {
        println!("VIOLATION: {v}");
    }
    if report.clean() {
        println!("plan upheld the durability contract");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes each failing plan's minimal reproducer to
/// `CHAOS_repro_<n>.json`.
fn write_reproducers(report: &chaos::CampaignReport) {
    let plans = report
        .records
        .iter()
        .filter_map(|r| Some((r, r.reproducer.as_ref()?)));
    for (n, (record, plan)) in plans.enumerate() {
        let path = format!("CHAOS_repro_{n}.json");
        match std::fs::write(&path, plan.to_json()) {
            Ok(()) => eprintln!(
                "wrote minimal reproducer {path} (seed {} plan {}) — replay with \
                 `faults --chaos --replay {path}`",
                record.seed, record.index
            ),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
}
