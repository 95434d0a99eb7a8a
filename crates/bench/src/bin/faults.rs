//! Runs the deterministic fault-injection campaigns and renders the
//! pass/degrade/fail tables.
//!
//! ```text
//! faults [--chaos | --media | --failover | --power | --traffic | --overload
//!         | --checkpoint]
//!        [--smoke] [--seeds N] [--lines N] [--metrics] [--replay FILE]
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
//! * `--checkpoint` — run the checkpoint campaign: snapshot/restore
//!   throughput plus a prefix-reuse identity proof (the reused power
//!   sweep must match the straight sweep record-for-record while
//!   simulating strictly fewer stores); writes `BENCH_checkpoint.json`
//!   with ≥0.8× snapshots/sec and restores/sec regression gates;
//! * `--smoke`   — the quick `scripts/verify.sh` gate;
//! * `--seeds N` — sweep seeds 1..=N (default: the full 5-seed sweep);
//! * `--lines N` — lines (requests for `--traffic`, `--overload` and
//!   `--chaos`) per run, raised to the campaign's floor;
//! * `--metrics` — also print the merged metrics registry.
//!
//! Any other argument, a second mode, a non-number or `--replay`
//! without `--chaos` prints the usage line and exits with status 2.
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
use contutto_bench::sweep::{self, Campaign};
use contutto_bench::{chaos, checkpoint, failover, faults, media, overload, power, traffic};

const USAGE: &str = "usage: faults [--chaos | --media | --failover | --power | --traffic \
                     | --overload | --checkpoint] [--smoke] [--seeds N] [--lines N] \
                     [--metrics] [--replay FILE]";

/// The mode flags; without one the link-fault campaign runs.
const MODES: [&str; 7] = [
    "--media",
    "--failover",
    "--power",
    "--traffic",
    "--overload",
    "--chaos",
    "--checkpoint",
];

/// A parsed command line.
#[derive(Debug, Default, PartialEq, Eq)]
struct Args {
    mode: Option<&'static str>,
    smoke: bool,
    seeds: Option<u64>,
    lines: Option<u64>,
    metrics: bool,
    replay: Option<String>,
}

/// Parses the arguments after the program name, refusing anything the
/// driver does not understand.
fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--metrics" => parsed.metrics = true,
            "--replay" => parsed.replay = Some(value()?.clone()),
            "--seeds" | "--lines" => {
                let v = value()?;
                let n = v
                    .parse()
                    .map_err(|_| format!("{arg} takes a number, not {v:?}"))?;
                if arg == "--seeds" {
                    parsed.seeds = Some(n);
                } else {
                    parsed.lines = Some(n);
                }
            }
            flag => {
                let Some(&mode) = MODES.iter().find(|&&m| m == flag) else {
                    return Err(format!("unknown argument {flag:?}"));
                };
                if let Some(first) = parsed.mode.replace(mode) {
                    return Err(format!("two modes: {first} and {flag}"));
                }
            }
        }
    }
    if parsed.replay.is_some() && parsed.mode != Some("--chaos") {
        return Err("--replay needs --chaos".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("faults: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (smoke, seeds, lines) = (args.smoke, args.seeds, args.lines);
    match args.mode.unwrap_or_default() {
        "--media" => run_sweep::<media::Scenario>(&args),
        "--failover" => run_sweep::<failover::Scenario>(&args),
        "--traffic" => run_sweep::<traffic::Scenario>(&args),
        "--overload" => run_sweep::<overload::Scenario>(&args),
        "--power" => {
            let report = power::run_campaign(&power::CampaignConfig::sized(smoke, seeds, lines));
            let table = format!(
                "{}stores simulated: {}\n",
                report.render_table(),
                report.stores_executed
            );
            let metrics = args.metrics.then_some(&report.metrics);
            finish("power-fail", &table, metrics, report.violations(), None)
        }
        "--chaos" => {
            if let Some(path) = &args.replay {
                return replay(path);
            }
            let report = chaos::run_campaign(&chaos::CampaignConfig::sized(smoke, seeds, lines));
            write_reproducers(&report);
            finish(
                "chaos",
                &report.render_table(),
                None,
                report.violations(),
                Some(&report.bench()),
            )
        }
        "--checkpoint" => {
            let cfg = checkpoint::CampaignConfig::sized(smoke, seeds, lines);
            let report = checkpoint::run_campaign(&cfg);
            finish(
                "checkpoint",
                &report.render_table(),
                None,
                report.violations(),
                Some(&report.bench()),
            )
        }
        // No mode flag (`parse` accepts no other): the link faults.
        _ => run_sweep::<faults::Scenario>(&args),
    }
}

/// Runs one of the scenario × seed campaigns.
fn run_sweep<S: Campaign>(args: &Args) -> ExitCode {
    let cfg = sweep::Config::<S>::sized(args.smoke, args.seeds, args.lines);
    let report = sweep::run_campaign(&cfg);
    finish(
        S::NAME,
        &report.render_table(),
        args.metrics.then(|| report.merged_metrics()).as_ref(),
        report.violations(),
        S::bench(&report).as_ref(),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn a_full_command_line_parses() {
        let args = parse_line("--traffic --smoke --seeds 2 --lines 40 --metrics");
        let want = Args {
            mode: Some("--traffic"),
            smoke: true,
            seeds: Some(2),
            lines: Some(40),
            metrics: true,
            replay: None,
        };
        assert_eq!(args, Ok(want));
        assert_eq!(parse_line(""), Ok(Args::default()));
        let replay = parse_line("--chaos --replay CHAOS_repro_0.json").unwrap();
        assert_eq!(replay.replay.as_deref(), Some("CHAOS_repro_0.json"));
    }

    #[test]
    fn arguments_it_does_not_understand_are_refused() {
        for (line, why) in [
            ("--overlaod --smoke", "unknown argument \"--overlaod\""),
            ("--smoke extra", "unknown argument \"extra\""),
            ("--lines abc", "--lines takes a number, not \"abc\""),
            ("--seeds -1", "--seeds takes a number, not \"-1\""),
            ("--lines", "--lines needs a value"),
            ("--media --power", "two modes: --media and --power"),
            ("--replay x.json", "--replay needs --chaos"),
            ("--reuse-prefix", "unknown argument \"--reuse-prefix\""),
        ] {
            assert_eq!(parse_line(line), Err(why.to_string()), "{line}");
        }
    }
}
