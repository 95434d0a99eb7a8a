//! Runs the memory-level-parallelism pipeline sweep and prints its
//! table.
//!
//! ```text
//! pipeline [--smoke] [--reads N]
//! ```
//!
//! * `--smoke`  — the quick `scripts/verify.sh` gate (256 reads per
//!   depth instead of 2048);
//! * `--reads N` — override the reads per depth.
//!
//! Any other argument, or a `--reads` value that is not a number,
//! prints the usage line and exits with status 2.
//!
//! Each window depth runs twice and must replay to byte-identical
//! trace fingerprints. Exits nonzero if determinism breaks or if
//! depth-16 throughput is not at least 4x depth-1. The smoke sweep's
//! simulated rows are pinned exactly by `tests/campaign_counters.rs`;
//! wall time is the `benchmark` package's to gate.

use std::process::ExitCode;

use contutto_bench::pipeline::{run_sweep, PipelineConfig};
use contutto_bench::report::finish;

const USAGE: &str = "usage: pipeline [--smoke] [--reads N]";

/// Parses the arguments after the program name into a sweep
/// configuration, refusing anything it does not understand.
fn parse(args: &[String]) -> Result<PipelineConfig, String> {
    let mut smoke = false;
    let mut reads = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--reads" => {
                let v = it.next().ok_or("--reads needs a value")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("--reads takes a number, not {v:?}"))?;
                reads = Some(n.max(1));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let mut cfg = if smoke {
        PipelineConfig::smoke()
    } else {
        PipelineConfig::full()
    };
    if let Some(n) = reads {
        cfg.reads = n;
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("pipeline: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run_sweep(&cfg);
    finish(
        "pipeline",
        &report.render_table(),
        None,
        report.violations(),
    )
}
