//! Runs the memory-level-parallelism pipeline sweep and writes
//! `BENCH_pipeline.json`.
//!
//! ```text
//! pipeline [--smoke] [--reads N]
//! ```
//!
//! * `--smoke`  — the quick `scripts/verify.sh` gate (256 reads per
//!   depth instead of 2048);
//! * `--reads N` — override the reads per depth.
//!
//! Each window depth runs twice and must replay to byte-identical
//! trace fingerprints. Exits nonzero if determinism breaks, if
//! depth-16 throughput is not at least 4x depth-1, or if any depth's
//! simulated throughput regressed more than 20 % against the previous
//! `BENCH_pipeline.json` row of the same depth and read count (the old
//! file is only overwritten after the comparison).

use std::process::ExitCode;

use contutto_bench::pipeline::{run_sweep, PipelineConfig};
use contutto_bench::report::finish;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = if args.iter().any(|a| a == "--smoke") {
        PipelineConfig::smoke()
    } else {
        PipelineConfig::full()
    };
    let reads = args
        .iter()
        .position(|a| a == "--reads")
        .and_then(|i| args.get(i + 1)?.parse().ok());
    if let Some(n) = reads {
        cfg.reads = std::cmp::max(1u64, n);
    }
    let report = run_sweep(&cfg);
    finish(
        "pipeline",
        &report.render_table(),
        None,
        report.violations(),
        Some(&report.bench()),
    )
}
