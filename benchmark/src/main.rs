//! `benchmark`: end-to-end and per-layer benchmark of the ConTutto
//! simulator. See `README.md` beside this package for the workloads,
//! the metrics and how to run it.

mod json;
mod probes;
mod reference;
mod repeat;
mod report;
mod spans;
mod spec;
mod workloads;

use std::process::ExitCode;

use spec::Spec;
use workloads::Workload;

const USAGE: &str = "usage: benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] \
                     [--repeat K] [--smoke]";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<u32>,
    smoke: bool,
    /// The arguments minus `--repeat`, for child runs.
    child: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = Spec::load().run_seconds;
    let mut trace = false;
    let mut repeat = None;
    let mut smoke = false;
    let mut child = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(v).ok_or(format!("unknown workload {v:?}"))?);
                child.extend([flag.clone(), v.clone()]);
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
                child.extend([flag.clone(), v.clone()]);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds {v:?}"))?;
                child.extend([flag.clone(), v.clone()]);
            }
            "--trace" => {
                let v = value()?;
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                };
                child.extend([flag.clone(), v.clone()]);
            }
            "--repeat" => {
                let v = value()?;
                repeat = Some(
                    v.parse()
                        .ok()
                        .filter(|k| *k >= 1)
                        .ok_or(format!("bad repeat count {v:?}"))?,
                );
            }
            "--smoke" => {
                smoke = true;
                child.push(flag.clone());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        repeat,
        smoke,
        child,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = args.repeat {
        return repeat::run(&args.child, k, args.trace);
    }
    let spec = Spec::load();
    let metrics = spec.metrics(args.trace);
    let out = report::run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
    );
    eprint!(
        "{}",
        out.render(
            metrics,
            &format!(
                "benchmark {} seed {} trace {}{}",
                args.workload.name(),
                args.seed,
                u8::from(args.trace),
                if args.smoke { " (smoke)" } else { "" }
            )
        )
    );
    println!("{}", out.to_json(metrics));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line_and_rejects_bad_input() {
        let a = args("--workload checkpoint --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Checkpoint, 7, 10.0, true)
        );
        let r = args("--workload open-zipf --repeat 5 --smoke").unwrap();
        assert_eq!(r.repeat, Some(5));
        assert_eq!(r.child, ["--workload", "open-zipf", "--smoke"]);
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload open-zipf --trace yes",
            "--workload open-zipf --seconds -1",
            "--workload open-zipf --repeat 0",
            "--workload open-zipf --bogus",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
