//! `--repeat K`: the same run in K fresh child processes, each
//! metric's median, quartiles and relative spread, and a verdict
//! against the bounds in `BENCHMARK.json`.

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use crate::json;
use crate::report::{quartiles, Outcome};
use crate::spec::Spec;

/// Runs `child_args` K times as children of this executable and
/// summarizes them.
pub fn run(child_args: &[String], k: u32, traced: bool) -> ExitCode {
    let spec = Spec::load();
    let metrics = spec.metrics(traced);
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); metrics.len()];
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for i in 0..k {
        let out = Command::new(&exe)
            .args(child_args)
            .stderr(Stdio::inherit())
            .output()
            .expect("a child run starts");
        let last = String::from_utf8_lossy(&out.stdout)
            .lines()
            .last()
            .unwrap_or_default()
            .to_string();
        let Ok(doc) = json::parse(&last) else {
            eprintln!("repeat {i}: no result line (exit {})", out.status);
            correct = false;
            continue;
        };
        correct &=
            out.status.success() && doc.get("correct").and_then(|v| v.as_bool()) == Some(true);
        attempted += doc.get("attempted").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        failed += doc.get("failed").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        for (m, s) in metrics.iter().zip(&mut samples) {
            if let Some(v) = doc
                .get("metrics")
                .and_then(|all| all.get(&m.name))
                .and_then(|v| v.get("value"))
                .and_then(|v| v.as_f64())
            {
                s.push(v);
            }
        }
    }

    let mut table = format!(
        "{:<32} {:>14} {:>14} {:>14} {:>8} {:>6}\n",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut within = true;
    let mut medians = Vec::new();
    for (m, s) in metrics.iter().zip(&samples) {
        let (q1, med, q3) = quartiles(s);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        };
        // Set-up time is judged on its median alone, as the benchmark's
        // acceptance rule judges it: its spread is shown, not held to
        // the bound.
        let held = m.name != "setup_s";
        let over = (held && m.bound.is_some_and(|b| spread > b)) || s.len() != k as usize;
        within &= !over;
        let bound = m.bound.map_or("-".to_string(), |b| format!("{b:.2}"));
        let _ = writeln!(
            table,
            "{:<32} {q1:>14.4} {med:>14.4} {q3:>14.4} {spread:>8.4} {bound:>6}{}",
            m.name,
            if over { "  OVER" } else { "" }
        );
        medians.push((m.name.clone(), med));
    }
    eprint!("{k} runs\n{table}");
    let summary = Outcome {
        correct,
        attempted,
        failed,
        values: medians,
        notes: Vec::new(),
    };
    println!("{}", summary.to_json(metrics));
    if correct && within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
