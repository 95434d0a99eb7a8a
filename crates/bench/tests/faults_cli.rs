//! The campaign drivers and `tables` refuse command lines they do not
//! understand, so a misspelt flag in a CI loop fails instead of
//! silently running something else.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

/// Exit status 2, the offending text and the usage line on stderr, and
/// nothing on stdout.
fn assert_refused(out: &Output, offending: &str, usage: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(offending), "{stderr}");
    assert!(stderr.contains(usage), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing ran");
}

#[test]
fn a_misspelt_mode_exits_2_with_the_usage_line() {
    let out = run(env!("CARGO_BIN_EXE_faults"), &["--overlaod", "--smoke"]);
    assert_refused(&out, "--overlaod", "usage: faults");
}

#[test]
fn pipeline_refuses_a_misspelt_flag_or_a_non_numeric_read_count() {
    let bin = env!("CARGO_BIN_EXE_pipeline");
    let out = run(bin, &["--smok", "--reads", "64"]);
    assert_refused(&out, "--smok", "usage: pipeline");
    let out = run(bin, &["--smoke", "--reads", "abc"]);
    assert_refused(&out, "\"abc\"", "usage: pipeline");
    let out = run(bin, &["--smoke", "--reads"]);
    assert_refused(&out, "--reads needs a value", "usage: pipeline");
}

#[test]
fn tables_refuses_an_argument_that_names_no_section() {
    let out = run(env!("CARGO_BIN_EXE_tables"), &["--table1", "--tabel3"]);
    assert_refused(&out, "--tabel3", "usage: tables");
}
