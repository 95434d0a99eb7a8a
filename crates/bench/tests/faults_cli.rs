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

/// A chaos reproducer on the nvdimm layout with one hostile action at
/// step 8.
fn reproducer(action: &str) -> String {
    format!(
        "{{\n  \"chaos_plan\": 1,\n  \"layout\": \"nvdimm\",\n  \"seed\": 1,\n  \
         \"requests\": 48,\n  \"gap_ps\": 400000,\n  \"actions\": [\n    \
         {{\"at_step\": 8, {action}}}\n  ]\n}}\n"
    )
}

/// Reproducer files are external input: an outage, a slow-channel
/// window, a scrub interval or a hot range that runs off the end of
/// the clock or the address space is clamped by the injection layer,
/// so the replay reports no panic.
#[test]
fn a_replayed_hostile_reproducer_is_clamped_not_a_panic() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("hostile_reproducers");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cases = [
        (
            "outage.json",
            "\"kind\": \"power_cut\", \"outage_ps\": 18446744073709551615",
        ),
        (
            "slow_window.json",
            "\"kind\": \"slow_channel\", \"slot\": 2, \"window_ps\": 18446744073709551615",
        ),
        (
            "scrub_interval.json",
            "\"kind\": \"scrub_on\", \"slot\": 2, \"interval_ps\": 18446744073709551615",
        ),
        (
            "hot_start.json",
            "\"kind\": \"flip_storm\", \"slot\": 2, \"seed\": 5, \"flips\": 4, \
             \"window_ps\": 1000000, \"hot_start\": 18446744073709551612, \
             \"hot_len\": 4096, \"stuck\": 2",
        ),
    ];
    for (name, action) in cases {
        let path = dir.join(name);
        std::fs::write(&path, reproducer(action)).expect("write reproducer");
        let path = path.to_str().expect("utf-8 path");
        let out = run(env!("CARGO_BIN_EXE_faults"), &["--chaos", "--replay", path]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("1 applied"), "{name}: {stdout}");
        assert!(!stdout.contains("PANIC:"), "{name}: {stdout}");
        assert_ne!(out.status.code(), Some(101), "{name}: {stdout}");
    }
}
