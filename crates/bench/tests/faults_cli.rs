//! The campaign drivers and `tables` refuse command lines they do not
//! understand, so a misspelt flag in a CI loop fails instead of
//! silently running something else.

use std::fs::File;
use std::path::Path;
use std::process::{Command, ExitStatus, Output};
use std::time::{Duration, Instant};

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

/// A chaos reproducer on the nvdimm layout with an inter-submit gap
/// of `gap_ps` and one action at step 8.
fn reproducer(gap_ps: u64, action: &str) -> String {
    format!(
        "{{\n  \"chaos_plan\": 1,\n  \"layout\": \"nvdimm\",\n  \"seed\": 1,\n  \
         \"requests\": 48,\n  \"gap_ps\": {gap_ps},\n  \"actions\": [\n    \
         {{\"at_step\": 8, {action}}}\n  ]\n}}\n"
    )
}

/// Runs `faults` with stdout in `out_path` and returns its exit
/// status and stdout. A child still running after a minute is killed
/// and fails the test, so a hang fails it instead of blocking it.
fn run_within_a_minute(args: &[&str], out_path: &Path) -> (ExitStatus, String) {
    let stdout = File::create(out_path).expect("stdout file");
    let mut child = Command::new(env!("CARGO_BIN_EXE_faults"))
        .args(args)
        .stdout(stdout)
        .spawn()
        .expect("binary runs");
    let start = Instant::now();
    while child.try_wait().expect("child status").is_none() {
        if start.elapsed() > Duration::from_secs(60) {
            child.kill().expect("kill the hung child");
            let _ = child.wait();
            panic!("{args:?} still running after a minute");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let status = child.wait().expect("child status");
    (status, std::fs::read_to_string(out_path).expect("stdout"))
}

/// Reproducer files are external input: an outage, a slow-channel
/// window, a scrub interval, a hot range off the end of the address
/// space, or an inter-submit gap of hours or more is clamped, so the
/// replay reports no panic and ends promptly.
#[test]
fn a_replayed_hostile_reproducer_is_clamped_not_a_panic() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("hostile_reproducers");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (max, gap) = (u64::MAX, 400_000);
    let storm = "\"kind\": \"flip_storm\", \"slot\": 2, \"seed\": 5, \"flips\": 4, \
                 \"window_ps\": 1000000, \"hot_start\": 18446744073709551612, \
                 \"hot_len\": 4096, \"stuck\": 2";
    let mut cases: Vec<(u64, String)> = [
        format!("\"kind\": \"power_cut\", \"outage_ps\": {max}"),
        format!("\"kind\": \"slow_channel\", \"slot\": 2, \"window_ps\": {max}"),
        format!("\"kind\": \"scrub_on\", \"slot\": 2, \"interval_ps\": {max}"),
        storm.to_string(),
    ]
    .map(|action| (gap, action))
    .into();
    // Hostile gaps in the header, a rate step and a spike.
    for hostile in [max, 1 << 63] {
        cases.push((hostile, "\"kind\": \"checkpoint\"".to_string()));
        for kind in ["rate_step", "traffic_spike"] {
            let action = format!("\"kind\": \"{kind}\", \"gap_ps\": {hostile}, \"steps\": 4");
            cases.push((gap, action));
        }
    }
    for (i, (gap_ps, action)) in cases.iter().enumerate() {
        let path = dir.join(format!("case_{i}.json"));
        std::fs::write(&path, reproducer(*gap_ps, action)).expect("write reproducer");
        let args = ["--chaos", "--replay", path.to_str().expect("utf-8 path")];
        let (status, stdout) = run_within_a_minute(&args, &path.with_extension("out"));
        let case = format!("gap {gap_ps}, {action}: {stdout}");
        assert!(stdout.contains("1 applied"), "{case}");
        assert!(!stdout.contains("PANIC:"), "{case}");
        assert_ne!(status.code(), Some(101), "{case}");
    }
}
