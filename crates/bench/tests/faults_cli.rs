//! The `faults` driver refuses command lines it does not understand,
//! so a misspelt mode in a CI loop fails instead of silently running
//! the link-fault campaign.

use std::process::Command;

#[test]
fn a_misspelt_mode_exits_2_with_the_usage_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_faults"))
        .args(["--overlaod", "--smoke"])
        .output()
        .expect("faults runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--overlaod"), "{stderr}");
    assert!(stderr.contains("usage: faults"), "{stderr}");
    assert!(out.stdout.is_empty(), "no campaign ran");
}
