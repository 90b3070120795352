//! `br-prof` separates a usage error (exit 2) from a failed coverage
//! gate (exit 1), so a mistyped flag in CI does not read as a gap.

use std::process::Command;

fn br_prof(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_br-prof"))
        .args(args)
        .output()
        .expect("br-prof starts")
}

#[test]
fn unknown_flag_exits_with_usage_status() {
    let out = br_prof(&["--tier", "interp"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--tier"), "{stderr}");
    assert!(stderr.contains("usage: br-prof"), "{stderr}");
    assert!(out.stdout.is_empty(), "{out:?}");
}

#[test]
fn malformed_value_exits_with_usage_status() {
    let out = br_prof(&["--jobs", "lots"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = br_prof(&["--help"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: br-prof"));
}
