//! Usage errors exit 2 and `--help` exits 0 on br-bench's binaries; a
//! failed gate keeps exit 1. The paper-artifact binaries share one
//! strict parser, so a removed or misspelt flag no longer runs silently.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary starts")
}

#[test]
fn suite_binary_rejects_an_unknown_flag() {
    let out = run(env!("CARGO_BIN_EXE_table1"), &["--profile", "x.json"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--profile"), "{stderr}");
    assert!(stderr.contains("usage: table1"), "{stderr}");
    assert!(out.stdout.is_empty(), "{out:?}");
}

#[test]
fn argument_free_binaries_parse_strictly_too() {
    for bin in [
        env!("CARGO_BIN_EXE_fig2_fig4"),
        env!("CARGO_BIN_EXE_fig5_fig7"),
        env!("CARGO_BIN_EXE_fig6_fig8"),
        env!("CARGO_BIN_EXE_ingest_rv32"),
    ] {
        let out = run(bin, &["--bogus"]);
        assert_eq!(out.status.code(), Some(2), "{bin}: {out:?}");
        let out = run(bin, &["--jobs", "lots"]);
        assert_eq!(out.status.code(), Some(2), "{bin}: {out:?}");
    }
}

#[test]
fn suite_binary_help_succeeds() {
    let out = run(env!("CARGO_BIN_EXE_cycles"), &["--help"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: cycles"));
}

#[test]
fn br_tv_usage_error_exits_2_and_help_exits_0() {
    let out = run(env!("CARGO_BIN_EXE_br-tv"), &["--bogus"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--bogus") && stderr.contains("usage: br-tv"),
        "{stderr}"
    );
    let out = run(env!("CARGO_BIN_EXE_br-tv"), &["--help"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: br-tv"));
}
