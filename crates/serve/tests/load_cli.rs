//! `br-load` rejects a malformed flag value with a usage exit instead of
//! quietly running with the default.

use std::process::Command;

#[test]
fn malformed_request_count_exits_with_usage_status() {
    let out = Command::new(env!("CARGO_BIN_EXE_br-load"))
        .args(["--addr", "127.0.0.1:9", "--requests", "lots"])
        .output()
        .expect("br-load starts");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--requests"), "{stderr}");
}
