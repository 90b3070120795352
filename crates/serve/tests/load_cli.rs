//! `br-load` rejects a malformed flag value or a missing `--addr` with a
//! usage exit instead of quietly running with a default, and its load
//! mode sends exactly the requests it is asked for.

use std::process::Command;

use br_serve::{spawn, ServeConfig};

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

#[test]
fn missing_addr_exits_with_usage_status() {
    let out = Command::new(env!("CARGO_BIN_EXE_br-load"))
        .args(["--requests", "1"])
        .output()
        .expect("br-load starts");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--addr"), "{stderr}");
}

/// Ten requests over four threads do not divide evenly; the load run
/// still sends ten, not four times three.
#[test]
fn load_run_sends_exactly_the_requests_asked_for() {
    let handle = spawn(ServeConfig::default()).expect("server starts");
    let out = Command::new(env!("CARGO_BIN_EXE_br-load"))
        .args(["--addr", &handle.addr.to_string()])
        .args(["--requests", "10", "--threads", "4"])
        .output()
        .expect("br-load starts");
    let stats = handle.stats();
    handle.stop();
    handle.join();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("br-load: 10 ok / 0 errors"), "{stdout}");
    // The ten runs, plus the closing stats request.
    assert_eq!(stats.requests, 11, "{stats:?}");
}
