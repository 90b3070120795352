//! br-serve — the compile-and-emulate daemon.
//!
//! ```text
//! br-serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!          [--cache-dir PATH] [--no-cache] [--chaos] [--verify]
//!          [--default-fuel N] [--max-fuel N] [--compile-budget-ms N]
//!          [--io-timeout-ms N] [--port-file PATH]
//! ```
//!
//! Binds (port 0 = ephemeral), optionally writes the resolved
//! `host:port` to `--port-file` (how scripts/ci.sh hands the address to
//! the smoke client without racing on a fixed port), then serves until
//! a wire `Shutdown` request arrives and the drain completes.
//!
//! There is no signal-based shutdown: a std-only build has no signal
//! handling, so orchestration either sends `Shutdown` (graceful) or
//! kills the process (the cache's atomic writes keep the disk store
//! consistent either way).

use std::process::ExitCode;

use br_serve::{spawn, ServeConfig};

fn usage() -> ! {
    eprintln!(
        "usage: br-serve [--addr HOST:PORT] [--workers N] [--queue-cap N] \
         [--cache-dir PATH] [--no-cache] [--chaos] [--verify] \
         [--default-fuel N] [--max-fuel N] [--compile-budget-ms N] \
         [--io-timeout-ms N] [--port-file PATH]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("br-serve: {flag} needs a value");
        std::process::exit(2);
    })
}

fn main() -> ExitCode {
    let mut cfg = ServeConfig::default();
    let mut port_file: Option<String> = None;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = parse(&mut it, "--addr"),
            "--workers" => cfg.workers = parse(&mut it, "--workers"),
            "--queue-cap" => cfg.queue_cap = parse(&mut it, "--queue-cap"),
            "--cache-dir" => cfg.cache_dir = Some(parse::<String>(&mut it, "--cache-dir").into()),
            "--no-cache" => cfg.cache = false,
            "--chaos" => cfg.chaos = true,
            "--verify" => cfg.verify = true,
            "--default-fuel" => cfg.default_fuel = parse(&mut it, "--default-fuel"),
            "--max-fuel" => cfg.max_fuel = parse(&mut it, "--max-fuel"),
            "--compile-budget-ms" => {
                cfg.default_compile_budget_ms = parse(&mut it, "--compile-budget-ms")
            }
            "--io-timeout-ms" => cfg.io_timeout_ms = parse(&mut it, "--io-timeout-ms"),
            "--port-file" => port_file = Some(parse(&mut it, "--port-file")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("br-serve: unknown flag {other}");
                usage();
            }
        }
    }

    let handle = match spawn(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("br-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("br-serve: listening on {}", handle.addr);

    if let Some(path) = port_file {
        // tmp + rename so a polling reader never sees a half-written
        // address.
        let tmp = format!("{path}.tmp");
        if std::fs::write(&tmp, handle.addr.to_string()).is_err()
            || std::fs::rename(&tmp, &path).is_err()
        {
            eprintln!("br-serve: cannot write port file {path}");
            handle.stop();
            handle.join();
            return ExitCode::FAILURE;
        }
    }

    handle.join();
    eprintln!("br-serve: drained, exiting");
    ExitCode::SUCCESS
}
