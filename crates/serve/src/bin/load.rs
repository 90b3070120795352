//! br-load — client, load generator, and smoke prober for the
//! `br-serve` daemon.
//!
//! ```text
//! br-load --addr HOST:PORT [--requests N] [--threads N] [--seed N]   # load run
//! br-load --addr HOST:PORT --smoke [--chaos]                         # CI smoke
//! br-load --addr HOST:PORT --shutdown                                # drain server
//! ```
//!
//! The load mode drives Appendix I suite programs (Test scale) through
//! `Run` requests on both machines, with the shared retry/backoff
//! policy, and reports requests/sec, p50/p99 latency, and the server's
//! cache hit rate. A malformed flag value or a missing `--addr` exits
//! with status 2. Timed serving figures come from the repository
//! benchmark's `serve_mixed` workload (`benchmark/README.md`).
//!
//! The smoke mode is the ci.sh end-to-end probe: it checks liveness,
//! correctness of a differential run and of its repeat (which must come
//! from the cache on both machines), typed error classification for a
//! bad program sent twice, and — with `--chaos` — that a worker panic
//! yields a typed `Internal` response and the server keeps answering
//! afterwards. It expects a server with its artifact cache on.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use br_serve::proto::{ErrorKind, Request, Response, RunSpec, ServerStats, Target};
use br_serve::{request_with_retry, Client, RetryPolicy};
use br_workloads::rng::Rng64;
use br_workloads::{suite, Scale, Workload};

struct Args {
    addr: Option<String>,
    requests: usize,
    threads: usize,
    seed: u64,
    smoke: bool,
    chaos: bool,
    shutdown: bool,
}

fn parse<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("br-load: {flag} needs a value");
        std::process::exit(2);
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        requests: 200,
        threads: 4,
        seed: 0x5eed,
        smoke: false,
        chaos: false,
        shutdown: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => args.addr = Some(parse(&mut it, "--addr")),
            "--requests" => args.requests = parse(&mut it, "--requests"),
            "--threads" => args.threads = parse(&mut it, "--threads"),
            "--seed" => args.seed = parse(&mut it, "--seed"),
            "--smoke" => args.smoke = true,
            "--chaos" => args.chaos = true,
            "--shutdown" => args.shutdown = true,
            other => {
                eprintln!("br-load: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn run_spec(w: &Workload, no_cache: bool) -> Request {
    Request::Run(RunSpec {
        name: w.name.to_string(),
        src: w.source.clone(),
        target: Target::Both,
        fuel: 0,
        compile_budget_ms: 0,
        no_cache,
    })
}

/// Drive exactly `requests` suite runs across `threads` connections,
/// thread `t` sending requests `t`, `t + threads`, …; returns sorted
/// per-request latencies (µs) and the error count.
fn drive(addr: &str, requests: usize, threads: usize, seed: u64) -> (Vec<u64>, usize) {
    let progs = suite(Scale::Test);
    let threads = threads.max(1);
    let mut all = Vec::with_capacity(requests);
    let mut errors = 0usize;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let progs = &progs;
            let mine = (t..requests).step_by(threads);
            handles.push(s.spawn(move || {
                let policy = RetryPolicy::default();
                let mut rng = Rng64::seed_from_u64(seed ^ (t as u64) << 32);
                let mut lat = Vec::with_capacity(requests / threads + 1);
                let mut errs = 0usize;
                for i in mine {
                    let w = &progs[i % progs.len()];
                    let start = Instant::now();
                    match request_with_retry(addr, &run_spec(w, false), &policy, &mut rng) {
                        Ok(Response::RunOk(_)) => lat.push(start.elapsed().as_micros() as u64),
                        Ok(_) | Err(_) => errs += 1,
                    }
                }
                (lat, errs)
            }));
        }
        for h in handles {
            let (lat, errs) = h.join().expect("load thread");
            all.extend(lat);
            errors += errs;
        }
    });
    all.sort_unstable();
    (all, errors)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn fetch_stats(addr: &str) -> Option<ServerStats> {
    let mut c = Client::connect(addr, Duration::from_secs(10)).ok()?;
    match c.request(&Request::Stats) {
        Ok(Response::Stats(s)) => Some(s),
        _ => None,
    }
}

fn cache_hit_pct(s: &ServerStats) -> f64 {
    let looked = s.cache_hits + s.cache_disk_hits + s.cache_misses;
    if looked == 0 {
        0.0
    } else {
        100.0 * (s.cache_hits + s.cache_disk_hits) as f64 / looked as f64
    }
}

// ---------------------------------------------------------------- smoke

macro_rules! expect {
    ($cond:expr, $($msg:tt)*) => {
        if !$cond {
            eprintln!("br-load smoke FAIL: {}", format!($($msg)*));
            return ExitCode::FAILURE;
        }
    };
}

fn smoke(addr: &str, chaos: bool) -> ExitCode {
    let timeout = Duration::from_secs(30);
    let mut c = match Client::connect(addr, timeout) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("br-load smoke FAIL: connect {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    expect!(
        matches!(c.request(&Request::Ping), Ok(Response::Pong)),
        "ping did not pong"
    );

    // A differential run must agree across machines and match locally
    // computed ground truth, and so must its repeat, which takes the
    // warm path: both artifacts come from the cache.
    let progs = suite(Scale::Test);
    let w = &progs[0];
    let local = br_core::Experiment::new()
        .run_comparison(w.name, &w.source)
        .expect("local ground truth");
    for (run, repeat) in [("first", false), ("repeated", true)] {
        match c.request(&run_spec(w, false)) {
            Ok(Response::RunOk(replies)) => {
                expect!(replies.len() == 2, "{run} run: expected 2 machine replies");
                expect!(
                    replies[0].exit == replies[1].exit,
                    "{run} run: machines disagree over the wire"
                );
                expect!(
                    replies[0].exit == local.baseline.exit,
                    "{run} run: server exit {} != local exit {}",
                    replies[0].exit,
                    local.baseline.exit
                );
                expect!(
                    replies[0].meas == local.baseline.meas && replies[1].meas == local.brmach.meas,
                    "{run} run: server measurements differ from local run"
                );
                expect!(
                    !repeat || replies.iter().all(|r| r.cached),
                    "repeated run was not served from the cache on both machines"
                );
            }
            other => {
                eprintln!("br-load smoke FAIL: {run} run returned {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    // A broken program must come back as a typed Frontend error, on its
    // repeat too.
    let bad = Request::Run(RunSpec {
        name: "bad".into(),
        src: "int main( {".into(),
        target: Target::Both,
        fuel: 0,
        compile_budget_ms: 0,
        no_cache: false,
    });
    for run in ["first", "repeated"] {
        expect!(
            matches!(
                c.request(&bad),
                Ok(Response::Error {
                    kind: ErrorKind::Frontend,
                    ..
                })
            ),
            "{run} syntax error was not classified Frontend"
        );
    }

    // A tiny fuel budget must come back as a typed emulation deadline.
    let starved = Request::Run(RunSpec {
        name: "starved".into(),
        src: "int main() { int i; for (i = 0; i < 100000; i = i + 1) {} return 0; }".into(),
        target: Target::Baseline,
        fuel: 10,
        compile_budget_ms: 0,
        no_cache: true,
    });
    expect!(
        matches!(
            c.request(&starved),
            Ok(Response::Error {
                kind: ErrorKind::DeadlineEmu,
                ..
            })
        ),
        "fuel exhaustion was not classified DeadlineEmu"
    );

    if chaos {
        // A worker panic must yield a typed Internal response...
        expect!(
            matches!(
                c.request(&Request::ChaosPanic),
                Ok(Response::Error {
                    kind: ErrorKind::Internal,
                    ..
                })
            ),
            "chaos panic was not isolated to a typed Internal response"
        );
        // ... and the server must still answer on a fresh connection.
        let mut c2 = Client::connect(addr, timeout).expect("reconnect after panic");
        expect!(
            matches!(c2.request(&Request::Ping), Ok(Response::Pong)),
            "server unresponsive after worker panic"
        );
        let stats = fetch_stats(addr).expect("stats after panic");
        expect!(stats.worker_panics >= 1, "panic not counted");
        expect!(stats.workers_respawned >= 1, "worker not respawned");
    }

    eprintln!("br-load smoke OK");
    ExitCode::SUCCESS
}

// ----------------------------------------------------------------- main

fn main() -> ExitCode {
    let args = parse_args();

    let Some(addr) = args.addr.clone() else {
        eprintln!("br-load: --addr required");
        return ExitCode::from(2);
    };

    if args.shutdown {
        let mut c = match Client::connect(&addr, Duration::from_secs(10)) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("br-load: connect {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match c.request(&Request::Shutdown) {
            Ok(Response::ShutdownAck) => {
                eprintln!("br-load: server draining");
                ExitCode::SUCCESS
            }
            other => {
                eprintln!("br-load: unexpected shutdown reply: {other:?}");
                ExitCode::FAILURE
            }
        };
    }

    if args.smoke {
        return smoke(&addr, args.chaos);
    }

    let start = Instant::now();
    let (lat, errors) = drive(&addr, args.requests, args.threads, args.seed);
    let wall = start.elapsed();
    let rps = lat.len() as f64 / wall.as_secs_f64();
    println!(
        "br-load: {} ok / {} errors in {:.2}s ({rps:.0} req/sec, p50 {} us, p99 {} us)",
        lat.len(),
        errors,
        wall.as_secs_f64(),
        percentile(&lat, 0.50),
        percentile(&lat, 0.99),
    );
    if let Some(s) = fetch_stats(&addr) {
        println!(
            "br-load: server cache hit rate {:.1}%, {} panics, {} respawns",
            cache_hit_pct(&s),
            s.worker_panics,
            s.workers_respawned
        );
    }
    if errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
