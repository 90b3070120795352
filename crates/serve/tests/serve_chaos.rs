//! The chaos harness: every injected failure — worker panics, overload,
//! mid-stream disconnects, starved budgets, drains — must surface as a
//! typed response (or a clean close), never a hang, crash, or wrong
//! answer for a well-formed request.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use br_serve::proto::{ErrorKind, Request, Response, RunSpec, Target};
use br_serve::{request_with_retry, spawn, Client, RetryPolicy, ServeConfig};
use br_workloads::rng::Rng64;
use br_workloads::{suite, Scale};

const TIMEOUT: Duration = Duration::from_secs(30);

fn chaos_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        chaos: true,
        verify: false,
        ..ServeConfig::default()
    }
}

fn loop_src(iters: u32) -> String {
    format!(
        "int main() {{ int i; int s; s = 0; \
         for (i = 0; i < {iters}; i = i + 1) {{ s = s + i; }} return s & 255; }}"
    )
}

fn run_req(name: &str, src: String, fuel: u64) -> Request {
    Request::Run(RunSpec {
        name: name.into(),
        src,
        target: Target::Both,
        fuel,
        compile_budget_ms: 0,
        no_cache: false,
    })
}

#[test]
fn worker_panic_yields_typed_error_and_server_survives() {
    let handle = spawn(chaos_config()).unwrap();
    let addr = handle.addr;

    let mut c = Client::connect(addr, TIMEOUT).unwrap();
    match c.request(&Request::ChaosPanic).unwrap() {
        Response::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::Internal);
            assert!(
                message.contains("worker panicked") && message.contains("chaos"),
                "panic context preserved in `{message}`"
            );
        }
        other => panic!("expected typed Internal error, got {other:?}"),
    }

    // The daemon survives and serves correct answers afterwards.
    let mut c2 = Client::connect(addr, TIMEOUT).unwrap();
    assert!(matches!(
        c2.request(&Request::Ping).unwrap(),
        Response::Pong
    ));
    match c2
        .request(&run_req("after-panic", loop_src(100), 0))
        .unwrap()
    {
        Response::RunOk(replies) => assert_eq!(replies[0].exit, replies[1].exit),
        other => panic!("run after panic failed: {other:?}"),
    }

    let stats = handle.stats();
    assert!(stats.worker_panics >= 1, "panic counted");
    assert!(stats.workers_respawned >= 1, "worker respawned");

    handle.stop();
    handle.join();
}

#[test]
fn repeated_panics_never_exhaust_the_pool() {
    let handle = spawn(ServeConfig {
        workers: 1,
        ..chaos_config()
    })
    .unwrap();
    let addr = handle.addr;
    // With a single worker, every panic kills the whole pool until the
    // supervisor respawns it — ten in a row must all recover.
    for i in 0..10 {
        let mut c = Client::connect(addr, TIMEOUT).unwrap();
        match c.request(&Request::ChaosPanic).unwrap() {
            Response::Error {
                kind: ErrorKind::Internal,
                ..
            } => {}
            other => panic!("round {i}: {other:?}"),
        }
        let mut c2 = Client::connect(addr, TIMEOUT).unwrap();
        assert!(
            matches!(c2.request(&Request::Ping).unwrap(), Response::Pong),
            "round {i}: server died"
        );
    }
    assert!(handle.stats().workers_respawned >= 10);
    handle.stop();
    handle.join();
}

#[test]
fn sibling_request_completes_while_neighbour_panics() {
    let handle = spawn(chaos_config()).unwrap();
    let addr = handle.addr;
    let worker = std::thread::spawn(move || {
        let mut c = Client::connect(addr, TIMEOUT).unwrap();
        c.request(&run_req("sibling", loop_src(200_000), 0))
            .unwrap()
    });
    // Fire panics at the other worker while the run is in flight.
    for _ in 0..3 {
        let mut c = Client::connect(addr, TIMEOUT).unwrap();
        let _ = c.request(&Request::ChaosPanic);
    }
    match worker.join().unwrap() {
        Response::RunOk(replies) => {
            assert_eq!(replies[0].exit, replies[1].exit, "sibling unaffected")
        }
        other => panic!("sibling request was damaged by a neighbour panic: {other:?}"),
    }
    handle.stop();
    handle.join();
}

#[test]
fn overload_is_shed_with_a_typed_retryable_response() {
    let handle = spawn(ServeConfig {
        workers: 1,
        queue_cap: 0,
        io_timeout_ms: 3_000,
        chaos: false,
        verify: false,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr;

    // Occupy the single worker: a connection with a confirmed exchange
    // keeps the worker parked in its read loop.
    let mut holder = Client::connect(addr, TIMEOUT).unwrap();
    assert!(matches!(
        holder.request(&Request::Ping).unwrap(),
        Response::Pong
    ));

    // The next connection must be shed with a typed Overloaded frame.
    let mut c = Client::connect(addr, TIMEOUT).unwrap();
    match c.request(&Request::Ping) {
        Ok(Response::Error { kind, .. }) => {
            assert_eq!(kind, ErrorKind::Overloaded);
            assert!(kind.retryable(), "overload invites a retry");
        }
        other => panic!("expected Overloaded shed, got {other:?}"),
    }
    assert!(handle.stats().overloaded >= 1);

    // Release the worker; a retrying client then gets through.
    drop(holder);
    let mut rng = Rng64::seed_from_u64(99);
    let policy = RetryPolicy {
        max_attempts: 10,
        base_delay_ms: 20,
        max_delay_ms: 500,
        io_timeout: TIMEOUT,
    };
    let resp = request_with_retry(&addr.to_string(), &Request::Ping, &policy, &mut rng)
        .expect("retry with backoff eventually lands");
    assert!(matches!(resp, Response::Pong));

    handle.stop();
    handle.join();
}

#[test]
fn mid_frame_disconnect_is_counted_and_harmless() {
    let handle = spawn(ServeConfig {
        io_timeout_ms: 500,
        ..chaos_config()
    })
    .unwrap();
    let addr = handle.addr;

    // Promise a 100-byte frame, send 10 bytes, vanish.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&100u32.to_le_bytes()).unwrap();
        s.write_all(&[0u8; 10]).unwrap();
    }
    // Also: a clean connect-and-vanish between frames (no count, no harm).
    drop(TcpStream::connect(addr).unwrap());

    // Server keeps answering; the torn stream was counted.
    let mut c = Client::connect(addr, TIMEOUT).unwrap();
    assert!(matches!(c.request(&Request::Ping).unwrap(), Response::Pong));
    let deadline = std::time::Instant::now() + TIMEOUT;
    while handle.stats().disconnects < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "mid-frame disconnect never counted"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    handle.stop();
    handle.join();
}

#[test]
fn oversized_frame_is_rejected_without_allocation_or_crash() {
    let handle = spawn(chaos_config()).unwrap();
    let addr = handle.addr;
    {
        let mut s = TcpStream::connect(addr).unwrap();
        // A hostile 4 GiB length prefix.
        s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    }
    let mut c = Client::connect(addr, TIMEOUT).unwrap();
    assert!(matches!(c.request(&Request::Ping).unwrap(), Response::Pong));
    handle.stop();
    handle.join();
}

#[test]
fn starved_fuel_budget_is_a_typed_deadline() {
    let handle = spawn(chaos_config()).unwrap();
    let mut c = Client::connect(handle.addr, TIMEOUT).unwrap();
    let req = Request::Run(RunSpec {
        name: "starved".into(),
        src: loop_src(1_000_000),
        target: Target::Baseline,
        fuel: 100, // far less than the loop needs
        compile_budget_ms: 0,
        no_cache: true,
    });
    match c.request(&req).unwrap() {
        Response::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::DeadlineEmu);
            assert!(!kind.retryable(), "same fuel would starve again");
            assert!(
                message.contains("instruction budget exhausted"),
                "self-contained message, got `{message}`"
            );
        }
        other => panic!("expected DeadlineEmu, got {other:?}"),
    }
    assert!(handle.stats().deadline_emu >= 1);
    handle.stop();
    handle.join();
}

#[test]
fn malformed_request_payload_is_a_typed_bad_request() {
    let handle = spawn(chaos_config()).unwrap();
    let mut s = TcpStream::connect(handle.addr).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    // A syntactically valid frame whose payload is garbage.
    br_serve::wire::write_frame(&mut s, &[0xFF, 0x01, 0x02]).unwrap();
    let payload = br_serve::wire::read_frame(&mut s)
        .unwrap()
        .expect("response");
    match Response::decode(&payload).unwrap() {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // Same connection still usable for a well-formed request.
    br_serve::wire::write_frame(&mut s, &Request::Ping.encode()).unwrap();
    let payload = br_serve::wire::read_frame(&mut s).unwrap().expect("pong");
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::Pong
    ));
    handle.stop();
    handle.join();
}

#[test]
fn graceful_drain_finishes_queued_work_then_exits() {
    let handle = spawn(chaos_config()).unwrap();
    let addr = handle.addr;

    let mut c = Client::connect(addr, TIMEOUT).unwrap();
    match c.request(&run_req("pre-drain", loop_src(500), 0)).unwrap() {
        Response::RunOk(_) => {}
        other => panic!("pre-drain run failed: {other:?}"),
    }
    match c.request(&Request::Shutdown).unwrap() {
        Response::ShutdownAck => {}
        other => panic!("expected ShutdownAck, got {other:?}"),
    }

    // join() returning proves the drain completes rather than wedging.
    handle.join();

    // The listener is gone: new connections are refused (or reset).
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_secs(2)).is_err(),
        "listener still accepting after drain"
    );
}

/// The correctness anchor under chaos: for every suite program, the
/// server's answer must be byte-identical to a direct in-process
/// `Experiment` run — while panics are being injected on the side.
#[test]
fn server_results_match_direct_experiment_under_chaos() {
    let handle = spawn(chaos_config()).unwrap();
    let addr = handle.addr;
    let exp = br_core::Experiment::new();

    for (i, w) in suite(Scale::Test).iter().take(4).enumerate() {
        // Inject a panic between programs to churn the worker pool.
        if i % 2 == 1 {
            let mut c = Client::connect(addr, TIMEOUT).unwrap();
            let _ = c.request(&Request::ChaosPanic);
        }
        let mut c = Client::connect(addr, TIMEOUT).unwrap();
        let replies = match c.request(&run_req(w.name, w.source.clone(), 0)).unwrap() {
            Response::RunOk(r) => r,
            other => panic!("{}: {other:?}", w.name),
        };
        let local = exp.run_comparison(w.name, &w.source).unwrap();
        assert_eq!(replies[0].exit, local.baseline.exit, "{}", w.name);
        assert_eq!(replies[1].exit, local.brmach.exit, "{}", w.name);
        assert_eq!(replies[0].meas, local.baseline.meas, "{}", w.name);
        assert_eq!(replies[1].meas, local.brmach.meas, "{}", w.name);
        assert_eq!(replies[0].stats, local.baseline.stats, "{}", w.name);
        assert_eq!(replies[1].stats, local.brmach.stats, "{}", w.name);
    }

    handle.stop();
    handle.join();
}

/// Answer one `Ping` on a fresh connection, as `br-load` and
/// `request_with_retry` do for every request.
fn ping_fresh(addr: std::net::SocketAddr) {
    let mut c = Client::connect(addr, TIMEOUT).unwrap();
    assert!(matches!(c.request(&Request::Ping).unwrap(), Response::Pong));
}

/// The acceptor hands each connection over as it arrives. A poll that
/// sleeps between empty accepts adds its sleep to every request on a
/// fresh connection, and since each sleep starts just after the previous
/// connection was handed over, back-to-back requests each wait most of
/// it. The wait is sleep, not CPU, so the fastest of 20 stays below it
/// on a loaded host.
#[test]
fn a_fresh_connection_is_served_without_waiting_for_a_poll() {
    let handle = spawn(chaos_config()).unwrap();
    let addr = handle.addr;
    // The first connection meets any poll sleep at a random point.
    ping_fresh(addr);
    let fastest = (0..20)
        .map(|_| {
            let start = Instant::now();
            ping_fresh(addr);
            start.elapsed()
        })
        .min()
        .unwrap();
    assert!(
        fastest < Duration::from_millis(2),
        "fastest fresh-connection Ping took {fastest:?}"
    );
    handle.stop();
    handle.join();
}

/// Stop a server while `idle` holds a served connection that sends no
/// further frame, and require the drain to end it rather than wait out
/// `io_timeout_ms`.
fn stop_with_an_idle_client(handle: br_serve::ServerHandle, idle: &mut Client) {
    assert!(matches!(
        idle.request(&Request::Ping).unwrap(),
        Response::Pong
    ));
    let start = Instant::now();
    handle.stop();
    handle.join();
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "stop + join with an idle client took {took:?}"
    );
}

#[test]
fn drain_closes_an_idle_connection_instead_of_waiting_for_its_timeout() {
    let handle = spawn(chaos_config()).unwrap();
    let addr = handle.addr;
    let mut idle = Client::connect(addr, TIMEOUT).unwrap();
    stop_with_an_idle_client(handle, &mut idle);
    assert!(
        idle.request(&Request::Ping).is_err(),
        "the drained connection is closed"
    );
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_secs(2)).is_err(),
        "listener still accepting after drain"
    );
}

/// The drain wakes the acceptor by connecting to the bound address; on
/// a wildcard bind that must go to loopback.
#[test]
fn a_server_bound_to_the_wildcard_address_stops_promptly() {
    let handle = spawn(ServeConfig {
        addr: "0.0.0.0:0".into(),
        ..chaos_config()
    })
    .unwrap();
    let port = handle.addr.port();
    let mut idle = Client::connect(("127.0.0.1", port), TIMEOUT).unwrap();
    stop_with_an_idle_client(handle, &mut idle);
}

#[test]
fn stop_answers_the_request_in_flight_and_the_one_queued_behind_it() {
    let handle = spawn(ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..chaos_config()
    })
    .unwrap();
    let addr = handle.addr;
    // About 70M instructions: some 0.2 s on an optimised build, so the
    // Run is still in flight when `stop` is called.
    let busy = std::thread::spawn(move || {
        let mut c = Client::connect(addr, TIMEOUT).unwrap();
        c.request(&Request::Run(RunSpec {
            name: "busy".into(),
            src: loop_src(10_000_000),
            target: Target::Baseline,
            fuel: 0,
            compile_budget_ms: 0,
            no_cache: false,
        }))
    });
    // The single worker has read the Run once the request is counted.
    let deadline = Instant::now() + TIMEOUT;
    while handle.stats().requests < 1 {
        assert!(
            Instant::now() < deadline,
            "the Run never reached the worker"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut queued = TcpStream::connect(addr).unwrap();
    queued.set_read_timeout(Some(TIMEOUT)).unwrap();
    br_serve::wire::write_frame(&mut queued, &Request::Ping.encode()).unwrap();
    // The acceptor takes connections in order, so once the next one is
    // shed the Ping's connection holds the single queue slot.
    let mut probe = Client::connect(addr, TIMEOUT).unwrap();
    match probe.request(&Request::Ping) {
        Ok(Response::Error {
            kind: ErrorKind::Overloaded,
            ..
        }) => {}
        other => panic!("expected the probe to be shed behind the queued Ping: {other:?}"),
    }
    handle.stop();

    match busy.join().unwrap() {
        Ok(Response::RunOk(replies)) => assert_eq!(replies.len(), 1),
        other => panic!("the Run in flight at stop() was not answered: {other:?}"),
    }
    let payload = br_serve::wire::read_frame(&mut queued)
        .unwrap()
        .expect("the queued Ping is answered");
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::Pong
    ));
    handle.join();
}

#[test]
fn stop_after_a_wire_shutdown_neither_hangs_nor_panics() {
    let handle = spawn(chaos_config()).unwrap();
    let mut c = Client::connect(handle.addr, TIMEOUT).unwrap();
    assert!(matches!(
        c.request(&Request::Shutdown).unwrap(),
        Response::ShutdownAck
    ));
    let start = Instant::now();
    handle.stop();
    handle.stop();
    handle.join();
    assert!(start.elapsed() < Duration::from_secs(5));
}
