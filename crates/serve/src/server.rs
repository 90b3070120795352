//! The `br-serve` daemon: accept loop, bounded queue, worker pool,
//! and the compile-and-emulate request handler.
//!
//! Survival design (the failure-mode table in `SERVE.md` mirrors this):
//!
//! - **Load shedding.** The acceptor pushes connections onto a bounded
//!   queue. When the queue is full the connection is answered with one
//!   unsolicited `Overloaded` frame and closed — a fast typed "no"
//!   instead of an unbounded backlog.
//! - **Panic isolation.** Each request is handled under
//!   `catch_unwind`. A panicking handler produces a typed `Internal`
//!   response for the client, the worker thread exits, and the
//!   supervisor respawns it. One poisoned request never takes down the
//!   daemon or a neighbour's request.
//! - **Cooperative deadlines.** Compile budgets thread a wall-clock
//!   deadline through the pipeline's stage gates
//!   ([`Experiment::compile_module_budgeted`]); emulation budgets are
//!   step fuel. Both expire as typed errors — no thread is ever
//!   aborted, so locks and caches stay coherent.
//! - **Graceful drain.** A `Shutdown` request stops the acceptor,
//!   lets workers finish everything already queued, then exits. The
//!   drain ends idle connections at once instead of waiting out the
//!   read timeout.

use std::collections::VecDeque;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use br_core::{Error, Experiment, Machine};

use crate::cache::{Cache, Origin};
use crate::proto::{
    classify, ErrorKind, MachineReply, Request, Response, RunSpec, ServerStats, Target,
};
use crate::wire::{read_frame, write_frame};

/// Server tuning knobs. `Default` suits tests and local use.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Accepted connections waiting for a worker beyond those in
    /// service; `0` sheds whenever every worker is busy.
    pub queue_cap: usize,
    /// Emulation step budget applied when a request asks for `fuel: 0`.
    pub default_fuel: u64,
    /// Hard ceiling on per-request fuel; larger asks are clamped.
    pub max_fuel: u64,
    /// Compile budget applied when a request asks for `0` ms.
    pub default_compile_budget_ms: u32,
    /// Per-read socket timeout — bounds how long a worker can be held
    /// by an idle or stalled client.
    pub io_timeout_ms: u64,
    /// Enable the artifact cache.
    pub cache: bool,
    /// On-disk cache directory (`None` = memory only).
    pub cache_dir: Option<PathBuf>,
    /// Honour `ChaosPanic` requests (tests only; off by default).
    pub chaos: bool,
    /// Run br-verify stage gates during compilation.
    pub verify: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 64,
            default_fuel: 200_000_000,
            max_fuel: 4_000_000_000,
            default_compile_budget_ms: 10_000,
            io_timeout_ms: 30_000,
            cache: true,
            cache_dir: None,
            chaos: false,
            verify: false,
        }
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    overloaded: AtomicU64,
    deadline_compile: AtomicU64,
    deadline_emu: AtomicU64,
    worker_panics: AtomicU64,
    workers_respawned: AtomicU64,
    disconnects: AtomicU64,
}

struct Shared {
    cfg: ServeConfig,
    /// The bound address: [`Shared::begin_shutdown`] connects here to
    /// wake the acceptor from its blocking `accept`.
    addr: SocketAddr,
    /// Set under the `queue` lock, so a worker that finds the queue
    /// empty and the flag clear is already waiting when it changes.
    shutdown: AtomicBool,
    queue: Mutex<VecDeque<TcpStream>>,
    qcv: Condvar,
    /// One slot per worker: a clone of the connection it is serving,
    /// so the drain can end a read that would otherwise wait for a
    /// frame until `io_timeout_ms`.
    serving: Mutex<Vec<Option<TcpStream>>>,
    /// Workers not serving a connection — waiting in [`Shared::pop`]
    /// or on their way there; the load-shedding admission check reads
    /// this. It starts at the pool size, so a client that connects as
    /// soon as `spawn` returns is never shed by an idle server.
    idle: AtomicU64,
    cache: Cache,
    counters: Counters,
}

impl Shared {
    /// Start the drain: set the flag, wake idle workers, end the reads
    /// of connections being served and wake the acceptor. Calling it
    /// again is harmless.
    fn begin_shutdown(&self) {
        {
            let _q = self
                .queue
                .lock()
                .expect("no thread panics holding the queue");
            self.shutdown.store(true, Ordering::SeqCst);
        }
        self.qcv.notify_all();
        let serving = self
            .serving
            .lock()
            .expect("no thread panics holding the slots");
        for conn in serving.iter().flatten() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        drop(serving);
        // The acceptor sees the flag once this connection arrives, and
        // `enqueue` sheds it. After the acceptor has returned the
        // connect is refused, which is fine.
        let _ = TcpStream::connect(wake_addr(self.addr));
    }

    /// Dequeue the next connection; `None` once draining is complete.
    fn pop(&self) -> Option<TcpStream> {
        let mut q = self.queue.lock().unwrap();
        let taken = loop {
            if let Some(s) = q.pop_front() {
                break Some(s);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                break None;
            }
            q = self
                .qcv
                .wait(q)
                .expect("no thread panics holding the queue");
        };
        self.idle.fetch_sub(1, Ordering::SeqCst);
        taken
    }

    /// Record (or with `None` clear) the connection worker `idx`
    /// serves. Once the drain has begun, a newly served connection has
    /// its read side shut at once: the bytes already received stay
    /// readable, so a request queued before the drain is still read and
    /// answered, and the read after it sees end-of-stream.
    fn set_serving(&self, idx: usize, conn: Option<&TcpStream>) {
        let mut serving = self
            .serving
            .lock()
            .expect("no thread panics holding the slots");
        if let Some(conn) = conn {
            if self.shutdown.load(Ordering::SeqCst) {
                let _ = conn.shutdown(Shutdown::Read);
            }
        }
        serving[idx] = conn.and_then(|c| c.try_clone().ok());
    }

    fn stats(&self) -> ServerStats {
        let c = &self.counters;
        let k = &self.cache.counters;
        ServerStats {
            requests: c.requests.load(Ordering::Relaxed),
            ok: c.ok.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            overloaded: c.overloaded.load(Ordering::Relaxed),
            deadline_compile: c.deadline_compile.load(Ordering::Relaxed),
            deadline_emu: c.deadline_emu.load(Ordering::Relaxed),
            worker_panics: c.worker_panics.load(Ordering::Relaxed),
            workers_respawned: c.workers_respawned.load(Ordering::Relaxed),
            cache_hits: k.hits.load(Ordering::Relaxed),
            cache_misses: k.misses.load(Ordering::Relaxed),
            cache_disk_hits: k.disk_hits.load(Ordering::Relaxed),
            cache_quarantined: k.quarantined.load(Ordering::Relaxed),
            disconnects: c.disconnects.load(Ordering::Relaxed),
        }
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::stop`] or send a wire `Shutdown`, then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    /// The bound address (with the ephemeral port resolved).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<thread::JoinHandle<()>>,
    supervisor: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Begin draining without a wire request (local teardown): the
    /// listener closes, late connections are shed with `ShuttingDown`,
    /// and every connection already accepted has its pending requests
    /// answered and is then closed, even one whose client stays idle.
    /// Calling it after a wire `Shutdown`, or twice, is harmless.
    pub fn stop(&self) {
        self.shared.begin_shutdown();
    }

    /// Wait for the drain to finish and all threads to exit. After a
    /// `stop` or a wire `Shutdown` this returns once the requests
    /// already received are answered; an idle client does not hold it
    /// for `io_timeout_ms`.
    pub fn join(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
    }

    /// Counters snapshot (same data the wire `Stats` request returns).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }
}

/// Bind and start the daemon. Returns once the listener is accepting.
///
/// The acceptor thread blocks in `accept`, so a connection reaches the
/// queue as soon as it arrives. A drain wakes it by connecting to the
/// bound address (to loopback when bound to `0.0.0.0` or `::`), and
/// shuts the read side of the connections the workers serve, so
/// [`ServerHandle::join`] does not wait `io_timeout_ms` for an idle
/// client.
pub fn spawn(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let workers = cfg.workers.max(1);

    let shared = Arc::new(Shared {
        cache: Cache::new(cfg.cache_dir.clone()),
        idle: AtomicU64::new(workers as u64),
        cfg,
        addr,
        shutdown: AtomicBool::new(false),
        queue: Mutex::new(VecDeque::new()),
        qcv: Condvar::new(),
        serving: Mutex::new((0..workers).map(|_| None).collect()),
        counters: Counters::default(),
    });

    let acceptor = {
        let shared = shared.clone();
        thread::Builder::new()
            .name("br-serve-accept".into())
            .spawn(move || accept_loop(&listener, &shared))?
    };

    let supervisor = {
        let shared = shared.clone();
        thread::Builder::new()
            .name("br-serve-supervise".into())
            .spawn(move || supervise(&shared))?
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        supervisor: Some(supervisor),
    })
}

/// Block in `accept` until the drain's wake-up connection arrives.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => enqueue(shared, stream),
            // `EMFILE` and the like: back off so a persistent error
            // cannot spin.
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Where the drain connects to wake the acceptor: the bound address,
/// with a wildcard IP replaced by loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Queue a fresh connection or shed it with a typed response.
///
/// A connection is shed only when no worker is idle *and* the waiting
/// backlog is already at `queue_cap` — so `queue_cap: 0` means "serve
/// only what a free worker can take right now".
fn enqueue(shared: &Shared, stream: TcpStream) {
    let rejected = {
        let mut q = shared.queue.lock().unwrap();
        if shared.shutdown.load(Ordering::SeqCst) {
            Some((stream, ErrorKind::ShuttingDown))
        } else if shared.idle.load(Ordering::SeqCst) == 0 && q.len() >= shared.cfg.queue_cap {
            Some((stream, ErrorKind::Overloaded))
        } else {
            q.push_back(stream);
            shared.qcv.notify_one();
            None
        }
    };
    if let Some((stream, kind)) = rejected {
        if kind == ErrorKind::Overloaded {
            shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
        }
        shed(stream, kind);
    }
}

/// Answer a shed connection with one unsolicited error frame and close
/// it. The client's first request is never read; the frame answers
/// whatever it sends first, and `retryable()` tells it to back off.
fn shed(mut stream: TcpStream, kind: ErrorKind) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let message = match kind {
        ErrorKind::Overloaded => "server overloaded: request queue is full".to_string(),
        _ => "server is shutting down".to_string(),
    };
    let resp = Response::Error { kind, message };
    let _ = write_frame(&mut stream, &resp.encode());
}

fn supervise(shared: &Arc<Shared>) {
    let n = shared.cfg.workers.max(1);
    let (tx, rx) = mpsc::channel::<(usize, bool)>();
    let mut handles: Vec<Option<thread::JoinHandle<()>>> = Vec::with_capacity(n);
    for i in 0..n {
        handles.push(Some(spawn_worker(shared.clone(), i, tx.clone())));
    }
    let mut live = n;
    while live > 0 {
        let (idx, respawn) = rx
            .recv()
            .expect("this thread holds a sender, so the channel stays open");
        if let Some(h) = handles[idx].take() {
            let _ = h.join();
        }
        if respawn {
            // The pool never shrinks from a panic.
            shared.idle.fetch_add(1, Ordering::SeqCst);
            handles[idx] = Some(spawn_worker(shared.clone(), idx, tx.clone()));
        } else {
            live -= 1;
        }
    }
}

fn spawn_worker(
    shared: Arc<Shared>,
    idx: usize,
    done: mpsc::Sender<(usize, bool)>,
) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name(format!("br-serve-worker-{idx}"))
        .spawn(move || {
            while let Some(conn) = shared.pop() {
                shared.set_serving(idx, Some(&conn));
                let outcome = serve_conn(&shared, conn);
                shared.set_serving(idx, None);
                match outcome {
                    ConnOutcome::Clean => {
                        shared.idle.fetch_add(1, Ordering::SeqCst);
                    }
                    ConnOutcome::Panicked { respawn } => {
                        // This worker handled a poisoned request; hand
                        // the slot back for a fresh respawn.
                        let _ = done.send((idx, respawn));
                        return;
                    }
                }
            }
            let _ = done.send((idx, false));
        })
        .expect("spawn worker thread")
}

enum ConnOutcome {
    Clean,
    /// The worker retires; `respawn` unless the server is draining.
    Panicked {
        respawn: bool,
    },
}

fn respond(shared: &Shared, stream: &mut TcpStream, resp: &Response) -> bool {
    if write_frame(stream, &resp.encode()).is_err() {
        shared.counters.disconnects.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    true
}

fn serve_conn(shared: &Shared, mut stream: TcpStream) -> ConnOutcome {
    let timeout = Duration::from_millis(shared.cfg.io_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));

    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => return ConnOutcome::Clean, // clean EOF between frames
            Err(_) => {
                // Mid-frame disconnect, stalled client, or oversized
                // frame: count it and drop the connection. The daemon
                // itself is unaffected.
                shared.counters.disconnects.fetch_add(1, Ordering::Relaxed);
                return ConnOutcome::Clean;
            }
        };
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);

        let req = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    kind: ErrorKind::BadRequest,
                    message: e.to_string(),
                };
                if !respond(shared, &mut stream, &resp) {
                    return ConnOutcome::Clean;
                }
                continue;
            }
        };

        match req {
            Request::Ping => {
                shared.counters.ok.fetch_add(1, Ordering::Relaxed);
                if !respond(shared, &mut stream, &Response::Pong) {
                    return ConnOutcome::Clean;
                }
            }
            Request::Stats => {
                shared.counters.ok.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Stats(shared.stats());
                if !respond(shared, &mut stream, &resp) {
                    return ConnOutcome::Clean;
                }
            }
            Request::Shutdown => {
                shared.counters.ok.fetch_add(1, Ordering::Relaxed);
                let _ = respond(shared, &mut stream, &Response::ShutdownAck);
                shared.begin_shutdown();
                return ConnOutcome::Clean;
            }
            Request::ChaosPanic if !shared.cfg.chaos => {
                shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    kind: ErrorKind::BadRequest,
                    message: "chaos requests are disabled on this server".to_string(),
                };
                if !respond(shared, &mut stream, &resp) {
                    return ConnOutcome::Clean;
                }
            }
            Request::ChaosPanic => {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    panic!("chaos: panic requested by client");
                }));
                debug_assert!(outcome.is_err());
                return isolate_panic(shared, &mut stream, outcome.unwrap_err());
            }
            Request::Run(spec) => {
                match catch_unwind(AssertUnwindSafe(|| handle_run(shared, &spec))) {
                    Ok(resp) => {
                        match resp {
                            Response::RunOk(_) => {
                                shared.counters.ok.fetch_add(1, Ordering::Relaxed)
                            }
                            _ => shared.counters.errors.fetch_add(1, Ordering::Relaxed),
                        };
                        if !respond(shared, &mut stream, &resp) {
                            return ConnOutcome::Clean;
                        }
                    }
                    Err(payload) => return isolate_panic(shared, &mut stream, payload),
                }
            }
        }
    }
}

/// A request handler panicked: turn the payload into a typed response
/// for the client and retire this worker (the supervisor respawns it).
fn isolate_panic(
    shared: &Shared,
    stream: &mut TcpStream,
    payload: Box<dyn std::any::Any + Send>,
) -> ConnOutcome {
    shared
        .counters
        .worker_panics
        .fetch_add(1, Ordering::Relaxed);
    shared.counters.errors.fetch_add(1, Ordering::Relaxed);
    // Count the replacement before answering, so a client that reads
    // the stats after this response sees it.
    let respawn = !shared.shutdown.load(Ordering::SeqCst);
    if respawn {
        shared
            .counters
            .workers_respawned
            .fetch_add(1, Ordering::Relaxed);
    }
    let msg = panic_message(payload.as_ref());
    let resp = Response::Error {
        kind: ErrorKind::Internal,
        message: format!("worker panicked while handling the request: {msg}"),
    };
    let _ = respond(shared, stream, &resp);
    ConnOutcome::Panicked { respawn }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn target_for(machine: Machine) -> Target {
    match machine {
        Machine::Baseline => Target::Baseline,
        Machine::BranchReg => Target::BranchReg,
    }
}

/// Compile (through the cache) and emulate one request.
fn handle_run(shared: &Shared, spec: &RunSpec) -> Response {
    match run_spec(shared, spec) {
        Ok(replies) => Response::RunOk(replies),
        Err(err) => {
            let kind = classify(&err);
            match kind {
                ErrorKind::DeadlineCompile => {
                    shared
                        .counters
                        .deadline_compile
                        .fetch_add(1, Ordering::Relaxed);
                }
                ErrorKind::DeadlineEmu => {
                    shared.counters.deadline_emu.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
            Response::Error {
                kind,
                message: err.to_string(),
            }
        }
    }
}

fn run_spec(shared: &Shared, spec: &RunSpec) -> Result<Vec<MachineReply>, Error> {
    let cfg = &shared.cfg;
    let fuel = if spec.fuel == 0 {
        cfg.default_fuel
    } else {
        spec.fuel
    }
    .min(cfg.max_fuel);
    let budget_ms = if spec.compile_budget_ms == 0 {
        cfg.default_compile_budget_ms
    } else {
        spec.compile_budget_ms
    };
    let deadline = Some(Instant::now() + Duration::from_millis(u64::from(budget_ms)));

    let exp = Experiment {
        fuel,
        verify: cfg.verify,
        ..Experiment::new()
    };

    // Lower once; the front end is machine-independent.
    let module = br_frontend::compile(&spec.src).map_err(br_core::CompileError::Frontend)?;
    let module_fp = module.fingerprint();

    let machines: &[Machine] = match spec.target {
        Target::Baseline => &[Machine::Baseline],
        Target::BranchReg => &[Machine::BranchReg],
        Target::Both => &[Machine::Baseline, Machine::BranchReg],
    };

    let use_cache = cfg.cache && !spec.no_cache;
    let mut replies = Vec::with_capacity(machines.len());
    for &machine in machines {
        let opts_fp = match machine {
            Machine::Baseline => exp.base_opts.fingerprint(),
            Machine::BranchReg => exp.br_opts.fingerprint(),
        };
        let (artifact, origin) = if use_cache {
            let key = Cache::key(module_fp, opts_fp, machine, exp.verify);
            shared.cache.get_or_compile(key, || {
                exp.compile_module_budgeted(&module, machine, deadline)
            })?
        } else {
            let compiled = exp.compile_module_budgeted(&module, machine, deadline)?;
            (Arc::new(compiled), Origin::Compiled)
        };
        let (prog, stats) = &*artifact;
        let run = exp.run_program(prog, *stats)?;
        replies.push(MachineReply {
            target: target_for(machine),
            exit: run.exit,
            static_insts: run.static_insts as u32,
            cached: origin != Origin::Compiled,
            stats: run.stats,
            meas: run.meas,
        });
    }

    // In-server differential check for Both runs.
    if let [a, b] = &replies[..] {
        if a.exit != b.exit {
            return Err(Error::Mismatch {
                name: spec.name.clone(),
                baseline: a.exit,
                brmach: b.exit,
            });
        }
    }
    Ok(replies)
}

#[cfg(test)]
mod tests {
    /// `run_spec` runs on `Experiment::new()`'s tier, so this covers the
    /// server's runs too.
    #[test]
    fn experiments_servers_and_emulators_start_on_the_traced_tier() {
        let exp = br_core::Experiment::new();
        let (prog, _) = exp
            .compile("int main() { return 0; }", br_isa::Machine::Baseline)
            .expect("compiles");
        let emu = br_emu::Emulator::new(&prog);
        assert_eq!([exp.tier, emu.tier()], [br_emu::ExecTier::Traced; 2]);
    }
}
