//! `serve_mixed`: `Run` requests (both machines) against an in-process
//! `br_serve::spawn` server with two workers, driven from this process
//! with at most two requests in flight.
//!
//! Each request opens its own connection through
//! `br_serve::request_with_retry`, and the requests go out as a closed
//! loop, each of two senders sending its next request as soon as its
//! last one is answered — as the repo's load generator (`br-load`)
//! drives the server. The run is a sequence of passes of 95 requests,
//! each timed like a batch workload's pass. Test-scale suite programs
//! hit the artifact cache (set-up warms it); beside them a seeded share
//! of never-seen programs — a suite program with a fresh global
//! appended, which changes its content address — miss, compile and
//! insert, and every pass meets fresh ones. Each request runs about half
//! a million simulated instructions per machine, against up to 15M per
//! program in `paper_suite`, so an emulator choice that depends on run
//! length shows on both sides, and so does a cache change that speeds
//! hits but slows inserts. The seed picks where the requests start in
//! the suite's cycle and which ones miss.
//!
//! An open loop at fixed offered rates was tried first: on a shared
//! host its latencies moved by half from one run to the next, because
//! queueing behind a slow request amplifies every slowdown the
//! host-speed reference does not see. The closed loop has no client
//! queue, so a request's time is its own.
//!
//! Oracle: every reply's exit and measurements equal a local
//! `Experiment` run of the same source, as `br-load --smoke` checks.
//! Error replies, and requests still refused or unconnected after the
//! last retry, count as failed.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use br_core::{CodegenStats, Experiment, Machine, Program, Scale};
use br_emu::{Emulator, ExecTier, Measurements};
use br_serve::proto::{MachineReply, Request, Response, RunSpec, ServerStats, Target};
use br_serve::{request_with_retry, RetryPolicy, ServeConfig, ServerHandle};
use br_workloads::rng::Rng64;

use crate::host::{self, Pass};
use crate::layers::{self, Source};
use crate::stats::{
    another_pass, mean, median, paper_gap, pass_metrics, peak_rss_mb, ratio, repeat_setup,
};
use crate::trace::Tracer;
use crate::{Args, Report};

const WORKERS: usize = 2;
/// Requests in flight at most: one sender thread each.
const SENDERS: usize = 2;
/// Share of requests, per mille, that carry a never-seen program.
const MISS_PER_MILLE: u64 = 200;
/// Requests per pass: five rounds of the suite. A pass is sent as a
/// closed loop, each sender sending its next request as soon as its last
/// one is answered, as `br-load` drives the server.
const PASS_REQUESTS: usize = 95;
/// Passes sent before the peak resident memory is read. The server
/// keeps every miss it compiled, and a time-bounded run sends more
/// passes the faster the server is, so the memory is read after a fixed
/// amount of work.
const RSS_PASSES: usize = 10;
/// Most requests a run can send per second of its budget: about three
/// times the capacity measured. A run that used them up would just end
/// early, so it caps no rate.
const PICKS_PER_S: f64 = 500.0;
/// Offered rate of the traced run's open-loop phase, in requests/s.
const TRACE_RPS: f64 = 60.0;
/// The probe thread runs the host-speed kernel this often while a pass
/// is sent: a few percent of one core.
const PROBE_EVERY: Duration = Duration::from_millis(50);
/// Requests of the traced phase replayed locally for the layer split.
const REPLAY_REQUESTS: usize = 120;

/// Which program a request carries.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Pick {
    Hit(usize),
    Miss(usize),
}

/// The seeded request mix, long enough for every phase of a run.
struct Mix {
    seed: u64,
    hits: Vec<(String, String)>,
    misses: Vec<(String, String)>,
    picks: Vec<Pick>,
}

impl Mix {
    fn new(seed: u64, n: usize) -> Mix {
        let hits: Vec<(String, String)> = br_workloads::suite(Scale::Test)
            .into_iter()
            .map(|w| (w.name.to_string(), w.source))
            .collect();
        let mut rng = Rng64::seed_from_u64(seed);
        let (mut misses, mut picks) = (Vec::new(), Vec::with_capacity(n));
        // Requests cycle through the suite in its own order, from a
        // seeded starting point, so every seed sends the same sequence
        // of request sizes: which requests overlap on the two workers,
        // and so the tail latency, does not hang on where the seed put
        // the heaviest programs. The seed picks which requests miss.
        let start = rng.next_u64() as usize % hits.len();
        for i in 0..n {
            let program = (start + i) % hits.len();
            if rng.chance(MISS_PER_MILLE, 1000) {
                let tag = rng.next_u64();
                let (name, src) = &hits[program];
                misses.push((
                    format!("{name}+{tag:016x}"),
                    format!(
                        "{src}\nint bench_miss_{tag:016x} = {};\n",
                        tag as u32 as i32
                    ),
                ));
                picks.push(Pick::Miss(misses.len() - 1));
            } else {
                picks.push(Pick::Hit(program));
            }
        }
        Mix {
            seed,
            hits,
            misses,
            picks,
        }
    }

    fn program(&self, p: Pick) -> &(String, String) {
        match p {
            Pick::Hit(i) => &self.hits[i],
            Pick::Miss(i) => &self.misses[i],
        }
    }

    fn request(&self, p: Pick) -> Request {
        let (name, src) = self.program(p);
        Request::Run(RunSpec {
            name: name.clone(),
            src: src.clone(),
            target: Target::Both,
            fuel: 0,
            compile_budget_ms: 0,
            no_cache: false,
        })
    }
}

/// A running server; dropping it drains the server and joins its
/// threads.
struct Server {
    handle: Option<ServerHandle>,
    addr: String,
    /// Replies to the warm-up requests, one per suite program.
    warm: Vec<Result<Vec<MachineReply>, String>>,
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.stop();
            h.join();
        }
    }
}

impl Server {
    fn start(mix: &Mix) -> Result<Server, String> {
        let handle = br_serve::spawn(ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("spawn: {e}"))?;
        let addr = handle.addr.to_string();
        let mut server = Server {
            handle: Some(handle),
            addr,
            warm: Vec::new(),
        };
        let mut rng = Rng64::seed_from_u64(mix.seed);
        for i in 0..mix.hits.len() {
            let reply = send(&server.addr, &mix.request(Pick::Hit(i)), &mut rng);
            server.warm.push(reply);
        }
        Ok(server)
    }

    fn stats(&self) -> ServerStats {
        self.handle
            .as_ref()
            .map(ServerHandle::stats)
            .unwrap_or_default()
    }
}

/// Send `req` on a fresh connection, retrying refusals and dropped
/// connections with br-serve's default backoff.
fn send(addr: &str, req: &Request, rng: &mut Rng64) -> Result<Vec<MachineReply>, String> {
    match request_with_retry(addr, req, &RetryPolicy::default(), rng) {
        Ok(Response::RunOk(replies)) => Ok(replies),
        Ok(Response::Error { kind, message }) => Err(format!("{kind:?}: {message}")),
        Ok(other) => Err(format!("unexpected reply {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// One request as the load loop saw it. Times are ms.
struct Sample {
    pick: Pick,
    /// Sent until reply, connecting included.
    rtt: f64,
    /// Due until a sender was free to take it.
    queue: f64,
    /// Sender free (or due) until actually sent: generator lateness.
    lag: f64,
    reply: Result<Vec<MachineReply>, String>,
    due: Instant,
    sent: Instant,
    done: Instant,
}

/// A finished phase of the load loop.
struct Phase {
    /// The requests in due order.
    samples: Vec<Sample>,
    /// From the first due time to the last reply, in s.
    wall: f64,
    /// Host factor over the phase, from the kernel runs of a probe
    /// thread beside the senders.
    factor: f64,
}

/// Offer `mix.picks[range]` at `rate` requests/s, or back to back (a
/// closed loop) when `rate` is infinite; each request goes to whichever
/// sender is free first.
fn phase(server: &Server, mix: &Mix, range: Range<usize>, rate: f64) -> Phase {
    let t0 = Instant::now() + Duration::from_millis(5);
    let addr = server.addr.as_str();
    let picks = &mix.picks[range.clone()];
    let next = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let (mut samples, probes) = std::thread::scope(|s| {
        let probe = s.spawn(|| {
            let mut out = Vec::new();
            while !done.load(Ordering::Relaxed) {
                out.push(host::sample());
                std::thread::sleep(PROBE_EVERY);
            }
            out
        });
        let handles: Vec<_> = (0..SENDERS)
            .map(|c| {
                let next = &next;
                let mut rng = Rng64::seed_from_u64(mix.seed ^ ((range.start * SENDERS + c) as u64));
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let free = Instant::now();
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&pick) = picks.get(j) else { break };
                        let due = t0 + Duration::from_secs_f64(j as f64 / rate);
                        let req = mix.request(pick);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let reply = send(addr, &req, &mut rng);
                        let done = Instant::now();
                        let ms = |a: Instant, b: Instant| {
                            b.saturating_duration_since(a).as_secs_f64() * 1e3
                        };
                        out.push(Sample {
                            pick,
                            rtt: ms(sent, done),
                            queue: ms(due, free),
                            lag: ms(due.max(free), sent),
                            reply,
                            due,
                            sent,
                            done,
                        });
                    }
                    out
                })
            })
            .collect();
        let samples: Vec<Sample> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("a load thread panicked"))
            .collect();
        done.store(true, Ordering::Relaxed);
        (samples, probe.join().expect("the probe thread panicked"))
    });
    samples.sort_by_key(|s| s.due);
    let last = samples.iter().map(|s| s.done).max().unwrap_or(t0);
    Phase {
        samples,
        wall: last.saturating_duration_since(t0).as_secs_f64(),
        factor: host::factor(&probes),
    }
}

/// The local ground truth for every distinct program the run sent.
struct Oracle {
    runs: HashMap<Pick, Result<(i32, Measurements, Measurements), String>>,
}

impl Oracle {
    fn new() -> Oracle {
        Oracle {
            runs: HashMap::new(),
        }
    }

    fn check(
        &mut self,
        mix: &Mix,
        pick: Pick,
        reply: &Result<Vec<MachineReply>, String>,
    ) -> Result<(), String> {
        let replies = reply.as_ref().map_err(Clone::clone)?;
        let (name, src) = mix.program(pick);
        let want = self.runs.entry(pick).or_insert_with(|| {
            Experiment::new()
                .run_comparison(name, src)
                .map(|c| (c.baseline.exit, c.baseline.meas, c.brmach.meas))
                .map_err(|e| format!("{name}: local run: {e}"))
        });
        let (exit, base, br) = want.as_ref().map_err(Clone::clone)?;
        match &replies[..] {
            [b, r] if b.exit == *exit && r.exit == *exit && b.meas == *base && r.meas == *br => {
                Ok(())
            }
            _ => Err(format!("{name}: reply differs from a local Experiment run")),
        }
    }
}

/// Requests one run may send.
fn mix_len(seconds: f64) -> usize {
    (PICKS_PER_S * seconds) as usize
}

pub fn run(args: &Args) -> Result<Report, String> {
    let secs = args.seconds.as_secs_f64();
    let n = mix_len(secs);
    let ((mix, server), setup_s) = repeat_setup(|| {
        let mix = Mix::new(args.seed, n);
        let server = Server::start(&mix)?;
        Ok((mix, server))
    })?;
    let mut report = Report::default();
    let mut oracle = Oracle::new();
    for (i, reply) in server.warm.iter().enumerate() {
        report.check(oracle.check(&mix, Pick::Hit(i), reply));
    }
    if args.trace {
        traced(args, &mix, &server, &mut oracle, &mut report)?;
        return Ok(report);
    }

    // Passes of a fixed number of requests, closed loop, for the run's
    // budget; every pass meets fresh misses.
    let start = Instant::now();
    let (mut walls, mut passes, mut rss) = (Vec::new(), Vec::new(), 0.0);
    let mut next = 0;
    while another_pass(start, &walls, args.seconds) && next + PASS_REQUESTS <= mix.picks.len() {
        let t = Instant::now();
        let p = phase(&server, &mix, next..next + PASS_REQUESTS, f64::INFINITY);
        walls.push(t.elapsed().as_secs_f64());
        next += PASS_REQUESTS;
        for s in &p.samples {
            report.check(oracle.check(&mix, s.pick, &s.reply));
        }
        passes.push(Pass {
            wall_s: p.wall / p.factor,
            job_ms: p.samples.iter().map(|s| s.rtt / p.factor).collect(),
            factor: p.factor,
            raw_wall_s: p.wall,
        });
        if passes.len() == RSS_PASSES {
            rss = peak_rss_mb();
        }
    }
    if passes.len() < RSS_PASSES {
        rss = peak_rss_mb();
    }
    pass_metrics(&mut report, &setup_s, &passes, rss);
    warm_gap(&mut report, &server);
    Ok(report)
}

/// Table I totals over the warm-up replies: the suite at Test scale.
fn warm_gap(report: &mut Report, server: &Server) {
    let pairs = server
        .warm
        .iter()
        .flatten()
        .filter_map(|replies| match &replies[..] {
            [b, r] => Some((&b.meas, &r.meas)),
            _ => None,
        });
    paper_gap(report, pairs);
}

/// Mean µs to encode and decode one request frame and its reply frame.
fn codec_us(mix: &Mix, samples: &[Sample]) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for s in samples {
        let Ok(replies) = &s.reply else { continue };
        let req = mix.request(s.pick);
        let resp = Response::RunOk(replies.clone());
        let t = Instant::now();
        let a = std::hint::black_box(req.encode());
        let b = std::hint::black_box(resp.encode());
        let ok = Request::decode(&a).is_ok() && Response::decode(&b).is_ok();
        total += t.elapsed().as_secs_f64() * 1e6;
        n += usize::from(ok);
    }
    ratio(total, n as f64)
}

/// The local replay through the entry points: `br_frontend::compile`,
/// `compile_module_for` for misses, and `Emulator::run` on both
/// machines. Returns its wall time and the binaries it compiled for
/// misses, by position in `replayed`.
fn replay_plain(
    mix: &Mix,
    exp: &Experiment,
    bins: &[Vec<(Program, CodegenStats)>],
    replayed: &[Sample],
) -> (f64, Vec<Vec<(Program, CodegenStats)>>) {
    let t = Instant::now();
    let mut compiled = Vec::with_capacity(replayed.len());
    for s in replayed {
        let (_, src) = mix.program(s.pick);
        let module = br_frontend::compile(src).ok();
        let own: Vec<_> = match (s.pick, &module) {
            (Pick::Miss(_), Some(m)) => [Machine::Baseline, Machine::BranchReg]
                .into_iter()
                .filter_map(|machine| exp.compile_module_for(m, machine).ok())
                .collect(),
            _ => Vec::new(),
        };
        let progs: Vec<&Program> = match s.pick {
            Pick::Hit(h) => bins[h].iter().map(|(p, _)| p).collect(),
            Pick::Miss(_) => own.iter().map(|(p, _)| p).collect(),
        };
        for prog in progs {
            std::hint::black_box(Emulator::new(prog).run(exp.fuel).ok());
        }
        compiled.push(own);
    }
    (t.elapsed().as_secs_f64(), compiled)
}

/// The traced run: one open-loop phase at `TRACE_RPS`, where a request
/// can wait for a sender and the generator can run late, with
/// client-side request spans and the server's counter deltas, then a
/// local replay of the phase's first requests through the decomposed
/// layers — an outside estimate of where a request's time goes —
/// against the same replay through the entry points.
fn traced(
    args: &Args,
    mix: &Mix,
    server: &Server,
    oracle: &mut Oracle,
    report: &mut Report,
) -> Result<(), String> {
    let n = (TRACE_RPS * args.seconds.as_secs_f64() * 0.4) as usize;
    let mut tr = Tracer::new();
    let before = server.stats();
    let samples = phase(server, mix, 0..n, TRACE_RPS).samples;
    let after = server.stats();
    let root = tr.enter("bench", "pass", 0);
    for (i, s) in samples.iter().enumerate() {
        tr.record("serve", "request", i as u32, s.sent, s.done);
    }
    tr.exit(root);
    for s in &samples {
        report.check(oracle.check(mix, s.pick, &s.reply));
    }

    // Hits run the binaries the server has cached; misses compile.
    let exp = Experiment::new();
    let mut bins = Vec::with_capacity(mix.hits.len());
    for (name, src) in &mix.hits {
        let module = br_frontend::compile(src).map_err(|e| format!("{name}: {e}"))?;
        let pair = [Machine::Baseline, Machine::BranchReg]
            .into_iter()
            .map(|m| exp.compile_module_for(&module, m))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("{name}: {e}"))?;
        bins.push(pair);
    }
    let replayed = &samples[..samples.len().min(REPLAY_REQUESTS)];
    let (plain_before, entry_bins) = replay_plain(mix, &exp, &bins, replayed);

    let mut replay = Tracer::new();
    let (mut warm, mut warm_fe, mut warm_emu) = (0usize, 0.0, 0.0);
    let mut outcomes = Vec::with_capacity(replayed.len());
    let t = Instant::now();
    let root = replay.enter("bench", "pass", 0);
    for (i, s) in replayed.iter().enumerate() {
        let id = i as u32;
        let core = replay.enter("core", "program", id);
        let t = Instant::now();
        let module = layers::lower(
            &mut replay,
            id,
            &Source::MiniC(mix.program(s.pick).1.clone()),
        );
        let fe = t.elapsed().as_secs_f64() * 1e3;
        let outcome = module.and_then(|module| {
            let t = Instant::now();
            let (mut runs, mut own) = (Vec::new(), Vec::new());
            for (k, machine) in [Machine::Baseline, Machine::BranchReg]
                .into_iter()
                .enumerate()
            {
                let prog = match s.pick {
                    Pick::Hit(h) => &bins[h][k].0,
                    Pick::Miss(_) => {
                        own.push(layers::compile(&mut replay, id, &exp, &module, machine)?);
                        &own[own.len() - 1].0
                    }
                };
                runs.push(layers::emulate(
                    &mut replay,
                    id,
                    prog,
                    ExecTier::default(),
                    exp.fuel,
                )?);
            }
            if let Pick::Hit(_) = s.pick {
                warm += 1;
                warm_fe += fe;
                warm_emu += t.elapsed().as_secs_f64() * 1e3;
            }
            Ok((runs, own))
        });
        replay.exit(core);
        outcomes.push(outcome);
    }
    replay.exit(root);
    let traced_s = t.elapsed().as_secs_f64();
    let (plain_after, _) = replay_plain(mix, &exp, &bins, replayed);

    // The decomposed path must match the entry points and the server.
    for ((s, outcome), entry) in replayed.iter().zip(outcomes).zip(&entry_bins) {
        let name = &mix.program(s.pick).0;
        report.check(outcome.and_then(|(runs, own)| {
            let same_bins = own.len() == entry.len()
                && own.iter().zip(entry).all(|(a, b)| {
                    layers::program_bytes(&a.0, &a.1) == layers::program_bytes(&b.0, &b.1)
                });
            match &s.reply {
                Ok(r)
                    if same_bins
                        && r.len() == 2
                        && (0..2).all(|k| r[k].exit == runs[k].0 && r[k].meas == runs[k].1) =>
                {
                    Ok(())
                }
                Ok(_) => Err(format!(
                    "{name}: local replay differs from the reply or the entry point"
                )),
                Err(e) => Err(e.clone()),
            }
        }));
    }
    let hit_bins: Vec<&Program> = bins.iter().flatten().map(|(p, _)| p).collect();
    let tiers = layers::tier_rows(report, &hit_bins, exp.fuel);

    let col = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let grew = |f: fn(&ServerStats) -> u64| (f(&after) - f(&before)) as f64;
    let hits = grew(|s| s.cache_hits + s.cache_disk_hits);
    let serve = [
        ("serve.rtt_ms", median(&col(|s| s.rtt))),
        ("serve.queue_ms", mean(&col(|s| s.queue))),
        ("serve.gen_lag_ms", mean(&col(|s| s.lag))),
        (
            "serve.cache_hit_ratio",
            ratio(hits, hits + grew(|s| s.cache_misses)),
        ),
        ("serve.cache_misses", grew(|s| s.cache_misses)),
        ("serve.overloaded", grew(|s| s.overloaded)),
        ("serve.errors", grew(|s| s.errors)),
        ("serve.codec_us", codec_us(mix, &samples)),
        ("serve.warm_est_frontend_ms", ratio(warm_fe, warm as f64)),
        ("serve.warm_est_emu_ms", ratio(warm_emu, warm as f64)),
    ];
    // The untraced replay runs before and after the traced one, so
    // neither side alone meets cold caches.
    let plain = [(plain_before + plain_after) / 2.0];
    layers::layer_metrics(report, &replay, 1, &plain, &[traced_s], &tiers, &serve);
    tr.write(&format!("serve_mixed-seed{}-requests", args.seed))?;
    replay.write(&format!("serve_mixed-seed{}-replay", args.seed))?;
    Ok(())
}
