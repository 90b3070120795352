//! Experiment P — emulator and compiler throughput trackers.
//!
//! ```text
//! perf [emu]     [--paper] [--reps N] [--jobs N] [--record seed|current] [--out PATH]
//! perf compile   [--paper] [--reps N] [--jobs N] [--record seed|current] [--out PATH]
//!                [--baseline PATH] [--check RATIO]
//! perf micro     [--reps N]
//! ```
//!
//! **emu** (the default) times the emulation hot path over the 19-program
//! Appendix I suite and writes `BENCH_emulator.json` at the repo root.
//! Four loop variants are measured:
//!
//! - **interp / threaded / traced**: `Emulator::run` — no hook, no
//!   faults armed — once per [`ExecTier`] (interp is also recorded as
//!   `fast_insts_per_sec` for cross-schema comparability).
//! - **compat**: a `&mut dyn ExecHook` plus a never-firing armed fault,
//!   which forces the instrumented loop through virtual dispatch — the
//!   shape of the seed interpreter, kept as the honest "before" loop.
//!
//! In emu mode `--check RATIO` gates every recorded per-tier rate plus
//! compat against the tracked `current` section.
//!
//! **compile** times cold suite compilation (source text → assembled
//! `Program`, every workload × both machines) with the br-verify stage
//! gates off and on, and writes `BENCH_compiler.json` in the same
//! seed/current schema. `--check RATIO` additionally compares the fresh
//! verify-off measurement against the tracked baseline file and exits
//! nonzero when throughput fell below `RATIO ×` the recorded value — the
//! CI regression gate.
//!
//! **micro** runs a single tight-loop kernel (no workload suite) once
//! per [`ExecTier`] on both machines and prints best-of-reps
//! instructions/second per tier. It is a wall-clock probe for
//! optimization work on the dispatch engines; it never writes a tracker
//! file and is not run in CI.
//!
//! For both modes `--record seed` stamps the measurements into the
//! `"seed"` section of the JSON (done once, on the pre-optimization
//! tree); the default updates `"current"` and recomputes the speedup
//! ratio. Sections not being recorded are preserved from the existing
//! file.

use std::time::Instant;

use br_bench::{extract_object, human, jobs_from_args, scale_from_args, scan_number};
use br_core::{suite, Experiment, Machine, Program, Scale, Workload};
use br_emu::{Emulator, ExecHook, ExecTier, Fault, NoHook};

const FUEL: u64 = 4_000_000_000;

struct Args {
    mode: Mode,
    scale: Scale,
    reps: u32,
    jobs: usize,
    record: String,
    out: Option<String>,
    baseline: Option<String>,
    check: Option<f64>,
}

#[derive(PartialEq)]
enum Mode {
    Emu,
    Compile,
    Micro,
}

fn parse_args() -> Args {
    let mut args = Args {
        mode: Mode::Emu,
        scale: scale_from_args(),
        reps: 5,
        jobs: jobs_from_args(),
        record: "current".to_string(),
        out: None,
        baseline: None,
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "emu" => args.mode = Mode::Emu,
            "compile" => args.mode = Mode::Compile,
            "micro" => args.mode = Mode::Micro,
            // Shared flags, parsed by the br-bench helpers above.
            "--paper" => {}
            "--jobs" => {
                it.next();
            }
            "--reps" => args.reps = it.next().and_then(|v| v.parse().ok()).unwrap_or(5),
            "--record" => args.record = it.next().unwrap_or_else(|| "current".into()),
            "--out" => args.out = it.next(),
            "--baseline" => args.baseline = it.next(),
            "--check" => args.check = it.next().and_then(|v| v.parse().ok()),
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Default path of a tracker file at the repo root.
fn root_path(name: &str) -> String {
    format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"))
}

fn now_unix() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Merge a freshly measured `section` into the existing tracker JSON,
/// preserving the section not being recorded, and recompute the
/// `speedup_key` ratio of `metric` between seed and current.
#[allow(clippy::too_many_arguments)]
fn write_tracker(
    out_path: &str,
    schema: &str,
    scale: Scale,
    programs: usize,
    record: &str,
    section: String,
    metric: &str,
    speedup_key: &str,
    note: &str,
) {
    let existing = std::fs::read_to_string(out_path).unwrap_or_default();
    let (seed, current) = if record == "seed" {
        (Some(section), extract_object(&existing, "current"))
    } else {
        (extract_object(&existing, "seed"), Some(section))
    };

    let mut body = format!("{{\n  \"schema\": \"{schema}\",\n");
    body.push_str(&format!(
        "  \"scale\": \"{scale:?}\",\n  \"suite_programs\": {programs},\n"
    ));
    if let Some(s) = &seed {
        body.push_str(&format!("  \"seed\": {s},\n"));
    }
    if let Some(c) = &current {
        body.push_str(&format!("  \"current\": {c},\n"));
    }
    if let (Some(s), Some(c)) = (&seed, &current) {
        if let (Some(before), Some(after)) = (scan_number(s, metric), scan_number(c, metric)) {
            if before > 0.0 {
                body.push_str(&format!("  \"{speedup_key}\": {:.2},\n", after / before));
            }
        }
    }
    body.push_str(&format!("  \"note\": \"{note}\"\n}}\n"));
    std::fs::write(out_path, &body).expect("write tracker JSON");
    println!("wrote {out_path}");
}

// ---------------------------------------------------------------- emu --

/// Which emulation loop a timed pass exercises.
#[derive(Clone, Copy)]
enum Variant {
    /// `Emulator::run` on one execution tier, no hook, no faults.
    Tier(ExecTier),
    /// `&mut dyn ExecHook` plus a never-firing armed fault: the
    /// instrumented loop through virtual dispatch (the seed loop shape).
    Compat,
}

/// One timed pass over every compiled program: returns (instructions, seconds).
/// `caches` (parallel to `progs`) carries warmed superblock caches
/// between passes so the traced tier is measured at steady state
/// instead of re-paying heat counting and trace formation per rep.
fn pass(
    progs: &[Program],
    variant: Variant,
    caches: &mut [Option<br_emu::TraceCache>],
) -> (u64, f64) {
    let mut insts = 0u64;
    let t = Instant::now();
    for (i, prog) in progs.iter().enumerate() {
        match variant {
            Variant::Tier(tier) => {
                let mut emu = Emulator::new(prog).with_tier(tier);
                if let Some(cache) = caches[i].take() {
                    emu.set_trace_cache(cache);
                }
                emu.run(FUEL).expect("suite program runs");
                insts += emu.measurements().instructions;
                caches[i] = emu.take_trace_cache();
            }
            Variant::Compat => {
                let mut emu = Emulator::new(prog);
                // A fault armed at an unreachable step keeps the fault queue
                // non-empty, which routes execution through the instrumented
                // loop; dyn dispatch keeps the hook calls virtual.
                emu.inject(Fault::CorruptReg {
                    at_step: u64::MAX,
                    reg: 1,
                    xor_mask: 0,
                });
                let hook: &mut dyn ExecHook = &mut NoHook;
                emu.run_with_hook(FUEL, hook).expect("suite program runs");
                insts += emu.measurements().instructions;
            }
        }
    }
    (insts, t.elapsed().as_secs_f64())
}

/// Best-of-`reps` instructions/second for one loop variant.
fn best_ips(progs: &[Program], variant: Variant, reps: u32) -> (u64, f64) {
    let mut best = f64::MAX;
    let mut insts = 0;
    let mut caches: Vec<Option<br_emu::TraceCache>> = progs.iter().map(|_| None).collect();
    for _ in 0..reps {
        let (n, secs) = pass(progs, variant, &mut caches);
        insts = n;
        best = best.min(secs);
    }
    (insts, insts as f64 / best)
}

fn run_emu(args: &Args) {
    let exp = Experiment::new();

    // Compile everything up front so the loop timings are emulation-only.
    let mut progs = Vec::new();
    for w in suite(args.scale) {
        for m in [Machine::Baseline, Machine::BranchReg] {
            let (p, _) = exp
                .compile(&w.source, m)
                .unwrap_or_else(|e| panic!("{} on {m:?}: {e}", w.name));
            progs.push(p);
        }
    }

    println!(
        "emulator perf, {:?} scale, {} binaries, best of {} reps",
        args.scale,
        progs.len(),
        args.reps
    );
    let mut insts = 0u64;
    let mut tier_ips = [0f64; 3];
    for (i, tier) in ExecTier::ALL.into_iter().enumerate() {
        let (n, ips) = best_ips(&progs, Variant::Tier(tier), args.reps);
        insts = n;
        tier_ips[i] = ips;
        println!(
            "  {:<12}: {} insts at {} insts/sec",
            tier.name(),
            human(n),
            human(ips as u64)
        );
    }
    let [interp_ips, threaded_ips, traced_ips] = tier_ips;
    let (_, compat_ips) = best_ips(&progs, Variant::Compat, args.reps);
    println!(
        "  compat      : {} insts at {} insts/sec",
        human(insts),
        human(compat_ips as u64)
    );
    println!(
        "  traced/interp: {:.2}x, threaded/interp: {:.2}x",
        traced_ips / interp_ips,
        threaded_ips / interp_ips
    );

    // End-to-end wall clock: compile + emulate both machines, full suite.
    let t = Instant::now();
    let report = exp
        .run_suite_jobs(args.scale, args.jobs)
        .expect("suite runs");
    let wall_ms = t.elapsed().as_secs_f64() * 1000.0;
    let jobs = args.jobs.max(1);
    println!(
        "  end-to-end  : {} programs in {wall_ms:.1} ms (jobs={jobs})",
        report.rows.len()
    );

    // `fast_insts_per_sec` stays the headline metric (the hook-free
    // interp loop) so the seed/current speedup ratio remains comparable
    // across schema versions.
    let section = format!(
        "{{\n    \"unix_time\": {},\n    \"total_suite_insts\": {insts},\n    \
         \"fast_insts_per_sec\": {interp_ips:.0},\n    \"interp_insts_per_sec\": {interp_ips:.0},\n    \
         \"threaded_insts_per_sec\": {threaded_ips:.0},\n    \"traced_insts_per_sec\": {traced_ips:.0},\n    \
         \"compat_insts_per_sec\": {compat_ips:.0},\n    \"traced_vs_interp\": {:.2},\n    \
         \"suite_wall_ms\": {wall_ms:.1},\n    \"jobs\": {jobs}\n  }}",
        now_unix(),
        traced_ips / interp_ips
    );
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| root_path("BENCH_emulator.json"));

    // Regression gate (before the tracker is overwritten): every tier,
    // and the instrumented compat loop, must stay above RATIO x its
    // recorded current value.
    if let Some(ratio) = args.check {
        let baseline_path = args.baseline.clone().unwrap_or_else(|| out_path.clone());
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("--check needs a baseline at {baseline_path}: {e}"));
        let current = extract_object(&baseline, "current")
            .unwrap_or_else(|| panic!("baseline {baseline_path} has no current section"));
        let fresh = [
            ("interp_insts_per_sec", interp_ips),
            ("threaded_insts_per_sec", threaded_ips),
            ("traced_insts_per_sec", traced_ips),
            ("compat_insts_per_sec", compat_ips),
        ];
        let mut failed = false;
        for (key, got) in fresh {
            // v1 trackers predate the per-tier keys; `interp` falls back
            // to the old `fast` name, others are skipped until recorded.
            let recorded = scan_number(&current, key).or_else(|| {
                (key == "interp_insts_per_sec")
                    .then(|| scan_number(&current, "fast_insts_per_sec"))
                    .flatten()
            });
            let Some(recorded) = recorded else { continue };
            let floor = recorded * ratio;
            println!(
                "  check {key}: {} vs floor {} ({ratio} x recorded {})",
                human(got as u64),
                human(floor as u64),
                human(recorded as u64)
            );
            if got < floor {
                eprintln!(
                    "EMULATOR PERF REGRESSION: {key} {got:.0} insts/sec is below \
                     {ratio} x the recorded {recorded:.0}"
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }

    write_tracker(
        &out_path,
        "br-emulator-perf-v2",
        args.scale,
        report.rows.len(),
        &args.record,
        section,
        "fast_insts_per_sec",
        "speedup_fast_vs_seed",
        "seed = pre-fast-path emulator; compat = instrumented loop via dyn hook \
         (the seed loop shape); interp/threaded/traced = Emulator::run per ExecTier \
         (fast = interp, kept for cross-schema comparability). total_suite_insts \
         differs from seed by +207: PR 3 made codegen deterministic (ordered \
         spill-use rewrites, total hoist-key ordering), which changed emitted \
         code slightly; the count is stable since",
    );
}

// -------------------------------------------------------------- micro --

/// A dense nested loop with data-dependent branches: the kernel the
/// dispatch engines are tuned against. Promoted from an `#[ignore]`d
/// integration test so it is reachable as `perf micro` instead of a
/// `--ignored --nocapture` incantation.
const MICRO_SRC: &str = r#"
int a[64];
int main() {
    int i; int j; int s;
    s = 0;
    for (i = 0; i < 20000; i = i + 1) {
        for (j = 0; j < 64; j = j + 1) {
            s = s + a[j] + i - j;
            if (s > 100000000) s = s - 100000000;
        }
        a[i - (i / 64) * 64] = s;
    }
    return s;
}
"#;

fn run_micro(args: &Args) {
    let exp = Experiment::new();
    println!(
        "micro kernel tier throughput, best of {} reps (wall clock; no tracker written)",
        args.reps
    );
    for machine in [Machine::Baseline, Machine::BranchReg] {
        let (prog, _) = exp.compile(MICRO_SRC, machine).expect("micro kernel compiles");
        // Interleave tier reps so CPU-contention drift on a shared box
        // biases every tier equally instead of whichever ran last.
        let mut best = [f64::MIN; 3];
        let mut insts = 0;
        for _ in 0..args.reps {
            for (t, tier) in ExecTier::ALL.into_iter().enumerate() {
                let mut emu = Emulator::new(&prog).with_tier(tier);
                let t0 = Instant::now();
                emu.run(FUEL).expect("micro kernel runs");
                let dt = t0.elapsed().as_secs_f64();
                insts = emu.measurements().instructions;
                best[t] = best[t].max(insts as f64 / dt);
            }
        }
        for (t, tier) in ExecTier::ALL.into_iter().enumerate() {
            println!(
                "  {:<12} {:<8}: {:>9} insts, {:>12} insts/sec",
                machine.to_string(),
                tier.name(),
                insts,
                human(best[t] as u64)
            );
        }
    }
}

// ------------------------------------------------------------ compile --

/// One cold compilation pass over the whole suite on both machines:
/// returns (total emitted static instructions, seconds). Each workload
/// goes through the machine-independent front end once and codegen
/// twice — the same shape `Experiment::run_comparison` uses.
fn compile_pass(exp: &Experiment, workloads: &[Workload], jobs: usize) -> (u64, f64) {
    let t = Instant::now();
    let counts = br_core::parallel::map_ordered(workloads, jobs, |_, w| {
        let module =
            br_frontend::compile(&w.source).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let mut n = 0u64;
        for m in [Machine::Baseline, Machine::BranchReg] {
            let (prog, _) = exp
                .compile_module_for(&module, m)
                .unwrap_or_else(|e| panic!("{} on {m:?}: {e}", w.name));
            n += prog.static_inst_count() as u64;
        }
        n
    });
    (counts.iter().sum(), t.elapsed().as_secs_f64())
}

/// Best-of-`reps` seconds for one experiment configuration.
fn best_compile(exp: &Experiment, workloads: &[Workload], reps: u32, jobs: usize) -> (u64, f64) {
    let mut best = f64::MAX;
    let mut insts = 0;
    for _ in 0..reps {
        let (n, secs) = compile_pass(exp, workloads, jobs);
        insts = n;
        best = best.min(secs);
    }
    (insts, best)
}

fn run_compile(args: &Args) {
    let workloads = suite(args.scale);
    // Default single-thread: the recorded throughput is the per-core
    // number the ≥2× target is judged on; --jobs N scales the matrix.
    let jobs = args.jobs.max(1);
    let exp_off = Experiment {
        verify: false,
        ..Experiment::new()
    };
    let exp_on = Experiment {
        verify: true,
        ..Experiment::new()
    };

    println!(
        "compiler perf, {:?} scale, {} programs x 2 machines, best of {} reps (jobs={jobs})",
        args.scale,
        workloads.len(),
        args.reps
    );

    // Front-end-only pass, printed for orientation (not recorded): how
    // much of the wall is parse+lower+opt vs codegen+assembly.
    let t = Instant::now();
    for w in &workloads {
        br_frontend::compile(&w.source).expect("suite compiles");
    }
    let fe_ms = t.elapsed().as_secs_f64() * 1000.0;
    println!("  front end   : {fe_ms:.1} ms (single pass, shared by both machines)");

    let (static_insts, off_secs) = best_compile(&exp_off, &workloads, args.reps, jobs);
    let off_ips = static_insts as f64 / off_secs;
    println!(
        "  verify off  : {} static insts emitted in {:.1} ms ({} insts/sec)",
        human(static_insts),
        off_secs * 1000.0,
        human(off_ips as u64)
    );
    let (_, on_secs) = best_compile(&exp_on, &workloads, args.reps, jobs);
    let on_ips = static_insts as f64 / on_secs;
    println!(
        "  verify on   : {:.1} ms ({} insts/sec)",
        on_secs * 1000.0,
        human(on_ips as u64)
    );

    let section = format!(
        "{{\n    \"unix_time\": {},\n    \"total_static_insts\": {static_insts},\n    \
         \"compile_insts_per_sec\": {off_ips:.0},\n    \"verify_insts_per_sec\": {on_ips:.0},\n    \
         \"suite_compile_ms\": {:.1},\n    \"jobs\": {jobs}\n  }}",
        now_unix(),
        off_secs * 1000.0
    );

    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| root_path("BENCH_compiler.json"));
    write_tracker(
        &out_path,
        "br-compiler-perf-v1",
        args.scale,
        workloads.len(),
        &args.record,
        section,
        "compile_insts_per_sec",
        "speedup_vs_seed",
        "static insts emitted per second of cold suite compilation (frontend + codegen + \
         assembly, both machines); seed = pre-fast-path compiler (HashSet dataflow)",
    );

    // Regression gate: fresh verify-off throughput vs the tracked file.
    if let Some(ratio) = args.check {
        let baseline_path = args
            .baseline
            .clone()
            .unwrap_or_else(|| root_path("BENCH_compiler.json"));
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("--check needs a baseline at {baseline_path}: {e}"));
        let recorded = extract_object(&baseline, "current")
            .as_deref()
            .and_then(|c| scan_number(c, "compile_insts_per_sec"))
            .expect("baseline has current.compile_insts_per_sec");
        let floor = recorded * ratio;
        println!(
            "  check       : {} insts/sec vs floor {} ({ratio} x recorded {})",
            human(off_ips as u64),
            human(floor as u64),
            human(recorded as u64)
        );
        if off_ips < floor {
            eprintln!(
                "COMPILE PERF REGRESSION: {off_ips:.0} insts/sec is below \
                 {ratio} x the recorded baseline {recorded:.0}"
            );
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = parse_args();
    match args.mode {
        Mode::Emu => run_emu(&args),
        Mode::Compile => run_compile(&args),
        Mode::Micro => run_micro(&args),
    }
}
