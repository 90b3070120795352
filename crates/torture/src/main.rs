//! `br-torture` CLI — see TORTURE.md at the repo root.
//!
//! ```text
//! br-torture --seed N --iters M [--fuel F]     differential fuzz run
//! br-torture ... --jobs J                      fan iterations across J threads
//! br-torture ... --verify                      also gate every stage with br-verify
//! br-torture ... --tv                          also cross-check the static translation validator
//! br-torture ... --tiers                       also cross-check the threaded/traced execution tiers
//! br-torture --rv32 --seed N --iters M         RV32I ingest fuzz (reference interp vs both machines)
//! br-torture --demo-fault                      fault-injection demo
//! br-torture --demo-miscompile                 wrong-code-catch demo
//! ```
//!
//! Exit status is 0 only if every iteration agreed (or the demo behaved
//! as documented); any divergence prints a minimized reproduction and
//! exits 1.

use br_emu::{EmuError, Emulator, Fault};
use br_isa::Machine;
use br_torture::{
    check_rv32, check_src_budgeted, check_src_tv, count_stmts, gen::GenConfig, generate,
    generate_rv32, iter_seed, minimize, minimize_rv32, oracle, render, Agreement, Divergence,
    DEFAULT_FUEL,
};

struct Args {
    seed: u64,
    iters: u64,
    fuel: u64,
    jobs: usize,
    verify: bool,
    /// Run the static translation validator as a third oracle against
    /// the dynamic differential result on every iteration.
    tv: bool,
    /// Cross-check the threaded and traced execution tiers against the
    /// interpreter on every iteration (exit, measurements, stores,
    /// errors must all be identical).
    tiers: bool,
    /// Per-case wall budget in milliseconds; 0 = unlimited.
    budget_ms: u64,
    /// Fuzz the RV32I ingest path instead of the MiniC front end:
    /// generated foreign binaries, checked reference-interpreter vs
    /// translated-baseline vs translated-BR.
    rv32: bool,
    demo_fault: bool,
    demo_miscompile: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        iters: 1000,
        fuel: DEFAULT_FUEL,
        jobs: 1,
        verify: false,
        tv: false,
        tiers: false,
        budget_ms: 0,
        rv32: false,
        demo_fault: false,
        demo_miscompile: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            let v = it.next().ok_or_else(|| format!("{name} needs a value"))?;
            // Divergence reports print seeds in hex; accept them back.
            let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            parsed.map_err(|e| format!("{name}: {e}"))
        };
        match a.as_str() {
            "--seed" => args.seed = num("--seed")?,
            "--iters" => args.iters = num("--iters")?,
            "--fuel" => args.fuel = num("--fuel")?,
            "--jobs" => args.jobs = num("--jobs")? as usize,
            "--verify" => args.verify = true,
            "--tv" => args.tv = true,
            "--tiers" => args.tiers = true,
            "--budget-ms" => args.budget_ms = num("--budget-ms")?,
            "--rv32" => args.rv32 = true,
            "--demo-fault" => args.demo_fault = true,
            "--demo-miscompile" => args.demo_miscompile = true,
            "--help" | "-h" => {
                return Err("usage: br-torture [--seed N] [--iters M] [--fuel F] \
                            [--jobs J] [--verify] [--tv] [--tiers] [--budget-ms MS] \
                            [--rv32] [--demo-fault] [--demo-miscompile]"
                    .into())
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if args.rv32 && (args.tv || args.tiers || args.budget_ms > 0) {
        return Err("--rv32 does not combine with --tv/--tiers/--budget-ms".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let code = if args.demo_fault {
        demo_fault(args.fuel)
    } else if args.demo_miscompile {
        demo_miscompile(args.seed, args.fuel)
    } else if args.rv32 {
        fuzz_rv32(&args)
    } else {
        fuzz(&args)
    };
    std::process::exit(code);
}

// ------------------------------------------------------------------ fuzz

/// One case through the configured oracle stack: dynamic differential
/// always, plus the static translation validator in `--tv` mode, plus
/// the execution-tier cross-check in `--tiers` mode.
fn check_case(args: &Args, src: &str, budget_ms: Option<u64>) -> Result<Agreement, Divergence> {
    let a = if args.tv {
        check_src_tv(src, args.fuel, args.verify, budget_ms)?
    } else {
        check_src_budgeted(src, args.fuel, args.verify, budget_ms)?
    };
    if args.tiers {
        br_torture::check_src_tiers(src, args.fuel)?;
    }
    Ok(a)
}

fn fuzz(args: &Args) -> i32 {
    let cfg = GenConfig::default();
    let jobs = if args.jobs == 0 {
        br_core::parallel::available_jobs()
    } else {
        args.jobs
    };
    let budget_ms = (args.budget_ms > 0).then_some(args.budget_ms);
    let mut base_insts = 0u64;
    let mut br_insts = 0u64;
    let mut stores = 0usize;
    let mut budget_timeouts = 0u64;
    // Iterations run in blocks fanned across `jobs` threads; each block's
    // results are then consumed strictly in iteration order, so progress
    // lines and the first-divergence report are byte-identical to a
    // `--jobs 1` run. At most one block of work runs past a divergence.
    let block = (jobs as u64 * 16).max(64);
    let mut start = 0u64;
    while start < args.iters {
        let idxs: Vec<u64> = (start..(start + block).min(args.iters)).collect();
        start += idxs.len() as u64;
        let results = br_core::parallel::map_ordered(&idxs, jobs, |_, &i| {
            let s = iter_seed(args.seed, i);
            let ast = generate(s, cfg);
            let src = render(&ast);
            check_case(args, &src, budget_ms).map_err(|d| (s, ast, d))
        });
        for (&i, result) in idxs.iter().zip(results) {
            match result {
                Ok(a) => {
                    base_insts += a.base_instructions;
                    br_insts += a.br_instructions;
                    stores += a.global_stores;
                    if (i + 1) % 200 == 0 {
                        println!(
                            "[{}/{}] ok — {} baseline insts, {} br insts, {} global stores so far",
                            i + 1,
                            args.iters,
                            base_insts,
                            br_insts,
                            stores
                        );
                    }
                }
                Err((s, _ast, d @ Divergence::Budget { .. })) => {
                    // A timeout is recorded, not minimized: the case
                    // is pathological for throughput, not (known to
                    // be) miscompiled, and re-running the minimizer
                    // would spend many more budgets.
                    budget_timeouts += 1;
                    println!("iteration {i} (seed {s:#x}) TIMED OUT: {d} — recorded, continuing");
                }
                Err((s, ast, d)) => {
                    println!("iteration {i} (seed {s:#x}) DIVERGED: {d}");
                    println!("minimizing ({} statements)...", count_stmts(&ast));
                    let min = minimize(&ast, |cand| check_case(args, &render(cand), None).is_err());
                    let min_src = render(&min);
                    let final_d =
                        check_case(args, &min_src, None).expect_err("minimizer preserves failure");
                    println!(
                        "minimized to {} statements; divergence: {final_d}",
                        count_stmts(&min)
                    );
                    println!("---- minimized reproduction ----\n{min_src}");
                    println!("replay with: cargo run -p br-torture -- --seed {s} --iters 1");
                    return 1;
                }
            }
        }
    }
    if budget_timeouts > 0 {
        println!(
            "{} iterations, 0 divergences, {} budget timeouts \
             ({} baseline insts, {} br insts, {} global stores)",
            args.iters, budget_timeouts, base_insts, br_insts, stores
        );
    } else {
        println!(
            "{} iterations, 0 divergences ({} baseline insts, {} br insts, {} global stores)",
            args.iters, base_insts, br_insts, stores
        );
    }
    0
}

// ------------------------------------------------------------- rv32 fuzz

/// The `--rv32` mode: seeded RV32I binaries through the three-way ingest
/// oracle (reference interpreter vs translated code on both machines).
/// Divergences are minimized by NOP-ing out instruction words and
/// reported as a replayable hex image.
fn fuzz_rv32(args: &Args) -> i32 {
    let jobs = if args.jobs == 0 {
        br_core::parallel::available_jobs()
    } else {
        args.jobs
    };
    let mut base_insts = 0u64;
    let mut br_insts = 0u64;
    let mut stores = 0usize;
    let block = (jobs as u64 * 16).max(64);
    let mut start = 0u64;
    while start < args.iters {
        let idxs: Vec<u64> = (start..(start + block).min(args.iters)).collect();
        start += idxs.len() as u64;
        let results = br_core::parallel::map_ordered(&idxs, jobs, |_, &i| {
            let s = iter_seed(args.seed, i);
            let prog = generate_rv32(s);
            check_rv32(&prog, args.fuel, args.verify).map_err(|d| (s, prog, d))
        });
        for (&i, result) in idxs.iter().zip(results) {
            match result {
                Ok(a) => {
                    base_insts += a.base_instructions;
                    br_insts += a.br_instructions;
                    stores += a.guest_stores;
                    if (i + 1) % 200 == 0 {
                        println!(
                            "[{}/{}] ok — {} baseline insts, {} br insts, {} guest stores so far",
                            i + 1,
                            args.iters,
                            base_insts,
                            br_insts,
                            stores
                        );
                    }
                }
                Err((s, prog, d)) => {
                    println!("iteration {i} (seed {s:#x}) DIVERGED: {d}");
                    println!("minimizing ({} text words)...", prog.words.len());
                    // Match on the divergence *kind*: NOP-ing a loop's
                    // decrement can otherwise morph a real failure into
                    // an uninteresting out-of-fuel witness.
                    let want = std::mem::discriminant(&d);
                    let min = minimize_rv32(&prog, |cand| {
                        check_rv32(cand, args.fuel, args.verify)
                            .err()
                            .is_some_and(|e| std::mem::discriminant(&e) == want)
                    });
                    let final_d = check_rv32(&min, args.fuel, args.verify)
                        .expect_err("minimizer preserves failure");
                    println!("minimized; divergence: {final_d}");
                    println!("---- minimized reproduction (rv32 hex image) ----");
                    println!("{}", min.to_hex());
                    println!("replay with: cargo run -p br-torture -- --rv32 --seed {s} --iters 1");
                    return 1;
                }
            }
        }
    }
    println!(
        "{} rv32 iterations, 0 divergences ({} baseline insts, {} br insts, {} guest stores)",
        args.iters, base_insts, br_insts, stores
    );
    0
}

// ----------------------------------------------------------------- demos

/// Compile a small fixed program and inject each fault kind, showing that
/// the emulator surfaces a *typed* error (or a changed-but-clean result)
/// instead of wedging or panicking.
fn demo_fault(fuel: u64) -> i32 {
    let src = "
        int g;
        int main() {
            int s = 0;
            for (int i = 0; i < 20; i++) { s = s + i; g = s; }
            return s & 255;
        }
    ";
    let module = br_frontend::compile(src).expect("demo source compiles");
    let mut failures = 0;
    for machine in [Machine::Baseline, Machine::BranchReg] {
        let prog = match oracle::compile_for(&module, machine) {
            Ok(p) => p,
            Err(e) => {
                println!("compile failed: {e}");
                return 1;
            }
        };
        let clean = Emulator::new(&prog).run(fuel).expect("clean run succeeds");
        println!("{machine:?}: clean exit = {clean}");
        let faults: [(&str, Fault); 3] = [
            (
                "corrupt r3 at step 40 (xor 0x10)",
                Fault::CorruptReg {
                    at_step: 40,
                    reg: 3,
                    xor_mask: 0x10,
                },
            ),
            (
                "flip instruction word at step 25 to all-ones",
                Fault::CorruptInst {
                    at_step: 25,
                    xor_mask: 0xFFFF_FFFF,
                },
            ),
            (
                "fail the next memory access after step 10",
                Fault::FailMem { at_step: 10 },
            ),
        ];
        for (what, fault) in faults {
            let mut emu = Emulator::new(&prog);
            emu.inject(fault);
            match emu.run(fuel) {
                Ok(v) => println!("  {what}: completed with exit {v} (pc {:#x})", emu.pc()),
                Err(e) => {
                    println!("  {what}: typed error `{e}` at pc {:#x}", emu.pc());
                    // The typed errors the injector is expected to raise.
                    if !matches!(
                        e,
                        EmuError::WrongMachine(_)
                            | EmuError::BadMem { .. }
                            | EmuError::BadFetch(_)
                            | EmuError::ExecutedData(_)
                            | EmuError::DivByZero(_)
                            | EmuError::OutOfFuel
                            | EmuError::BranchInDelaySlot(_)
                    ) {
                        failures += 1;
                    }
                }
            }
        }
    }
    if failures == 0 {
        println!("all injected faults surfaced as typed errors — no panics, no hangs");
        0
    } else {
        1
    }
}

/// Generate a program, deliberately miscompile it (negate the first
/// compare-and-branch of the BR binary), let the oracle catch it, and
/// minimize the witness program.
fn demo_miscompile(seed: u64, fuel: u64) -> i32 {
    let cfg = GenConfig::default();
    for i in 0..1000u64 {
        let s = iter_seed(seed, i);
        let ast = generate(s, cfg);
        let still_fails = |cand: &br_torture::TortureAst| -> bool {
            let Ok(module) = br_frontend::compile(&render(cand)) else {
                return false;
            };
            oracle::sabotaged_br_misbehaves(&module, fuel)
        };
        if !still_fails(&ast) {
            continue; // sabotage happened to be benign — try the next seed
        }
        println!(
            "seed {s:#x}: negating the first compare-and-branch changes behaviour \
             ({} statements); minimizing...",
            count_stmts(&ast)
        );
        let min = minimize(&ast, still_fails);
        println!(
            "minimized witness ({} statements):\n---- source ----\n{}",
            count_stmts(&min),
            render(&min)
        );
        println!("the differential oracle catches this miscompile; build is honest");
        return 0;
    }
    println!("no sensitive program found (unexpected)");
    1
}
