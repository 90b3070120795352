//! `brcc` — the MiniC compiler/runner driver.
//!
//! ```text
//! brcc [options] <file.mc | workload-name>
//!
//!   --machine base|br     target machine (default: br)
//!   --emit asm            print the RTL listing instead of running
//!   --emit ir             print the optimized IR
//!   --compare             run on both machines and compare counts
//!   --stats               print dynamic measurements after running
//!   --bregs N             number of branch registers (2..=8)
//!   --no-hoist            disable branch-target hoisting
//!   --fused-compare       Section 9 fast-compare variant
//!   --fuel N              instruction budget (default 4e9)
//!   --jobs N              worker threads for batched function
//!                         compilation (0 = auto; default 1 = serial;
//!                         output is byte-identical at any level)
//!   --verify/--no-verify  force the br-verify stage gates on/off
//!                         (default: on in debug builds only)
//!   --profile FILE        run under the br-obs profiler and write the
//!                         JSON report (opcode histogram, hot blocks,
//!                         branch-register stats, compile metrics) here
//! ```
//!
//! The input is a path to a MiniC source file, or the name of one of the
//! Appendix I workloads (e.g. `brcc --compare wc`).

use std::process::ExitCode;

use br_core::{BrOptions, Experiment, Machine, Scale};

struct Args {
    input: Option<String>,
    machine: Machine,
    emit: Option<String>,
    compare: bool,
    stats: bool,
    opts: BrOptions,
    fuel: u64,
    jobs: usize,
    verify: Option<bool>,
    profile: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        input: None,
        machine: Machine::BranchReg,
        emit: None,
        compare: false,
        stats: false,
        opts: BrOptions::default(),
        fuel: 4_000_000_000,
        jobs: 1,
        verify: None,
        profile: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--machine" => {
                args.machine = match it.next().as_deref() {
                    Some("base") | Some("baseline") => Machine::Baseline,
                    Some("br") | Some("branch-register") => Machine::BranchReg,
                    other => return Err(format!("bad --machine {other:?}")),
                }
            }
            "--emit" => args.emit = it.next(),
            "--compare" => args.compare = true,
            "--stats" => args.stats = true,
            "--bregs" => {
                args.opts.num_bregs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("bad --bregs")?;
            }
            "--no-hoist" => args.opts.hoisting = false,
            "--verify" => args.verify = Some(true),
            "--no-verify" => args.verify = Some(false),
            "--fused-compare" => args.opts.fused_compare = true,
            "--fuel" => {
                args.fuel = it.next().and_then(|v| v.parse().ok()).ok_or("bad --fuel")?;
            }
            "--jobs" => {
                args.jobs = it.next().and_then(|v| v.parse().ok()).ok_or("bad --jobs")?;
            }
            "--profile" => {
                args.profile = Some(it.next().ok_or("--profile needs a file path")?);
            }
            "--help" | "-h" => return Err(String::new()),
            other if !other.starts_with('-') => args.input = Some(other.to_string()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if args.input.is_none() {
        return Err("no input file or workload name".to_string());
    }
    Ok(args)
}

fn load_source(input: &str) -> Result<String, String> {
    if input.ends_with(".mc") || input.contains('/') {
        std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))
    } else if let Some(w) = br_core::by_name(input, Scale::Test) {
        Ok(w.source)
    } else {
        std::fs::read_to_string(input)
            .map_err(|e| format!("'{input}' is neither a readable file nor a known workload: {e}"))
    }
}

fn print_meas(label: &str, m: &br_core::Measurements) {
    println!(
        "{label}: {} instructions, {} data refs, {} transfers ({} cond, {:.1}% of insts), {} noops",
        m.instructions,
        m.data_refs,
        m.transfers,
        m.cond_transfers,
        m.transfer_fraction() * 100.0,
        m.noops
    );
}

fn real_main() -> Result<(), String> {
    let args = parse_args().inspect_err(|e| {
        if e.is_empty() {
            usage();
            std::process::exit(0);
        }
    })?;
    let src = load_source(args.input.as_deref().unwrap())?;
    let mut exp = Experiment {
        br_opts: args.opts,
        fuel: args.fuel,
        jobs: args.jobs,
        ..Experiment::new()
    };
    if let Some(v) = args.verify {
        exp.verify = v;
    }

    if let Some(kind) = &args.emit {
        match kind.as_str() {
            "ir" => {
                let module = br_frontend::compile(&src).map_err(|e| e.to_string())?;
                print!("{module}");
            }
            "asm" => {
                let (prog, stats) = exp.compile(&src, args.machine).map_err(|e| e.to_string())?;
                print!("{}", prog.listing());
                eprintln!(
                    "({} static instructions; stats: {stats:?})",
                    prog.static_inst_count()
                );
            }
            other => return Err(format!("unknown --emit {other}")),
        }
        return Ok(());
    }

    // With --profile, runs keep their compile metrics and go through the
    // br-obs ProfileHook; the counts printed below are byte-identical to
    // the unprofiled path (see tests/profile_equivalence.rs).
    let mut report = args.profile.as_ref().map(|_| br_obs::Report::default());

    if args.compare {
        let (base, brm) = match &mut report {
            Some(report) => {
                let module = br_frontend::compile(&src).map_err(|e| e.to_string())?;
                let base = report
                    .profile(&exp, "input", &module, Machine::Baseline)
                    .map_err(|e| e.to_string())?;
                let brm = report
                    .profile(&exp, "input", &module, Machine::BranchReg)
                    .map_err(|e| e.to_string())?;
                if base.exit != brm.exit {
                    return Err(format!(
                        "machines disagree: baseline exits {} but branch-register exits {}",
                        base.exit, brm.exit
                    ));
                }
                (base, brm)
            }
            None => {
                let cmp = exp
                    .run_comparison("input", &src)
                    .map_err(|e| e.to_string())?;
                (cmp.baseline, cmp.brmach)
            }
        };
        println!("exit value: {}", base.exit);
        print_meas("baseline       ", &base.meas);
        print_meas("branch-register", &brm.meas);
        let d = (brm.meas.instructions as f64 - base.meas.instructions as f64)
            / base.meas.instructions as f64
            * 100.0;
        println!("instruction change: {d:+.2}%");
    } else {
        let run = match &mut report {
            Some(report) => {
                let module = br_frontend::compile(&src).map_err(|e| e.to_string())?;
                report
                    .profile(&exp, "input", &module, args.machine)
                    .map_err(|e| e.to_string())?
            }
            None => exp.run(&src, args.machine).map_err(|e| e.to_string())?,
        };
        println!("exit value: {}", run.exit);
        if args.stats {
            print_meas(args.machine.name(), &run.meas);
            println!(
                "static: {} instructions, codegen {:#?}",
                run.static_insts, run.stats
            );
        }
    }

    if let (Some(path), Some(report)) = (&args.profile, &report) {
        std::fs::write(path, report.to_json(10, true)).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("profile written to {path}");
    }
    Ok(())
}

fn usage() {
    eprintln!(
        "usage: brcc [--machine base|br] [--emit asm|ir] [--compare] [--stats]\n\
         \t[--bregs N] [--no-hoist] [--fused-compare] [--fuel N] [--jobs N]\n\
         \t[--verify|--no-verify] [--profile FILE] <file.mc | workload>"
    );
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("brcc: {e}");
            usage();
            ExitCode::FAILURE
        }
    }
}
