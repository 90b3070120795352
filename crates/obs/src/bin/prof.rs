//! `br-prof` — profile the Appendix I suite (plus the torture regression
//! corpus) on both machines and emit the observability report.
//!
//! ```text
//! br-prof                         # JSON report to stdout (test scale)
//! br-prof --paper --out p.json    # paper-scale report to a file
//! br-prof --check-coverage        # ISA-coverage gate: exit 1 on gaps
//! br-prof --times --jobs 8        # include per-stage compile wall times
//! br-prof --tier traced           # profile on the traced execution tier
//! ```
//!
//! The report is deterministic at any `--jobs` level: programs run in a
//! fixed order (suite order, then corpus files sorted by name) and the
//! nondeterministic wall-time fields only appear under `--times`.

use std::process::ExitCode;

use br_core::{parallel, suite, Experiment, Machine, Scale};
use br_obs::{CompileProfile, ProfileHook, ProgramProfile, Report};

struct Args {
    scale: Scale,
    jobs: usize,
    top: usize,
    times: bool,
    check_coverage: bool,
    out: Option<String>,
    tier: br_emu::ExecTier,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Test,
        jobs: 1,
        top: 10,
        times: false,
        check_coverage: false,
        out: None,
        tier: br_emu::ExecTier::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper" => args.scale = Scale::Paper,
            "--times" => args.times = true,
            "--check-coverage" => args.check_coverage = true,
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                args.jobs = v.parse().map_err(|_| format!("bad --jobs value: {v}"))?;
            }
            "--top" => {
                let v = it.next().ok_or("--top needs a value")?;
                args.top = v.parse().map_err(|_| format!("bad --top value: {v}"))?;
            }
            "--out" => args.out = Some(it.next().ok_or("--out needs a value")?.to_string()),
            "--tier" => {
                let v = it.next().ok_or("--tier needs a value")?;
                args.tier = br_emu::ExecTier::from_name(&v)
                    .ok_or_else(|| format!("bad --tier value: {v} (interp|threaded|traced)"))?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: br-prof [--paper] [--jobs N] [--top N] [--times] \
                     [--check-coverage] [--out FILE] [--tier interp|threaded|traced]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// The torture regression corpus (`tests/corpus/*.c`), sorted by file
/// name so the profile order is stable.
fn corpus_sources() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
    let mut files: Vec<_> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "c"))
            .collect(),
        Err(_) => Vec::new(),
    };
    files.sort();
    files
        .into_iter()
        .filter_map(|p| {
            let name = p.file_stem()?.to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&p).ok()?;
            Some((format!("corpus/{name}"), src))
        })
        .collect()
}

/// Profile one lowered module on both machines: compile with stage
/// metrics, run under a [`ProfileHook`], and return the four
/// profile rows (execution + compile, per machine).
fn profile_one(
    exp: &Experiment,
    name: &str,
    module: &br_ir::Module,
) -> Result<(Vec<ProgramProfile>, Vec<CompileProfile>), String> {
    let mut runs = Vec::new();
    let mut compiles = Vec::new();
    for machine in [Machine::Baseline, Machine::BranchReg] {
        let (prog, stats, metrics) = exp
            .compile_module_metered(module, machine)
            .map_err(|e| format!("{name} on {machine}: {e}"))?;
        let mut hook = ProfileHook::new(&prog);
        let run = exp
            .run_program(&prog, stats, Some(&mut hook))
            .map_err(|e| format!("{name} on {machine}: {e}"))?;
        runs.push(hook.finish(name, &run.meas));
        compiles.push(CompileProfile {
            name: name.to_string(),
            machine,
            metrics,
            stats,
        });
    }
    Ok((runs, compiles))
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let exp = Experiment {
        tier: args.tier,
        ..Experiment::new()
    };

    let mut sources: Vec<(String, String)> = suite(args.scale)
        .into_iter()
        .map(|w| (w.name.to_string(), w.source))
        .collect();
    sources.extend(corpus_sources());

    // Lower everything up front (the front end is fast and machine-
    // independent), then append the IR-level coverage kernel — the one
    // program MiniC cannot express (`srl`) — and the translated RV32I
    // workloads, which enter the pipeline as foreign-ISA modules.
    let mut modules: Vec<(String, br_ir::Module)> = Vec::with_capacity(sources.len() + 4);
    for (name, src) in &sources {
        let module =
            br_frontend::compile(src).map_err(|e| format!("{name}: frontend: {e}"))?;
        modules.push((name.clone(), module));
    }
    modules.push(("kernel/alu_coverage".to_string(), br_obs::coverage_kernel()));
    for (name, prog) in br_ingest::workloads::all() {
        let module = br_ingest::translate(&prog)
            .map_err(|e| format!("{name}: ingest: {e}"))?;
        modules.push((name.to_string(), module));
    }

    let results = parallel::map_ordered(&modules, args.jobs, |_, (name, module)| {
        profile_one(&exp, name, module)
    });
    let mut report = Report::default();
    for r in results {
        let (runs, compiles) = r?;
        report.programs.extend(runs);
        report.compiles.extend(compiles);
    }

    let json = report.to_json(args.top, args.times);
    match &args.out {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?
        }
        None if !args.check_coverage => println!("{json}"),
        None => {}
    }

    if args.check_coverage {
        let gaps = report.coverage_gaps();
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let cov = report.coverage(machine);
            eprintln!(
                "{}: {}/{} legal encodings executed",
                machine.name(),
                cov.executed.count_ones(),
                br_obs::opcode_universe(machine).count_ones()
            );
        }
        if !gaps.is_empty() {
            for (machine, missing) in &gaps {
                eprintln!(
                    "coverage gap on {}: never executed: {}",
                    machine.name(),
                    missing.join(", ")
                );
            }
            return Ok(false);
        }
        eprintln!("coverage OK: every implemented encoding of both machines executed");
    }
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("br-prof: {e}");
            ExitCode::FAILURE
        }
    }
}
