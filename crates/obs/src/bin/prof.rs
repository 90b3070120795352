//! `br-prof` — profile the Appendix I suite (plus the torture regression
//! corpus) on both machines and emit the observability report.
//!
//! ```text
//! br-prof                         # JSON report to stdout (test scale)
//! br-prof --paper --out p.json    # paper-scale report to a file
//! br-prof --check-coverage        # ISA-coverage gate: exit 1 on gaps
//! br-prof --times --jobs 8        # include per-stage compile wall times
//! ```
//!
//! The report is deterministic at any `--jobs` level: programs run in a
//! fixed order (suite order, then corpus files sorted by name) and the
//! nondeterministic wall-time fields only appear under `--times`.
//!
//! Exit status: 0 on success (and for `--help`), 1 when the coverage
//! gate finds a gap or a program cannot be compiled or run, 2 on a
//! usage error.

use std::process::ExitCode;

use br_core::{parallel, suite, Experiment, Machine, Scale};
use br_obs::Report;

struct Args {
    scale: Scale,
    jobs: usize,
    top: usize,
    times: bool,
    check_coverage: bool,
    out: Option<String>,
}

const USAGE: &str =
    "usage: br-prof [--paper] [--jobs N] [--top N] [--times] [--check-coverage] [--out FILE]";

/// The command line; `Ok(None)` for `--help`.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        scale: Scale::Test,
        jobs: 1,
        top: 10,
        times: false,
        check_coverage: false,
        out: None,
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
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Some(args))
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

fn real_main(args: Args) -> Result<bool, String> {
    let exp = Experiment::new();

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
        let module = br_frontend::compile(src).map_err(|e| format!("{name}: frontend: {e}"))?;
        modules.push((name.clone(), module));
    }
    modules.push(("kernel/alu_coverage".to_string(), br_obs::coverage_kernel()));
    for (name, prog) in br_ingest::workloads::all() {
        let module = br_ingest::translate(&prog).map_err(|e| format!("{name}: ingest: {e}"))?;
        modules.push((name.to_string(), module));
    }

    let results = parallel::map_ordered(&modules, args.jobs, |_, (name, module)| {
        let mut part = Report::default();
        for machine in [Machine::Baseline, Machine::BranchReg] {
            part.profile(&exp, name, module, machine)
                .map_err(|e| format!("{name} on {machine}: {e}"))?;
        }
        Ok::<_, String>(part)
    });
    let mut report = Report::default();
    for r in results {
        let part = r?;
        report.programs.extend(part.programs);
        report.compiles.extend(part.compiles);
    }

    let json = report.to_json(args.top, args.times);
    match &args.out {
        Some(path) => std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?,
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
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("br-prof: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match real_main(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("br-prof: {e}");
            ExitCode::FAILURE
        }
    }
}
