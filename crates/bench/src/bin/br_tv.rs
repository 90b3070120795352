//! `br-tv` — whole-program translation validation plus the static
//! branch-cost cross-check, over the Appendix I suite, the torture
//! regression corpus, and the ISA-coverage kernel.
//!
//! ```text
//! br-tv                        # validate everything, report to stdout
//! br-tv --paper --out t.json   # paper scale, archive the JSON report
//! br-tv --check                # CI gate: exit 1 on any regression
//! br-tv --jobs 8               # fan programs across worker threads
//! ```
//!
//! The gate (`--check`) enforces three properties:
//!
//! 1. every function of every suite program (and the coverage kernel)
//!    proves baseline <-> BR store-equivalent;
//! 2. the torture corpus proves at least [`MIN_CORPUS_PROVEN`] of its
//!    functions, with every unproven case listed;
//! 3. the static cycle model is exact on the baseline machine and a
//!    bounded over-approximation on the BR machine (slack within
//!    [`MAX_BR_SLACK`]) at every pipeline depth 2..=8.
//!
//! The JSON report is byte-deterministic: fixed program order, no
//! wall-clock fields.
//!
//! Exit status: 0 on success (and for `--help`), 1 when the gate fails
//! or a program cannot be compiled or run, 2 on a usage error.

use std::process::ExitCode;

use br_core::{parallel, pipeline, suite, Experiment, Machine, Scale};
use br_obs::{json, ProfileHook};
use br_verify::tv;

/// Pipeline depths the cost model is checked at (the paper's range).
const STAGES: std::ops::RangeInclusive<u32> = 2..=8;

/// Minimum fraction of torture-corpus functions that must prove.
const MIN_CORPUS_PROVEN: f64 = 0.9;

/// Maximum allowed relative slack of the static BR cycle bound over
/// the dynamic estimate, at any depth (observed worst: 0.34 on `tr`).
const MAX_BR_SLACK: f64 = 0.40;

struct Args {
    scale: Scale,
    jobs: usize,
    check: bool,
    out: Option<String>,
}

const USAGE: &str = "usage: br-tv [--paper] [--jobs N] [--check] [--out FILE]";

/// The command line; `Ok(None)` for `--help`.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        scale: Scale::Test,
        jobs: 1,
        check: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper" => args.scale = Scale::Paper,
            "--check" => args.check = true,
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                args.jobs = v.parse().map_err(|_| format!("bad --jobs value: {v}"))?;
            }
            "--out" => args.out = Some(it.next().ok_or("--out needs a value")?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Some(args))
}

/// The torture regression corpus (`tests/corpus/*.c`), sorted by file
/// name so the report order is stable.
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

/// Which pool a program belongs to, for gating.
#[derive(Clone, Copy, PartialEq)]
enum Pool {
    /// Appendix I suite or the coverage kernel: must fully prove.
    Suite,
    /// Torture corpus: must prove at least [`MIN_CORPUS_PROVEN`].
    Corpus,
}

/// One stage point of the cost cross-check.
struct CostPoint {
    stages: u32,
    static_total: u64,
    dynamic_total: u64,
}

/// Full result for one program.
struct ProgramResult {
    name: String,
    pool: Pool,
    report: tv::TvModuleReport,
    /// (machine, per-stage points); suite programs only (the corpus
    /// and kernel runs exercise the same model on the same code paths).
    cost: Vec<(Machine, Vec<CostPoint>)>,
}

/// The static-vs-dynamic cost points of `module` on both machines: one
/// profiled run per machine through `exp`, priced at every depth in
/// [`STAGES`].
fn cost_points(
    exp: &Experiment,
    name: &str,
    module: &br_ir::Module,
) -> Result<Vec<(Machine, Vec<CostPoint>)>, String> {
    let mut out = Vec::new();
    for machine in [Machine::Baseline, Machine::BranchReg] {
        let at = |e: br_core::Error| format!("{name} on {machine}: {e}");
        let (prog, stats) = exp.compile_module_for(module, machine).map_err(at)?;
        let mut hook = ProfileHook::new(&prog);
        let run = exp.run_program_with(&prog, stats, &mut hook).map_err(at)?;
        let mut points = Vec::new();
        for stages in STAGES {
            let st = tv::static_cycles(&prog, hook.retired_counts(), stages);
            let dy = pipeline::machine_cycles(machine, &run.meas, stages);
            points.push(CostPoint {
                stages,
                static_total: st.total.total,
                dynamic_total: dy.total,
            });
        }
        out.push((machine, points));
    }
    Ok(out)
}

fn run_one(
    exp: &Experiment,
    name: &str,
    pool: Pool,
    module: &br_ir::Module,
    with_cost: bool,
) -> Result<ProgramResult, String> {
    let report = exp
        .tv_validate_module(module)
        .map_err(|e| format!("{name}: {e}"))?;
    let cost = if with_cost {
        cost_points(exp, name, module)?
    } else {
        Vec::new()
    };
    Ok(ProgramResult {
        name: name.to_string(),
        pool,
        report,
        cost,
    })
}

fn to_json(results: &[ProgramResult]) -> String {
    let mut w = json::Writer::new();
    w.open_obj();
    let (mut proven, mut unproven, mut refuted) = (0u64, 0u64, 0u64);
    w.key("programs");
    w.open_arr();
    for r in results {
        w.open_obj();
        w.field_str("name", &r.name);
        w.key("functions");
        w.open_arr();
        for f in &r.report.funcs {
            w.open_obj();
            w.field_str("name", &f.func);
            w.field_str("status", f.status.name());
            w.field_u64("rounds", f.rounds as u64);
            match f.status {
                tv::TvStatus::Proven => proven += 1,
                tv::TvStatus::Unproven => unproven += 1,
                tv::TvStatus::Refuted => refuted += 1,
            }
            if !f.findings.is_empty() {
                w.key("findings");
                let details: Vec<&str> = f.findings.iter().map(|d| d.detail.as_str()).collect();
                w.str_array(&details);
            }
            w.close_obj();
        }
        w.close_arr();
        if !r.cost.is_empty() {
            w.key("cost");
            w.open_arr();
            for (machine, points) in &r.cost {
                w.open_obj();
                w.field_str(
                    "machine",
                    match machine {
                        Machine::Baseline => "baseline",
                        Machine::BranchReg => "branch_register",
                    },
                );
                w.key("stages");
                w.open_arr();
                for p in points {
                    w.open_obj();
                    w.field_u64("stages", p.stages as u64);
                    w.field_u64("static_cycles", p.static_total);
                    w.field_u64("dynamic_cycles", p.dynamic_total);
                    w.close_obj();
                }
                w.close_arr();
                w.close_obj();
            }
            w.close_arr();
        }
        w.close_obj();
    }
    w.close_arr();
    w.key("summary");
    w.open_obj();
    w.field_u64("functions", proven + unproven + refuted);
    w.field_u64("proven", proven);
    w.field_u64("unproven", unproven);
    w.field_u64("refuted", refuted);
    w.close_obj();
    w.close_obj();
    w.into_string()
}

/// Apply the gate; returns the failure messages (empty = pass).
fn gate(results: &[ProgramResult]) -> Vec<String> {
    let mut fails = Vec::new();
    let (mut corpus_total, mut corpus_proven) = (0usize, 0usize);
    for r in results {
        for f in &r.report.funcs {
            match r.pool {
                Pool::Suite => {
                    if f.status != tv::TvStatus::Proven {
                        fails.push(format!(
                            "suite function {}/{} is {}",
                            r.name,
                            f.func,
                            f.status.name()
                        ));
                    }
                }
                Pool::Corpus => {
                    corpus_total += 1;
                    if f.status == tv::TvStatus::Proven {
                        corpus_proven += 1;
                    } else {
                        println!(
                            "corpus unproven: {}/{} ({})",
                            r.name,
                            f.func,
                            f.status.name()
                        );
                        for d in &f.findings {
                            println!("    {}", d.detail);
                        }
                    }
                }
            }
            if f.status == tv::TvStatus::Refuted {
                fails.push(format!("REFUTED: {}/{}", r.name, f.func));
            }
        }
        for (machine, points) in &r.cost {
            for p in points {
                match machine {
                    Machine::Baseline => {
                        if p.static_total != p.dynamic_total {
                            fails.push(format!(
                                "{}: baseline static model not exact at {} stages \
                                 (static {} vs dynamic {})",
                                r.name, p.stages, p.static_total, p.dynamic_total
                            ));
                        }
                    }
                    Machine::BranchReg => {
                        if p.static_total < p.dynamic_total {
                            fails.push(format!(
                                "{}: BR static bound below dynamic at {} stages \
                                 (static {} vs dynamic {})",
                                r.name, p.stages, p.static_total, p.dynamic_total
                            ));
                        }
                        let slack = p.static_total as f64 / p.dynamic_total.max(1) as f64 - 1.0;
                        if slack > MAX_BR_SLACK {
                            fails.push(format!(
                                "{}: BR static slack {:.3} above {MAX_BR_SLACK} at {} stages",
                                r.name, slack, p.stages
                            ));
                        }
                    }
                }
            }
        }
    }
    if corpus_total > 0 {
        let frac = corpus_proven as f64 / corpus_total as f64;
        println!(
            "corpus: {corpus_proven}/{corpus_total} functions proven ({:.1}%)",
            frac * 100.0
        );
        if frac < MIN_CORPUS_PROVEN {
            fails.push(format!(
                "corpus proven fraction {frac:.3} below {MIN_CORPUS_PROVEN}"
            ));
        }
    }
    fails
}

fn real_main(args: Args) -> Result<bool, String> {
    let exp = Experiment::new();

    let mut inputs: Vec<(String, Pool, br_ir::Module)> = Vec::new();
    for w in suite(args.scale) {
        let module =
            br_frontend::compile(&w.source).map_err(|e| format!("{}: frontend: {e}", w.name))?;
        inputs.push((w.name.to_string(), Pool::Suite, module));
    }
    inputs.push((
        "kernel/alu_coverage".to_string(),
        Pool::Suite,
        br_obs::coverage_kernel(),
    ));
    for (name, src) in corpus_sources() {
        let module = br_frontend::compile(&src).map_err(|e| format!("{name}: frontend: {e}"))?;
        inputs.push((name, Pool::Corpus, module));
    }

    let results = parallel::map_ordered(&inputs, args.jobs, |_, (name, pool, module)| {
        run_one(&exp, name, *pool, module, *pool == Pool::Suite)
    });
    let mut ok_results = Vec::with_capacity(results.len());
    for r in results {
        ok_results.push(r?);
    }

    for r in &ok_results {
        let proven = r.report.count(tv::TvStatus::Proven);
        println!("{}: {}/{} proven", r.name, proven, r.report.funcs.len());
    }

    if let Some(path) = &args.out {
        std::fs::write(path, to_json(&ok_results)).map_err(|e| format!("writing {path}: {e}"))?;
    }

    if args.check {
        let fails = gate(&ok_results);
        if !fails.is_empty() {
            for f in &fails {
                eprintln!("FAIL: {f}");
            }
            return Ok(false);
        }
        println!("br-tv gate OK");
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
            eprintln!("br-tv: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match real_main(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("br-tv: {e}");
            ExitCode::FAILURE
        }
    }
}
