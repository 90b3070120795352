//! The run shared by `paper_suite` and `compile_fresh`: each job is
//! compiled for both machines and run once per pass, through
//! `Experiment::run_comparison` (or `run_rv32_comparison`) untraced, and
//! through the decomposed layer calls when traced.

use std::time::Instant;

use br_core::{CodegenStats, Experiment, Machine, Program, ProgramComparison};
use br_emu::Measurements;

use crate::host::PassClock;
use crate::layers::{self, Source};
use crate::stats::{another_pass, pass_metrics, peak_rss_mb};
use crate::trace::Tracer;
use crate::{Args, Report};

pub struct Job {
    pub name: String,
    pub src: Source,
}

/// What the oracle sees of one job's run: the agreed exit value and
/// each machine's measurements.
pub struct Outcome<'a> {
    pub exit: i32,
    pub base: &'a Measurements,
    pub br: &'a Measurements,
}

/// A batch workload: the jobs every pass runs, and their oracle.
pub trait Batch {
    /// Make the oracle data ready. Runs once, after set-up and outside
    /// the timed region.
    fn prepare(&mut self) -> Result<(), String>;
    fn jobs(&self) -> &[Job];
    /// The workload's independent oracle for job `i`.
    fn check(&self, i: usize, o: Outcome<'_>) -> Result<(), String>;
}

/// The entry point users call.
fn entry(exp: &Experiment, job: &Job) -> Result<ProgramComparison, String> {
    match &job.src {
        Source::MiniC(s) => exp.run_comparison(&job.name, s),
        Source::Rv32(p) => exp.run_rv32_comparison(&job.name, p),
    }
    .map_err(|e| format!("{}: {e}", job.name))
}

fn check_entry(
    w: &dyn Batch,
    i: usize,
    row: &Result<ProgramComparison, String>,
) -> Result<(), String> {
    let c = row.as_ref().map_err(Clone::clone)?;
    w.check(
        i,
        Outcome {
            exit: c.baseline.exit,
            base: &c.baseline.meas,
            br: &c.brmach.meas,
        },
    )
}

/// Timed passes through the entry point. Returns the first pass's rows
/// (for count-derived metrics such as the paper gap).
pub fn untraced(
    args: &Args,
    exp: &Experiment,
    w: &mut dyn Batch,
    setup_s: &[f64],
    report: &mut Report,
) -> Result<Vec<Result<ProgramComparison, String>>, String> {
    w.prepare()?;
    let start = Instant::now();
    let (mut walls, mut passes, mut first) = (Vec::new(), Vec::new(), None);
    while another_pass(start, &walls, args.seconds) {
        let t = Instant::now();
        let mut clock = PassClock::start();
        let rows: Vec<_> = w
            .jobs()
            .iter()
            .map(|job| clock.job(|| entry(exp, job)))
            .collect();
        passes.push(clock.finish());
        walls.push(t.elapsed().as_secs_f64());
        for (i, row) in rows.iter().enumerate() {
            report.check(check_entry(w, i, row));
        }
        first.get_or_insert(rows);
    }
    pass_metrics(report, setup_s, &passes, peak_rss_mb());
    Ok(first.unwrap_or_default())
}

/// One job through the decomposed path on both machines.
type Decomposed = Vec<(Program, CodegenStats, i32, Measurements)>;

fn decomposed(tr: &mut Tracer, exp: &Experiment, id: u32, job: &Job) -> Result<Decomposed, String> {
    let core = tr.enter("core", "program", id);
    let out = (|| {
        let module = layers::lower(tr, id, &job.src)?;
        let mut out = Vec::with_capacity(2);
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let (prog, stats) = layers::compile(tr, id, exp, &module, machine)?;
            let (exit, meas) = layers::emulate(tr, id, &prog, exp.tier, exp.fuel)?;
            out.push((prog, stats, exit, meas));
        }
        Ok(out)
    })();
    tr.exit(core);
    out.map_err(|e: String| format!("{}: {e}", job.name))
}

/// The traced run: per-tier emulate rows over the entry point's
/// binaries, then alternating untraced and traced passes, then the
/// oracle on both paths and the byte-identity check between them.
pub fn traced(
    args: &Args,
    exp: &Experiment,
    w: &mut dyn Batch,
    report: &mut Report,
) -> Result<(), String> {
    let end = Instant::now() + args.seconds;
    w.prepare()?;
    let jobs = w.jobs();
    let mut entry_bins: Vec<Vec<(Program, CodegenStats)>> = Vec::new();
    for job in jobs {
        let module = layers::lower_entry(&job.src).map_err(|e| format!("{}: {e}", job.name))?;
        let mut pair = Vec::new();
        for machine in [Machine::Baseline, Machine::BranchReg] {
            pair.push(
                exp.compile_module_for(&module, machine)
                    .map_err(|e| format!("{}: {e}", job.name))?,
            );
        }
        entry_bins.push(pair);
    }
    let bins: Vec<&Program> = entry_bins.iter().flatten().map(|(p, _)| p).collect();
    let tiers = layers::tier_rows(report, &bins, exp.fuel);

    let mut tr = Tracer::new();
    let mut plain_rows = Vec::new();
    let mut traced_rows = Vec::new();
    let (plain, traced) = layers::alternate(&mut tr, end, |tr| match tr {
        None => plain_rows = jobs.iter().map(|j| entry(exp, j)).collect(),
        Some(tr) => {
            traced_rows = jobs
                .iter()
                .enumerate()
                .map(|(i, j)| decomposed(tr, exp, i as u32, j))
                .collect()
        }
    });

    for (i, job) in jobs.iter().enumerate() {
        report.check(check_entry(w, i, &plain_rows[i]));
        report.check(match (&traced_rows[i], &plain_rows[i]) {
            (Err(e), _) | (_, Err(e)) => Err(e.clone()),
            (Ok(t), Ok(p)) => {
                let same_bins = t.iter().zip(&entry_bins[i]).all(|(a, b)| {
                    layers::program_bytes(&a.0, &a.1) == layers::program_bytes(&b.0, &b.1)
                });
                let same_runs = t[0].2 == p.baseline.exit
                    && t[1].2 == p.brmach.exit
                    && t[0].3 == p.baseline.meas
                    && t[1].3 == p.brmach.meas;
                if same_bins && same_runs {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: traced path differs from the entry point (programs identical: {same_bins}, runs identical: {same_runs})",
                        job.name
                    ))
                }
            }
        });
    }
    layers::layer_metrics(report, &tr, traced.len(), &plain, &traced, &tiers, &[]);
    tr.write(&format!("{}-seed{}", args.workload, args.seed))?;
    Ok(())
}
