//! `compile_fresh`: modules generated from the seed and never seen
//! before, compiled cold for both machines with the br-verify stage
//! gates on — how the torture harness and ci.sh compile, the repo's
//! heaviest compile traffic — and each binary run once.
//!
//! The modules are MiniC programs from `br_torture::generate` (default
//! `GenConfig`) plus RV32 streams from `generate_rv32`, drawn from the
//! seed once in set-up. Every pass compiles them cold: no cache sits in
//! the `Experiment` path. Verify gates take most of the time, then
//! regalloc, hoist and emit, then the front end and IR opts; emulation
//! is a few percent. Translation validation stays out: it would take
//! most of the time and bury the compile layers.
//!
//! Compile time follows source length closely, and generated lengths
//! are heavy-tailed, so a plain draw of sixty modules would make the
//! pass's work differ by seed. Set-up therefore fixes the input size:
//! it draws a pool of candidates and keeps, for each length in a fixed
//! profile, the candidate nearest to it. The profile is the
//! length quantiles of a population drawn from a constant seed, so the
//! seed picks which programs run, never how much work they are.
//!
//! Oracle: every exit equals `br_ir::Interpreter` on the lowered module
//! (MiniC) or `br_ingest::interp::run` on the image (RV32).

use br_core::{Experiment, Scale};
use br_torture::{generate, generate_rv32, iter_seed, render, GenConfig};

use crate::batch::{self, Batch, Job, Outcome};
use crate::layers::Source;
use crate::stats::{paper_gap, repeat_setup};
use crate::{Args, Report};

/// MiniC and RV32 modules per pass.
const MINIC_MODULES: usize = 60;
const RV32_MODULES: u64 = 12;
/// Candidates drawn per kept MiniC module.
const POOL_FACTOR: usize = 8;
/// Seed of the population whose length quantiles are the size profile.
const PROFILE_SEED: u64 = 0x51ce;
/// Reference-interpreter step budget; generated programs are bounded
/// far below it.
const ORACLE_FUEL: u64 = 20_000_000;

fn minic(seed: u64) -> String {
    render(&generate(seed, GenConfig::default()))
}

struct Fresh {
    jobs: Vec<Job>,
    /// Interpreter exits for `jobs`; empty until the oracle has run.
    want: Vec<Result<i32, String>>,
}

impl Fresh {
    /// The seed's modules, length-matched to the size profile.
    fn new(seed: u64) -> Fresh {
        let mut lens: Vec<usize> = (0..(MINIC_MODULES * POOL_FACTOR / 2) as u64)
            .map(|i| minic(iter_seed(PROFILE_SEED, i)).len())
            .collect();
        lens.sort_unstable();
        let mut pool: Vec<(usize, u64)> = (0..(MINIC_MODULES * POOL_FACTOR) as u64)
            .map(|i| {
                let s = iter_seed(seed, i);
                (minic(s).len(), s)
            })
            .collect();
        let mut jobs = Vec::with_capacity(MINIC_MODULES + RV32_MODULES as usize);
        for k in 0..MINIC_MODULES {
            let want = lens[(2 * k + 1) * lens.len() / (2 * MINIC_MODULES)];
            let (i, _) = pool
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| c.0.abs_diff(want))
                .expect("the pool outnumbers the profile");
            let (_, s) = pool.swap_remove(i);
            jobs.push(Job {
                name: format!("minic-{s:#x}"),
                src: Source::MiniC(minic(s)),
            });
        }
        jobs.extend((0..RV32_MODULES).map(|i| {
            let s = iter_seed(!seed, i);
            Job {
                name: format!("rv32-{s:#x}"),
                src: Source::Rv32(generate_rv32(s)),
            }
        }));
        Fresh {
            jobs,
            want: Vec::new(),
        }
    }
}

/// Exit value from the interpreter that shares no code with codegen or
/// the emulators.
fn reference_exit(job: &Job) -> Result<i32, String> {
    match &job.src {
        Source::MiniC(src) => {
            let module = br_frontend::compile(src).map_err(|e| format!("{}: {e}", job.name))?;
            br_ir::Interpreter::new(&module)
                .with_fuel(ORACLE_FUEL)
                .run("main", &[])
                .map_err(|e| format!("{}: IR interpreter: {e}", job.name))
        }
        Source::Rv32(p) => br_ingest::interp::run(p, ORACLE_FUEL)
            .map(|o| o.exit)
            .map_err(|e| format!("{}: RV32 interpreter: {e}", job.name)),
    }
}

impl Batch for Fresh {
    fn prepare(&mut self) -> Result<(), String> {
        self.want = self.jobs.iter().map(reference_exit).collect();
        Ok(())
    }

    fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    fn check(&self, i: usize, o: Outcome<'_>) -> Result<(), String> {
        match &self.want[i] {
            Ok(w) if *w == o.exit => Ok(()),
            Ok(w) => Err(format!(
                "{}: exit {} but the interpreter says {w}",
                self.jobs[i].name, o.exit
            )),
            Err(e) => Err(e.clone()),
        }
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (mut fresh, setup_s) = repeat_setup(|| Ok(Fresh::new(args.seed)))?;
    let exp = Experiment {
        verify: true,
        ..Experiment::new()
    };
    let mut report = Report::default();
    if args.trace {
        batch::traced(args, &exp, &mut fresh, &mut report)?;
        return Ok(report);
    }
    batch::untraced(args, &exp, &mut fresh, &setup_s, &mut report)?;
    // A fresh module's branch-register delta depends on the seed far
    // more than on the compiler, so the paper gap is taken from the
    // Appendix I suite at Test scale, compiled the same way, after the
    // timed passes.
    let suite = br_workloads::suite(Scale::Test)
        .into_iter()
        .map(|w| {
            exp.run_comparison(w.name, &w.source)
                .map_err(|e| format!("{}: {e}", w.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    paper_gap(
        &mut report,
        suite.iter().map(|c| (&c.baseline.meas, &c.brmach.meas)),
    );
    Ok(report)
}
