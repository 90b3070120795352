//! `paper_suite`: the job `table1 --paper` users wait for.
//!
//! The 19 Appendix I programs at Paper scale plus the three RV32
//! workloads are lowered, compiled for both machines and run with
//! `Experiment::new()` defaults (interp tier, verify off). Emulation
//! takes about 99% of the time and compilation under 2%, so emulator
//! changes show here and compile changes do not. The seed only permutes
//! program order: Table I is defined on the fixed Appendix I inputs.
//!
//! Oracle: both machines agree on every exit, and every program's
//! instruction and data-reference counts equal `results/table1.txt`,
//! read at run time so a rightly regenerated golden keeps the benchmark
//! valid.

use std::collections::HashMap;

use br_core::{Experiment, Scale};
use br_workloads::rng::Rng64;

use crate::batch::{self, Batch, Job, Outcome};
use crate::layers::Source;
use crate::stats::{paper_gap, repeat_setup, shuffle};
use crate::{Args, Report};

const TABLE1: &str = "results/table1.txt";

/// (baseline insts, BR insts, baseline data refs, BR data refs).
type Counts = (u64, u64, u64, u64);

struct Suite {
    jobs: Vec<Job>,
    golden: HashMap<String, Counts>,
}

fn setup(seed: u64) -> Vec<Job> {
    let mut jobs: Vec<Job> = br_workloads::suite(Scale::Paper)
        .into_iter()
        .map(|w| Job {
            name: w.name.to_string(),
            src: Source::MiniC(w.source),
        })
        .collect();
    jobs.extend(
        br_ingest::workloads::all()
            .into_iter()
            .map(|(name, p)| Job {
                name: name.to_string(),
                src: Source::Rv32(p),
            }),
    );
    shuffle(&mut jobs, &mut Rng64::seed_from_u64(seed));
    jobs
}

/// Per-program rows of the Table I golden.
fn golden() -> Result<HashMap<String, Counts>, String> {
    let text = std::fs::read_to_string(TABLE1).map_err(|e| format!("{TABLE1}: {e}"))?;
    let num = |s: &str| s.replace(',', "").parse::<u64>().ok();
    let mut rows = HashMap::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 7 || f[0].contains("TOTAL") {
            continue;
        }
        if let (Some(a), Some(b), Some(c), Some(d)) = (num(f[1]), num(f[2]), num(f[4]), num(f[5])) {
            rows.insert(f[0].to_string(), (a, b, c, d));
        }
    }
    Ok(rows)
}

impl Batch for Suite {
    fn prepare(&mut self) -> Result<(), String> {
        match self
            .jobs
            .iter()
            .find(|j| !self.golden.contains_key(&j.name))
        {
            Some(job) => Err(format!("{TABLE1} has no row for {}", job.name)),
            None => Ok(()),
        }
    }

    fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    fn check(&self, i: usize, o: Outcome<'_>) -> Result<(), String> {
        let name = &self.jobs[i].name;
        let got = (
            o.base.instructions,
            o.br.instructions,
            o.base.data_refs,
            o.br.data_refs,
        );
        let want = self.golden[name];
        if want == got {
            Ok(())
        } else {
            Err(format!(
                "{name}: counts {got:?} differ from {TABLE1} {want:?}"
            ))
        }
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (jobs, setup_s) = repeat_setup(|| Ok(setup(args.seed)))?;
    let mut suite = Suite {
        jobs,
        golden: golden()?,
    };
    let exp = Experiment::new();
    let mut report = Report::default();
    if args.trace {
        batch::traced(args, &exp, &mut suite, &mut report)?;
        return Ok(report);
    }
    let rows = batch::untraced(args, &exp, &mut suite, &setup_s, &mut report)?;
    // Table I totals over the 19 Appendix I programs (RV32 rows excluded).
    let pairs = suite
        .jobs
        .iter()
        .zip(&rows)
        .filter_map(|(job, row)| match (&job.src, row) {
            (Source::MiniC(_), Ok(c)) => Some((&c.baseline.meas, &c.brmach.meas)),
            _ => None,
        });
    paper_gap(&mut report, pairs);
    Ok(report)
}
