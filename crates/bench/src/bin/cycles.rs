//! Experiment E6 — the Section 7 cycle estimates.
//!
//! Paper reference values: with a 3-stage pipeline the branch-register
//! machine needs **10.6% fewer cycles**; with 4 stages, **12.8% fewer**.
//! Only **13.86%** of its transfers incur a pipeline delay (their target
//! address was calculated fewer than two instructions earlier).

use br_bench::{human, suite_args};
use br_core::{pipeline, Experiment};

fn main() {
    let args = suite_args();
    let scale = args.scale;
    let report = Experiment::new()
        .run_suite_jobs(scale, args.jobs)
        .expect("suite");
    let (base, brm) = report.totals();

    println!("Section 7 cycle estimates ({scale:?} scale)");
    println!();
    println!(
        "fraction of BR-machine transfers with calc distance < 2: {:.2}% (paper: 13.86%)",
        brm.frac_transfers_within(2) * 100.0
    );
    println!();
    println!(
        "{:>6} {:>16} {:>16} {:>9}",
        "stages", "baseline cycles", "br cycles", "saving"
    );
    for stages in 3..=8 {
        let c = pipeline::compare(&base, &brm, stages);
        println!(
            "{:>6} {:>16} {:>16} {:>8.2}%",
            stages,
            human(c.baseline_cycles),
            human(c.br_cycles),
            c.saving * 100.0
        );
    }
    println!();
    println!("paper: 10.6% fewer cycles at 3 stages, 12.8% at 4 stages");
    println!();

    // The no-delayed-branch machine, for the Figures 5/7 context.
    let nod = pipeline::cycles(pipeline::BranchScheme::NoDelayed, &base, 3);
    let del = pipeline::cycles(pipeline::BranchScheme::Delayed, &base, 3);
    println!(
        "3-stage baseline without delayed branches would need {} cycles ({:.1}% over delayed)",
        human(nod.total),
        100.0 * (nod.total as f64 / del.total as f64 - 1.0)
    );
}
