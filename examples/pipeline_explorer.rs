//! Pipeline explorer: sweep pipeline depth and watch the branch-register
//! machine's advantage grow (Section 6/7), on a workload of your choice.
//!
//! ```text
//! cargo run --example pipeline_explorer [workload]
//! ```

use br_core::{by_name, pipeline, Experiment, Scale};

fn main() -> Result<(), br_core::Error> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "sieve".to_string());
    let w = by_name(&name, Scale::Test)
        .unwrap_or_else(|| panic!("unknown workload '{name}' (try sieve, wc, grep, ...)"));

    let exp = Experiment::new();
    let cmp = exp.run_comparison(w.name, &w.source)?;
    println!(
        "workload: {} — {} (exit {})",
        w.name, w.description, cmp.baseline.exit
    );
    println!(
        "baseline {} instructions / branch-register {}",
        cmp.baseline.meas.instructions, cmp.brmach.meas.instructions
    );
    println!();
    println!(
        "{:>6} {:>14} {:>14} {:>9}",
        "stages", "baseline cyc", "br cyc", "saving"
    );
    for stages in 3..=8 {
        let c = pipeline::compare(&cmp.baseline.meas, &cmp.brmach.meas, stages);
        println!(
            "{:>6} {:>14} {:>14} {:>8.2}%",
            stages,
            c.baseline_cycles,
            c.br_cycles,
            c.saving * 100.0
        );
    }
    println!();
    println!("per-transfer delays at 3 stages (Figures 5/7):");
    for s in pipeline::BranchScheme::ALL {
        println!(
            "  {:<20} uncond: {} cycles, cond: {} cycles",
            s.name(),
            pipeline::uncond_delay(s, 3),
            pipeline::cond_delay(s, 3),
        );
    }
    println!();
    println!(
        "transfers whose address calc was <2 instructions away: {:.2}% (paper: 13.86%)",
        cmp.brmach.meas.frac_transfers_within(2) * 100.0
    );
    Ok(())
}
