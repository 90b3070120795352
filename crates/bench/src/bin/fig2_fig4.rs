//! Experiment E8 — reproduce **Figures 2–4**: the `strlen` example
//! compiled for both machines, shown in RTL notation.
//!
//! Paper reference: 14 static instructions with delayed branches vs 11
//! with branch registers, and 6 vs 5 instructions inside the loop.

use br_core::{Experiment, Machine};
use br_workloads::strlen_example;

fn main() {
    // Nothing here scales or fans out, but the shared flags are accepted
    // and anything else is rejected.
    br_bench::suite_args();
    let src = strlen_example();
    println!("Figure 2 — C function");
    println!("{src}");

    let exp = Experiment::new();
    for (fig, machine) in [(3, Machine::Baseline), (4, Machine::BranchReg)] {
        let (prog, _) = exp.compile(&src, machine).expect("compile");
        println!(
            "Figure {fig} — RTLs for the {} machine ({} static instructions total)",
            machine,
            prog.static_inst_count()
        );
        println!("{}", prog.listing());
    }

    let cmp = exp.run_comparison("strlen", &src).expect("run");
    println!(
        "dynamic: baseline {} instructions, branch-register {} instructions (both return {})",
        cmp.baseline.meas.instructions, cmp.brmach.meas.instructions, cmp.baseline.exit
    );
}
