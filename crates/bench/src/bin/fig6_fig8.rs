//! Experiment E4 — reproduce **Figures 6 and 8**: cycle-by-cycle pipeline
//! actions for unconditional and conditional transfers on each machine
//! model (3-stage pipeline).

use br_core::pipeline::{cond_trace, uncond_trace, BranchScheme};

fn main() {
    // Nothing here scales or fans out, but the shared flags are accepted
    // and anything else is rejected.
    br_bench::suite_args();
    println!("Figure 6 — pipeline actions for an unconditional transfer (3 stages)");
    for s in BranchScheme::ALL {
        println!();
        println!("[{}]", s.name());
        print!("{}", uncond_trace(s).render());
    }
    println!();
    println!("Figure 8 — pipeline actions for a conditional transfer (3 stages)");
    for s in BranchScheme::ALL {
        println!();
        println!("[{}]", s.name());
        print!("{}", cond_trace(s).render());
    }
    println!();
    println!(
        "note: with branch registers the unconditional case is fully packed\n\
         (one instruction per cycle) and the conditional case has no bubble\n\
         at three stages, as in the paper's figures."
    );
}
