//! Experiments E2/E3 — reproduce **Figures 5 and 7**: pipeline delays for
//! unconditional and conditional transfers of control under the three
//! branch-handling schemes, across pipeline depths.

use br_core::pipeline::{cond_delay, uncond_delay, BranchScheme};

fn main() {
    // Nothing here scales or fans out, but the shared flags are accepted
    // and anything else is rejected.
    br_bench::suite_args();
    println!("Figure 5 — pipeline delays, unconditional transfers");
    println!();
    println!(
        "{:<22} {:>4} {:>4} {:>4} {:>4}",
        "scheme", "N=3", "N=4", "N=5", "N=6"
    );
    for s in BranchScheme::ALL {
        print!("{:<22}", s.name());
        for n in 3..=6 {
            print!(" {:>4}", uncond_delay(s, n));
        }
        println!();
    }
    println!();
    println!("paper: N-1 (no delayed branch), N-2 (delayed), 0 (branch registers)");
    println!();

    println!("Figure 7 — pipeline delays, conditional transfers");
    println!();
    println!(
        "{:<22} {:>4} {:>4} {:>4} {:>4}",
        "scheme", "N=3", "N=4", "N=5", "N=6"
    );
    for s in BranchScheme::ALL {
        print!("{:<22}", s.name());
        for n in 3..=6 {
            print!(" {:>4}", cond_delay(s, n));
        }
        println!();
    }
    println!();
    println!("paper: N-1 / N-2 / N-3");
}
