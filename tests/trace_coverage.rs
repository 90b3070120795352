//! Coverage sanity for the traced tier: on the Appendix I suite the
//! superblock engine should capture the bulk of dynamic execution
//! (otherwise the tier silently degrades into the threaded loop plus
//! dispatch overhead).
//!
//! Per-tier throughput is measured by the benchmark: `emu.mips.*` from
//! `paper_suite --trace 1` (see `benchmark/README.md`).

use br_core::{suite, Experiment, Machine, Scale};
use br_emu::{Emulator, ExecTier};

const FUEL: u64 = 1_000_000_000;

#[test]
fn traces_cover_most_suite_execution() {
    let exp = Experiment::new();
    let mut total = 0u64;
    let mut traced = 0u64;
    for w in suite(Scale::Test) {
        for machine in [Machine::Baseline, Machine::BranchReg] {
            let (prog, _) = exp
                .compile(&w.source, machine)
                .unwrap_or_else(|e| panic!("{} on {machine}: {e}", w.name));
            let mut emu = Emulator::new(&prog).with_tier(ExecTier::Traced);
            emu.run(FUEL)
                .unwrap_or_else(|e| panic!("{} on {machine}: {e}", w.name));
            let insts = emu.measurements().instructions;
            let in_trace = emu.traced_insts();
            println!(
                "{:28} {:9}: {:>9} insts, {:>9} in traces ({:>5.1}%)",
                w.name,
                machine.to_string(),
                insts,
                in_trace,
                100.0 * in_trace as f64 / insts.max(1) as f64
            );
            total += insts;
            traced += in_trace;
        }
    }
    let pct = 100.0 * traced as f64 / total.max(1) as f64;
    println!("suite: {total} insts, {traced} in traces ({pct:.1}%)");
    assert!(
        pct > 50.0,
        "trace coverage collapsed to {pct:.1}% — the traced tier is not earning its dispatch"
    );
}
