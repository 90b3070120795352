//! Experiment E1 — reproduce **Table I**: dynamic instruction and data
//! memory reference counts for both machines over the Appendix I suite.
//!
//! Paper reference values: the branch-register machine executed **6.8%
//! fewer instructions** and made **2.0% more data references** (a 10:1
//! ratio of instructions saved to references added).

use br_bench::{human, pct, suite_args};
use br_core::Experiment;

fn main() {
    let args = suite_args();
    let scale = args.scale;
    let exp = Experiment::new();
    let report = exp.run_suite_jobs(scale, args.jobs).expect("suite");

    println!("Table I — Dynamic Measurements from the Two Machines ({scale:?} scale)");
    println!();
    println!(
        "{:<12} {:>16} {:>16} {:>8}   {:>14} {:>14} {:>8}",
        "program", "base insts", "br insts", "diff", "base refs", "br refs", "diff"
    );
    for r in &report.rows {
        let ip = pct(
            (r.brmach.meas.instructions as f64 - r.baseline.meas.instructions as f64)
                / r.baseline.meas.instructions as f64
                * 100.0,
        );
        let dp = pct(
            (r.brmach.meas.data_refs as f64 - r.baseline.meas.data_refs as f64)
                / r.baseline.meas.data_refs.max(1) as f64
                * 100.0,
        );
        println!(
            "{:<12} {:>16} {:>16} {:>8}   {:>14} {:>14} {:>8}",
            r.name,
            human(r.baseline.meas.instructions),
            human(r.brmach.meas.instructions),
            ip,
            human(r.baseline.meas.data_refs),
            human(r.brmach.meas.data_refs),
            dp,
        );
    }
    let t = report.table1();
    println!("{}", "-".repeat(100));
    println!(
        "{:<12} {:>16} {:>16} {:>8}   {:>14} {:>14} {:>8}",
        "TOTAL",
        human(t.baseline_insts),
        human(t.brmach_insts),
        pct(t.inst_diff_pct),
        human(t.baseline_refs),
        human(t.brmach_refs),
        pct(t.refs_diff_pct),
    );
    println!();
    println!("paper: instructions -6.8%, data references +2.0%");
    let ratio = if t.brmach_refs > t.baseline_refs {
        (t.baseline_insts.saturating_sub(t.brmach_insts)) as f64
            / (t.brmach_refs - t.baseline_refs) as f64
    } else {
        f64::INFINITY
    };
    println!(
        "measured ratio of instructions-saved to data-refs-added: {ratio:.1} : 1 (paper: 10 : 1)"
    );

    // Translated foreign-ISA workloads, measured the same way. These sit
    // outside the paper's totals (the paper predates the translator) but
    // answer the same question on code the MiniC front end never saw.
    println!();
    println!("Translated RV32I workloads (not part of the paper totals)");
    let mut rv_rows = Vec::new();
    for (name, prog) in br_ingest::workloads::all() {
        let row = exp
            .run_rv32_comparison(name, &prog)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        rv_rows.push(row);
    }
    let (mut bi, mut ni, mut brf, mut nrf) = (0u64, 0u64, 0u64, 0u64);
    for r in &rv_rows {
        let ip = pct(
            (r.brmach.meas.instructions as f64 - r.baseline.meas.instructions as f64)
                / r.baseline.meas.instructions as f64
                * 100.0,
        );
        let dp = pct(
            (r.brmach.meas.data_refs as f64 - r.baseline.meas.data_refs as f64)
                / r.baseline.meas.data_refs.max(1) as f64
                * 100.0,
        );
        println!(
            "{:<12} {:>16} {:>16} {:>8}   {:>14} {:>14} {:>8}",
            r.name,
            human(r.baseline.meas.instructions),
            human(r.brmach.meas.instructions),
            ip,
            human(r.baseline.meas.data_refs),
            human(r.brmach.meas.data_refs),
            dp,
        );
        bi += r.baseline.meas.instructions;
        ni += r.brmach.meas.instructions;
        brf += r.baseline.meas.data_refs;
        nrf += r.brmach.meas.data_refs;
    }
    println!(
        "{:<12} {:>16} {:>16} {:>8}   {:>14} {:>14} {:>8}",
        "RV32 TOTAL",
        human(bi),
        human(ni),
        pct((ni as f64 - bi as f64) / bi as f64 * 100.0),
        human(brf),
        human(nrf),
        pct((nrf as f64 - brf as f64) / brf.max(1) as f64 * 100.0),
    );
}
