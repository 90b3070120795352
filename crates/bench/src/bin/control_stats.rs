//! Experiment E7 — the Section 7 prose statistics:
//!
//! * ~14% of baseline instructions are transfers of control;
//! * the ratio of transfers executed to branch-target address
//!   calculations is over 2 : 1;
//! * 36% of baseline delay-slot noops are replaced by address
//!   calculations on the branch-register machine;
//! * additional instructions/data references come from saving and
//!   restoring branch registers.

use br_bench::{human, suite_args};
use br_core::Experiment;

fn main() {
    let args = suite_args();
    let scale = args.scale;
    let report = Experiment::new()
        .run_suite_jobs(scale, args.jobs)
        .expect("suite");
    let (base, brm) = report.totals();
    let (base_stats, br_stats) = report.stats_totals();

    println!("Section 7 control-transfer statistics ({scale:?} scale)");
    println!();
    println!("baseline machine:");
    println!(
        "  transfers of control executed: {} ({:.2}% of instructions; paper ~14%)",
        human(base.transfers),
        base.transfer_fraction() * 100.0
    );
    println!(
        "  conditional transfers: {}   unconditional: {}",
        human(base.cond_transfers),
        human(base.uncond_transfers)
    );
    println!(
        "  conditional taken rate: {:.1}% (the paper notes most branches are taken)",
        100.0 * base.cond_taken as f64 / base.cond_transfers.max(1) as f64
    );
    println!("  noops executed (delay slots): {}", human(base.noops));
    println!(
        "  static delay slots: {} filled, {} noops ({:.1}% filled)",
        base_stats.slots_filled,
        base_stats.slots_noop,
        100.0 * base_stats.slots_filled as f64
            / (base_stats.slots_filled + base_stats.slots_noop).max(1) as f64
    );
    println!();
    println!("branch-register machine:");
    println!(
        "  transfers of control executed: {} ({:.2}% of instructions)",
        human(brm.transfers),
        brm.transfer_fraction() * 100.0
    );
    println!(
        "  branch-target address calculations executed: {}",
        human(brm.addr_calcs)
    );
    println!(
        "  transfers : address calculations = {:.2} : 1 (paper: over 2 : 1)",
        brm.transfers as f64 / brm.addr_calcs.max(1) as f64
    );
    println!("  noops executed (transfer carriers): {}", human(brm.noops));
    println!(
        "  branch-register saves: {}   restores: {}",
        human(brm.br_saves),
        human(brm.br_restores)
    );
    let total_carriers =
        br_stats.carriers_useful + br_stats.carriers_noop + br_stats.carriers_replaced_by_calc;
    println!(
        "  static carriers: {} useful, {} noop, {} replaced by address calcs",
        br_stats.carriers_useful, br_stats.carriers_noop, br_stats.carriers_replaced_by_calc
    );
    println!(
        "  noop-carrier replacement rate: {:.1}% of potential noops (paper: 36% of baseline noops)",
        100.0 * br_stats.carriers_replaced_by_calc as f64
            / (br_stats.carriers_replaced_by_calc + br_stats.carriers_noop).max(1) as f64
    );
    println!(
        "  hoisted address calculations (static): {}",
        br_stats.hoisted_calcs
    );
    let _ = total_carriers;
}
