//! Experiment E5 — the **Figure 9** prefetch-distance rule, measured:
//! histogram of the dynamic distance between each branch-target address
//! calculation and the transfer that consumes it.

use br_bench::{human, suite_args};
use br_core::Experiment;
use br_emu::MAX_DIST_BUCKET;

fn main() {
    let args = suite_args();
    let scale = args.scale;
    let report = Experiment::new()
        .run_suite_jobs(scale, args.jobs)
        .expect("suite");
    let (_, brm) = report.totals();

    println!("Figure 9 — distance from address calculation to transfer ({scale:?} scale)");
    println!();
    println!("{:>10} {:>14} {:>8}", "distance", "transfers", "share");
    for d in 1..=MAX_DIST_BUCKET {
        let n = brm.transfer_dist[d];
        println!(
            "{:>10} {:>14} {:>7.2}%",
            d,
            human(n),
            100.0 * n as f64 / brm.transfers.max(1) as f64
        );
    }
    println!(
        "{:>10} {:>14} {:>7.2}%",
        format!(">{MAX_DIST_BUCKET}"),
        human(brm.transfer_dist[0]),
        100.0 * brm.transfer_dist[0] as f64 / brm.transfers.max(1) as f64
    );
    println!();
    for required in 2..=4u64 {
        println!(
            "transfers closer than {required} (delayed in an N={} pipeline): {:.2}%",
            required + 1,
            brm.frac_transfers_within(required) * 100.0
        );
    }
    println!();
    println!("paper: 13.86% of transfers were within distance 2 (3-stage pipeline)");
}
