//! Small statistics and process helpers shared by the workloads.

use std::time::{Duration, Instant};

use br_emu::Measurements;
use br_workloads::rng::Rng64;

use crate::host::{Pass, PassClock};

/// Percentile (`p` in 0..=100) of unsorted samples, interpolating
/// linearly between the closest ranks; 0 for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * p / 100.0;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never used).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Fisher–Yates shuffle driven by the workload seed.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng64) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Time `setup` at least three times, and on until a second or 10 000
/// repetitions have passed, so a set-up of well under a millisecond
/// still yields a steady median; keeps the last result and returns it
/// with every repetition's host-normalized wall time in seconds.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut clock = PassClock::start();
    let mut last = None;
    while clock.jobs() < 3 || (clock.elapsed_s() < 1.0 && clock.jobs() < 10_000) {
        last = Some(clock.job(&mut setup)?);
    }
    let times = clock.finish().job_ms.iter().map(|ms| ms / 1e3).collect();
    Ok((last.expect("at least one repetition ran"), times))
}

/// Whether another pass fits: always before the first, then while the
/// elapsed time plus a mean pass stays within `budget`.
pub fn another_pass(start: Instant, walls: &[f64], budget: Duration) -> bool {
    walls.is_empty() || start.elapsed().as_secs_f64() + mean(walls) <= budget.as_secs_f64()
}

/// The end-to-end timing and memory metrics every workload reports, from
/// its set-up times and its passes, all in host-normalized time, and its
/// peak resident memory in MiB.
///
/// Every pass does the same deterministic work, so each timing is the
/// median over passes (latency percentiles are taken within each pass
/// first).
pub fn pass_metrics(report: &mut crate::Report, setup_s: &[f64], passes: &[Pass], rss_mb: f64) {
    let over_passes = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let wall = over_passes(&|p| p.wall_s);
    let jobs = passes.first().map_or(0, |p| p.job_ms.len());
    eprintln!(
        "{} passes: median host factor {:.3}, median raw pass wall {:.4} s",
        passes.len(),
        over_passes(&|p| p.factor),
        over_passes(&|p| p.raw_wall_s)
    );
    report.metric("setup_s", median(setup_s), "s");
    report.metric("wall_s", wall, "s");
    report.metric(
        "p50_ms",
        over_passes(&|p| percentile(&p.job_ms, 50.0)),
        "ms",
    );
    report.metric(
        "p99_ms",
        over_passes(&|p| percentile(&p.job_ms, 99.0)),
        "ms",
    );
    report.metric("max_rps", ratio(jobs as f64, wall), "req/s");
    report.metric("peak_rss_mb", rss_mb, "MiB");
}

/// Percentage-point gap between the measured Table I deltas over
/// (baseline, BR machine) measurement pairs and the paper's
/// (instructions −6.8%, data references +2.0%).
pub fn paper_gap<'m>(
    report: &mut crate::Report,
    pairs: impl IntoIterator<Item = (&'m Measurements, &'m Measurements)>,
) {
    let (mut base, mut br) = ((0, 0), (0, 0));
    for (b, r) in pairs {
        base = (base.0 + b.instructions, base.1 + b.data_refs);
        br = (br.0 + r.instructions, br.1 + r.data_refs);
    }
    let delta = |b: u64, m: u64| (m as f64 / b as f64 - 1.0) * 100.0;
    report.metric(
        "paper_gap_insts_pp",
        (delta(base.0, br.0) + 6.8).abs(),
        "pp",
    );
    report.metric("paper_gap_refs_pp", (delta(base.1, br.1) - 2.0).abs(), "pp");
}
