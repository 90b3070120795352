//! `br-benchmark` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! br-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the entry points users already call
//! (`Experiment`, the `br-explore` record/replay recipe, an in-process
//! `br_serve::spawn` with `request_with_retry`), checks every output
//! against an oracle that is independent of the code under test, and
//! prints one JSON object as the last line of standard output. With `--trace 0`
//! it reports the end-to-end metrics; with `--trace 1` it runs the
//! decomposed, span-recorded path and reports the per-layer metrics.
//! `README.md` beside this file documents every workload and metric.

mod batch;
mod compile_fresh;
mod explore_sweep;
mod host;
mod layers;
mod paper_suite;
mod serve_mixed;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

/// Command-line arguments shared by every workload.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (program runs, sweep points, requests).
    pub attempted: u64,
    /// Operations that failed: an error, an error reply, a refused
    /// request, or a failed oracle check.
    pub failed: u64,
    /// Descriptions of the failures, printed to standard error.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Count one operation; `Err` marks it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(e);
            }
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("br-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "paper_suite" => paper_suite::run(&args),
        "compile_fresh" => compile_fresh::run(&args),
        "explore_sweep" => explore_sweep::run(&args),
        "serve_mixed" => serve_mixed::run(&args),
        other => Err(format!(
            "unknown workload `{other}` (paper_suite, compile_fresh, explore_sweep, serve_mixed)"
        )),
    };
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("br-benchmark: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    for f in &report.failures {
        eprintln!("FAILED: {f}");
    }
    for m in &report.metrics {
        eprintln!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("br-benchmark: metric {} is not finite", bad.name);
        return ExitCode::from(2);
    }
    println!("{}", report.json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
