//! `br-bench` — the measurement harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's experiment index). All binaries accept
//! `--paper` to run the full-size inputs (the default is the fast test
//! scale).

use br_core::Scale;

/// Parse the common `--paper` flag from the process arguments.
pub fn scale_from_args() -> Scale {
    scale_from(std::env::args())
}

/// Testable core of [`scale_from_args`].
pub fn scale_from<I>(args: I) -> Scale
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    if args.into_iter().any(|a| a.as_ref() == "--paper") {
        Scale::Paper
    } else {
        Scale::Test
    }
}

/// Parse the common `--jobs N` flag from the process arguments.
/// Returns 0 ("auto": one worker per available core) when absent.
pub fn jobs_from_args() -> usize {
    jobs_from(std::env::args())
}

/// Testable core of [`jobs_from_args`]. A malformed or missing value
/// falls back to 0 (auto) rather than aborting a long bench run.
pub fn jobs_from<I>(args: I) -> usize
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a.as_ref() == "--jobs" {
            return it
                .next()
                .and_then(|v| v.as_ref().parse().ok())
                .unwrap_or(0);
        }
    }
    0
}

/// Parse the common `--profile FILE` flag from the process arguments.
/// When present, suite bins re-run the workloads under the br-obs
/// profiler and write the JSON report to the given path.
pub fn profile_from_args() -> Option<String> {
    profile_from(std::env::args())
}

/// Testable core of [`profile_from_args`].
pub fn profile_from<I>(args: I) -> Option<String>
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a.as_ref() == "--profile" {
            return it.next().map(|v| v.as_ref().to_string());
        }
    }
    None
}

/// Profile the Appendix I suite on both machines (compile metrics, a
/// [`br_obs::ProfileHook`] per run) and write the JSON report to `path`.
/// The report omits wall times, so its bytes are stable at any `jobs`.
pub fn write_suite_profile(path: &str, scale: Scale, jobs: usize) -> Result<(), String> {
    let exp = br_core::Experiment::new();
    let modules: Vec<(String, br_ir::Module)> = br_core::suite(scale)
        .into_iter()
        .map(|w| {
            let module = br_frontend::compile(&w.source)
                .map_err(|e| format!("{}: frontend: {e}", w.name))?;
            Ok((w.name.to_string(), module))
        })
        .collect::<Result<_, String>>()?;
    let results = br_core::parallel::map_ordered(&modules, jobs, |_, (name, module)| {
        let mut runs = Vec::new();
        let mut compiles = Vec::new();
        for machine in [br_core::Machine::Baseline, br_core::Machine::BranchReg] {
            let (prog, stats, metrics) = exp
                .compile_module_metered(module, machine)
                .map_err(|e| format!("{name} on {machine}: {e}"))?;
            let mut hook = br_obs::ProfileHook::new(&prog);
            let run = exp
                .run_program(&prog, stats, Some(&mut hook))
                .map_err(|e| format!("{name} on {machine}: {e}"))?;
            runs.push(hook.finish(name, &run.meas));
            compiles.push(br_obs::CompileProfile {
                name: name.to_string(),
                machine,
                metrics,
                stats,
            });
        }
        Ok::<_, String>((runs, compiles))
    });
    let mut report = br_obs::Report::default();
    for r in results {
        let (runs, compiles) = r?;
        report.programs.extend(runs);
        report.compiles.extend(compiles);
    }
    std::fs::write(path, report.to_json(10, false)).map_err(|e| format!("write {path}: {e}"))
}

/// Render a ratio as a signed percentage string.
pub fn pct(v: f64) -> String {
    format!("{v:+.2}%")
}

/// Format a count with thousands separators.
pub fn human(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Signed variant of [`human`] for deltas: the `-` sign never gets a
/// separator after it, and `i64::MIN` does not overflow on negation.
pub fn human_i64(v: i64) -> String {
    if v < 0 {
        format!("-{}", human(v.unsigned_abs()))
    } else {
        human(v as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_formats_thousands() {
        assert_eq!(human(0), "0");
        assert_eq!(human(999), "999");
        assert_eq!(human(1000), "1,000");
        assert_eq!(human(1234567), "1,234,567");
        assert_eq!(human(u64::MAX), "18,446,744,073,709,551,615");
    }

    #[test]
    fn human_i64_handles_zero_and_negatives() {
        assert_eq!(human_i64(0), "0");
        assert_eq!(human_i64(-1), "-1");
        assert_eq!(human_i64(-1000), "-1,000");
        assert_eq!(human_i64(-1234567), "-1,234,567");
        assert_eq!(human_i64(1234567), "1,234,567");
        assert_eq!(human_i64(i64::MIN), "-9,223,372,036,854,775,808");
        assert_eq!(human_i64(i64::MAX), "9,223,372,036,854,775,807");
    }

    #[test]
    fn pct_signs() {
        assert_eq!(pct(-6.8), "-6.80%");
        assert_eq!(pct(2.0), "+2.00%");
    }

    #[test]
    fn scale_flag_parsing() {
        assert_eq!(scale_from(["bin", "--paper"]), Scale::Paper);
        assert_eq!(scale_from(["bin"]), Scale::Test);
        assert_eq!(scale_from(["bin", "--jobs", "4"]), Scale::Test);
    }

    #[test]
    fn profile_flag_parsing() {
        assert_eq!(profile_from(["bin"]), None);
        assert_eq!(
            profile_from(["bin", "--profile", "out.json"]),
            Some("out.json".to_string())
        );
        assert_eq!(profile_from(["bin", "--profile"]), None);
        assert_eq!(
            profile_from(["bin", "--paper", "--profile", "p.json", "--jobs", "2"]),
            Some("p.json".to_string())
        );
    }

    #[test]
    fn jobs_flag_parsing() {
        assert_eq!(jobs_from(["bin"]), 0);
        assert_eq!(jobs_from(["bin", "--jobs", "4"]), 4);
        assert_eq!(jobs_from(["bin", "--paper", "--jobs", "1"]), 1);
        // Malformed or missing value: auto, not abort.
        assert_eq!(jobs_from(["bin", "--jobs", "lots"]), 0);
        assert_eq!(jobs_from(["bin", "--jobs"]), 0);
    }
}
