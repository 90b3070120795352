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
/// Returns 0 ("auto": one worker per available core) when absent. A
/// malformed or missing value prints `--jobs needs a number` and exits
/// with status 2, as `br-explore` does.
pub fn jobs_from_args() -> usize {
    jobs_from(std::env::args()).unwrap_or_else(|e| {
        let bin = std::env::args().next().unwrap_or_default();
        eprintln!("{}: {e}", bin.rsplit('/').next().unwrap_or(&bin));
        std::process::exit(2)
    })
}

/// Testable core of [`jobs_from_args`].
pub fn jobs_from<I>(args: I) -> Result<usize, String>
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
                .ok_or_else(|| "--jobs needs a number".to_string());
        }
    }
    Ok(0)
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
    fn jobs_flag_parsing() {
        assert_eq!(jobs_from(["bin"]), Ok(0));
        assert_eq!(jobs_from(["bin", "--jobs", "4"]), Ok(4));
        assert_eq!(jobs_from(["bin", "--paper", "--jobs", "1"]), Ok(1));
        // A malformed or missing value is an error, not a silent "auto".
        let err = Err("--jobs needs a number".to_string());
        assert_eq!(jobs_from(["bin", "--jobs", "lots"]), err);
        assert_eq!(jobs_from(["bin", "--jobs"]), err);
    }
}
