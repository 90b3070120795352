//! `br-bench` — the measurement harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's experiment index). The paper-artifact
//! binaries parse their command line with [`suite_args`]: `--paper`
//! runs the full-size inputs (the default is the fast test scale),
//! `--jobs N` sets the worker count, and any other flag is a usage
//! error.

use br_core::Scale;

/// The flags every paper-artifact binary shares: `--paper` selects the
/// full-size inputs, `--jobs N` the worker count (0, the default, means
/// one per available core). Binaries that neither scale nor fan out
/// accept both and ignore them, so one command line drives them all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteArgs {
    pub scale: Scale,
    pub jobs: usize,
}

/// Parse the process arguments strictly: `--paper`, `--jobs N` and
/// `--help` are accepted. `--help` prints the usage to stdout and exits
/// 0; anything else, or a malformed `--jobs` value, prints the error
/// and the usage to stderr and exits 2.
pub fn suite_args() -> SuiteArgs {
    let mut argv = std::env::args();
    let bin = argv.next().unwrap_or_default();
    let bin = bin.rsplit('/').next().unwrap_or(&bin).to_string();
    let usage = format!("usage: {bin} [--paper] [--jobs N]");
    match parse_suite_args(argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{usage}");
            std::process::exit(0)
        }
        Err(e) => {
            eprintln!("{bin}: {e}\n{usage}");
            std::process::exit(2)
        }
    }
}

/// Testable core of [`suite_args`], over the arguments after the
/// program name. `Ok(None)` means `--help`.
pub fn parse_suite_args<I>(args: I) -> Result<Option<SuiteArgs>, String>
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut out = SuiteArgs {
        scale: Scale::Test,
        jobs: 0,
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_ref() {
            "--paper" => out.scale = Scale::Paper,
            "--jobs" => {
                out.jobs = it
                    .next()
                    .and_then(|v| v.as_ref().parse().ok())
                    .ok_or("--jobs needs a number")?
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Some(out))
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
    fn suite_flag_parsing() {
        let parse = |a: &[&str]| parse_suite_args(a.iter().copied());
        let args = |scale, jobs| Ok(Some(SuiteArgs { scale, jobs }));
        assert_eq!(parse(&[]), args(Scale::Test, 0));
        assert_eq!(parse(&["--paper"]), args(Scale::Paper, 0));
        assert_eq!(parse(&["--jobs", "4"]), args(Scale::Test, 4));
        assert_eq!(parse(&["--paper", "--jobs", "1"]), args(Scale::Paper, 1));
        assert_eq!(parse(&["--paper", "--help"]), Ok(None));
        // A malformed or missing value is an error, not a silent "auto",
        // and so is any flag the binaries do not know.
        let err = Err("--jobs needs a number".to_string());
        assert_eq!(parse(&["--jobs", "lots"]), err);
        assert_eq!(parse(&["--jobs"]), err);
        assert_eq!(
            parse(&["--profile", "x.json"]),
            Err("unknown argument: --profile".to_string())
        );
    }
}
