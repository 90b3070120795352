//! `br-workloads` — the paper's Appendix I test-program suite, expressed
//! in MiniC.
//!
//! The original study compiled nineteen C programs (Unix utilities,
//! classic benchmarks, and two larger applications) with *vpcc* and ran
//! them through the *ease* environment. We cannot compile 1990 Unix
//! sources with the MiniC front end, so each program is re-expressed as a
//! MiniC kernel that performs the same *kind* of computation with the
//! same loop/branch structure — which is the property the experiments
//! measure. Input data is synthetic, generated deterministically from a
//! fixed seed and embedded in the program text as global initializers.
//!
//! | class      | programs |
//! |------------|----------|
//! | Utilities  | cal, cb, compact, diff, grep, nroff, od, sed, sort, spline, tr, wc |
//! | Benchmarks | dhrystone, matmult, puzzle, sieve, whetstone |
//! | User code  | mincost, vpcc |
//!
//! # Example
//!
//! ```
//! use br_workloads::{suite, Scale};
//!
//! let programs = suite(Scale::Test);
//! assert_eq!(programs.len(), 19);
//! assert!(programs.iter().any(|w| w.name == "wc"));
//! ```

mod benchmarks;
pub mod rng;
mod textgen;
mod user;
mod utilities;

/// Workload size: `Test` keeps unit tests fast; `Paper` approximates the
/// dynamic instruction counts needed for stable Table I style ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Small inputs for unit tests (well under a million instructions).
    Test,
    /// Larger inputs for the measurement runs.
    Paper,
}

/// One test program.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Program name, as in Appendix I.
    pub name: &'static str,
    /// The Appendix I "description or emphasis" column.
    pub description: &'static str,
    /// MiniC source text.
    pub source: String,
}

/// The full 19-program suite at the given scale.
pub fn suite(scale: Scale) -> Vec<Workload> {
    vec![
        Workload {
            name: "cal",
            description: "Calendar generator",
            source: utilities::cal(scale),
        },
        Workload {
            name: "cb",
            description: "C program beautifier",
            source: utilities::cb(scale),
        },
        Workload {
            name: "compact",
            description: "File compression",
            source: utilities::compact(scale),
        },
        Workload {
            name: "diff",
            description: "File differences",
            source: utilities::diff(scale),
        },
        Workload {
            name: "grep",
            description: "Search for pattern",
            source: utilities::grep(scale),
        },
        Workload {
            name: "nroff",
            description: "Text formatter",
            source: utilities::nroff(scale),
        },
        Workload {
            name: "od",
            description: "Octal dump",
            source: utilities::od(scale),
        },
        Workload {
            name: "sed",
            description: "Stream editor",
            source: utilities::sed(scale),
        },
        Workload {
            name: "sort",
            description: "Sort or merge files",
            source: utilities::sort(scale),
        },
        Workload {
            name: "spline",
            description: "Interpolate curve",
            source: utilities::spline(scale),
        },
        Workload {
            name: "tr",
            description: "Translate characters",
            source: utilities::tr(scale),
        },
        Workload {
            name: "wc",
            description: "Word count",
            source: utilities::wc(scale),
        },
        Workload {
            name: "dhrystone",
            description: "Synthetic benchmark",
            source: benchmarks::dhrystone(scale),
        },
        Workload {
            name: "matmult",
            description: "Matrix multiplication",
            source: benchmarks::matmult(scale),
        },
        Workload {
            name: "puzzle",
            description: "Recursion, arrays",
            source: benchmarks::puzzle(scale),
        },
        Workload {
            name: "sieve",
            description: "Iteration",
            source: benchmarks::sieve(scale),
        },
        Workload {
            name: "whetstone",
            description: "Floating-point arithmetic",
            source: benchmarks::whetstone(scale),
        },
        Workload {
            name: "mincost",
            description: "VLSI circuit partitioning",
            source: user::mincost(scale),
        },
        Workload {
            name: "vpcc",
            description: "Very portable C compiler (expression subset)",
            source: user::vpcc(scale),
        },
    ]
}

/// Look up one workload by name.
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    suite(scale).into_iter().find(|w| w.name == name)
}

/// The paper's Figure 2 `strlen` example, used by the quickstart and the
/// Figures 2-4 reproduction.
pub fn strlen_example() -> String {
    r#"
char input[] = "an example string for figure two";
int strlen(char *s) {
    int n = 0;
    if (s)
        for (; *s; s++)
            n++;
    return n;
}
int main() { return strlen(input); }
"#
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_all_nineteen_programs() {
        let s = suite(Scale::Test);
        assert_eq!(s.len(), 19);
        let names: Vec<_> = s.iter().map(|w| w.name).collect();
        for expected in [
            "cal",
            "cb",
            "compact",
            "diff",
            "grep",
            "nroff",
            "od",
            "sed",
            "sort",
            "spline",
            "tr",
            "wc",
            "dhrystone",
            "matmult",
            "puzzle",
            "sieve",
            "whetstone",
            "mincost",
            "vpcc",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn by_name_finds_programs() {
        assert!(by_name("grep", Scale::Test).is_some());
        assert!(by_name("nope", Scale::Test).is_none());
    }

    #[test]
    fn paper_scale_sources_differ_from_test_scale() {
        let a = by_name("sieve", Scale::Test).unwrap();
        let b = by_name("sieve", Scale::Paper).unwrap();
        assert_ne!(a.source, b.source);
    }

    #[test]
    fn sources_mention_main() {
        for w in suite(Scale::Test) {
            assert!(w.source.contains("int main("), "{} lacks main", w.name);
        }
    }
}
