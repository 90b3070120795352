//! Deterministic synthetic input generation.
//!
//! All workload inputs come from a fixed-seed RNG so every run of the
//! suite measures the same dynamic behaviour.

use crate::rng::Rng64;

/// The suite-wide seed.
pub const SEED: u64 = 0x1990_0528; // ISCA 1990

/// Deterministic RNG for a given sub-stream.
pub fn rng(stream: u64) -> Rng64 {
    Rng64::seed_from_u64(SEED ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

const WORDS: &[&str] = &[
    "the",
    "quick",
    "brown",
    "fox",
    "jumps",
    "over",
    "lazy",
    "dog",
    "branch",
    "register",
    "pipeline",
    "cache",
    "delay",
    "slot",
    "compiler",
    "loop",
    "target",
    "address",
    "fetch",
    "decode",
    "execute",
    "transfer",
    "control",
    "machine",
    "instruction",
    "prefetch",
    "code",
    "if",
    "while",
    "for",
    "return",
    "int",
    "char",
];

/// Generate `n_words` of text with punctuation and newlines.
pub fn text(stream: u64, n_words: usize) -> String {
    let mut r = rng(stream);
    let mut out = String::new();
    let mut col = 0usize;
    for i in 0..n_words {
        let w = WORDS[r.random_range(0..WORDS.len())];
        if col + w.len() > 48 {
            out.push('\n');
            col = 0;
        } else if i > 0 {
            out.push(' ');
            col += 1;
        }
        out.push_str(w);
        col += w.len();
        if r.random_range(0..12) == 0 {
            out.push('.');
            col += 1;
        }
    }
    out
}

/// Generate C-ish source text for the beautifier workload.
pub fn c_like(stream: u64, n_stmts: usize) -> String {
    let mut r = rng(stream);
    let mut out = String::new();
    let mut depth: i32 = 0;
    for _ in 0..n_stmts {
        match r.random_range(0..6) {
            0 if depth < 4 => {
                out.push_str("if (x) {");
                depth += 1;
            }
            1 if depth > 0 => {
                out.push('}');
                depth -= 1;
            }
            2 => out.push_str("x = x + 1;"),
            3 => out.push_str("y = f(x, y);"),
            4 => out.push_str("while (y) { y = y - 1; }"),
            _ => out.push_str("z = x * y;"),
        }
        out.push('\n');
    }
    for _ in 0..depth {
        out.push_str("}\n");
    }
    out
}

/// Escape text as a MiniC string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            c => out.push(c),
        }
    }
    out
}

/// Render a sequence of ints as a MiniC brace initializer.
pub fn int_list(vals: &[i32]) -> String {
    let items: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
    format!("{{{}}}", items.join(", "))
}

/// `n` random ints in `[lo, hi)`.
pub fn ints(stream: u64, n: usize, lo: i32, hi: i32) -> Vec<i32> {
    let mut r = rng(stream);
    (0..n).map(|_| r.random_range(lo..hi)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(text(1, 50), text(1, 50));
        assert_ne!(text(1, 50), text(2, 50));
        assert_eq!(ints(3, 10, 0, 100), ints(3, 10, 0, 100));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\nb\"c\\d"), "a\\nb\\\"c\\\\d");
    }

    #[test]
    fn int_list_renders() {
        assert_eq!(int_list(&[1, -2, 3]), "{1, -2, 3}");
    }

    #[test]
    fn c_like_balances_braces() {
        let s = c_like(7, 100);
        let open = s.matches('{').count();
        let close = s.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn text_has_no_unescapable_chars() {
        let t = text(9, 200);
        assert!(t
            .chars()
            .all(|c| c.is_ascii_graphic() || c == ' ' || c == '\n'));
    }
}
