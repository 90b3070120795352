//! Cross-crate integration tests: MiniC source → IR → both machines →
//! emulation, validated against the IR interpreter.

use br_core::{Experiment, Machine};
use br_ir::Interpreter;
use br_workloads::rng::Rng64;

/// Run `src` through the interpreter and both machines; all three must
/// agree on the exit value.
fn check_consistent(src: &str) -> i32 {
    let module = br_frontend::compile(src).expect("compile");
    let expected = Interpreter::new(&module).run("main", &[]).expect("interp");
    let cmp = Experiment::new().run_comparison("t", src).expect("run");
    assert_eq!(cmp.baseline.exit, expected, "baseline vs interpreter");
    assert_eq!(cmp.brmach.exit, expected, "branch-register vs interpreter");
    expected
}

#[test]
fn ackermann_stresses_calls() {
    let src = r#"
        int ack(int m, int n) {
            if (m == 0) return n + 1;
            if (n == 0) return ack(m - 1, 1);
            return ack(m - 1, ack(m, n - 1));
        }
        int main() { return ack(2, 3); }
    "#;
    assert_eq!(check_consistent(src), 9);
}

#[test]
fn collatz_long_loop() {
    let src = r#"
        int main() {
            int n = 27;
            int steps = 0;
            while (n != 1) {
                if (n % 2) n = 3 * n + 1;
                else n = n / 2;
                steps++;
            }
            return steps;
        }
    "#;
    assert_eq!(check_consistent(src), 111);
}

#[test]
fn string_reverse_in_place() {
    let src = r#"
        char buf[16] = "reproduction";
        int main() {
            int len = 0;
            while (buf[len]) len++;
            /* MiniC has no comma expressions; use a while loop */
            int i = 0, j = len - 1;
            while (i < j) {
                char t = buf[i];
                buf[i] = buf[j];
                buf[j] = t;
                i++; j--;
            }
            return buf[0] * 2 + buf[len - 1];
        }
    "#;
    // "reproduction" reversed starts with 'n' and ends with 'r'.
    assert_eq!(check_consistent(src), ('n' as i32) * 2 + 'r' as i32);
}

#[test]
fn float_accumulation_matches() {
    let src = r#"
        float series(int n) {
            float s = 0.0;
            for (int i = 1; i <= n; i++) s = s + 1.0 / (float)i;
            return s;
        }
        int main() { return (int)(series(50) * 100.0); }
    "#;
    check_consistent(src);
}

#[test]
fn deep_expression_pressure() {
    // One expression with enough temporaries to stress both register files.
    let mut expr = String::from("a");
    for i in 1..40 {
        expr.push_str(&format!(" + a * {i} % (a + {i})"));
    }
    let src = format!("int main() {{ int a = 17; return ({expr}) % 251; }}");
    check_consistent(&src);
}

#[test]
fn mutual_recursion() {
    let src = r#"
        int is_odd(int n);
        int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
        int main() { return is_even(20) * 10 + is_odd(7); }
    "#;
    assert_eq!(check_consistent(src), 11);
}

#[test]
fn branch_register_machine_static_code_differs() {
    let src = "int main() { int s = 0; for (int i = 0; i < 5; i++) s += i; return s; }";
    let exp = Experiment::new();
    let (pb, _) = exp.compile(src, Machine::Baseline).unwrap();
    let (pr, _) = exp.compile(src, Machine::BranchReg).unwrap();
    // Same data, different text encodings and different instruction mix.
    assert_eq!(pb.data, pr.data);
    assert_ne!(pb.code, pr.code);
    let rb = pb.listing();
    let rr = pr.listing();
    assert!(rb.contains("PC="), "baseline uses branches:\n{rb}");
    assert!(rr.contains("b[0]=b["), "BR machine uses br fields:\n{rr}");
    assert!(
        !rr.contains("PC="),
        "BR machine must have no branch instructions"
    );
}

#[test]
fn measurements_are_deterministic() {
    let src = "int main() { int s = 0; for (int i = 0; i < 100; i++) s ^= i * 3; return s; }";
    let exp = Experiment::new();
    let a = exp.run(src, Machine::BranchReg).unwrap();
    let b = exp.run(src, Machine::BranchReg).unwrap();
    assert_eq!(a.meas, b.meas);
    assert_eq!(a.exit, b.exit);
}

// ---- randomized differential testing ----
//
// Deterministic seeded loops (no property-test framework so the build
// works offline); failures reproduce from the fixed seeds below. The
// full structured generator lives in `crates/torture`.

/// Random arithmetic expressions over two variables, avoiding division
/// (whose by-zero behaviour would need guards).
fn arb_expr(r: &mut Rng64, depth: u32) -> String {
    if depth == 0 || r.random_range(0u32..2) == 0 {
        return match r.random_range(0u32..3) {
            0 => r.random_range(0i32..200).to_string(),
            1 => "a".to_string(),
            _ => "b".to_string(),
        };
    }
    let op = *r.pick(&["+", "-", "*", "&", "|", "^"]);
    let x = arb_expr(r, depth - 1);
    let y = arb_expr(r, depth - 1);
    format!("({x} {op} {y})")
}

#[test]
fn random_expressions_agree_everywhere() {
    let mut r = Rng64::seed_from_u64(0xE2E_0001);
    for _ in 0..24 {
        let e = arb_expr(&mut r, 4);
        let a = r.random_range(-50i32..50);
        let b = r.random_range(-50i32..50);
        let src = format!("int main() {{ int a = {a}; int b = {b}; return ({e}) % 251; }}");
        check_consistent(&src);
    }
}

#[test]
fn random_loops_agree_everywhere() {
    let mut r = Rng64::seed_from_u64(0xE2E_0002);
    for _ in 0..24 {
        let n = r.random_range(1i32..40);
        let step = r.random_range(1i32..5);
        let e = arb_expr(&mut r, 2);
        let src = format!(
            "int main() {{
                int a = 3; int b = 7; int s = 0;
                for (int i = 0; i < {n}; i += {step}) {{
                    s += ({e}) ^ i;
                    if (s > 100000) s -= 100000;
                    a = b + i; b = s % 97;
                }}
                return s % 251;
            }}"
        );
        check_consistent(&src);
    }
}
