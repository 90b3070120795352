//! Differential testing with *structured* random MiniC programs: nested
//! `if`/`while` statements over a small state vector, executed on the IR
//! interpreter and both machines.
//!
//! Deterministic seeded generation (no property-test framework so the
//! build works offline); failures reproduce from the fixed seed below.
//! The heavier generator (calls, arrays, `for`, `switch`) lives in
//! `crates/torture`.

use br_core::Experiment;
use br_ir::Interpreter;
use br_workloads::rng::Rng64;

/// A bounded random statement tree, rendered to MiniC. All loops are
/// guaranteed to terminate by a global step budget the generated program
/// checks itself (`if (steps++ > 500) break;`).
#[derive(Debug, Clone)]
enum Stmt {
    Assign(usize, Expr),
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    While(Expr, Vec<Stmt>),
}

#[derive(Debug, Clone)]
enum Expr {
    Var(usize),
    Lit(i32),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Lt(Box<Expr>, Box<Expr>),
}

const NVARS: usize = 4;

fn arb_expr(r: &mut Rng64, depth: u32) -> Expr {
    let leaf = depth == 0 || r.random_range(0u32..7) < 2;
    if leaf {
        return if r.random_range(0u32..2) == 0 {
            Expr::Var(r.random_range(0usize..NVARS))
        } else {
            Expr::Lit(r.random_range(-20i32..20))
        };
    }
    let a = Box::new(arb_expr(r, depth - 1));
    let b = Box::new(arb_expr(r, depth - 1));
    match r.random_range(0u32..5) {
        0 => Expr::Add(a, b),
        1 => Expr::Sub(a, b),
        2 => Expr::Mul(a, b),
        3 => Expr::Xor(a, b),
        _ => Expr::Lt(a, b),
    }
}

fn arb_block(r: &mut Rng64, depth: u32, lo: usize, hi: usize) -> Vec<Stmt> {
    let n = r.random_range(lo..hi);
    (0..n).map(|_| arb_stmt(r, depth)).collect()
}

fn arb_stmt(r: &mut Rng64, depth: u32) -> Stmt {
    let assign = depth == 0 || r.random_range(0u32..5) < 3;
    if assign {
        return Stmt::Assign(r.random_range(0usize..NVARS), arb_expr(r, 2));
    }
    if r.random_range(0u32..2) == 0 {
        let c = arb_expr(r, 1);
        let t = arb_block(r, depth - 1, 1, 3);
        let e = arb_block(r, depth - 1, 0, 2);
        Stmt::If(c, t, e)
    } else {
        let c = arb_expr(r, 1);
        let b = arb_block(r, depth - 1, 1, 3);
        Stmt::While(c, b)
    }
}

fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Var(v) => format!("v{v}"),
        Expr::Lit(c) => format!("({c})"),
        Expr::Add(a, b) => format!("({} + {})", render_expr(a), render_expr(b)),
        Expr::Sub(a, b) => format!("({} - {})", render_expr(a), render_expr(b)),
        Expr::Mul(a, b) => format!("({} * {})", render_expr(a), render_expr(b)),
        Expr::Xor(a, b) => format!("({} ^ {})", render_expr(a), render_expr(b)),
        Expr::Lt(a, b) => format!("({} < {})", render_expr(a), render_expr(b)),
    }
}

fn render_stmt(s: &Stmt, out: &mut String, indent: usize) {
    let pad = "    ".repeat(indent);
    match s {
        Stmt::Assign(v, e) => {
            // Keep values bounded so multiplication chains stay tame.
            out.push_str(&format!("{pad}v{v} = ({}) % 9973;\n", render_expr(e)));
        }
        Stmt::If(c, t, e) => {
            out.push_str(&format!("{pad}if ({}) {{\n", render_expr(c)));
            for s in t {
                render_stmt(s, out, indent + 1);
            }
            if e.is_empty() {
                out.push_str(&format!("{pad}}}\n"));
            } else {
                out.push_str(&format!("{pad}}} else {{\n"));
                for s in e {
                    render_stmt(s, out, indent + 1);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
        }
        Stmt::While(c, b) => {
            out.push_str(&format!("{pad}while ({}) {{\n", render_expr(c)));
            out.push_str(&format!("{pad}    if (steps > 500) break;\n"));
            out.push_str(&format!("{pad}    steps++;\n"));
            for s in b {
                render_stmt(s, out, indent + 1);
            }
            out.push_str(&format!("{pad}}}\n"));
        }
    }
}

fn render_program(stmts: &[Stmt], seeds: &[i32]) -> String {
    let mut body = String::new();
    for (i, s) in seeds.iter().enumerate() {
        body.push_str(&format!("    int v{i} = {s};\n"));
    }
    body.push_str("    int steps = 0;\n");
    for s in stmts {
        render_stmt(s, &mut body, 1);
    }
    let sum = (0..NVARS)
        .map(|i| format!("v{i}"))
        .collect::<Vec<_>>()
        .join(" + ");
    format!("int main() {{\n{body}    return ({sum} + steps) % 251;\n}}\n")
}

#[test]
fn structured_random_programs_agree() {
    let mut r = Rng64::seed_from_u64(0x57_0001);
    for _ in 0..16 {
        let stmts = arb_block(&mut r, 2, 1, 5);
        let seeds: Vec<i32> = (0..NVARS).map(|_| r.random_range(-10i32..10)).collect();
        let src = render_program(&stmts, &seeds);
        let module =
            br_frontend::compile(&src).unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        let expected = Interpreter::new(&module)
            .run("main", &[])
            .unwrap_or_else(|e| panic!("interp failed: {e}\n{src}"));
        let cmp = Experiment::new()
            .run_comparison("prop", &src)
            .unwrap_or_else(|e| panic!("run failed: {e}\n{src}"));
        assert_eq!(cmp.baseline.exit, expected, "baseline\n{src}");
        assert_eq!(cmp.brmach.exit, expected, "branch-register\n{src}");
    }
}
