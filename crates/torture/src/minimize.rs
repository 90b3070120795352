//! Greedy test-case minimizer.
//!
//! Given a failing [`TortureAst`] and a predicate that re-checks whether a
//! candidate still fails, repeatedly tries structural simplifications and
//! keeps every one that preserves the failure, until a fixpoint:
//!
//! * remove a statement (with its whole subtree),
//! * flatten a compound statement (replace an `if`/loop/`switch` with the
//!   concatenation of its child blocks),
//! * empty the body of a function `main` can no longer reach,
//! * simplify a function's return expression to `0`.
//!
//! The predicate is invoked O(statements · rounds) times; generated
//! programs are small, so this stays well under a second per repro.

use crate::gen::{Expr, FuncGen, Stmt, TortureAst};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Edit {
    Remove,
    Flatten,
}

/// Pre-order statement count over the whole program.
pub fn count_stmts(ast: &TortureAst) -> usize {
    fn block(b: &[Stmt]) -> usize {
        b.iter().map(stmt).sum()
    }
    fn stmt(s: &Stmt) -> usize {
        1 + match s {
            Stmt::If(_, t, e) => block(t) + block(e),
            Stmt::For { body, .. } | Stmt::While { body, .. } => block(body),
            Stmt::Switch(_, cases) => cases.iter().map(|c| block(c)).sum(),
            _ => 0,
        }
    }
    ast.funcs.iter().map(|f| block(&f.body)).sum()
}

fn edit_block(b: &[Stmt], target: usize, counter: &mut usize, edit: Edit) -> Vec<Stmt> {
    let mut out = Vec::new();
    for s in b {
        let idx = *counter;
        *counter += 1;
        if idx == target {
            match edit {
                Edit::Remove => continue,
                Edit::Flatten => {
                    match s {
                        Stmt::If(_, t, e) => {
                            out.extend(t.iter().cloned());
                            out.extend(e.iter().cloned());
                        }
                        Stmt::For { body, .. } | Stmt::While { body, .. } => {
                            out.extend(body.iter().cloned());
                        }
                        Stmt::Switch(_, cases) => {
                            for c in cases {
                                out.extend(c.iter().cloned());
                            }
                        }
                        other => out.push(other.clone()),
                    }
                    continue;
                }
            }
        }
        out.push(match s {
            Stmt::If(c, t, e) => Stmt::If(
                c.clone(),
                edit_block(t, target, counter, edit),
                edit_block(e, target, counter, edit),
            ),
            Stmt::For { id, n, body } => Stmt::For {
                id: *id,
                n: *n,
                body: edit_block(body, target, counter, edit),
            },
            Stmt::While { id, n, body } => Stmt::While {
                id: *id,
                n: *n,
                body: edit_block(body, target, counter, edit),
            },
            Stmt::Switch(e, cases) => Stmt::Switch(
                e.clone(),
                cases
                    .iter()
                    .map(|c| edit_block(c, target, counter, edit))
                    .collect(),
            ),
            other => other.clone(),
        });
    }
    out
}

fn edit_ast(ast: &TortureAst, target: usize, edit: Edit) -> TortureAst {
    let mut counter = 0;
    TortureAst {
        funcs: ast
            .funcs
            .iter()
            .map(|f| FuncGen {
                nparams: f.nparams,
                body: edit_block(&f.body, target, &mut counter, edit),
                ret: f.ret.clone(),
            })
            .collect(),
    }
}

/// Function indices reachable (as call targets) from any remaining code.
fn called_funcs(ast: &TortureAst) -> Vec<bool> {
    fn expr(e: &Expr, seen: &mut Vec<bool>) {
        match e {
            Expr::ArrLoad(i) => expr(i, seen),
            Expr::Bin(_, a, b) => {
                expr(a, seen);
                expr(b, seen);
            }
            Expr::Call(k, args) => {
                if (*k as usize) < seen.len() {
                    seen[*k as usize] = true;
                }
                for a in args {
                    expr(a, seen);
                }
            }
            _ => {}
        }
    }
    fn stmt(s: &Stmt, seen: &mut Vec<bool>) {
        match s {
            Stmt::AssignLocal(_, e) | Stmt::AssignGlobal(_, e) => expr(e, seen),
            Stmt::ArrStore(i, v) => {
                expr(i, seen);
                expr(v, seen);
            }
            Stmt::If(c, t, els) => {
                expr(&c.a, seen);
                expr(&c.b, seen);
                for s in t.iter().chain(els) {
                    stmt(s, seen);
                }
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => {
                for s in body {
                    stmt(s, seen);
                }
            }
            Stmt::Switch(e, cases) => {
                expr(e, seen);
                for s in cases.iter().flatten() {
                    stmt(s, seen);
                }
            }
        }
    }
    let mut seen = vec![false; ast.funcs.len()];
    seen[0] = true; // main
    for f in &ast.funcs {
        for s in &f.body {
            stmt(s, &mut seen);
        }
        expr(&f.ret, &mut seen);
    }
    seen
}

/// Shrink `ast` while `still_failing` keeps returning `true`.
///
/// `still_failing(&ast)` must return `true` for the input, or the input is
/// returned unchanged.
pub fn minimize(
    ast: &TortureAst,
    mut still_failing: impl FnMut(&TortureAst) -> bool,
) -> TortureAst {
    if !still_failing(ast) {
        return ast.clone();
    }
    let mut cur = ast.clone();
    loop {
        let mut changed = false;

        for edit in [Edit::Remove, Edit::Flatten] {
            let mut i = 0;
            while i < count_stmts(&cur) {
                let cand = edit_ast(&cur, i, edit);
                if cand != cur && still_failing(&cand) {
                    cur = cand;
                    changed = true;
                    // The tree shrank (or was restructured) — indices past
                    // `i` have shifted, so retry the same position.
                } else {
                    i += 1;
                }
            }
        }

        // Empty functions nothing reaches (keeps indices/names stable).
        let seen = called_funcs(&cur);
        for (k, reachable) in seen.iter().enumerate() {
            let f = &cur.funcs[k];
            if !reachable && (!f.body.is_empty() || f.ret != Expr::Const(0)) {
                let mut cand = cur.clone();
                cand.funcs[k].body = Vec::new();
                cand.funcs[k].ret = Expr::Const(0);
                if still_failing(&cand) {
                    cur = cand;
                    changed = true;
                }
            }
        }

        // Simplify return expressions.
        for k in 0..cur.funcs.len() {
            if cur.funcs[k].ret != Expr::Const(0) {
                let mut cand = cur.clone();
                cand.funcs[k].ret = Expr::Const(0);
                if still_failing(&cand) {
                    cur = cand;
                    changed = true;
                }
            }
        }

        if !changed {
            return cur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Cmp, Cond, GenConfig};

    /// Predicate: "fails" iff the program still assigns to global 0.
    fn assigns_g0(ast: &TortureAst) -> bool {
        fn in_block(b: &[Stmt]) -> bool {
            b.iter().any(|s| match s {
                Stmt::AssignGlobal(0, _) => true,
                Stmt::If(_, t, e) => in_block(t) || in_block(e),
                Stmt::For { body, .. } | Stmt::While { body, .. } => in_block(body),
                Stmt::Switch(_, cases) => cases.iter().any(|c| in_block(c)),
                _ => false,
            })
        }
        ast.funcs.iter().any(|f| in_block(&f.body))
    }

    #[test]
    fn shrinks_to_the_one_guilty_statement() {
        // Build a program with one `g0 = ...` buried in nested control
        // flow plus plenty of irrelevant statements.
        let guilty = Stmt::AssignGlobal(0, Expr::Const(7));
        let ast = TortureAst {
            funcs: vec![FuncGen {
                nparams: 0,
                body: vec![
                    Stmt::AssignLocal(0, Expr::Const(1)),
                    Stmt::For {
                        id: 0,
                        n: 3,
                        body: vec![
                            Stmt::AssignLocal(1, Expr::Const(2)),
                            Stmt::If(
                                Cond {
                                    op: Cmp::Lt,
                                    a: Expr::Local(0),
                                    b: Expr::Const(5),
                                },
                                vec![guilty.clone(), Stmt::AssignLocal(2, Expr::Const(3))],
                                vec![Stmt::AssignLocal(3, Expr::Const(4))],
                            ),
                        ],
                    },
                    Stmt::AssignGlobal(1, Expr::Const(9)),
                ],
                ret: Expr::Local(0),
            }],
        };
        assert!(assigns_g0(&ast));
        let min = minimize(&ast, assigns_g0);
        assert_eq!(
            count_stmts(&min),
            1,
            "minimal repro is one statement: {min:?}"
        );
        assert_eq!(min.funcs[0].body, vec![guilty]);
        assert_eq!(min.funcs[0].ret, Expr::Const(0));
    }

    #[test]
    fn minimization_never_loses_the_failure() {
        for seed in [3u64, 17, 99] {
            let ast = generate(seed, GenConfig::default());
            if !assigns_g0(&ast) {
                continue;
            }
            let min = minimize(&ast, assigns_g0);
            assert!(assigns_g0(&min));
            assert!(count_stmts(&min) <= count_stmts(&ast));
        }
    }

    #[test]
    fn non_failing_input_is_returned_unchanged() {
        let ast = generate(5, GenConfig::default());
        let min = minimize(&ast, |_| false);
        assert_eq!(min, ast);
    }
}
