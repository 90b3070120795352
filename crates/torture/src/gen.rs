//! Seeded structured-program generator.
//!
//! Emits random but *well-formed, always-terminating* MiniC programs:
//! nested branches, bounded loops, switch dispatch, global arrays, and a
//! DAG of function calls. Every construct is correct by construction —
//! loop counters live in their own namespace and are only ever stepped
//! by the loop itself, divisors are forced nonzero, array indices are
//! masked into bounds — so any disagreement between the interpreter and
//! the two machines is a pipeline bug, not a generator artifact.

use br_workloads::rng::Rng64;

/// Number of scalar locals per function (`v0..`).
pub const NLOCALS: u8 = 4;
/// Number of scalar globals (`g0..`).
pub const NGLOBALS: u8 = 3;
/// Global array length (power of two: indices are masked with `& 7`).
pub const ARR_LEN: u32 = 8;

/// Binary operators the generator emits in value position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Div,
    Rem,
}

impl BinOp {
    fn render(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Div => "/",
            BinOp::Rem => "%",
        }
    }
}

/// Comparison operators (condition position only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl Cmp {
    fn render(self) -> &'static str {
        match self {
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Eq => "==",
            Cmp::Ne => "!=",
        }
    }
}

/// Expressions. Loop variables are referenced by the *unique id* of the
/// enclosing loop that declared them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    Const(i32),
    Local(u8),
    Param(u8),
    LoopVar(u32),
    Global(u8),
    /// `ga[(e) & 7]`
    ArrLoad(Box<Expr>),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Call to `f<n>` — always a higher-numbered function (call DAG).
    Call(u8, Vec<Expr>),
}

/// A branch condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cond {
    pub op: Cmp,
    pub a: Expr,
    pub b: Expr,
}

/// Statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    AssignLocal(u8, Expr),
    AssignGlobal(u8, Expr),
    /// `ga[(e0) & 7] = e1;`
    ArrStore(Expr, Expr),
    If(Cond, Vec<Stmt>, Vec<Stmt>),
    /// `for (int L<id> = 0; L<id> < n; L<id>++) { body }`
    For {
        id: u32,
        n: i32,
        body: Vec<Stmt>,
    },
    /// `int L<id> = 0; while (L<id> < n) { body; L<id> = L<id> + 1; }`
    While {
        id: u32,
        n: i32,
        body: Vec<Stmt>,
    },
    /// `switch ((e) & 3) { case 0.. }` — exercises jump tables.
    Switch(Expr, Vec<Vec<Stmt>>),
}

/// One generated function: `int f<k>(int p0, ..) { body; return ret; }`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncGen {
    pub nparams: u8,
    pub body: Vec<Stmt>,
    pub ret: Expr,
}

/// A whole generated program. `funcs[0]` is `main` (no parameters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TortureAst {
    pub funcs: Vec<FuncGen>,
}

/// Generator tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Number of functions including `main` (call DAG: `fK` calls only
    /// `fJ` with `J > K`).
    pub max_funcs: u8,
    /// Statements per block.
    pub max_stmts: u8,
    /// Maximum statement nesting depth.
    pub max_depth: u8,
    /// Maximum expression depth.
    pub max_expr_depth: u8,
    /// Maximum loop trip count.
    pub max_trip: i32,
    /// Maximum product of trip counts along any loop-nesting path. Keeps
    /// the dynamic step count of a generated program bounded (and small),
    /// so the fuel watchdog only ever fires on a genuine hang.
    pub loop_budget: u64,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            max_funcs: 4,
            max_stmts: 5,
            max_depth: 3,
            max_expr_depth: 3,
            max_trip: 9,
            loop_budget: 48,
        }
    }
}

struct Gen<'a> {
    r: &'a mut Rng64,
    cfg: GenConfig,
    /// Index of the function being generated (callees must be higher).
    fidx: u8,
    nfuncs: u8,
    nparams: u8,
    /// Stack of loop ids currently in scope.
    loops: Vec<u32>,
    next_loop_id: u32,
    /// Product of the trip counts of the loops currently being nested.
    loop_mult: u64,
    /// Call expressions already emitted inside a loop in this function —
    /// capped so transitive call-in-loop chains cannot blow up the
    /// dynamic step count.
    calls_in_loops: u32,
}

impl Gen<'_> {
    fn expr(&mut self, depth: u8) -> Expr {
        // Leaves when depth is exhausted.
        if depth == 0 || self.r.chance(1, 3) {
            return match self.r.random_range(0u32..6) {
                0 => Expr::Const(self.r.random_range(-64i32..64)),
                1 => Expr::Local(self.r.random_range(0u8..NLOCALS)),
                2 if self.nparams > 0 => Expr::Param(self.r.random_range(0u8..self.nparams)),
                3 if !self.loops.is_empty() => Expr::LoopVar(*self.r.pick(&self.loops)),
                4 => Expr::Global(self.r.random_range(0u8..NGLOBALS)),
                _ => Expr::Const(self.r.random_range(0i32..16)),
            };
        }
        match self.r.random_range(0u32..8) {
            0 => Expr::ArrLoad(Box::new(self.expr(depth - 1))),
            1 if self.fidx + 1 < self.nfuncs
                && (self.loop_mult == 1 || (self.loop_mult <= 4 && self.calls_in_loops < 1)) =>
            {
                if self.loop_mult > 1 {
                    self.calls_in_loops += 1;
                }
                let callee = self.r.random_range(self.fidx + 1..self.nfuncs);
                // Parameter counts are fixed per function index (see
                // `generate`): f1, f2, .. take 2, 1, 2, 1, .. params.
                let nargs = callee_params(callee);
                let args = (0..nargs).map(|_| self.expr(depth - 1)).collect();
                Expr::Call(callee, args)
            }
            2..=4 => {
                // Guarded division: divisor is `(e & 7) + 1`, never zero.
                if self.r.chance(1, 4) {
                    let op = if self.r.chance(1, 2) {
                        BinOp::Div
                    } else {
                        BinOp::Rem
                    };
                    let num = self.expr(depth - 1);
                    let den = Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Bin(
                            BinOp::And,
                            Box::new(self.expr(depth - 1)),
                            Box::new(Expr::Const(7)),
                        )),
                        Box::new(Expr::Const(1)),
                    );
                    Expr::Bin(op, Box::new(num), Box::new(den))
                } else {
                    let op = *self.r.pick(&[
                        BinOp::Add,
                        BinOp::Sub,
                        BinOp::Mul,
                        BinOp::And,
                        BinOp::Or,
                        BinOp::Xor,
                    ]);
                    Expr::Bin(
                        op,
                        Box::new(self.expr(depth - 1)),
                        Box::new(self.expr(depth - 1)),
                    )
                }
            }
            5 => {
                // Shift by a small constant amount.
                let op = if self.r.chance(1, 2) {
                    BinOp::Shl
                } else {
                    BinOp::Shr
                };
                let amt = self.r.random_range(1i32..5);
                Expr::Bin(
                    op,
                    Box::new(self.expr(depth - 1)),
                    Box::new(Expr::Const(amt)),
                )
            }
            _ => Expr::Bin(
                BinOp::Add,
                Box::new(self.expr(depth - 1)),
                Box::new(self.expr(depth - 1)),
            ),
        }
    }

    fn cond(&mut self) -> Cond {
        let op = *self
            .r
            .pick(&[Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge, Cmp::Eq, Cmp::Ne]);
        Cond {
            op,
            a: self.expr(self.cfg.max_expr_depth.min(2)),
            b: self.expr(self.cfg.max_expr_depth.min(2)),
        }
    }

    fn stmt(&mut self, depth: u8) -> Stmt {
        let e = self.cfg.max_expr_depth;
        if depth == 0 {
            return match self.r.random_range(0u32..3) {
                0 => Stmt::AssignLocal(self.r.random_range(0u8..NLOCALS), self.expr(e)),
                1 => Stmt::AssignGlobal(self.r.random_range(0u8..NGLOBALS), self.expr(e)),
                _ => Stmt::ArrStore(self.expr(2), self.expr(e)),
            };
        }
        match self.r.random_range(0u32..10) {
            0 | 1 => Stmt::AssignLocal(self.r.random_range(0u8..NLOCALS), self.expr(e)),
            2 => Stmt::AssignGlobal(self.r.random_range(0u8..NGLOBALS), self.expr(e)),
            3 => Stmt::ArrStore(self.expr(2), self.expr(e)),
            4 | 5 => {
                let c = self.cond();
                let then = self.block(depth - 1);
                let els = if self.r.chance(1, 2) {
                    self.block(depth - 1)
                } else {
                    Vec::new()
                };
                Stmt::If(c, then, els)
            }
            6 | 7 => match self.trip_count() {
                None => Stmt::AssignLocal(self.r.random_range(0u8..NLOCALS), self.expr(e)),
                Some(n) => {
                    let id = self.fresh_loop();
                    self.loops.push(id);
                    self.loop_mult *= n as u64;
                    let body = self.block(depth - 1);
                    self.loop_mult /= n as u64;
                    self.loops.pop();
                    Stmt::For { id, n, body }
                }
            },
            8 => match self.trip_count() {
                None => Stmt::AssignGlobal(self.r.random_range(0u8..NGLOBALS), self.expr(e)),
                Some(n) => {
                    let id = self.fresh_loop();
                    self.loops.push(id);
                    self.loop_mult *= n as u64;
                    let body = self.block(depth - 1);
                    self.loop_mult /= n as u64;
                    self.loops.pop();
                    Stmt::While { id, n, body }
                }
            },
            _ => {
                let scrut = self.expr(2);
                let ncases = self.r.random_range(4u32..6) as usize;
                let cases = (0..ncases).map(|_| self.block(depth - 1)).collect();
                Stmt::Switch(scrut, cases)
            }
        }
    }

    fn block(&mut self, depth: u8) -> Vec<Stmt> {
        let n = self.r.random_range(1u32..self.cfg.max_stmts as u32 + 1);
        (0..n).map(|_| self.stmt(depth)).collect()
    }

    fn fresh_loop(&mut self) -> u32 {
        let id = self.next_loop_id;
        self.next_loop_id += 1;
        id
    }

    /// Pick a trip count that keeps the nesting within `loop_budget`, or
    /// `None` if another loop level would exceed it.
    fn trip_count(&mut self) -> Option<i32> {
        let max_n = (self.cfg.loop_budget / self.loop_mult).min(self.cfg.max_trip as u64) as i32;
        if max_n < 1 {
            return None;
        }
        Some(self.r.random_range(1i32..max_n + 1))
    }
}

/// Parameter count of generated function `k` (fixed so call sites can be
/// built without looking the callee up): `main` takes 0, then 2, 1, 2, 1…
pub fn callee_params(k: u8) -> u8 {
    if k == 0 {
        0
    } else if k % 2 == 1 {
        2
    } else {
        1
    }
}

/// Generate a program from `seed`.
pub fn generate(seed: u64, cfg: GenConfig) -> TortureAst {
    let mut r = Rng64::seed_from_u64(seed);
    let nfuncs = r.random_range(1u8..cfg.max_funcs.max(1) + 1);
    let mut funcs = Vec::new();
    let mut next_loop_id = 0;
    for fidx in 0..nfuncs {
        let nparams = callee_params(fidx);
        let mut g = Gen {
            r: &mut r,
            cfg,
            fidx,
            nfuncs,
            nparams,
            loops: Vec::new(),
            next_loop_id,
            loop_mult: 1,
            calls_in_loops: 0,
        };
        let body = g.block(cfg.max_depth);
        let ret = g.expr(cfg.max_expr_depth);
        next_loop_id = g.next_loop_id;
        funcs.push(FuncGen { nparams, body, ret });
    }
    TortureAst { funcs }
}

// ---------------------------------------------------------------- render

fn render_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Const(c) => {
            if *c < 0 {
                out.push_str(&format!("({c})"));
            } else {
                out.push_str(&c.to_string());
            }
        }
        Expr::Local(v) => out.push_str(&format!("v{v}")),
        Expr::Param(p) => out.push_str(&format!("p{p}")),
        Expr::LoopVar(id) => out.push_str(&format!("L{id}")),
        Expr::Global(g) => out.push_str(&format!("g{g}")),
        Expr::ArrLoad(i) => {
            out.push_str("ga[(");
            render_expr(i, out);
            out.push_str(") & 7]");
        }
        Expr::Bin(op, a, b) => {
            out.push('(');
            render_expr(a, out);
            out.push(' ');
            out.push_str(op.render());
            out.push(' ');
            render_expr(b, out);
            out.push(')');
        }
        Expr::Call(k, args) => {
            out.push_str(&format!("f{k}("));
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_expr(a, out);
            }
            out.push(')');
        }
    }
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn render_stmt(s: &Stmt, out: &mut String, level: usize) {
    match s {
        Stmt::AssignLocal(v, e) => {
            indent(out, level);
            out.push_str(&format!("v{v} = "));
            render_expr(e, out);
            out.push_str(";\n");
        }
        Stmt::AssignGlobal(g, e) => {
            indent(out, level);
            out.push_str(&format!("g{g} = "));
            render_expr(e, out);
            out.push_str(";\n");
        }
        Stmt::ArrStore(i, e) => {
            indent(out, level);
            out.push_str("ga[(");
            render_expr(i, out);
            out.push_str(") & 7] = ");
            render_expr(e, out);
            out.push_str(";\n");
        }
        Stmt::If(c, then, els) => {
            indent(out, level);
            out.push_str("if (");
            render_expr(&c.a, out);
            out.push(' ');
            out.push_str(c.op.render());
            out.push(' ');
            render_expr(&c.b, out);
            out.push_str(") {\n");
            for s in then {
                render_stmt(s, out, level + 1);
            }
            indent(out, level);
            out.push('}');
            if !els.is_empty() {
                out.push_str(" else {\n");
                for s in els {
                    render_stmt(s, out, level + 1);
                }
                indent(out, level);
                out.push('}');
            }
            out.push('\n');
        }
        Stmt::For { id, n, body } => {
            indent(out, level);
            out.push_str(&format!("for (int L{id} = 0; L{id} < {n}; L{id}++) {{\n"));
            for s in body {
                render_stmt(s, out, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        Stmt::While { id, n, body } => {
            indent(out, level);
            out.push_str(&format!("int L{id} = 0;\n"));
            indent(out, level);
            out.push_str(&format!("while (L{id} < {n}) {{\n"));
            for s in body {
                render_stmt(s, out, level + 1);
            }
            indent(out, level + 1);
            out.push_str(&format!("L{id} = L{id} + 1;\n"));
            indent(out, level);
            out.push_str("}\n");
        }
        Stmt::Switch(e, cases) => {
            indent(out, level);
            out.push_str("switch (((");
            render_expr(e, out);
            out.push_str(&format!(") & {})) {{\n", cases.len() as i32 - 1));
            for (i, c) in cases.iter().enumerate() {
                indent(out, level + 1);
                out.push_str(&format!("case {i}:\n"));
                for s in c {
                    render_stmt(s, out, level + 2);
                }
                indent(out, level + 2);
                out.push_str("break;\n");
            }
            indent(out, level);
            out.push_str("}\n");
        }
    }
}

/// Render the AST to MiniC source.
pub fn render(ast: &TortureAst) -> String {
    let mut out = String::new();
    for g in 0..NGLOBALS {
        out.push_str(&format!("int g{g};\n"));
    }
    out.push_str(&format!("int ga[{ARR_LEN}];\n\n"));
    // Forward order: MiniC resolves calls at link time, so definition
    // order does not matter; emit callees after callers for readability.
    for (k, f) in ast.funcs.iter().enumerate() {
        let params = (0..f.nparams)
            .map(|p| format!("int p{p}"))
            .collect::<Vec<_>>()
            .join(", ");
        let name = if k == 0 {
            "main".to_string()
        } else {
            format!("f{k}")
        };
        out.push_str(&format!("int {name}({params}) {{\n"));
        for v in 0..NLOCALS {
            indent(&mut out, 1);
            out.push_str(&format!("int v{v} = {};\n", (v as i32 + 1) * 3));
        }
        for s in &f.body {
            render_stmt(s, &mut out, 1);
        }
        indent(&mut out, 1);
        out.push_str("return (");
        render_expr(&f.ret, &mut out);
        // Keep exit values in a friendly range for cross-checking.
        out.push_str(") & 255;\n}\n\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42, GenConfig::default());
        let b = generate(42, GenConfig::default());
        assert_eq!(a, b);
        assert_eq!(render(&a), render(&b));
    }

    #[test]
    fn different_seeds_differ() {
        let a = render(&generate(1, GenConfig::default()));
        let b = render(&generate(2, GenConfig::default()));
        assert_ne!(a, b);
    }

    #[test]
    fn generated_source_compiles() {
        for seed in 0..50 {
            let src = render(&generate(seed, GenConfig::default()));
            br_frontend::compile(&src)
                .unwrap_or_else(|e| panic!("seed {seed} does not compile: {e}\n{src}"));
        }
    }
}
