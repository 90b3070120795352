//! Abstract syntax tree for MiniC.

use br_ir::Ty;

/// A binary operator in the source language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    LogAnd,
    LogOr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinKind {
    /// Whether this operator yields a 0/1 boolean int.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinKind::Eq | BinKind::Ne | BinKind::Lt | BinKind::Le | BinKind::Gt | BinKind::Ge
        )
    }
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnKind {
    Neg,
    Not,
    LogNot,
    Deref,
    AddrOf,
}

/// Pre/post increment/decrement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncDec {
    PreInc,
    PreDec,
    PostInc,
    PostDec,
}

/// An expression, tagged with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    pub kind: ExprKind,
    pub line: u32,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    IntLit(i64),
    FloatLit(f32),
    CharLit(u8),
    StrLit(Vec<u8>),
    Ident(String),
    Bin(BinKind, Box<Expr>, Box<Expr>),
    Un(UnKind, Box<Expr>),
    IncDec(IncDec, Box<Expr>),
    /// `lhs = rhs` or compound `lhs op= rhs` (op is `Some`).
    Assign(Option<BinKind>, Box<Expr>, Box<Expr>),
    /// `cond ? a : b`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    Index(Box<Expr>, Box<Expr>),
    Call(String, Vec<Expr>),
    Cast(Ty, Box<Expr>),
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    Expr(Expr),
    /// Local declarations: `(type, name, init)` for each declarator.
    Decl(Vec<(Ty, String, Option<Expr>)>),
    If(Expr, Box<Stmt>, Option<Box<Stmt>>),
    While(Expr, Box<Stmt>),
    DoWhile(Box<Stmt>, Expr),
    /// `for (init; cond; step) body` — all parts optional.
    For(Option<Box<Stmt>>, Option<Expr>, Option<Expr>, Box<Stmt>),
    Switch(Expr, Vec<SwitchArm>),
    Return(Option<Expr>),
    Break,
    Continue,
    Block(Vec<Stmt>),
    Empty,
}

/// One `case`/`default` arm of a switch. MiniC arms do not fall through:
/// each arm's statements run and then control leaves the switch (a
/// deliberate simplification; the workloads do not rely on fallthrough).
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchArm {
    /// `None` for `default`.
    pub value: Option<i64>,
    pub body: Vec<Stmt>,
}

/// A top-level declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Decl {
    /// Global variable with optional initializer.
    Global {
        ty: Ty,
        name: String,
        init: Option<GlobalInitAst>,
        line: u32,
    },
    /// Function definition (or prototype when `body` is `None`).
    Func {
        ret: Ty,
        name: String,
        params: Vec<(Ty, String)>,
        body: Option<Vec<Stmt>>,
        line: u32,
    },
}

/// Source-level global initializer.
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalInitAst {
    Int(i64),
    Float(f32),
    Str(Vec<u8>),
    List(Vec<GlobalInitAst>),
}

/// A parsed translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    pub decls: Vec<Decl>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_classification() {
        assert!(BinKind::Eq.is_comparison());
        assert!(BinKind::Ge.is_comparison());
        assert!(!BinKind::Add.is_comparison());
        assert!(!BinKind::LogAnd.is_comparison());
    }
}
