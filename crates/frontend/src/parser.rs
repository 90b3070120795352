//! Recursive-descent parser for MiniC.

use br_ir::Ty;

use crate::ast::*;
use crate::error::CompileError;
use crate::token::{lex, Spanned, Tok};

/// Parse a MiniC translation unit.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
pub fn parse(src: &str) -> Result<Program, CompileError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    p.program()
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        // The parser never rewinds, so consumed tokens can be moved out
        // rather than cloned; the final token is `Eof`, so re-bumping at
        // the end keeps returning `Eof`.
        let t = std::mem::replace(&mut self.toks[self.pos].tok, Tok::Eof);
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), CompileError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(CompileError::new(
                self.line(),
                format!("expected {t:?}, found {}", self.peek()),
            ))
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, CompileError> {
        Err(CompileError::new(self.line(), msg.into()))
    }

    fn is_type_start(&self) -> bool {
        matches!(
            self.peek(),
            Tok::KwInt | Tok::KwChar | Tok::KwFloat | Tok::KwVoid
        )
    }

    /// Base type plus pointer stars.
    fn parse_type(&mut self) -> Result<Ty, CompileError> {
        let base = match self.bump() {
            Tok::KwInt => Ty::Int,
            Tok::KwChar => Ty::Char,
            Tok::KwFloat => Ty::Float,
            Tok::KwVoid => Ty::Void,
            other => return self.err(format!("expected a type, found {other}")),
        };
        let mut ty = base;
        while self.eat(&Tok::Star) {
            ty = ty.ptr_to();
        }
        Ok(ty)
    }

    /// Trailing `[N][M]...` array dimensions applied to `base`.
    fn parse_array_dims(&mut self, base: Ty) -> Result<Ty, CompileError> {
        let mut dims = Vec::new();
        while self.eat(&Tok::LBracket) {
            if self.eat(&Tok::RBracket) {
                // `[]` — size inferred from the initializer during lowering
                // (represented as 0; only valid as the outermost dimension
                // of an initialized global).
                dims.push(0);
                continue;
            }
            match self.bump() {
                Tok::Int(n) if n > 0 => dims.push(n as usize),
                _ => return self.err("array dimension must be a positive integer literal"),
            }
            self.expect(&Tok::RBracket)?;
        }
        let mut ty = base;
        for &d in dims.iter().rev() {
            ty = Ty::Array(Box::new(ty), d);
        }
        Ok(ty)
    }

    fn program(&mut self) -> Result<Program, CompileError> {
        let mut decls = Vec::new();
        while *self.peek() != Tok::Eof {
            decls.push(self.top_decl()?);
        }
        Ok(Program { decls })
    }

    fn top_decl(&mut self) -> Result<Decl, CompileError> {
        let line = self.line();
        let ty = self.parse_type()?;
        let name = match self.bump() {
            Tok::Ident(s) => s,
            other => return self.err(format!("expected a name, found {other}")),
        };
        if *self.peek() == Tok::LParen {
            self.function(ty, name, line)
        } else {
            let ty = self.parse_array_dims(ty)?;
            let init = if self.eat(&Tok::Assign) {
                Some(self.global_init()?)
            } else {
                None
            };
            self.expect(&Tok::Semi)?;
            Ok(Decl::Global {
                ty,
                name,
                init,
                line,
            })
        }
    }

    fn global_init(&mut self) -> Result<GlobalInitAst, CompileError> {
        match self.peek().clone() {
            Tok::LBrace => {
                self.bump();
                let mut items = Vec::new();
                if *self.peek() != Tok::RBrace {
                    loop {
                        items.push(self.global_init()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                        if *self.peek() == Tok::RBrace {
                            break; // trailing comma
                        }
                    }
                }
                self.expect(&Tok::RBrace)?;
                Ok(GlobalInitAst::List(items))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(GlobalInitAst::Str(s))
            }
            Tok::Minus => {
                self.bump();
                match self.bump() {
                    Tok::Int(v) => Ok(GlobalInitAst::Int(-v)),
                    Tok::Float(v) => Ok(GlobalInitAst::Float(-v)),
                    _ => self.err("expected a numeric literal after '-'"),
                }
            }
            Tok::Int(v) => {
                self.bump();
                Ok(GlobalInitAst::Int(v))
            }
            Tok::Float(v) => {
                self.bump();
                Ok(GlobalInitAst::Float(v))
            }
            Tok::Char(c) => {
                self.bump();
                Ok(GlobalInitAst::Int(c as i64))
            }
            _ => self.err("expected a constant initializer"),
        }
    }

    fn function(&mut self, ret: Ty, name: String, line: u32) -> Result<Decl, CompileError> {
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if *self.peek() == Tok::KwVoid && *self.peek2() == Tok::RParen {
            self.bump();
        } else if *self.peek() != Tok::RParen {
            loop {
                let pty = self.parse_type()?;
                let pname = match self.bump() {
                    Tok::Ident(s) => s,
                    other => return self.err(format!("expected parameter name, found {other}")),
                };
                let pty = self.parse_array_dims(pty)?.decay();
                params.push((pty, pname));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        let body = if self.eat(&Tok::Semi) {
            None
        } else {
            Some(self.block()?)
        };
        Ok(Decl::Func {
            ret,
            name,
            params,
            body,
            line,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.expect(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&Tok::RBrace) {
            if *self.peek() == Tok::Eof {
                return self.err("unterminated block");
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn local_decl(&mut self) -> Result<Stmt, CompileError> {
        let base = self.parse_type()?;
        let mut items = Vec::new();
        loop {
            // Per-declarator stars: `int x, *p;`
            let mut ty = base.clone();
            while self.eat(&Tok::Star) {
                ty = ty.ptr_to();
            }
            let name = match self.bump() {
                Tok::Ident(s) => s,
                other => return self.err(format!("expected variable name, found {other}")),
            };
            let ty = self.parse_array_dims(ty)?;
            let init = if self.eat(&Tok::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            items.push((ty, name, init));
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::Semi)?;
        Ok(Stmt::Decl(items))
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        match self.peek() {
            _ if self.is_type_start() => self.local_decl(),
            Tok::Semi => {
                self.bump();
                Ok(Stmt::Empty)
            }
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            Tok::KwIf => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let then = Box::new(self.stmt()?);
                let els = if self.eat(&Tok::KwElse) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If(cond, then, els))
            }
            Tok::KwWhile => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(Stmt::While(cond, Box::new(self.stmt()?)))
            }
            Tok::KwDo => {
                self.bump();
                let body = Box::new(self.stmt()?);
                self.expect(&Tok::KwWhile)?;
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::DoWhile(body, cond))
            }
            Tok::KwFor => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let init = if self.eat(&Tok::Semi) {
                    None
                } else if self.is_type_start() {
                    Some(Box::new(self.local_decl()?))
                } else {
                    let e = self.expr()?;
                    self.expect(&Tok::Semi)?;
                    Some(Box::new(Stmt::Expr(e)))
                };
                let cond = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                let step = if *self.peek() == Tok::RParen {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::RParen)?;
                Ok(Stmt::For(init, cond, step, Box::new(self.stmt()?)))
            }
            Tok::KwSwitch => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let scrut = self.expr()?;
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::LBrace)?;
                let mut arms = Vec::new();
                while !self.eat(&Tok::RBrace) {
                    let value = if self.eat(&Tok::KwCase) {
                        let neg = self.eat(&Tok::Minus);
                        match self.bump() {
                            Tok::Int(v) => Some(if neg { -v } else { v }),
                            Tok::Char(c) => Some(c as i64),
                            _ => return self.err("expected integer after 'case'"),
                        }
                    } else if self.eat(&Tok::KwDefault) {
                        None
                    } else {
                        return self.err("expected 'case' or 'default'");
                    };
                    self.expect(&Tok::Colon)?;
                    let mut body = Vec::new();
                    while !matches!(
                        self.peek(),
                        Tok::KwCase | Tok::KwDefault | Tok::RBrace | Tok::Eof
                    ) {
                        body.push(self.stmt()?);
                    }
                    arms.push(SwitchArm { value, body });
                }
                Ok(Stmt::Switch(scrut, arms))
            }
            Tok::KwReturn => {
                self.bump();
                let v = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Return(v))
            }
            Tok::KwBreak => {
                self.bump();
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Break)
            }
            Tok::KwContinue => {
                self.bump();
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Continue)
            }
            _ => {
                let e = self.expr()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    // ----- expressions, by precedence climbing -----

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        let lhs = self.ternary()?;
        let op = match self.peek() {
            Tok::Assign => None,
            Tok::PlusAssign => Some(BinKind::Add),
            Tok::MinusAssign => Some(BinKind::Sub),
            Tok::StarAssign => Some(BinKind::Mul),
            Tok::SlashAssign => Some(BinKind::Div),
            Tok::PercentAssign => Some(BinKind::Rem),
            Tok::AmpAssign => Some(BinKind::And),
            Tok::PipeAssign => Some(BinKind::Or),
            Tok::CaretAssign => Some(BinKind::Xor),
            Tok::ShlAssign => Some(BinKind::Shl),
            Tok::ShrAssign => Some(BinKind::Shr),
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.assignment()?;
        Ok(Expr {
            kind: ExprKind::Assign(op, Box::new(lhs), Box::new(rhs)),
            line,
        })
    }

    fn ternary(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        let cond = self.binary(0)?;
        if self.eat(&Tok::Question) {
            let a = self.expr()?;
            self.expect(&Tok::Colon)?;
            let b = self.ternary()?;
            Ok(Expr {
                kind: ExprKind::Ternary(Box::new(cond), Box::new(a), Box::new(b)),
                line,
            })
        } else {
            Ok(cond)
        }
    }

    /// Binary operators via precedence climbing. Levels (low → high):
    /// `||`, `&&`, `|`, `^`, `&`, `== !=`, `< <= > >=`, `<< >>`, `+ -`,
    /// `* / %`.
    fn binary(&mut self, min_lvl: u8) -> Result<Expr, CompileError> {
        let mut lhs = self.unary()?;
        loop {
            let (kind, lvl) = match self.peek() {
                Tok::PipePipe => (BinKind::LogOr, 0),
                Tok::AmpAmp => (BinKind::LogAnd, 1),
                Tok::Pipe => (BinKind::Or, 2),
                Tok::Caret => (BinKind::Xor, 3),
                Tok::Amp => (BinKind::And, 4),
                Tok::Eq => (BinKind::Eq, 5),
                Tok::Ne => (BinKind::Ne, 5),
                Tok::Lt => (BinKind::Lt, 6),
                Tok::Le => (BinKind::Le, 6),
                Tok::Gt => (BinKind::Gt, 6),
                Tok::Ge => (BinKind::Ge, 6),
                Tok::Shl => (BinKind::Shl, 7),
                Tok::Shr => (BinKind::Shr, 7),
                Tok::Plus => (BinKind::Add, 8),
                Tok::Minus => (BinKind::Sub, 8),
                Tok::Star => (BinKind::Mul, 9),
                Tok::Slash => (BinKind::Div, 9),
                Tok::Percent => (BinKind::Rem, 9),
                _ => break,
            };
            if lvl < min_lvl {
                break;
            }
            let line = self.line();
            self.bump();
            let rhs = self.binary(lvl + 1)?;
            lhs = Expr {
                kind: ExprKind::Bin(kind, Box::new(lhs), Box::new(rhs)),
                line,
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        let kind = match self.peek() {
            Tok::Minus => Some(UnKind::Neg),
            Tok::Tilde => Some(UnKind::Not),
            Tok::Bang => Some(UnKind::LogNot),
            Tok::Star => Some(UnKind::Deref),
            Tok::Amp => Some(UnKind::AddrOf),
            _ => None,
        };
        if let Some(k) = kind {
            self.bump();
            let e = self.unary()?;
            return Ok(Expr {
                kind: ExprKind::Un(k, Box::new(e)),
                line,
            });
        }
        if *self.peek() == Tok::PlusPlus || *self.peek() == Tok::MinusMinus {
            let inc = matches!(self.bump(), Tok::PlusPlus);
            let e = self.unary()?;
            return Ok(Expr {
                kind: ExprKind::IncDec(
                    if inc { IncDec::PreInc } else { IncDec::PreDec },
                    Box::new(e),
                ),
                line,
            });
        }
        // Cast: '(' type [stars] ')' unary
        if *self.peek() == Tok::LParen
            && matches!(
                self.peek2(),
                Tok::KwInt | Tok::KwChar | Tok::KwFloat | Tok::KwVoid
            )
        {
            self.bump();
            let ty = self.parse_type()?;
            self.expect(&Tok::RParen)?;
            let e = self.unary()?;
            return Ok(Expr {
                kind: ExprKind::Cast(ty, Box::new(e)),
                line,
            });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, CompileError> {
        let mut e = self.primary()?;
        loop {
            let line = self.line();
            match self.peek() {
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(&Tok::RBracket)?;
                    e = Expr {
                        kind: ExprKind::Index(Box::new(e), Box::new(idx)),
                        line,
                    };
                }
                Tok::PlusPlus | Tok::MinusMinus => {
                    let inc = matches!(self.bump(), Tok::PlusPlus);
                    e = Expr {
                        kind: ExprKind::IncDec(
                            if inc {
                                IncDec::PostInc
                            } else {
                                IncDec::PostDec
                            },
                            Box::new(e),
                        ),
                        line,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        let kind = match self.bump() {
            Tok::Int(v) => ExprKind::IntLit(v),
            Tok::Float(v) => ExprKind::FloatLit(v),
            Tok::Char(c) => ExprKind::CharLit(c),
            Tok::Str(s) => ExprKind::StrLit(s),
            Tok::Ident(name) => {
                if self.eat(&Tok::LParen) {
                    let mut args = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Tok::RParen)?;
                    ExprKind::Call(name, args)
                } else {
                    ExprKind::Ident(name)
                }
            }
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                return Ok(e);
            }
            other => {
                return Err(CompileError::new(
                    line,
                    format!("expected an expression, found {other}"),
                ))
            }
        };
        Ok(Expr { kind, line })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_global_and_function() {
        let p = parse("int g = 3;\nint main() { return g; }").unwrap();
        assert_eq!(p.decls.len(), 2);
        assert!(matches!(&p.decls[0], Decl::Global { name, .. } if name == "g"));
        assert!(matches!(&p.decls[1], Decl::Func { name, body: Some(_), .. } if name == "main"));
    }

    #[test]
    fn parses_array_globals() {
        let p = parse("int a[4] = {1, 2, 3, 4};\nchar s[10] = \"hi\";\nint m[2][3];").unwrap();
        match &p.decls[0] {
            Decl::Global { ty, .. } => assert_eq!(*ty, Ty::Array(Box::new(Ty::Int), 4)),
            _ => panic!(),
        }
        match &p.decls[2] {
            Decl::Global { ty, .. } => assert_eq!(ty.size(), 24),
            _ => panic!(),
        }
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let p = parse("int f() { return 1 + 2 * 3; }").unwrap();
        let Decl::Func { body: Some(b), .. } = &p.decls[0] else {
            panic!()
        };
        let Stmt::Return(Some(e)) = &b[0] else {
            panic!()
        };
        let ExprKind::Bin(BinKind::Add, _, rhs) = &e.kind else {
            panic!("expected +, got {e:?}")
        };
        assert!(matches!(rhs.kind, ExprKind::Bin(BinKind::Mul, _, _)));
    }

    #[test]
    fn assignment_is_right_associative() {
        let p = parse("int f() { int a; int b; a = b = 1; return a; }").unwrap();
        let Decl::Func { body: Some(b), .. } = &p.decls[0] else {
            panic!()
        };
        let Stmt::Expr(e) = &b[2] else { panic!() };
        let ExprKind::Assign(None, _, rhs) = &e.kind else {
            panic!()
        };
        assert!(matches!(rhs.kind, ExprKind::Assign(None, _, _)));
    }

    #[test]
    fn parses_control_flow() {
        let src = r#"
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    if (i % 2 == 0) continue;
                    s += i;
                }
                while (s > 100) s -= 10;
                do { s++; } while (s < 0);
                switch (s) {
                    case 1: return 1;
                    default: break;
                }
                return s;
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.decls.len(), 1);
    }

    #[test]
    fn parses_pointers_and_casts() {
        let src = "int f(char *s) { return *(s + 1) + (int)3.5; }";
        let p = parse(src).unwrap();
        let Decl::Func { params, .. } = &p.decls[0] else {
            panic!()
        };
        assert_eq!(params[0].0, Ty::Char.ptr_to());
    }

    #[test]
    fn array_params_decay() {
        let p = parse("int f(int a[10]) { return a[0]; }").unwrap();
        let Decl::Func { params, .. } = &p.decls[0] else {
            panic!()
        };
        assert_eq!(params[0].0, Ty::Int.ptr_to());
    }

    #[test]
    fn prototype_without_body() {
        let p = parse("int f(int x);").unwrap();
        assert!(matches!(&p.decls[0], Decl::Func { body: None, .. }));
    }

    #[test]
    fn reports_syntax_errors_with_line() {
        let e = parse("int main() {\n return 1 +; \n}").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn ternary_and_logical() {
        let p = parse("int f(int a, int b) { return a && b ? a : !b; }");
        assert!(p.is_ok());
    }

    #[test]
    fn negative_global_init() {
        let p = parse("int g = -5; float h = -2.5;").unwrap();
        match &p.decls[0] {
            Decl::Global {
                init: Some(GlobalInitAst::Int(v)),
                ..
            } => assert_eq!(*v, -5),
            _ => panic!(),
        }
    }
}
