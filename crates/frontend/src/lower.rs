//! Lowering from the MiniC AST to `br-ir`.

use std::collections::{HashMap, HashSet};

use br_ir::{
    BinOp, BlockId, CastKind, Cond, FuncBuilder, Global, GlobalInit, Inst, Module, Operand,
    RegClass, SlotId, SymId, Ty, UnOp, VReg, Width,
};

use crate::ast::*;
use crate::error::CompileError;

/// Lower a parsed program to an IR module.
///
/// # Errors
///
/// Returns the first semantic error (unknown identifiers, type misuse,
/// malformed initializers, …).
pub fn lower(program: &Program) -> Result<Module, CompileError> {
    let mut module = Module::new();
    let mut sigs: HashMap<String, (Ty, Vec<Ty>)> = HashMap::new();
    let mut func_ids: HashMap<String, SymId> = HashMap::new();

    // Pass 1: globals and function symbols.
    for d in &program.decls {
        match d {
            Decl::Global {
                ty,
                name,
                init,
                line,
            } => {
                let (ty, init) = lower_global_init(ty, init.as_ref(), *line)?;
                module.add_global(Global {
                    name: name.clone(),
                    ty,
                    init,
                });
            }
            Decl::Func {
                ret, name, params, ..
            } => {
                if !sigs.contains_key(name) {
                    let ptys: Vec<Ty> = params.iter().map(|(t, _)| t.clone()).collect();
                    sigs.insert(name.clone(), (ret.clone(), ptys.clone()));
                    let id = module.declare_function(name, ret.clone(), ptys);
                    func_ids.insert(name.clone(), id);
                }
            }
        }
    }

    // Pass 2: function bodies.
    let mut strings: HashMap<Vec<u8>, SymId> = HashMap::new();
    for d in &program.decls {
        if let Decl::Func {
            ret,
            name,
            params,
            body: Some(body),
            line,
        } = d
        {
            let id = func_ids[name.as_str()];
            let mut ctx = FnLower::new(&mut module, &sigs, &func_ids, &mut strings);
            let f = ctx.lower_fn(name, ret, params, body, *line)?;
            module.define_function(id, f);
        }
    }
    module
        .validate()
        .map_err(|e| CompileError::new(0, format!("internal: invalid IR: {e}")))?;
    Ok(module)
}

/// Convert a global initializer; also resolves inferred (`[]`) dimensions.
fn lower_global_init(
    ty: &Ty,
    init: Option<&GlobalInitAst>,
    line: u32,
) -> Result<(Ty, GlobalInit), CompileError> {
    // Resolve inferred outer dimension.
    let ty = match (ty, init) {
        (Ty::Array(elem, 0), Some(GlobalInitAst::Str(s))) => Ty::Array(elem.clone(), s.len() + 1),
        (Ty::Array(elem, 0), Some(GlobalInitAst::List(items))) => {
            Ty::Array(elem.clone(), items.len())
        }
        (Ty::Array(_, 0), _) => {
            return Err(CompileError::new(
                line,
                "cannot infer array size without an initializer",
            ))
        }
        (t, _) => t.clone(),
    };
    let Some(init) = init else {
        return Ok((ty, GlobalInit::Zero));
    };
    let gi = match (&ty, init) {
        (Ty::Int | Ty::Ptr(_), GlobalInitAst::Int(v)) => GlobalInit::Words(vec![*v as i32]),
        (Ty::Char, GlobalInitAst::Int(v)) => GlobalInit::Bytes(vec![*v as u8]),
        (Ty::Float, GlobalInitAst::Float(v)) => GlobalInit::Words(vec![v.to_bits() as i32]),
        (Ty::Float, GlobalInitAst::Int(v)) => GlobalInit::Words(vec![(*v as f32).to_bits() as i32]),
        (Ty::Array(elem, n), GlobalInitAst::Str(s)) if **elem == Ty::Char => {
            if s.len() + 1 > *n {
                return Err(CompileError::new(line, "string longer than array"));
            }
            let mut bytes = s.clone();
            bytes.resize(*n, 0);
            GlobalInit::Bytes(bytes)
        }
        (Ty::Array(elem, n), GlobalInitAst::List(items)) => flatten_list(elem, *n, items, line)?,
        _ => {
            return Err(CompileError::new(
                line,
                format!("initializer does not match type {ty}"),
            ))
        }
    };
    Ok((ty, gi))
}

/// Flatten a brace list (possibly nested for 2-D arrays) into raw data.
fn flatten_list(
    elem: &Ty,
    n: usize,
    items: &[GlobalInitAst],
    line: u32,
) -> Result<GlobalInit, CompileError> {
    if items.len() > n {
        return Err(CompileError::new(line, "too many initializers"));
    }
    match elem {
        Ty::Char => {
            let mut bytes = Vec::with_capacity(n);
            for it in items {
                match it {
                    GlobalInitAst::Int(v) => bytes.push(*v as u8),
                    _ => return Err(CompileError::new(line, "bad char initializer")),
                }
            }
            bytes.resize(n, 0);
            Ok(GlobalInit::Bytes(bytes))
        }
        Ty::Int | Ty::Ptr(_) => {
            let mut words = Vec::with_capacity(n);
            for it in items {
                match it {
                    GlobalInitAst::Int(v) => words.push(*v as i32),
                    _ => return Err(CompileError::new(line, "bad int initializer")),
                }
            }
            words.resize(n, 0);
            Ok(GlobalInit::Words(words))
        }
        Ty::Float => {
            let mut words = Vec::with_capacity(n);
            for it in items {
                match it {
                    GlobalInitAst::Float(v) => words.push(v.to_bits() as i32),
                    GlobalInitAst::Int(v) => words.push((*v as f32).to_bits() as i32),
                    _ => return Err(CompileError::new(line, "bad float initializer")),
                }
            }
            words.resize(n, 0);
            Ok(GlobalInit::Words(words))
        }
        Ty::Array(inner, m) => {
            // Nested: each item must itself be a list (or string for char rows).
            let mut words: Vec<i32> = Vec::new();
            let mut bytes: Vec<u8> = Vec::new();
            let char_rows = **inner == Ty::Char;
            for it in items {
                let sub = match it {
                    GlobalInitAst::List(sub) => flatten_list(inner, *m, sub, line)?,
                    GlobalInitAst::Str(s) if char_rows => {
                        let mut row = s.clone();
                        if row.len() > *m {
                            return Err(CompileError::new(line, "string longer than row"));
                        }
                        row.resize(*m, 0);
                        GlobalInit::Bytes(row)
                    }
                    _ => return Err(CompileError::new(line, "expected nested initializer list")),
                };
                match sub {
                    GlobalInit::Words(w) => words.extend(w),
                    GlobalInit::Bytes(b) => bytes.extend(b),
                    GlobalInit::Zero => unreachable!(),
                }
            }
            if char_rows {
                bytes.resize(n * m, 0);
                Ok(GlobalInit::Bytes(bytes))
            } else {
                let total = n * (Ty::Array(inner.clone(), *m).size() / 4);
                words.resize(total, 0);
                Ok(GlobalInit::Words(words))
            }
        }
        _ => Err(CompileError::new(line, "unsupported initializer element")),
    }
}

/// Where a named variable lives.
#[derive(Debug, Clone)]
enum VarPlace {
    Reg(VReg),
    Slot(SlotId),
    Global(SymId),
}

#[derive(Debug, Clone)]
struct Binding {
    ty: Ty,
    place: VarPlace,
}

/// An assignable location.
#[derive(Debug, Clone)]
enum Place {
    Reg(VReg, Ty),
    Mem { base: Operand, off: i32, ty: Ty },
}

impl Place {
    fn ty(&self) -> &Ty {
        match self {
            Place::Reg(_, t) => t,
            Place::Mem { ty, .. } => ty,
        }
    }
}

struct FnLower<'a> {
    module: &'a mut Module,
    sigs: &'a HashMap<String, (Ty, Vec<Ty>)>,
    func_ids: &'a HashMap<String, SymId>,
    strings: &'a mut HashMap<Vec<u8>, SymId>,
    b: Option<FuncBuilder>,
    scopes: Vec<HashMap<String, Binding>>,
    addr_taken: HashSet<String>,
    ret_ty: Ty,
    /// (break target, continue target) stack; continue is `None` inside
    /// `switch`.
    loop_stack: Vec<(BlockId, Option<BlockId>)>,
}

impl<'a> FnLower<'a> {
    fn new(
        module: &'a mut Module,
        sigs: &'a HashMap<String, (Ty, Vec<Ty>)>,
        func_ids: &'a HashMap<String, SymId>,
        strings: &'a mut HashMap<Vec<u8>, SymId>,
    ) -> FnLower<'a> {
        FnLower {
            module,
            sigs,
            func_ids,
            strings,
            b: None,
            scopes: Vec::new(),
            addr_taken: HashSet::new(),
            ret_ty: Ty::Void,
            loop_stack: Vec::new(),
        }
    }

    fn b(&mut self) -> &mut FuncBuilder {
        self.b.as_mut().expect("builder active")
    }

    fn lower_fn(
        &mut self,
        name: &str,
        ret: &Ty,
        params: &[(Ty, String)],
        body: &[Stmt],
        _line: u32,
    ) -> Result<br_ir::Function, CompileError> {
        self.ret_ty = ret.clone();
        collect_addr_taken(body, &mut self.addr_taken);
        let ptys: Vec<Ty> = params.iter().map(|(t, _)| t.clone()).collect();
        let mut fb = FuncBuilder::new(name, ret.clone(), ptys);
        self.scopes.push(HashMap::new());
        // Bind parameters; address-taken params are copied into slots.
        let mut entry_stores: Vec<(SlotId, VReg, Ty)> = Vec::new();
        for (i, (pty, pname)) in params.iter().enumerate() {
            let v = fb.param(i);
            if self.addr_taken.contains(pname.as_str()) {
                let slot = fb.new_slot(pty.size(), pty.align());
                entry_stores.push((slot, v, pty.clone()));
                self.scopes[0].insert(
                    pname.clone(),
                    Binding {
                        ty: pty.clone(),
                        place: VarPlace::Slot(slot),
                    },
                );
            } else {
                self.scopes[0].insert(
                    pname.clone(),
                    Binding {
                        ty: pty.clone(),
                        place: VarPlace::Reg(v),
                    },
                );
            }
        }
        self.b = Some(fb);
        for (slot, v, ty) in entry_stores {
            let addr = self.b().new_vreg(RegClass::Int);
            self.b().push(Inst::FrameAddr {
                dst: addr,
                slot,
                off: 0,
            });
            self.b().push(Inst::Store {
                a: Operand::Reg(v),
                base: Operand::Reg(addr),
                off: 0,
                width: width_of(&ty),
            });
        }
        for s in body {
            self.stmt(s)?;
        }
        self.scopes.pop();
        Ok(self.b.take().unwrap().finish())
    }

    // ----- statements -----

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Empty => Ok(()),
            Stmt::Expr(e) => {
                self.expr(e)?;
                Ok(())
            }
            Stmt::Block(stmts) => {
                self.scopes.push(HashMap::new());
                for s in stmts {
                    self.stmt(s)?;
                }
                self.scopes.pop();
                Ok(())
            }
            Stmt::Decl(items) => {
                for (ty, name, init) in items {
                    self.local_decl(ty, name, init.as_ref())?;
                }
                Ok(())
            }
            Stmt::If(cond, then_s, else_s) => {
                let then_bb = self.b().new_block();
                let else_bb = self.b().new_block();
                let end_bb = if else_s.is_some() {
                    self.b().new_block()
                } else {
                    else_bb
                };
                self.cond(cond, then_bb, else_bb)?;
                self.b().switch_to(then_bb);
                self.stmt(then_s)?;
                self.b().terminate(Inst::Jump(end_bb));
                if let Some(e) = else_s {
                    self.b().switch_to(else_bb);
                    self.stmt(e)?;
                    self.b().terminate(Inst::Jump(end_bb));
                }
                self.b().switch_to(end_bb);
                Ok(())
            }
            Stmt::While(cond, body) => {
                let hdr = self.b().new_block();
                let body_bb = self.b().new_block();
                let end = self.b().new_block();
                self.b().terminate(Inst::Jump(hdr));
                self.b().switch_to(hdr);
                self.cond(cond, body_bb, end)?;
                self.b().switch_to(body_bb);
                self.loop_stack.push((end, Some(hdr)));
                self.stmt(body)?;
                self.loop_stack.pop();
                self.b().terminate(Inst::Jump(hdr));
                self.b().switch_to(end);
                Ok(())
            }
            Stmt::DoWhile(body, cond) => {
                let body_bb = self.b().new_block();
                let cond_bb = self.b().new_block();
                let end = self.b().new_block();
                self.b().terminate(Inst::Jump(body_bb));
                self.b().switch_to(body_bb);
                self.loop_stack.push((end, Some(cond_bb)));
                self.stmt(body)?;
                self.loop_stack.pop();
                self.b().terminate(Inst::Jump(cond_bb));
                self.b().switch_to(cond_bb);
                self.cond(cond, body_bb, end)?;
                self.b().switch_to(end);
                Ok(())
            }
            Stmt::For(init, cond, step, body) => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let hdr = self.b().new_block();
                let body_bb = self.b().new_block();
                let step_bb = self.b().new_block();
                let end = self.b().new_block();
                self.b().terminate(Inst::Jump(hdr));
                self.b().switch_to(hdr);
                match cond {
                    Some(c) => self.cond(c, body_bb, end)?,
                    None => self.b().terminate(Inst::Jump(body_bb)),
                }
                self.b().switch_to(body_bb);
                self.loop_stack.push((end, Some(step_bb)));
                self.stmt(body)?;
                self.loop_stack.pop();
                self.b().terminate(Inst::Jump(step_bb));
                self.b().switch_to(step_bb);
                if let Some(s) = step {
                    self.expr(s)?;
                }
                self.b().terminate(Inst::Jump(hdr));
                self.b().switch_to(end);
                self.scopes.pop();
                Ok(())
            }
            Stmt::Switch(scrut, arms) => self.switch(scrut, arms),
            Stmt::Return(v) => {
                let op = match v {
                    Some(e) => {
                        let (op, ty) = self.expr(e)?;
                        let want = self.ret_ty.clone();
                        Some(self.coerce(op, &ty, &want, e.line)?)
                    }
                    None => None,
                };
                self.b().terminate(Inst::Ret(op));
                Ok(())
            }
            Stmt::Break => {
                let Some((end, _)) = self.loop_stack.last().copied() else {
                    return Err(CompileError::new(0, "break outside loop or switch"));
                };
                self.b().terminate(Inst::Jump(end));
                Ok(())
            }
            Stmt::Continue => {
                let target = self
                    .loop_stack
                    .iter()
                    .rev()
                    .find_map(|(_, c)| *c)
                    .ok_or_else(|| CompileError::new(0, "continue outside loop"))?;
                self.b().terminate(Inst::Jump(target));
                Ok(())
            }
        }
    }

    fn local_decl(&mut self, ty: &Ty, name: &str, init: Option<&Expr>) -> Result<(), CompileError> {
        if matches!(ty, Ty::Array(_, 0)) {
            return Err(CompileError::new(0, "local arrays must have a size"));
        }
        let binding = if matches!(ty, Ty::Array(..)) || self.addr_taken.contains(name) {
            let slot = self.b().new_slot(ty.size(), ty.align());
            Binding {
                ty: ty.clone(),
                place: VarPlace::Slot(slot),
            }
        } else {
            let class = if ty.is_float() {
                RegClass::Float
            } else {
                RegClass::Int
            };
            let v = self.b().new_vreg(class);
            Binding {
                ty: ty.clone(),
                place: VarPlace::Reg(v),
            }
        };
        self.scopes
            .last_mut()
            .unwrap()
            .insert(name.to_string(), binding.clone());
        if let Some(e) = init {
            if matches!(ty, Ty::Array(..)) {
                return Err(CompileError::new(
                    e.line,
                    "local arrays cannot be initialized",
                ));
            }
            let (op, ety) = self.expr(e)?;
            let op = self.coerce(op, &ety, ty, e.line)?;
            match binding.place {
                VarPlace::Reg(v) => self.b().push(Inst::Copy { dst: v, a: op }),
                VarPlace::Slot(slot) => {
                    let addr = self.b().new_vreg(RegClass::Int);
                    self.b().push(Inst::FrameAddr {
                        dst: addr,
                        slot,
                        off: 0,
                    });
                    self.b().push(Inst::Store {
                        a: op,
                        base: Operand::Reg(addr),
                        off: 0,
                        width: width_of(ty),
                    });
                }
                VarPlace::Global(_) => unreachable!(),
            }
        }
        Ok(())
    }

    fn switch(&mut self, scrut: &Expr, arms: &[SwitchArm]) -> Result<(), CompileError> {
        let (op, ty) = self.expr(scrut)?;
        let op = self.coerce(op, &ty, &Ty::Int, scrut.line)?;
        let end = self.b().new_block();
        let mut cases: Vec<(i64, BlockId)> = Vec::new();
        let mut default_bb = end;
        let mut arm_blocks = Vec::new();
        for arm in arms {
            let bb = self.b().new_block();
            arm_blocks.push(bb);
            match arm.value {
                Some(v) => cases.push((v, bb)),
                None => default_bb = bb,
            }
        }
        // Dense value range → jump table; otherwise a compare chain.
        let dense = !cases.is_empty() && {
            let min = cases.iter().map(|c| c.0).min().unwrap();
            let max = cases.iter().map(|c| c.0).max().unwrap();
            let span = (max - min + 1) as usize;
            cases.len() >= 4 && span <= 3 * cases.len()
        };
        if dense {
            let min = cases.iter().map(|c| c.0).min().unwrap();
            let max = cases.iter().map(|c| c.0).max().unwrap();
            let mut targets = vec![default_bb; (max - min + 1) as usize];
            for (v, bb) in &cases {
                targets[(*v - min) as usize] = *bb;
            }
            self.b().terminate(Inst::Switch {
                idx: op,
                base: min,
                targets,
                default: default_bb,
            });
        } else {
            for (v, bb) in &cases {
                let next = self.b().new_block();
                self.b().terminate(Inst::Branch {
                    cond: Cond::Eq,
                    a: op,
                    b: Operand::Const(*v),
                    float: false,
                    then_bb: *bb,
                    else_bb: next,
                });
                self.b().switch_to(next);
            }
            self.b().terminate(Inst::Jump(default_bb));
        }
        // Arm bodies: `break` exits the switch; `continue` refers to an
        // enclosing loop.
        for (arm, bb) in arms.iter().zip(&arm_blocks) {
            self.b().switch_to(*bb);
            self.loop_stack.push((end, None));
            for s in &arm.body {
                self.stmt(s)?;
            }
            self.loop_stack.pop();
            self.b().terminate(Inst::Jump(end));
        }
        self.b().switch_to(end);
        Ok(())
    }

    // ----- conditions -----

    /// Lower `e` as a branch condition targeting `then_bb` / `else_bb`.
    fn cond(&mut self, e: &Expr, then_bb: BlockId, else_bb: BlockId) -> Result<(), CompileError> {
        match &e.kind {
            ExprKind::Bin(k, a, b)
                if k.is_comparison() || matches!(k, BinKind::LogAnd | BinKind::LogOr) =>
            {
                self.cond_bin(*k, a, b, e.line, then_bb, else_bb)
            }
            ExprKind::Un(UnKind::LogNot, a) => self.cond(a, else_bb, then_bb),
            _ => {
                let (v, ty) = self.expr(e)?;
                let float = ty.is_float();
                let zero = if float {
                    Operand::FConst(0.0)
                } else {
                    Operand::Const(0)
                };
                self.b().terminate(Inst::Branch {
                    cond: Cond::Ne,
                    a: v,
                    b: zero,
                    float,
                    then_bb,
                    else_bb,
                });
                Ok(())
            }
        }
    }

    /// [`Lowerer::cond`] for a comparison or short-circuit binary whose
    /// operands are already in hand — callable directly (from
    /// [`Lowerer::bin_expr`]) without wrapping them back into an `Expr`.
    fn cond_bin(
        &mut self,
        k: BinKind,
        a: &Expr,
        b: &Expr,
        line: u32,
        then_bb: BlockId,
        else_bb: BlockId,
    ) -> Result<(), CompileError> {
        match k {
            BinKind::LogAnd => {
                let mid = self.b().new_block();
                self.cond(a, mid, else_bb)?;
                self.b().switch_to(mid);
                self.cond(b, then_bb, else_bb)
            }
            BinKind::LogOr => {
                let mid = self.b().new_block();
                self.cond(a, then_bb, mid)?;
                self.b().switch_to(mid);
                self.cond(b, then_bb, else_bb)
            }
            _ => {
                let (va, ta) = self.expr(a)?;
                let (vb, tb) = self.expr(b)?;
                let float = ta.is_float() || tb.is_float();
                let (va, vb) = if float {
                    (
                        self.coerce(va, &ta, &Ty::Float, line)?,
                        self.coerce(vb, &tb, &Ty::Float, line)?,
                    )
                } else {
                    (va, vb)
                };
                let cond = match k {
                    BinKind::Eq => Cond::Eq,
                    BinKind::Ne => Cond::Ne,
                    BinKind::Lt => Cond::Lt,
                    BinKind::Le => Cond::Le,
                    BinKind::Gt => Cond::Gt,
                    BinKind::Ge => Cond::Ge,
                    _ => unreachable!("cond_bin called on a non-condition operator"),
                };
                self.b().terminate(Inst::Branch {
                    cond,
                    a: va,
                    b: vb,
                    float,
                    then_bb,
                    else_bb,
                });
                Ok(())
            }
        }
    }

    // ----- expressions -----

    fn lookup(&self, name: &str, line: u32) -> Result<Binding, CompileError> {
        for scope in self.scopes.iter().rev() {
            if let Some(b) = scope.get(name) {
                return Ok(b.clone());
            }
        }
        if let Some(id) = self.module.lookup(name) {
            if let Some(g) = self.module.global_of(id) {
                return Ok(Binding {
                    ty: g.ty.clone(),
                    place: VarPlace::Global(id),
                });
            }
        }
        Err(CompileError::new(
            line,
            format!("unknown identifier '{name}'"),
        ))
    }

    /// Evaluate `e` as an rvalue.
    fn expr(&mut self, e: &Expr) -> Result<(Operand, Ty), CompileError> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok((Operand::Const(*v), Ty::Int)),
            ExprKind::FloatLit(v) => Ok((Operand::FConst(*v), Ty::Float)),
            ExprKind::CharLit(c) => Ok((Operand::Const(*c as i64), Ty::Int)),
            ExprKind::StrLit(s) => {
                let id = self.intern_string(s);
                let dst = self.b().new_vreg(RegClass::Int);
                self.b().push(Inst::AddrOf {
                    dst,
                    sym: id,
                    off: 0,
                });
                Ok((Operand::Reg(dst), Ty::Char.ptr_to()))
            }
            ExprKind::Ident(name) => {
                let b = self.lookup(name, e.line)?;
                if let Ty::Array(elem, _) = &b.ty {
                    // Array decays to the address of its first element.
                    let dst = self.b().new_vreg(RegClass::Int);
                    match b.place {
                        VarPlace::Slot(slot) => {
                            self.b().push(Inst::FrameAddr { dst, slot, off: 0 })
                        }
                        VarPlace::Global(sym) => self.b().push(Inst::AddrOf { dst, sym, off: 0 }),
                        VarPlace::Reg(_) => unreachable!("arrays never live in registers"),
                    }
                    return Ok((Operand::Reg(dst), Ty::Ptr(elem.clone())));
                }
                let place = self.place_of_binding(b);
                self.load_place(&place)
            }
            ExprKind::Bin(k, a, b) => self.bin_expr(*k, a, b, e.line),
            ExprKind::Un(k, a) => self.un_expr(*k, a, e.line),
            ExprKind::IncDec(k, a) => self.incdec(*k, a, e.line),
            ExprKind::Assign(op, lhs, rhs) => self.assign(*op, lhs, rhs, e.line),
            ExprKind::Ternary(c, a, b) => self.ternary(c, a, b, e.line),
            ExprKind::Index(a, i) => {
                let place = self.index_place(a, i, e.line)?;
                self.load_place(&place)
            }
            ExprKind::Call(name, args) => self.call(name, args, e.line),
            ExprKind::Cast(ty, a) => {
                let (v, from) = self.expr(a)?;
                let v = self.coerce(v, &from, ty, e.line)?;
                Ok((v, ty.clone().decay()))
            }
        }
    }

    fn intern_string(&mut self, s: &[u8]) -> SymId {
        if let Some(&id) = self.strings.get(s) {
            return id;
        }
        let mut bytes = s.to_vec();
        bytes.push(0);
        let name = format!("__str{}", self.strings.len());
        let id = self.module.add_global(Global {
            name,
            ty: Ty::Array(Box::new(Ty::Char), bytes.len()),
            init: GlobalInit::Bytes(bytes),
        });
        self.strings.insert(s.to_vec(), id);
        id
    }

    fn place_of_binding(&mut self, b: Binding) -> Place {
        match b.place {
            VarPlace::Reg(v) => Place::Reg(v, b.ty),
            VarPlace::Slot(slot) => {
                let addr = self.b().new_vreg(RegClass::Int);
                self.b().push(Inst::FrameAddr {
                    dst: addr,
                    slot,
                    off: 0,
                });
                Place::Mem {
                    base: Operand::Reg(addr),
                    off: 0,
                    ty: b.ty,
                }
            }
            VarPlace::Global(sym) => {
                let addr = self.b().new_vreg(RegClass::Int);
                self.b().push(Inst::AddrOf {
                    dst: addr,
                    sym,
                    off: 0,
                });
                Place::Mem {
                    base: Operand::Reg(addr),
                    off: 0,
                    ty: b.ty,
                }
            }
        }
    }

    fn load_place(&mut self, p: &Place) -> Result<(Operand, Ty), CompileError> {
        match p {
            Place::Reg(v, ty) => Ok((Operand::Reg(*v), ty.clone().decay())),
            Place::Mem { base, off, ty } => {
                // An array-typed place decays to its address.
                if let Ty::Array(elem, _) = ty {
                    let addr = if *off == 0 {
                        *base
                    } else {
                        Operand::Reg(self.b().bin(
                            BinOp::Add,
                            RegClass::Int,
                            *base,
                            Operand::Const(*off as i64),
                        ))
                    };
                    return Ok((addr, Ty::Ptr(elem.clone())));
                }
                let class = if ty.is_float() {
                    RegClass::Float
                } else {
                    RegClass::Int
                };
                let dst = self.b().new_vreg(class);
                self.b().push(Inst::Load {
                    dst,
                    base: *base,
                    off: *off,
                    width: width_of(ty),
                });
                // Char loads produce an int value (unsigned promotion).
                let t = if *ty == Ty::Char {
                    Ty::Int
                } else {
                    ty.clone().decay()
                };
                Ok((Operand::Reg(dst), t))
            }
        }
    }

    fn store_place(&mut self, p: &Place, v: Operand) {
        match p {
            Place::Reg(dst, _) => self.b().push(Inst::Copy { dst: *dst, a: v }),
            Place::Mem { base, off, ty } => self.b().push(Inst::Store {
                a: v,
                base: *base,
                off: *off,
                width: width_of(ty),
            }),
        }
    }

    /// Compute the place denoted by an lvalue expression.
    fn place(&mut self, e: &Expr) -> Result<Place, CompileError> {
        match &e.kind {
            ExprKind::Ident(name) => {
                let b = self.lookup(name, e.line)?;
                if matches!(b.ty, Ty::Array(..)) {
                    return Err(CompileError::new(e.line, "array is not assignable"));
                }
                Ok(self.place_of_binding(b))
            }
            ExprKind::Un(UnKind::Deref, inner) => self.deref_place(inner, e.line),
            ExprKind::Index(a, i) => self.index_place(a, i, e.line),
            _ => Err(CompileError::new(e.line, "expression is not assignable")),
        }
    }

    /// The place denoted by `*inner` — shared by [`Lowerer::place`] and
    /// rvalue dereference, so neither has to re-wrap `inner` in an
    /// `Expr`.
    fn deref_place(&mut self, inner: &Expr, line: u32) -> Result<Place, CompileError> {
        let (v, ty) = self.expr(inner)?;
        let elem = ty
            .pointee()
            .cloned()
            .ok_or_else(|| CompileError::new(line, "cannot dereference non-pointer"))?;
        Ok(Place::Mem {
            base: v,
            off: 0,
            ty: elem,
        })
    }

    fn index_place(&mut self, a: &Expr, i: &Expr, line: u32) -> Result<Place, CompileError> {
        let (base, ty) = self.expr(a)?;
        let elem = ty
            .pointee()
            .cloned()
            .ok_or_else(|| CompileError::new(line, "cannot index non-pointer"))?;
        let (idx, ity) = self.expr(i)?;
        if ity.is_float() {
            return Err(CompileError::new(line, "array index must be an integer"));
        }
        let size = elem.size() as i64;
        match idx {
            Operand::Const(c) => Ok(Place::Mem {
                base,
                off: (c * size) as i32,
                ty: elem,
            }),
            _ => {
                let scaled = if size == 1 {
                    idx
                } else {
                    Operand::Reg(
                        self.b()
                            .bin(BinOp::Mul, RegClass::Int, idx, Operand::Const(size)),
                    )
                };
                let addr = self.b().bin(BinOp::Add, RegClass::Int, base, scaled);
                Ok(Place::Mem {
                    base: Operand::Reg(addr),
                    off: 0,
                    ty: elem,
                })
            }
        }
    }

    fn bin_expr(
        &mut self,
        k: BinKind,
        a: &Expr,
        b: &Expr,
        line: u32,
    ) -> Result<(Operand, Ty), CompileError> {
        if k.is_comparison() || matches!(k, BinKind::LogAnd | BinKind::LogOr) {
            // Materialize a 0/1 value via control flow (the machines have
            // no set-on-condition instruction, as in the paper).
            let dst = self.b().new_vreg(RegClass::Int);
            let t = self.b().new_block();
            let f = self.b().new_block();
            let end = self.b().new_block();
            self.cond_bin(k, a, b, line, t, f)?;
            self.b().switch_to(t);
            self.b().push(Inst::Copy {
                dst,
                a: Operand::Const(1),
            });
            self.b().terminate(Inst::Jump(end));
            self.b().switch_to(f);
            self.b().push(Inst::Copy {
                dst,
                a: Operand::Const(0),
            });
            self.b().terminate(Inst::Jump(end));
            self.b().switch_to(end);
            return Ok((Operand::Reg(dst), Ty::Int));
        }
        let (va, ta) = self.expr(a)?;
        let (vb, tb) = self.expr(b)?;
        self.arith(k, va, ta, vb, tb, line)
    }

    fn arith(
        &mut self,
        k: BinKind,
        va: Operand,
        ta: Ty,
        vb: Operand,
        tb: Ty,
        line: u32,
    ) -> Result<(Operand, Ty), CompileError> {
        // Pointer arithmetic.
        if ta.is_ptr() || tb.is_ptr() {
            return self.ptr_arith(k, va, ta, vb, tb, line);
        }
        let float = ta.is_float() || tb.is_float();
        if float {
            let op = match k {
                BinKind::Add => BinOp::FAdd,
                BinKind::Sub => BinOp::FSub,
                BinKind::Mul => BinOp::FMul,
                BinKind::Div => BinOp::FDiv,
                _ => return Err(CompileError::new(line, "operator not defined for float")),
            };
            let va = self.coerce(va, &ta, &Ty::Float, line)?;
            let vb = self.coerce(vb, &tb, &Ty::Float, line)?;
            // Constant folding.
            if let (Operand::FConst(x), Operand::FConst(y)) = (va, vb) {
                let r = match op {
                    BinOp::FAdd => x + y,
                    BinOp::FSub => x - y,
                    BinOp::FMul => x * y,
                    BinOp::FDiv => x / y,
                    _ => unreachable!(),
                };
                return Ok((Operand::FConst(r), Ty::Float));
            }
            let dst = self.b().bin(op, RegClass::Float, va, vb);
            return Ok((Operand::Reg(dst), Ty::Float));
        }
        let op = match k {
            BinKind::Add => BinOp::Add,
            BinKind::Sub => BinOp::Sub,
            BinKind::Mul => BinOp::Mul,
            BinKind::Div => BinOp::Div,
            BinKind::Rem => BinOp::Rem,
            BinKind::And => BinOp::And,
            BinKind::Or => BinOp::Or,
            BinKind::Xor => BinOp::Xor,
            BinKind::Shl => BinOp::Shl,
            BinKind::Shr => BinOp::Sar, // MiniC ints are signed
            _ => unreachable!("handled above"),
        };
        if let (Operand::Const(x), Operand::Const(y)) = (va, vb) {
            if let Some(r) = fold_int(op, x as i32, y as i32) {
                return Ok((Operand::Const(r as i64), Ty::Int));
            }
        }
        let dst = self.b().bin(op, RegClass::Int, va, vb);
        Ok((Operand::Reg(dst), Ty::Int))
    }

    fn ptr_arith(
        &mut self,
        k: BinKind,
        va: Operand,
        ta: Ty,
        vb: Operand,
        tb: Ty,
        line: u32,
    ) -> Result<(Operand, Ty), CompileError> {
        match (k, ta.is_ptr(), tb.is_ptr()) {
            (BinKind::Sub, true, true) => {
                let size = ta
                    .pointee()
                    .ok_or_else(|| CompileError::new(line, "invalid pointer type"))?
                    .size() as i64;
                let diff = self.b().bin(BinOp::Sub, RegClass::Int, va, vb);
                let r = if size == 1 {
                    diff
                } else {
                    self.b().bin(
                        BinOp::Div,
                        RegClass::Int,
                        Operand::Reg(diff),
                        Operand::Const(size),
                    )
                };
                Ok((Operand::Reg(r), Ty::Int))
            }
            (BinKind::Add | BinKind::Sub, true, false) => {
                let size = ta
                    .pointee()
                    .ok_or_else(|| CompileError::new(line, "invalid pointer type"))?
                    .size() as i64;
                let scaled = match vb {
                    Operand::Const(c) => Operand::Const(c * size),
                    _ if size == 1 => vb,
                    _ => Operand::Reg(self.b().bin(
                        BinOp::Mul,
                        RegClass::Int,
                        vb,
                        Operand::Const(size),
                    )),
                };
                let op = if k == BinKind::Add {
                    BinOp::Add
                } else {
                    BinOp::Sub
                };
                let dst = self.b().bin(op, RegClass::Int, va, scaled);
                Ok((Operand::Reg(dst), ta))
            }
            (BinKind::Add, false, true) => self.ptr_arith(k, vb, tb, va, ta, line),
            _ => Err(CompileError::new(line, "invalid pointer arithmetic")),
        }
    }

    fn un_expr(&mut self, k: UnKind, a: &Expr, line: u32) -> Result<(Operand, Ty), CompileError> {
        match k {
            UnKind::Neg => {
                let (v, ty) = self.expr(a)?;
                if ty.is_float() {
                    if let Operand::FConst(c) = v {
                        return Ok((Operand::FConst(-c), Ty::Float));
                    }
                    let dst = self.b().new_vreg(RegClass::Float);
                    self.b().push(Inst::Un {
                        op: UnOp::FNeg,
                        dst,
                        a: v,
                    });
                    Ok((Operand::Reg(dst), Ty::Float))
                } else {
                    if let Operand::Const(c) = v {
                        return Ok((Operand::Const(-(c as i32) as i64), Ty::Int));
                    }
                    let dst = self.b().new_vreg(RegClass::Int);
                    self.b().push(Inst::Un {
                        op: UnOp::Neg,
                        dst,
                        a: v,
                    });
                    Ok((Operand::Reg(dst), Ty::Int))
                }
            }
            UnKind::Not => {
                let (v, _) = self.expr(a)?;
                if let Operand::Const(c) = v {
                    return Ok((Operand::Const(!(c as i32) as i64), Ty::Int));
                }
                let dst = self.b().new_vreg(RegClass::Int);
                self.b().push(Inst::Un {
                    op: UnOp::Not,
                    dst,
                    a: v,
                });
                Ok((Operand::Reg(dst), Ty::Int))
            }
            UnKind::LogNot => {
                // !(x) materialized through cond, with the branch targets
                // swapped (cond of `!x` is cond of `x` inverted).
                let dst = self.b().new_vreg(RegClass::Int);
                let t = self.b().new_block();
                let f = self.b().new_block();
                let end = self.b().new_block();
                self.cond(a, f, t)?;
                self.b().switch_to(t);
                self.b().push(Inst::Copy {
                    dst,
                    a: Operand::Const(1),
                });
                self.b().terminate(Inst::Jump(end));
                self.b().switch_to(f);
                self.b().push(Inst::Copy {
                    dst,
                    a: Operand::Const(0),
                });
                self.b().terminate(Inst::Jump(end));
                self.b().switch_to(end);
                Ok((Operand::Reg(dst), Ty::Int))
            }
            UnKind::Deref => {
                let p = self.deref_place(a, line)?;
                self.load_place(&p)
            }
            UnKind::AddrOf => {
                let p = self.place(a)?;
                match p {
                    Place::Reg(..) => Err(CompileError::new(
                        line,
                        "internal: address of register variable (pre-scan missed it)",
                    )),
                    Place::Mem { base, off, ty } => {
                        let addr = if off == 0 {
                            base
                        } else {
                            Operand::Reg(self.b().bin(
                                BinOp::Add,
                                RegClass::Int,
                                base,
                                Operand::Const(off as i64),
                            ))
                        };
                        Ok((addr, ty.ptr_to()))
                    }
                }
            }
        }
    }

    fn incdec(&mut self, k: IncDec, a: &Expr, line: u32) -> Result<(Operand, Ty), CompileError> {
        let p = self.place(a)?;
        let ty = p.ty().clone();
        let (old, vty) = self.load_place(&p)?;
        let delta: i64 = match &ty {
            Ty::Ptr(e) => e.size() as i64,
            _ => 1,
        };
        let inc = matches!(k, IncDec::PreInc | IncDec::PostInc);
        let (op, dclass) = if ty.is_float() {
            (if inc { BinOp::FAdd } else { BinOp::FSub }, RegClass::Float)
        } else {
            (if inc { BinOp::Add } else { BinOp::Sub }, RegClass::Int)
        };
        let delta_op = if ty.is_float() {
            Operand::FConst(1.0)
        } else {
            Operand::Const(delta)
        };
        // Keep the old value in a stable register for post-inc/dec (the
        // place may alias the value register).
        let old_saved = match (k, old) {
            (IncDec::PostInc | IncDec::PostDec, Operand::Reg(_)) => {
                let s = self.b().new_vreg(dclass);
                self.b().push(Inst::Copy { dst: s, a: old });
                Operand::Reg(s)
            }
            _ => old,
        };
        let _ = vty;
        let new = self.b().bin(op, dclass, old, delta_op);
        // The add result is a full-width int (or float/pointer); coercing
        // from that type masks char places back to 8 bits.
        let new_ty = if ty.is_float() {
            Ty::Float
        } else if ty.is_ptr() {
            ty.clone()
        } else {
            Ty::Int
        };
        let stored = self.coerce(Operand::Reg(new), &new_ty, &ty, line)?;
        self.store_place(&p, stored);
        let result = match k {
            IncDec::PreInc | IncDec::PreDec => stored,
            IncDec::PostInc | IncDec::PostDec => old_saved,
        };
        Ok((result, ty.decay()))
    }

    fn assign(
        &mut self,
        op: Option<BinKind>,
        lhs: &Expr,
        rhs: &Expr,
        line: u32,
    ) -> Result<(Operand, Ty), CompileError> {
        let p = self.place(lhs)?;
        let ty = p.ty().clone();
        let value = match op {
            None => {
                let (v, vty) = self.expr(rhs)?;
                self.coerce(v, &vty, &ty, line)?
            }
            Some(k) => {
                let (old, oty) = self.load_place(&p)?;
                let (rv, rty) = self.expr(rhs)?;
                let (res, resty) = self.arith(k, old, oty, rv, rty, line)?;
                self.coerce(res, &resty, &ty, line)?
            }
        };
        self.store_place(&p, value);
        Ok((value, ty.decay()))
    }

    fn ternary(
        &mut self,
        c: &Expr,
        a: &Expr,
        b: &Expr,
        line: u32,
    ) -> Result<(Operand, Ty), CompileError> {
        let t = self.b().new_block();
        let f = self.b().new_block();
        let end = self.b().new_block();
        self.cond(c, t, f)?;
        // Evaluate both arms into a common register. The result type is
        // float if either arm is float, else int/pointer from the first arm.
        self.b().switch_to(t);
        let (va, ta) = self.expr(a)?;
        let sealed_a = self.b().current_block();
        self.b().switch_to(f);
        let (vb, tb) = self.expr(b)?;
        let sealed_b = self.b().current_block();
        let rty = if ta.is_float() || tb.is_float() {
            Ty::Float
        } else {
            ta.clone()
        };
        let class = if rty.is_float() {
            RegClass::Float
        } else {
            RegClass::Int
        };
        let dst = self.b().new_vreg(class);
        self.b().switch_to(sealed_a);
        let va = self.coerce(va, &ta, &rty, line)?;
        self.b().push(Inst::Copy { dst, a: va });
        self.b().terminate(Inst::Jump(end));
        self.b().switch_to(sealed_b);
        let vb = self.coerce(vb, &tb, &rty, line)?;
        self.b().push(Inst::Copy { dst, a: vb });
        self.b().terminate(Inst::Jump(end));
        self.b().switch_to(end);
        Ok((Operand::Reg(dst), rty))
    }

    fn call(
        &mut self,
        name: &str,
        args: &[Expr],
        line: u32,
    ) -> Result<(Operand, Ty), CompileError> {
        let (ret, ptys) = self
            .sigs
            .get(name)
            .cloned()
            .ok_or_else(|| CompileError::new(line, format!("unknown function '{name}'")))?;
        if args.len() != ptys.len() {
            return Err(CompileError::new(
                line,
                format!(
                    "'{name}' expects {} arguments, got {}",
                    ptys.len(),
                    args.len()
                ),
            ));
        }
        let mut ops = Vec::with_capacity(args.len());
        for (a, pty) in args.iter().zip(&ptys) {
            let (v, vty) = self.expr(a)?;
            ops.push(self.coerce(v, &vty, pty, a.line)?);
        }
        let func = self.func_ids[name];
        let dst = if ret == Ty::Void {
            None
        } else {
            let class = if ret.is_float() {
                RegClass::Float
            } else {
                RegClass::Int
            };
            Some(self.b().new_vreg(class))
        };
        self.b().push(Inst::Call {
            dst,
            func,
            args: ops,
        });
        match dst {
            Some(d) => Ok((Operand::Reg(d), ret)),
            None => Ok((Operand::Const(0), Ty::Int)),
        }
    }

    /// Insert conversions so a value of type `from` can be used as `to`.
    fn coerce(
        &mut self,
        v: Operand,
        from: &Ty,
        to: &Ty,
        line: u32,
    ) -> Result<Operand, CompileError> {
        let from = from.decay();
        let to = to.decay();
        if from == to {
            return Ok(v);
        }
        match (&from, &to) {
            // int-ish → float
            (Ty::Int | Ty::Char, Ty::Float) => {
                if let Operand::Const(c) = v {
                    return Ok(Operand::FConst(c as f32));
                }
                let dst = self.b().new_vreg(RegClass::Float);
                self.b().push(Inst::Cast {
                    kind: CastKind::IntToFloat,
                    dst,
                    a: v,
                });
                Ok(Operand::Reg(dst))
            }
            // float → int-ish
            (Ty::Float, Ty::Int | Ty::Char) => {
                if let Operand::FConst(c) = v {
                    let i = c as i32 as i64;
                    return self.coerce(Operand::Const(i), &Ty::Int, &to, line);
                }
                let dst = self.b().new_vreg(RegClass::Int);
                self.b().push(Inst::Cast {
                    kind: CastKind::FloatToInt,
                    dst,
                    a: v,
                });
                self.coerce(Operand::Reg(dst), &Ty::Int, &to, line)
            }
            // int → char: mask to 8 bits (char is unsigned).
            (Ty::Int | Ty::Ptr(_), Ty::Char) => {
                if let Operand::Const(c) = v {
                    return Ok(Operand::Const((c as u8) as i64));
                }
                let dst = self
                    .b()
                    .bin(BinOp::And, RegClass::Int, v, Operand::Const(0xFF));
                Ok(Operand::Reg(dst))
            }
            // char → int: already promoted.
            (Ty::Char, Ty::Int) => Ok(v),
            // pointer ↔ int and pointer ↔ pointer: bit-identical.
            (Ty::Ptr(_), Ty::Int) | (Ty::Int, Ty::Ptr(_)) | (Ty::Ptr(_), Ty::Ptr(_)) => Ok(v),
            // anything → void (expression statements): value dropped.
            (_, Ty::Void) => Ok(v),
            _ => Err(CompileError::new(
                line,
                format!("cannot convert {from} to {to}"),
            )),
        }
    }
}

fn width_of(ty: &Ty) -> Width {
    match ty {
        Ty::Char => Width::Byte,
        Ty::Float => Width::Float,
        _ => Width::Word,
    }
}

fn fold_int(op: BinOp, a: i32, b: i32) -> Option<i32> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 31),
        BinOp::Shr => ((a as u32) >> (b as u32 & 31)) as i32,
        BinOp::Sar => a >> (b as u32 & 31),
        _ => return None,
    })
}

/// Collect names that appear under unary `&` anywhere in the body.
fn collect_addr_taken(stmts: &[Stmt], out: &mut HashSet<String>) {
    fn walk_expr(e: &Expr, out: &mut HashSet<String>) {
        if let ExprKind::Un(UnKind::AddrOf, inner) = &e.kind {
            if let ExprKind::Ident(name) = &inner.kind {
                out.insert(name.clone());
            }
        }
        match &e.kind {
            ExprKind::Bin(_, a, b) | ExprKind::Assign(_, a, b) | ExprKind::Index(a, b) => {
                walk_expr(a, out);
                walk_expr(b, out);
            }
            ExprKind::Un(_, a) | ExprKind::IncDec(_, a) | ExprKind::Cast(_, a) => walk_expr(a, out),
            ExprKind::Ternary(c, a, b) => {
                walk_expr(c, out);
                walk_expr(a, out);
                walk_expr(b, out);
            }
            ExprKind::Call(_, args) => args.iter().for_each(|a| walk_expr(a, out)),
            _ => {}
        }
    }
    fn walk_stmt(s: &Stmt, out: &mut HashSet<String>) {
        match s {
            Stmt::Expr(e) => walk_expr(e, out),
            Stmt::Decl(items) => {
                for (_, _, init) in items {
                    if let Some(e) = init {
                        walk_expr(e, out);
                    }
                }
            }
            Stmt::If(c, t, e) => {
                walk_expr(c, out);
                walk_stmt(t, out);
                if let Some(e) = e {
                    walk_stmt(e, out);
                }
            }
            Stmt::While(c, b) => {
                walk_expr(c, out);
                walk_stmt(b, out);
            }
            Stmt::DoWhile(b, c) => {
                walk_stmt(b, out);
                walk_expr(c, out);
            }
            Stmt::For(i, c, st, b) => {
                if let Some(i) = i {
                    walk_stmt(i, out);
                }
                if let Some(c) = c {
                    walk_expr(c, out);
                }
                if let Some(st) = st {
                    walk_expr(st, out);
                }
                walk_stmt(b, out);
            }
            Stmt::Switch(e, arms) => {
                walk_expr(e, out);
                for arm in arms {
                    arm.body.iter().for_each(|s| walk_stmt(s, out));
                }
            }
            Stmt::Return(Some(e)) => walk_expr(e, out),
            Stmt::Block(b) => b.iter().for_each(|s| walk_stmt(s, out)),
            _ => {}
        }
    }
    stmts.iter().for_each(|s| walk_stmt(s, out));
}
