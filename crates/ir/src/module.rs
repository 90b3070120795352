//! Modules, functions, basic blocks, globals, and the symbol table.

use std::collections::HashMap;
use std::fmt;

use crate::inst::{BlockId, Inst, RegClass, VReg};
use crate::types::Ty;

/// Index into a module's symbol table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymId(pub u32);

/// Index into a function's stack-slot table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(pub u32);

/// What a module-level symbol refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Symbol {
    /// A function, by index into [`Module::functions`].
    Func(usize),
    /// A global variable, by index into [`Module::globals`].
    Global(usize),
}

/// Initializer of a global variable.
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalInit {
    /// Zero-initialized (BSS).
    Zero,
    /// Raw bytes (string literals, char arrays).
    Bytes(Vec<u8>),
    /// 32-bit little-endian words (int/float/pointer-free data).
    Words(Vec<i32>),
}

/// A global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Source-level name.
    pub name: String,
    /// Declared type (determines size).
    pub ty: Ty,
    /// Initial contents.
    pub init: GlobalInit,
}

impl Global {
    /// Size in bytes this global occupies in the data segment.
    pub fn size(&self) -> usize {
        self.ty.size()
    }
}

/// A stack slot (local array or address-taken scalar).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotInfo {
    /// Size in bytes.
    pub size: usize,
    /// Required alignment in bytes.
    pub align: usize,
}

/// A basic block: straight-line instructions ending in one terminator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Instructions; the last one must be a terminator once the function
    /// is complete.
    pub insts: Vec<Inst>,
}

impl Block {
    /// The block's terminator.
    ///
    /// # Panics
    ///
    /// Panics if the block is empty or does not end in a terminator;
    /// finished functions always satisfy this invariant.
    pub fn term(&self) -> &Inst {
        let last = self.insts.last().expect("empty block");
        assert!(last.is_terminator(), "block does not end in terminator");
        last
    }

    /// The non-terminator body of the block.
    pub fn body(&self) -> &[Inst] {
        &self.insts[..self.insts.len() - 1]
    }
}

/// A function in IR form.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Source-level name.
    pub name: String,
    /// Return type.
    pub ret_ty: Ty,
    /// Parameter virtual registers with their types, in declaration order.
    pub params: Vec<(VReg, Ty)>,
    /// Basic blocks, indexed by [`BlockId`]. Block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Register class of every virtual register.
    pub vregs: Vec<RegClass>,
    /// Stack slots.
    pub slots: Vec<SlotInfo>,
}

impl Function {
    /// The entry block id (always block 0).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Look up a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Iterate over `(BlockId, &Block)` pairs in index order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Number of virtual registers.
    pub fn num_vregs(&self) -> usize {
        self.vregs.len()
    }

    /// Register class of a virtual register.
    pub fn class_of(&self, v: VReg) -> RegClass {
        self.vregs[v.0 as usize]
    }

    /// Allocate a fresh virtual register of the given class.
    pub fn new_vreg(&mut self, class: RegClass) -> VReg {
        let v = VReg(self.vregs.len() as u32);
        self.vregs.push(class);
        v
    }

    /// Verify structural invariants: every block ends in exactly one
    /// terminator, terminators appear only at block ends, and all branch
    /// targets are in range.
    ///
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.blocks.is_empty() {
            return Err(format!("function {}: no blocks", self.name));
        }
        for (id, b) in self.iter_blocks() {
            if b.insts.is_empty() {
                return Err(format!("{}:{id}: empty block", self.name));
            }
            for (i, inst) in b.insts.iter().enumerate() {
                let last = i + 1 == b.insts.len();
                if inst.is_terminator() != last {
                    return Err(format!("{}:{id}: misplaced terminator {inst}", self.name));
                }
            }
            for t in b.term().successors() {
                if t.0 as usize >= self.blocks.len() {
                    return Err(format!("{}:{id}: branch to missing block {t}", self.name));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}(", self.ret_ty, self.name)?;
        for (i, (v, t)) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t} {v}")?;
        }
        writeln!(f, ") {{")?;
        for (id, b) in self.iter_blocks() {
            writeln!(f, "{id}:")?;
            for inst in &b.insts {
                writeln!(f, "    {inst}")?;
            }
        }
        writeln!(f, "}}")
    }
}

/// A compilation unit: functions plus globals plus the symbol table that
/// lets instructions refer to either.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// All functions.
    pub functions: Vec<Function>,
    /// All global variables.
    pub globals: Vec<Global>,
    symbols: Vec<(String, Symbol)>,
    by_name: HashMap<String, SymId>,
}

impl Module {
    /// Create an empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Add a function, registering it in the symbol table.
    ///
    /// # Panics
    ///
    /// Panics if a symbol with the same name already exists.
    pub fn add_function(&mut self, f: Function) -> SymId {
        let name = f.name.clone();
        let idx = self.functions.len();
        self.functions.push(f);
        self.intern(name, Symbol::Func(idx))
    }

    /// Add a global, registering it in the symbol table.
    ///
    /// # Panics
    ///
    /// Panics if a symbol with the same name already exists.
    pub fn add_global(&mut self, g: Global) -> SymId {
        let name = g.name.clone();
        let idx = self.globals.len();
        self.globals.push(g);
        self.intern(name, Symbol::Global(idx))
    }

    /// Pre-declare a function name (for forward references); the function
    /// body must be installed later via [`Module::define_function`].
    pub fn declare_function(&mut self, name: &str, ret_ty: Ty, params: Vec<Ty>) -> SymId {
        let f = Function {
            name: name.to_string(),
            ret_ty,
            params: params.into_iter().map(|t| (VReg(0), t)).collect(),
            blocks: Vec::new(),
            vregs: Vec::new(),
            slots: Vec::new(),
        };
        self.add_function(f)
    }

    /// Replace the body of a previously declared function.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name a function.
    pub fn define_function(&mut self, id: SymId, f: Function) {
        match *self.symbol(id) {
            Symbol::Func(idx) => self.functions[idx] = f,
            _ => panic!("symbol is not a function"),
        }
    }

    fn intern(&mut self, name: String, sym: Symbol) -> SymId {
        assert!(!self.by_name.contains_key(&name), "duplicate symbol {name}");
        let id = SymId(self.symbols.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.symbols.push((name, sym));
        id
    }

    /// Resolve a symbol id.
    pub fn symbol(&self, id: SymId) -> &Symbol {
        &self.symbols[id.0 as usize].1
    }

    /// Name of a symbol.
    pub fn symbol_name(&self, id: SymId) -> &str {
        &self.symbols[id.0 as usize].0
    }

    /// Look up a symbol id by name.
    pub fn lookup(&self, name: &str) -> Option<SymId> {
        self.by_name.get(name).copied()
    }

    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        match self.lookup(name).map(|id| self.symbol(id))? {
            Symbol::Func(idx) => Some(&self.functions[*idx]),
            _ => None,
        }
    }

    /// The function a symbol refers to, if it is one.
    pub fn func_of(&self, id: SymId) -> Option<&Function> {
        match self.symbol(id) {
            Symbol::Func(idx) => Some(&self.functions[*idx]),
            _ => None,
        }
    }

    /// The global a symbol refers to, if it is one.
    pub fn global_of(&self, id: SymId) -> Option<&Global> {
        match self.symbol(id) {
            Symbol::Global(idx) => Some(&self.globals[*idx]),
            _ => None,
        }
    }

    /// Iterate over all symbols.
    pub fn iter_symbols(&self) -> impl Iterator<Item = (SymId, &str, &Symbol)> {
        self.symbols
            .iter()
            .enumerate()
            .map(|(i, (n, s))| (SymId(i as u32), n.as_str(), s))
    }

    /// Validate every function in the module.
    pub fn validate(&self) -> Result<(), String> {
        for f in &self.functions {
            f.validate()?;
        }
        Ok(())
    }

    /// A stable 64-bit content fingerprint of the module: FNV-1a over
    /// the textual IR rendering plus every global's initializer bytes
    /// (the rendering names globals but elides their contents). Two
    /// modules with the same fingerprint compile to the same code under
    /// the same codegen options — this is the content-address the
    /// `br-serve` artifact cache keys compiled programs by. The hash is
    /// platform- and toolchain-independent: it folds only the bytes of
    /// the deterministic `Display` output and the initializer words.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        fold(self.to_string().as_bytes());
        for g in &self.globals {
            fold(g.name.as_bytes());
            match &g.init {
                GlobalInit::Zero => fold(&[0]),
                GlobalInit::Bytes(b) => {
                    fold(&[1]);
                    fold(b);
                }
                GlobalInit::Words(ws) => {
                    fold(&[2]);
                    for w in ws {
                        fold(&w.to_le_bytes());
                    }
                }
            }
        }
        h
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for g in &self.globals {
            writeln!(f, "global {} {};", g.ty, g.name)?;
        }
        for func in &self.functions {
            writeln!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Operand;

    fn ret42() -> Function {
        Function {
            name: "f".into(),
            ret_ty: Ty::Int,
            params: vec![],
            blocks: vec![Block {
                insts: vec![Inst::Ret(Some(Operand::Const(42)))],
            }],
            vregs: vec![],
            slots: vec![],
        }
    }

    #[test]
    fn symbols_resolve_by_name() {
        let mut m = Module::new();
        let gid = m.add_global(Global {
            name: "g".into(),
            ty: Ty::Int,
            init: GlobalInit::Zero,
        });
        let fid = m.add_function(ret42());
        assert_eq!(m.lookup("g"), Some(gid));
        assert_eq!(m.lookup("f"), Some(fid));
        assert!(m.function("f").is_some());
        assert!(m.global_of(gid).is_some());
        assert!(m.func_of(gid).is_none());
        assert_eq!(m.symbol_name(fid), "f");
    }

    #[test]
    #[should_panic(expected = "duplicate symbol")]
    fn duplicate_names_panic() {
        let mut m = Module::new();
        m.add_function(ret42());
        m.add_function(ret42());
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert_eq!(ret42().validate(), Ok(()));
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let mut a = Module::new();
        a.add_function(ret42());
        let mut b = Module::new();
        b.add_function(ret42());
        assert_eq!(a.fingerprint(), b.fingerprint(), "same content, same key");

        // A change the rendering shows moves the fingerprint.
        let mut c = Module::new();
        let mut f = ret42();
        f.blocks[0].insts = vec![Inst::Ret(Some(Operand::Const(43)))];
        c.add_function(f);
        assert_ne!(a.fingerprint(), c.fingerprint());

        // A change only in initializer bytes (invisible to Display)
        // still moves the fingerprint.
        let mut d1 = Module::new();
        d1.add_global(Global {
            name: "g".into(),
            ty: Ty::Int,
            init: GlobalInit::Words(vec![1]),
        });
        d1.add_function(ret42());
        let mut d2 = Module::new();
        d2.add_global(Global {
            name: "g".into(),
            ty: Ty::Int,
            init: GlobalInit::Words(vec![2]),
        });
        d2.add_function(ret42());
        assert_ne!(d1.fingerprint(), d2.fingerprint());
    }

    #[test]
    fn validate_rejects_missing_terminator() {
        let mut f = ret42();
        f.blocks[0].insts = vec![Inst::Copy {
            dst: VReg(0),
            a: Operand::Const(1),
        }];
        f.vregs.push(RegClass::Int);
        assert!(f.validate().is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_target() {
        let mut f = ret42();
        f.blocks[0].insts = vec![Inst::Jump(BlockId(7))];
        assert!(f.validate().is_err());
    }

    #[test]
    fn define_function_replaces_declaration() {
        let mut m = Module::new();
        let id = m.declare_function("g", Ty::Int, vec![Ty::Int]);
        let mut f = ret42();
        f.name = "g".into();
        m.define_function(id, f);
        assert_eq!(m.function("g").unwrap().blocks.len(), 1);
    }
}
