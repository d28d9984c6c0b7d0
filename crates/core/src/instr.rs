//! The instruction set and program representation.
//!
//! The paper works with an abstract RISC-like instruction set: arithmetic
//! ("+, etc."), `Branch`, `Load`, `Store` and `Fence` (Figure 1). Programs
//! here are straight-line per-thread instruction sequences with explicit
//! branch targets; registers are thread-local and read as zero until
//! written. Addresses are ordinary data, so a program can load a pointer
//! from memory and store through it — the ingredient needed for the
//! address-aliasing speculation study of section 5.

use std::collections::BTreeMap;
use std::fmt;

use crate::ids::{Addr, Reg, Value};

/// An operand: either a register or an immediate value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read a thread-local register (zero until first written).
    Reg(Reg),
    /// A constant value.
    Imm(Value),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<Value> for Operand {
    fn from(v: Value) -> Self {
        Operand::Imm(v)
    }
}

impl From<u64> for Operand {
    fn from(raw: u64) -> Self {
        Operand::Imm(Value::new(raw))
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "#{v}"),
        }
    }
}

/// Binary ALU operation ("+, etc." in the paper's table).
///
/// Comparisons produce `1` for true and `0` for false; arithmetic wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Equality test (1/0).
    Eq,
    /// Inequality test (1/0).
    Ne,
    /// Unsigned less-than test (1/0).
    Lt,
}

impl BinOp {
    /// Applies the operation to two values.
    ///
    /// # Examples
    ///
    /// ```
    /// use samm_core::instr::BinOp;
    /// use samm_core::ids::Value;
    /// let one = BinOp::Eq.apply(Value::new(5), Value::new(5));
    /// assert_eq!(one, Value::new(1));
    /// ```
    pub fn apply(self, lhs: Value, rhs: Value) -> Value {
        let (a, b) = (lhs.raw(), rhs.raw());
        let out = match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Eq => u64::from(a == b),
            BinOp::Ne => u64::from(a != b),
            BinOp::Lt => u64::from(a < b),
        };
        Value::new(out)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
        };
        f.write_str(s)
    }
}

/// The flavour of an atomic read-modify-write instruction.
///
/// The paper lists atomic primitives that "atomically combine Load and
/// Store actions" as a straightforward extension (section 8); in this
/// framework an RMW is a single graph node that participates in Store
/// Atomicity both as a load (it observes a source) and as a store (it may
/// be observed and may overwrite). Rules a and b then give RMW atomicity
/// for free: every other same-address store is ordered either before the
/// observed source or after the whole operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmwOp {
    /// `dst = old; Mem[addr] = src` — unconditional exchange.
    Swap,
    /// `dst = old; Mem[addr] = old + src` — atomic fetch-and-add.
    FetchAdd,
    /// `dst = old; if old == expect then Mem[addr] = src` —
    /// compare-and-swap. A failed CAS performs no store at all.
    Cas {
        /// The comparison operand.
        expect: Operand,
    },
}

impl fmt::Display for RmwOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RmwOp::Swap => write!(f, "swap"),
            RmwOp::FetchAdd => write!(f, "faa"),
            RmwOp::Cas { expect } => write!(f, "cas[{expect}]"),
        }
    }
}

/// One instruction of a thread program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `dst := src`. Pure register renaming; creates no graph node.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst := op(lhs, rhs)`. Creates a Compute node.
    Binop {
        /// Destination register.
        dst: Reg,
        /// The operation.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst := Mem[addr]`. Creates a Load node.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address operand (may be a computed pointer).
        addr: Operand,
    },
    /// `Mem[addr] := val`. Creates a Store node.
    Store {
        /// Address operand.
        addr: Operand,
        /// Value operand.
        val: Operand,
    },
    /// `dst := Mem[addr]; Mem[addr] := f(old, src)` atomically. Creates a
    /// single Rmw node acting as both Load and Store.
    Rmw {
        /// Destination register (receives the *old* value).
        dst: Reg,
        /// Address operand.
        addr: Operand,
        /// The read-modify-write flavour.
        op: RmwOp,
        /// The operand combined with (or replacing) the old value.
        src: Operand,
    },
    /// Memory fence: orders all prior loads/stores before all later ones
    /// under the weak model's table.
    Fence,
    /// Branch to `target` when `cond` is non-zero; fall through otherwise.
    /// Creates a Branch node; graph generation stops at an unresolved
    /// branch (paper section 4.1).
    BranchNz {
        /// Condition operand; taken when non-zero.
        cond: Operand,
        /// Instruction index to jump to when taken.
        target: usize,
    },
    /// Unconditional jump. Pure control flow; creates no graph node.
    Jump {
        /// Instruction index to jump to.
        target: usize,
    },
    /// Stop the thread.
    Halt,
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Mov { dst, src } => write!(f, "mov {dst}, {src}"),
            Instr::Binop { dst, op, lhs, rhs } => write!(f, "{dst} := {lhs} {op} {rhs}"),
            Instr::Load { dst, addr } => write!(f, "{dst} := L [{addr}]"),
            Instr::Store { addr, val } => write!(f, "S [{addr}], {val}"),
            Instr::Rmw { dst, addr, op, src } => write!(f, "{dst} := {op} [{addr}], {src}"),
            Instr::Fence => write!(f, "fence"),
            Instr::BranchNz { cond, target } => write!(f, "bnz {cond}, {target}"),
            Instr::Jump { target } => write!(f, "jmp {target}"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

/// The instruction sequence of one thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadProgram {
    instrs: Vec<Instr>,
}

impl ThreadProgram {
    /// Creates a thread program from an instruction sequence.
    ///
    /// # Panics
    ///
    /// Panics if a branch or jump targets an instruction index past the end
    /// of the sequence (the index one past the end is allowed and means
    /// "halt").
    pub fn new(instrs: Vec<Instr>) -> Self {
        for (i, instr) in instrs.iter().enumerate() {
            let target = match instr {
                Instr::BranchNz { target, .. } | Instr::Jump { target } => Some(*target),
                _ => None,
            };
            if let Some(t) = target {
                assert!(
                    t <= instrs.len(),
                    "instruction {i} targets {t}, past the end of the {}-instruction thread",
                    instrs.len()
                );
            }
        }
        ThreadProgram { instrs }
    }

    /// The instructions in program order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Returns `true` when the thread has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Highest register index used, plus one (the register file size).
    pub fn reg_count(&self) -> usize {
        let mut max: Option<usize> = None;
        let mut see = |op: &Operand| {
            if let Operand::Reg(r) = op {
                max = Some(max.map_or(r.index(), |m| m.max(r.index())));
            }
        };
        for instr in &self.instrs {
            match instr {
                Instr::Mov { dst, src } => {
                    see(&Operand::Reg(*dst));
                    see(src);
                }
                Instr::Binop { dst, lhs, rhs, .. } => {
                    see(&Operand::Reg(*dst));
                    see(lhs);
                    see(rhs);
                }
                Instr::Load { dst, addr } => {
                    see(&Operand::Reg(*dst));
                    see(addr);
                }
                Instr::Store { addr, val } => {
                    see(addr);
                    see(val);
                }
                Instr::Rmw { dst, addr, op, src } => {
                    see(&Operand::Reg(*dst));
                    see(addr);
                    see(src);
                    if let RmwOp::Cas { expect } = op {
                        see(expect);
                    }
                }
                Instr::BranchNz { cond, .. } => see(cond),
                Instr::Fence | Instr::Jump { .. } | Instr::Halt => {}
            }
        }
        max.map_or(0, |m| m + 1)
    }
}

impl FromIterator<Instr> for ThreadProgram {
    fn from_iter<I: IntoIterator<Item = Instr>>(iter: I) -> Self {
        ThreadProgram::new(iter.into_iter().collect())
    }
}

/// A whole multithreaded program plus its initial memory image.
///
/// # Examples
///
/// Classic store-buffering (SB) shape:
///
/// ```
/// use samm_core::instr::{Instr, Operand, Program, ThreadProgram};
/// use samm_core::ids::{Addr, Reg, Value};
///
/// let x = Addr::new(0);
/// let y = Addr::new(1);
/// let t0 = ThreadProgram::new(vec![
///     Instr::Store { addr: Operand::Imm(Value::from(x)), val: 1u64.into() },
///     Instr::Load { dst: Reg::new(0), addr: Operand::Imm(Value::from(y)) },
/// ]);
/// let t1 = ThreadProgram::new(vec![
///     Instr::Store { addr: Operand::Imm(Value::from(y)), val: 1u64.into() },
///     Instr::Load { dst: Reg::new(0), addr: Operand::Imm(Value::from(x)) },
/// ]);
/// let prog = Program::new(vec![t0, t1]);
/// assert_eq!(prog.threads().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    threads: Vec<ThreadProgram>,
    init: BTreeMap<Addr, Value>,
}

impl Program {
    /// Creates a program with all memory initialized to zero.
    pub fn new(threads: Vec<ThreadProgram>) -> Self {
        Program {
            threads,
            init: BTreeMap::new(),
        }
    }

    /// Creates a program with an explicit initial-memory image; addresses
    /// not listed read as zero.
    pub fn with_init(threads: Vec<ThreadProgram>, init: BTreeMap<Addr, Value>) -> Self {
        Program { threads, init }
    }

    /// The per-thread instruction sequences.
    pub fn threads(&self) -> &[ThreadProgram] {
        &self.threads
    }

    /// Initial value of `addr` (zero unless set).
    pub fn initial_value(&self, addr: Addr) -> Value {
        self.init.get(&addr).copied().unwrap_or(Value::ZERO)
    }

    /// The explicit (non-zero-default) initial-memory entries.
    pub fn init_entries(&self) -> impl Iterator<Item = (Addr, Value)> + '_ {
        self.init.iter().map(|(&a, &v)| (a, v))
    }

    /// Sets the initial value at `addr`.
    pub fn set_init(&mut self, addr: Addr, value: Value) {
        self.init.insert(addr, value);
    }

    /// Total static instruction count across all threads.
    pub fn instr_count(&self) -> usize {
        self.threads.iter().map(ThreadProgram::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_semantics() {
        let v = |x: u64| Value::new(x);
        assert_eq!(BinOp::Add.apply(v(u64::MAX), v(1)), v(0));
        assert_eq!(BinOp::Sub.apply(v(0), v(1)), v(u64::MAX));
        assert_eq!(BinOp::Mul.apply(v(3), v(4)), v(12));
        assert_eq!(BinOp::And.apply(v(0b1100), v(0b1010)), v(0b1000));
        assert_eq!(BinOp::Or.apply(v(0b1100), v(0b1010)), v(0b1110));
        assert_eq!(BinOp::Xor.apply(v(0b1100), v(0b1010)), v(0b0110));
        assert_eq!(BinOp::Eq.apply(v(7), v(7)), v(1));
        assert_eq!(BinOp::Eq.apply(v(7), v(8)), v(0));
        assert_eq!(BinOp::Ne.apply(v(7), v(8)), v(1));
        assert_eq!(BinOp::Lt.apply(v(7), v(8)), v(1));
        assert_eq!(BinOp::Lt.apply(v(8), v(7)), v(0));
    }

    #[test]
    fn reg_count_covers_all_positions() {
        let t = ThreadProgram::new(vec![
            Instr::Mov {
                dst: Reg::new(4),
                src: Operand::Imm(Value::new(0)),
            },
            Instr::Load {
                dst: Reg::new(1),
                addr: Operand::Reg(Reg::new(9)),
            },
        ]);
        assert_eq!(t.reg_count(), 10);
    }

    #[test]
    fn reg_count_of_regless_thread_is_zero() {
        let t = ThreadProgram::new(vec![Instr::Fence, Instr::Halt]);
        assert_eq!(t.reg_count(), 0);
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn branch_target_is_validated() {
        let _ = ThreadProgram::new(vec![Instr::Jump { target: 5 }]);
    }

    #[test]
    fn branch_target_one_past_end_means_halt() {
        let t = ThreadProgram::new(vec![Instr::Jump { target: 1 }]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn initial_memory_defaults_to_zero() {
        let mut p = Program::new(vec![]);
        assert_eq!(p.initial_value(Addr::new(9)), Value::ZERO);
        p.set_init(Addr::new(9), Value::new(42));
        assert_eq!(p.initial_value(Addr::new(9)), Value::new(42));
        assert_eq!(p.init_entries().count(), 1);
    }

    #[test]
    fn display_forms() {
        let i = Instr::Store {
            addr: Operand::Reg(Reg::new(0)),
            val: Operand::Imm(Value::new(7)),
        };
        assert_eq!(i.to_string(), "S [r0], #7");
        let l = Instr::Load {
            dst: Reg::new(2),
            addr: 5u64.into(),
        };
        assert_eq!(l.to_string(), "r2 := L [#5]");
    }

    #[test]
    fn thread_program_from_iterator() {
        let t: ThreadProgram = [Instr::Fence, Instr::Halt].into_iter().collect();
        assert_eq!(t.len(), 2);
    }
}
