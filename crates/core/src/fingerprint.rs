//! Content-addressed query fingerprints.
//!
//! A litmus *query* — "enumerate this program under this policy with this
//! configuration" — is pure: the answer depends only on the program text,
//! the cells of the reordering table the program can reach, and the
//! handful of [`EnumConfig`] switches that change the reported
//! statistics. [`view_fingerprint`] hashes a canonical byte encoding of
//! exactly those inputs — program, [`TableView`], config — into a stable
//! 128-bit [`Fingerprint`], the key of the result cache in
//! [`crate::cache`] and of the `samm-serve` service layer.
//! [`query_fingerprint`] is the same key computed from a full policy.
//!
//! Two queries share a fingerprint iff a cached answer for one is a
//! bit-identical answer for the other:
//!
//! * the **program** is encoded instruction by instruction (opcode tags,
//!   operand tags, raw register/address/value bits) plus the initial
//!   memory image — *not* via `Debug` output, so the encoding is stable
//!   across compiler versions and cosmetic refactors;
//! * the **policy** is encoded as the program's [`TableView`] of it: the
//!   normalised cells of every same-thread pair the engine may consult,
//!   plus the speculation flag where a register-held address can feel
//!   it. Policies with equal views run the same search step for step
//!   and give the same outcomes and deterministic statistics, so they
//!   share one entry. The display name never takes part;
//! * of the **configuration**, only `dedup`, `observe`,
//!   `max_behaviors` and `max_nodes_per_thread` participate. `dedup`
//!   and `observe` change the reported statistics (explored/deduped
//!   counts, presence of [`ObsStats`](crate::obs::ObsStats)); the two
//!   limits are included conservatively. `keep_executions` never
//!   changes a successful answer, and `budget` is a per-request fuel
//!   allowance, not part of the answer — a cache hit costs no fuel (see
//!   [`crate::cache`]).
//!
//! A view is only meaningful beside its program, which is why the
//! program is always hashed in with it.
//!
//! The hash is FNV-1a/128 over the tagged encoding, prefixed with a
//! format version so persisted caches self-invalidate when the encoding
//! changes.

use std::fmt;

use crate::enumerate::EnumConfig;
use crate::instr::{BinOp, Instr, Operand, Program, RmwOp};
use crate::policy::{Constraint, Policy};
use crate::static_order::TableView;

/// Bumped whenever the canonical encoding changes; persisted cache
/// entries carry it implicitly through their fingerprints.
pub const FINGERPRINT_VERSION: u8 = 2;

/// A stable 128-bit content hash of a litmus query.
///
/// Displayed (and parsed) as 32 lowercase hex digits.
///
/// # Examples
///
/// ```
/// use samm_core::fingerprint::{query_fingerprint, Fingerprint};
/// use samm_core::enumerate::EnumConfig;
/// use samm_core::instr::{Instr, Program, ThreadProgram};
/// use samm_core::ids::Reg;
/// use samm_core::policy::Policy;
///
/// let t = |a: u64, b: u64| ThreadProgram::new(vec![
///     Instr::Store { addr: a.into(), val: 1u64.into() },
///     Instr::Load { dst: Reg::new(0), addr: b.into() },
/// ]);
/// let sb = Program::new(vec![t(0, 1), t(1, 0)]);
/// let config = EnumConfig::default();
/// let weak = query_fingerprint(&sb, &Policy::weak(), &config);
/// let sc = query_fingerprint(&sb, &Policy::sequential_consistency(), &config);
/// assert_ne!(weak, sc);
/// let roundtrip = Fingerprint::from_hex(&weak.to_string()).unwrap();
/// assert_eq!(roundtrip, weak);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// The raw 128 bits.
    #[inline]
    pub const fn raw(self) -> u128 {
        self.0
    }

    /// Reconstructs a fingerprint from its raw bits.
    #[inline]
    pub const fn from_raw(raw: u128) -> Self {
        Fingerprint(raw)
    }

    /// Parses the 32-hex-digit rendering produced by `Display`.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// An incremental FNV-1a/128 hasher over tagged bytes.
///
/// Exposed so callers with bespoke inputs (e.g. the service layer keying
/// on raw litmus source) can derive compatible fingerprints.
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    state: u128,
}

const FNV_OFFSET_128: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME_128: u128 = 0x0000000001000000000000000000013b;

impl FingerprintHasher {
    /// A fresh hasher, seeded with [`FINGERPRINT_VERSION`].
    pub fn new() -> Self {
        let mut h = FingerprintHasher {
            state: FNV_OFFSET_128,
        };
        h.write_u8(FINGERPRINT_VERSION);
        h
    }

    /// Absorbs one byte.
    #[inline]
    pub fn write_u8(&mut self, byte: u8) {
        self.state ^= u128::from(byte);
        self.state = self.state.wrapping_mul(FNV_PRIME_128);
    }

    /// Absorbs a little-endian `u64`.
    pub fn write_u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.write_u8(byte);
        }
    }

    /// Absorbs a `usize` (widened to `u64` so 32- and 64-bit hosts
    /// agree).
    pub fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    /// Absorbs a length-prefixed byte string (self-delimiting, so
    /// adjacent fields cannot alias).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Finalizes the hash.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

impl Default for FingerprintHasher {
    fn default() -> Self {
        FingerprintHasher::new()
    }
}

fn write_operand(h: &mut FingerprintHasher, op: &Operand) {
    match op {
        Operand::Reg(r) => {
            h.write_u8(0);
            h.write_usize(r.index());
        }
        Operand::Imm(v) => {
            h.write_u8(1);
            h.write_u64(v.raw());
        }
    }
}

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::And => 3,
        BinOp::Or => 4,
        BinOp::Xor => 5,
        BinOp::Eq => 6,
        BinOp::Ne => 7,
        BinOp::Lt => 8,
    }
}

fn write_instr(h: &mut FingerprintHasher, instr: &Instr) {
    match instr {
        Instr::Mov { dst, src } => {
            h.write_u8(0);
            h.write_usize(dst.index());
            write_operand(h, src);
        }
        Instr::Binop { dst, op, lhs, rhs } => {
            h.write_u8(1);
            h.write_usize(dst.index());
            h.write_u8(binop_tag(*op));
            write_operand(h, lhs);
            write_operand(h, rhs);
        }
        Instr::Load { dst, addr } => {
            h.write_u8(2);
            h.write_usize(dst.index());
            write_operand(h, addr);
        }
        Instr::Store { addr, val } => {
            h.write_u8(3);
            write_operand(h, addr);
            write_operand(h, val);
        }
        Instr::Rmw { dst, addr, op, src } => {
            h.write_u8(4);
            h.write_usize(dst.index());
            write_operand(h, addr);
            match op {
                RmwOp::Swap => h.write_u8(0),
                RmwOp::FetchAdd => h.write_u8(1),
                RmwOp::Cas { expect } => {
                    h.write_u8(2);
                    write_operand(h, expect);
                }
            }
            write_operand(h, src);
        }
        Instr::Fence => h.write_u8(5),
        Instr::BranchNz { cond, target } => {
            h.write_u8(6);
            write_operand(h, cond);
            h.write_usize(*target);
        }
        Instr::Jump { target } => {
            h.write_u8(7);
            h.write_usize(*target);
        }
        Instr::Halt => h.write_u8(8),
    }
}

/// Absorbs a whole program: thread count, each thread's instruction
/// sequence, and the explicit initial-memory image (already normalized —
/// `BTreeMap` iteration is address-ordered).
pub fn write_program(h: &mut FingerprintHasher, program: &Program) {
    h.write_usize(program.threads().len());
    for thread in program.threads() {
        h.write_usize(thread.len());
        for instr in thread.instrs() {
            write_instr(h, instr);
        }
    }
    let init: Vec<_> = program.init_entries().collect();
    h.write_usize(init.len());
    for (addr, value) in init {
        h.write_u64(addr.raw());
        h.write_u64(value.raw());
    }
}

fn constraint_tag(c: Constraint) -> u8 {
    match c {
        Constraint::Free => 0,
        Constraint::DataOnly => 1,
        Constraint::Never => 2,
        Constraint::SameAddr => 3,
        Constraint::Bypass => 4,
    }
}

/// Absorbs a table view: per thread, its normalised cells in recorded
/// pair order (each list length-prefixed), then the speculation flag.
pub fn write_view(h: &mut FingerprintHasher, view: &TableView) {
    h.write_usize(view.cells.len());
    for thread in &view.cells {
        h.write_usize(thread.len());
        for &cell in thread {
            h.write_u8(constraint_tag(cell));
        }
    }
    h.write_u8(u8::from(view.alias_speculation));
}

/// Absorbs the answer-relevant [`EnumConfig`] fields (see the module
/// docs for which fields participate and why).
pub fn write_config(h: &mut FingerprintHasher, config: &EnumConfig) {
    h.write_u8(u8::from(config.dedup));
    h.write_u8(u8::from(config.observe));
    h.write_usize(config.max_behaviors);
    h.write_u64(u64::from(config.max_nodes_per_thread));
}

/// The content fingerprint of one enumeration query: `program` under
/// any policy whose view from it is `view`.
///
/// Stable across processes, platforms and (modulo
/// [`FINGERPRINT_VERSION`] bumps) releases.
pub fn view_fingerprint(program: &Program, view: &TableView, config: &EnumConfig) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    write_program(&mut h, program);
    write_view(&mut h, view);
    write_config(&mut h, config);
    h.finish()
}

/// The content fingerprint of `program` under `policy`:
/// [`view_fingerprint`] of the policy's [`TableView`] from the program.
pub fn query_fingerprint(program: &Program, policy: &Policy, config: &EnumConfig) -> Fingerprint {
    view_fingerprint(program, &TableView::of(program, policy), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Reg;
    use crate::instr::{Program, ThreadProgram};

    fn sb() -> Program {
        let t = |a: u64, b: u64| {
            ThreadProgram::new(vec![
                Instr::Store {
                    addr: a.into(),
                    val: 1u64.into(),
                },
                Instr::Load {
                    dst: Reg::new(0),
                    addr: b.into(),
                },
            ])
        };
        Program::new(vec![t(0, 1), t(1, 0)])
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let config = EnumConfig::default();
        let a = query_fingerprint(&sb(), &Policy::weak(), &config);
        let b = query_fingerprint(&sb(), &Policy::weak(), &config);
        assert_eq!(a, b);
    }

    #[test]
    fn program_changes_change_the_fingerprint() {
        let config = EnumConfig::default();
        let base = query_fingerprint(&sb(), &Policy::weak(), &config);
        let mut mutated = sb();
        mutated.set_init(crate::ids::Addr::new(0), crate::ids::Value::new(9));
        assert_ne!(base, query_fingerprint(&mutated, &Policy::weak(), &config));
        let reordered = {
            let t = |a: u64, b: u64| {
                ThreadProgram::new(vec![
                    Instr::Load {
                        dst: Reg::new(0),
                        addr: b.into(),
                    },
                    Instr::Store {
                        addr: a.into(),
                        val: 1u64.into(),
                    },
                ])
            };
            Program::new(vec![t(0, 1), t(1, 0)])
        };
        assert_ne!(
            base,
            query_fingerprint(&reordered, &Policy::weak(), &config)
        );
    }

    #[test]
    fn sb_tells_sc_from_weak() {
        let config = EnumConfig::default();
        assert_ne!(
            query_fingerprint(&sb(), &Policy::weak(), &config),
            query_fingerprint(&sb(), &Policy::sequential_consistency(), &config)
        );
    }

    #[test]
    fn cells_the_program_cannot_reach_do_not_matter() {
        use crate::policy::OpClass::{Fence, Load, Store};
        let config = EnumConfig::default();
        let weak = query_fingerprint(&sb(), &Policy::weak(), &config);
        // SB's threads are `S x; L y` with distinct immediate addresses:
        // the load->load and fence cells are never consulted, and the
        // store->load `x != y` entry decides nothing between x and y.
        let table = Policy::weak()
            .table()
            .with_entry(Load, Load, Constraint::Never)
            .with_entry(Fence, Fence, Constraint::Never)
            .with_entry(Store, Load, Constraint::Free);
        let other = Policy::custom("NotWeak", table);
        assert_ne!(other.table(), Policy::weak().table());
        assert_eq!(weak, query_fingerprint(&sb(), &other, &config));
        // The one cell SB reads does matter.
        let ordered = Policy::custom(
            "Weak",
            Policy::weak()
                .table()
                .with_entry(Store, Load, Constraint::Never),
        );
        assert_ne!(weak, query_fingerprint(&sb(), &ordered, &config));
    }

    #[test]
    fn speculation_matters_only_behind_a_register_held_address() {
        let config = EnumConfig::default();
        let spec = Policy::weak().with_alias_speculation(true);
        assert_eq!(
            query_fingerprint(&sb(), &Policy::weak(), &config),
            query_fingerprint(&sb(), &spec, &config),
            "SB's addresses are immediates"
        );
        // `r0 = L x; S [r0]; r1 = L y`: the store's address is held in a
        // register, and store->load is address-sensitive under Weak.
        let indirect = Program::new(vec![ThreadProgram::new(vec![
            Instr::Load {
                dst: Reg::new(0),
                addr: 0u64.into(),
            },
            Instr::Store {
                addr: Operand::Reg(Reg::new(0)),
                val: 1u64.into(),
            },
            Instr::Load {
                dst: Reg::new(1),
                addr: 1u64.into(),
            },
        ])]);
        assert_ne!(
            query_fingerprint(&indirect, &Policy::weak(), &config),
            query_fingerprint(&indirect, &spec, &config)
        );
        // Under SC every such cell is `never`: no edge to skip.
        let sc = Policy::sequential_consistency();
        assert_eq!(
            query_fingerprint(&indirect, &sc, &config),
            query_fingerprint(&indirect, &sc.clone().with_alias_speculation(true), &config)
        );
    }

    #[test]
    fn answer_irrelevant_config_fields_are_excluded() {
        let base = EnumConfig::default();
        let fp = query_fingerprint(&sb(), &Policy::weak(), &base);
        let mut same = base.clone();
        same.keep_executions = !base.keep_executions;
        same.budget = Some(42);
        assert_eq!(fp, query_fingerprint(&sb(), &Policy::weak(), &same));
        let mut diff = base.clone();
        diff.observe = true;
        assert_ne!(fp, query_fingerprint(&sb(), &Policy::weak(), &diff));
        let mut diff = base.clone();
        diff.dedup = false;
        assert_ne!(fp, query_fingerprint(&sb(), &Policy::weak(), &diff));
        let mut diff = base;
        diff.max_nodes_per_thread = 8;
        assert_ne!(fp, query_fingerprint(&sb(), &Policy::weak(), &diff));
    }

    #[test]
    fn hex_round_trip() {
        let fp = query_fingerprint(&sb(), &Policy::tso(), &EnumConfig::default());
        let hex = fp.to_string();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fingerprint::from_hex(&hex), Some(fp));
        assert_eq!(Fingerprint::from_hex("zz"), None);
        assert_eq!(Fingerprint::from_hex(&hex[..31]), None);
    }

    #[test]
    fn length_prefixing_prevents_field_aliasing() {
        // One thread of [S;S] must differ from two threads of [S] each.
        let store = Instr::Store {
            addr: 0u64.into(),
            val: 1u64.into(),
        };
        let one = Program::new(vec![ThreadProgram::new(vec![store, store])]);
        let two = Program::new(vec![
            ThreadProgram::new(vec![store]),
            ThreadProgram::new(vec![store]),
        ]);
        let config = EnumConfig::default();
        assert_ne!(
            query_fingerprint(&one, &Policy::weak(), &config),
            query_fingerprint(&two, &Policy::weak(), &config)
        );
    }
}
