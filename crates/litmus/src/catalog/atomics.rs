//! Atomic read-modify-write litmus tests (the paper's section-8 extension:
//! "atomic memory primitives such as Compare and Swap which atomically
//! combine Load and Store actions").
//!
//! In the graph framework an RMW is one node with both a Load and a Store
//! facet; Store Atomicity rules a and b then yield RMW atomicity with no
//! extra machinery — two competing RMWs observing the same source
//! contradict each other through rule b, so "both succeed" outcomes are
//! cycles. These entries check exactly that, and the paper's suggested use
//! ("to check that a locking algorithm meets its specification").

use super::{CatalogEntry, ModelSel};
use crate::builder::LitmusBuilder;

use ModelSel::{NaiveTso, Pso, Sc, Tso, Weak, WeakSpec};

/// Test-and-set mutual exclusion: two threads race a CAS on a lock word.
/// At most one may observe the initial value — in *every* model.
pub fn cas_mutex() -> CatalogEntry {
    let test = LitmusBuilder::new("CAS-mutex")
        .thread("P0", |t| {
            t.cas("r0", "lock", 0, 1);
        })
        .thread("P1", |t| {
            t.cas("r0", "lock", 0, 1);
        })
        .forbid(&[("P0", "r0", 0), ("P1", "r0", 0)])
        .allow(&[("P0", "r0", 0), ("P1", "r0", 1)])
        .allow(&[("P0", "r0", 1), ("P1", "r0", 0)])
        .build()
        .expect("CAS-mutex compiles");
    let mut verdicts = Vec::new();
    for model in [Sc, NaiveTso, Tso, Pso, Weak, WeakSpec] {
        verdicts.push((0, model, false));
        verdicts.push((1, model, true));
        verdicts.push((2, model, true));
    }
    CatalogEntry::new(
        test,
        "compare-and-swap is atomic: both threads acquiring the lock is a \
         Store Atomicity cycle in every model",
        &verdicts,
    )
}

/// Two atomic fetch-and-adds on a counter: the observed old values must
/// be distinct ({0,1} in some order), never both 0 and never both 1.
pub fn atomic_increment() -> CatalogEntry {
    let test = LitmusBuilder::new("FAA-incr")
        .thread("P0", |t| {
            t.fetch_add("r0", "c", 1);
        })
        .thread("P1", |t| {
            t.fetch_add("r0", "c", 1);
        })
        .forbid(&[("P0", "r0", 0), ("P1", "r0", 0)])
        .forbid(&[("P0", "r0", 1), ("P1", "r0", 1)])
        .allow(&[("P0", "r0", 0), ("P1", "r0", 1)])
        .allow(&[("P0", "r0", 1), ("P1", "r0", 0)])
        .build()
        .expect("FAA-incr compiles");
    let mut verdicts = Vec::new();
    for model in [Sc, NaiveTso, Tso, Pso, Weak, WeakSpec] {
        verdicts.push((0, model, false));
        verdicts.push((1, model, false));
        verdicts.push((2, model, true));
        verdicts.push((3, model, true));
    }
    CatalogEntry::new(
        test,
        "atomic increments serialize: the two fetch-and-adds observe \
         distinct old values in every model",
        &verdicts,
    )
}

/// The broken (non-atomic) counterpart of [`atomic_increment`]: a plain
/// load/add/store sequence races, and *both* threads may read 0 — even
/// under Sequential Consistency. The lost update is a data race, not a
/// memory-model artifact.
pub fn broken_increment() -> CatalogEntry {
    let test = LitmusBuilder::new("broken-incr")
        .thread("P0", |t| {
            t.load("r0", "c")
                .binop(
                    "r1",
                    samm_core::instr::BinOp::Add,
                    crate::ast::SymOperand::reg("r0"),
                    1.into(),
                )
                .store_reg("c", "r1");
        })
        .thread("P1", |t| {
            t.load("r0", "c")
                .binop(
                    "r1",
                    samm_core::instr::BinOp::Add,
                    crate::ast::SymOperand::reg("r0"),
                    1.into(),
                )
                .store_reg("c", "r1");
        })
        .allow(&[("P0", "r0", 0), ("P1", "r0", 0)])
        .build()
        .expect("broken-incr compiles");
    let mut verdicts = Vec::new();
    for model in [Sc, Tso, Pso, Weak, WeakSpec] {
        verdicts.push((0, model, true));
    }
    CatalogEntry::new(
        test,
        "the non-atomic load/add/store increment races even under SC — \
         the contrast that motivates atomic primitives",
        &verdicts,
    )
}

/// Store buffering with atomic exchanges: `swap` drains the store buffer
/// (acts like a locked instruction), so TSO forbids the 0/0 outcome that
/// plain SB allows — while the weak model still reorders the trailing
/// loads.
pub fn swap_sb() -> CatalogEntry {
    let test = LitmusBuilder::new("SB+swap")
        .thread("P0", |t| {
            t.swap("r0", "x", 1).load("r1", "y");
        })
        .thread("P1", |t| {
            t.swap("r0", "y", 1).load("r1", "x");
        })
        .forbid(&[("P0", "r1", 0), ("P1", "r1", 0)])
        .build()
        .expect("SB+swap compiles");
    CatalogEntry::new(
        test,
        "atomic exchange restores SC for store buffering under TSO/PSO \
         (locked instructions drain the buffer); the weak model still \
         reorders the loads",
        &[
            (0, Sc, false),
            (0, NaiveTso, false),
            (0, Tso, false),
            (0, Pso, false),
            (0, Weak, true),
            (0, WeakSpec, true),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use samm_core::enumerate::{enumerate, EnumConfig};
    use samm_core::policy::Policy;

    #[test]
    fn cas_mutex_outcomes_under_weak() {
        let entry = cas_mutex();
        let r = enumerate(&entry.test.program, &Policy::weak(), &EnumConfig::default()).unwrap();
        // Exactly the two single-winner outcomes.
        assert_eq!(r.outcomes.len(), 2, "{}", r.outcomes);
        assert!(
            r.stats.rolled_back > 0,
            "the both-win fork must be rejected"
        );
    }

    #[test]
    fn faa_old_values_partition() {
        let entry = atomic_increment();
        let r = enumerate(&entry.test.program, &Policy::weak(), &EnumConfig::default()).unwrap();
        assert_eq!(r.outcomes.len(), 2);
    }
}
