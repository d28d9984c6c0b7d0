//! Address-aliasing speculation analysis (paper section 5).
//!
//! Speculation differs from mere reordering in that it can *go wrong*. The
//! framework captures aliasing speculation by dropping the subtle
//! address-disambiguation dependencies of a non-speculative machine (the
//! [`EdgeKind::AddrResolve`](crate::graph::EdgeKind) edges) and rolling
//! back any fork whose late-inserted alias edge violates Store Atomicity.
//!
//! The paper's headline observation — reproduced by [`compare`] and by the
//! Figure 8/9 experiment — is that speculation admits *new* behaviours that
//! no non-speculative execution can produce, even though those behaviours
//! are consistent with the reordering table. "Memory models therefore ought
//! to permit this form of speculation."

use crate::enumerate::{EnumConfig, EnumResult};
use crate::error::EnumError;
use crate::instr::Program;
use crate::outcome::{Outcome, OutcomeSet};
use crate::policy::Policy;
use crate::pruned::enumerate_pruned;

/// Side-by-side enumeration of a program with and without address-aliasing
/// speculation.
#[derive(Debug, Clone)]
pub struct SpeculationReport {
    /// Enumeration under the plain (non-speculative) policy.
    pub base: EnumResult,
    /// Enumeration with aliasing speculation enabled.
    pub speculative: EnumResult,
}

impl SpeculationReport {
    /// Outcomes only reachable speculatively — the "new behaviours" of
    /// section 5.2.
    pub fn new_outcomes(&self) -> OutcomeSet {
        self.speculative
            .outcomes
            .difference(&self.base.outcomes)
            .cloned()
            .collect()
    }

    /// The paper's safety direction: every non-speculative behaviour
    /// remains valid under speculation ("the original non-speculative
    /// behavior remains valid in a speculative setting").
    pub fn base_is_subset(&self) -> bool {
        self.base.outcomes.is_subset(&self.speculative.outcomes)
    }

    /// Whether speculation strictly enlarged the behaviour set.
    pub fn speculation_adds_behaviors(&self) -> bool {
        !self.new_outcomes().is_empty()
    }

    /// Outcomes of the speculative run that were rolled back at least once
    /// on some path are not directly observable; this returns the rollback
    /// count as a proxy for wasted speculative work.
    pub fn rollbacks(&self) -> usize {
        self.speculative.stats.rolled_back
    }
}

/// Enumerates `program` under `policy` with speculation off and on,
/// with the production engine ([`enumerate_pruned`]).
///
/// The supplied policy's speculation flag is overridden in both directions,
/// so any base policy works.
///
/// # Errors
///
/// Propagates enumeration failures from either run.
///
/// # Examples
///
/// ```
/// use samm_core::speculation::compare;
/// use samm_core::enumerate::EnumConfig;
/// use samm_core::instr::{Instr, Program, ThreadProgram};
/// use samm_core::ids::Reg;
/// use samm_core::policy::Policy;
///
/// let prog = Program::new(vec![ThreadProgram::new(vec![
///     Instr::Store { addr: 0u64.into(), val: 1u64.into() },
///     Instr::Load { dst: Reg::new(0), addr: 0u64.into() },
/// ])]);
/// let report = compare(&prog, &Policy::weak(), &EnumConfig::default()).unwrap();
/// assert!(report.base_is_subset());
/// ```
pub fn compare(
    program: &Program,
    policy: &Policy,
    config: &EnumConfig,
) -> Result<SpeculationReport, EnumError> {
    let base_policy = policy.clone().with_alias_speculation(false);
    let spec_policy = policy.clone().with_alias_speculation(true);
    let base = enumerate_pruned(program, &base_policy, config)?;
    let speculative = enumerate_pruned(program, &spec_policy, config)?;
    Ok(SpeculationReport { base, speculative })
}

/// Convenience predicate: does `outcome` require speculation under
/// `policy`?
///
/// # Errors
///
/// Propagates enumeration failures.
pub fn outcome_requires_speculation(
    program: &Program,
    policy: &Policy,
    config: &EnumConfig,
    outcome: &Outcome,
) -> Result<bool, EnumError> {
    let report = compare(program, policy, config)?;
    Ok(report.speculative.outcomes.contains(outcome) && !report.base.outcomes.contains(outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Reg, Value};
    use crate::instr::{Instr, Operand, ThreadProgram};

    // Addresses for the Figure 8 pointer scenario. `x` holds a pointer.
    const X: u64 = 100;
    const Y: u64 = 200;
    const W: u64 = 300;
    const Z: u64 = 400;

    /// The program of Figure 8.
    ///
    /// Thread A: S1 x,w; fence; S2 y,2; S4 y,4; fence; S5 x,z.
    /// Thread B: L3 y; fence; r6 = L6 x; S7 [r6],7; r8 = L8 y.
    fn figure_8() -> Program {
        let a = ThreadProgram::new(vec![
            Instr::Store {
                addr: X.into(),
                val: W.into(),
            },
            Instr::Fence,
            Instr::Store {
                addr: Y.into(),
                val: 2u64.into(),
            },
            Instr::Store {
                addr: Y.into(),
                val: 4u64.into(),
            },
            Instr::Fence,
            Instr::Store {
                addr: X.into(),
                val: Z.into(),
            },
        ]);
        let b = ThreadProgram::new(vec![
            Instr::Load {
                dst: Reg::new(3),
                addr: Y.into(),
            },
            Instr::Fence,
            Instr::Load {
                dst: Reg::new(6),
                addr: X.into(),
            },
            Instr::Store {
                addr: Operand::Reg(Reg::new(6)),
                val: 7u64.into(),
            },
            Instr::Load {
                dst: Reg::new(8),
                addr: Y.into(),
            },
        ]);
        Program::new(vec![a, b])
    }

    /// The outcome of Figure 9 (right): L3 y = 2, L6 x = z, L8 y = 2.
    fn new_speculative_outcome(o: &Outcome) -> bool {
        o.reg(1, Reg::new(3)) == Value::new(2)
            && o.reg(1, Reg::new(6)) == Value::new(Z)
            && o.reg(1, Reg::new(8)) == Value::new(2)
    }

    #[test]
    fn figure_8_speculation_admits_new_behavior() {
        let report = compare(&figure_8(), &Policy::weak(), &EnumConfig::default()).unwrap();
        assert!(
            report.base_is_subset(),
            "speculation must not lose behaviours"
        );
        assert!(
            report.speculative.outcomes.any(new_speculative_outcome),
            "the speculative model must allow L8 y = 2 when L6 x = z"
        );
        assert!(
            !report.base.outcomes.any(new_speculative_outcome),
            "non-speculative execution forbids L8 y = 2 with L6 x = z (L6 ≺ L8)"
        );
        assert!(report.speculation_adds_behaviors());
    }

    #[test]
    fn straight_line_program_gains_nothing() {
        // Constant addresses leave nothing to disambiguate.
        let prog = Program::new(vec![
            ThreadProgram::new(vec![
                Instr::Store {
                    addr: X.into(),
                    val: 1u64.into(),
                },
                Instr::Load {
                    dst: Reg::new(0),
                    addr: Y.into(),
                },
            ]),
            ThreadProgram::new(vec![
                Instr::Store {
                    addr: Y.into(),
                    val: 1u64.into(),
                },
                Instr::Load {
                    dst: Reg::new(0),
                    addr: X.into(),
                },
            ]),
        ]);
        let report = compare(&prog, &Policy::weak(), &EnumConfig::default()).unwrap();
        assert_eq!(report.base.outcomes, report.speculative.outcomes);
        assert!(!report.speculation_adds_behaviors());
    }

    #[test]
    fn aliasing_forks_are_rolled_back() {
        // A pointer that *does* alias: speculation explores the miss and
        // rolls it back. Thread A publishes a pointer to y in x; thread B
        // stores through it and reloads y.
        let mut prog = Program::new(vec![ThreadProgram::new(vec![
            Instr::Load {
                dst: Reg::new(0),
                addr: X.into(),
            },
            Instr::Store {
                addr: Operand::Reg(Reg::new(0)),
                val: 7u64.into(),
            },
            Instr::Load {
                dst: Reg::new(1),
                addr: Y.into(),
            },
        ])]);
        prog.set_init(crate::ids::Addr::new(X), Value::new(Y));
        let report = compare(&prog, &Policy::weak(), &EnumConfig::default()).unwrap();
        // Single-threaded determinism must survive speculation: the final
        // load sees the store through the pointer.
        assert_eq!(report.base.outcomes, report.speculative.outcomes);
        assert_eq!(report.speculative.outcomes.len(), 1);
        let o = report.speculative.outcomes.iter().next().unwrap();
        assert_eq!(o.reg(0, Reg::new(1)), Value::new(7));
        assert!(
            report.rollbacks() > 0,
            "the speculative enumeration must have explored and rolled back the no-alias guess"
        );
    }

    #[test]
    fn outcome_requires_speculation_predicate() {
        let report = compare(&figure_8(), &Policy::weak(), &EnumConfig::default()).unwrap();
        let new_outcome = report
            .speculative
            .outcomes
            .iter()
            .find(|o| new_speculative_outcome(o))
            .cloned()
            .unwrap();
        assert!(outcome_requires_speculation(
            &figure_8(),
            &Policy::weak(),
            &EnumConfig::default(),
            &new_outcome
        )
        .unwrap());
    }
}
