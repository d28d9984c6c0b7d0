//! Fence synthesis: the prescriptive side of the framework.
//!
//! The paper's section 8 argues that "application programmers are better
//! served by a prescriptive programming discipline" than by descriptive
//! enumeration alone. This module turns the enumerator into such a tool:
//! given a program, a *forbidden* outcome condition and a memory model,
//! [`synthesize_fences`] searches for a **minimum-size** set of fence
//! insertions under which the condition becomes unobservable — i.e. it
//! answers "where do the barriers go?" mechanically.
//!
//! The search is exhaustive and breadth-first over insertion count, so the
//! returned fix is minimal; litmus-scale programs have a handful of
//! insertion slots, keeping the sweep cheap.

use samm_core::enumerate::EnumConfig;
use samm_core::error::EnumError;
use samm_core::instr::{Instr, Program, ThreadProgram};
use samm_core::policy::Policy;
use samm_core::pruned::enumerate_pruned;
use samm_core::static_order::fence_slot_is_vacuous;

use crate::ast::CompiledCondition;

/// A fence-insertion point: *before* instruction `pos` of thread
/// `thread` (so `pos` ranges over `1..len`, between two instructions).
pub type FenceSlot = (usize, usize);

/// A successful synthesis: where the fences go and the repaired program.
#[derive(Debug, Clone)]
pub struct FenceFix {
    /// The chosen insertion points, in `(thread, position)` form against
    /// the *original* program's instruction indices.
    pub placements: Vec<FenceSlot>,
    /// The program with the fences inserted (branch targets remapped).
    pub program: Program,
}

/// Inserts a fence before instruction `pos` of `thread`, remapping branch
/// and jump targets across the insertion point.
///
/// # Panics
///
/// Panics if `pos` is zero or past the end (fences at the very start or
/// end of a thread cannot order anything).
pub fn insert_fence(thread: &ThreadProgram, pos: usize) -> ThreadProgram {
    assert!(
        pos >= 1 && pos < thread.len(),
        "fence slot must sit between two instructions"
    );
    let remap = |target: usize| if target >= pos { target + 1 } else { target };
    let mut instrs = Vec::with_capacity(thread.len() + 1);
    for (i, instr) in thread.instrs().iter().enumerate() {
        if i == pos {
            instrs.push(Instr::Fence);
        }
        instrs.push(match *instr {
            Instr::BranchNz { cond, target } => Instr::BranchNz {
                cond,
                target: remap(target),
            },
            Instr::Jump { target } => Instr::Jump {
                target: remap(target),
            },
            other => other,
        });
    }
    ThreadProgram::new(instrs)
}

/// All sensible insertion slots of a program (between consecutive
/// instructions of each thread).
pub fn fence_slots(program: &Program) -> Vec<FenceSlot> {
    let mut slots = Vec::new();
    for (t, thread) in program.threads().iter().enumerate() {
        for pos in 1..thread.len() {
            slots.push((t, pos));
        }
    }
    slots
}

/// The insertion slots where a fence could actually add ordering under
/// `policy`: [`fence_slots`] minus the provably *vacuous* ones (see
/// [`fence_slot_is_vacuous`] — slots where every memory pair the fence
/// would order is already guaranteed-ordered by the table). The
/// synthesizer only searches these, which is sound because a slot
/// vacuous in the base program stays vacuous after other fences are
/// added: extra fences only grow the guaranteed order.
pub fn useful_fence_slots(program: &Program, policy: &Policy) -> Vec<FenceSlot> {
    fence_slots(program)
        .into_iter()
        .filter(|&(t, pos)| !fence_slot_is_vacuous(&program.threads()[t], policy, pos))
        .collect()
}

/// Builds the program with fences at `placements` (positions given against
/// the original program; multiple fences per thread are supported).
fn apply_placements(program: &Program, placements: &[FenceSlot]) -> Program {
    let mut threads: Vec<ThreadProgram> = program.threads().to_vec();
    for (t, thread) in threads.iter_mut().enumerate() {
        // Insert back-to-front so earlier positions stay valid.
        let mut positions: Vec<usize> = placements
            .iter()
            .filter(|&&(pt, _)| pt == t)
            .map(|&(_, pos)| pos)
            .collect();
        positions.sort_unstable_by(|a, b| b.cmp(a));
        for pos in positions {
            *thread = insert_fence(thread, pos);
        }
    }
    Program::with_init(threads, program.init_entries().collect())
}

/// Searches for a minimum set of fence insertions (up to `max_fences`)
/// under which `forbidden` is unobservable in `policy`.
///
/// Returns `Ok(None)` when no fix of that size exists — e.g. a data race
/// that no fence can repair (the `broken-incr` catalog entry).
///
/// # Errors
///
/// Propagates enumeration failures.
///
/// # Examples
///
/// Repair store buffering under the weak model:
///
/// ```
/// use samm_litmus::{catalog, fences};
/// use samm_core::enumerate::EnumConfig;
/// use samm_core::policy::Policy;
///
/// let sb = catalog::sb();
/// let fix = fences::synthesize_fences(
///     &sb.test.program,
///     &sb.test.conditions[0],
///     &Policy::weak(),
///     2,
///     &EnumConfig::default(),
/// )
/// .unwrap()
/// .expect("SB is repairable with two fences");
/// assert_eq!(fix.placements.len(), 2);
/// ```
pub fn synthesize_fences(
    program: &Program,
    forbidden: &CompiledCondition,
    policy: &Policy,
    max_fences: usize,
    config: &EnumConfig,
) -> Result<Option<FenceFix>, EnumError> {
    let config = EnumConfig {
        keep_executions: false,
        ..config.clone()
    };
    let slots = useful_fence_slots(program, policy);
    let mut chosen: Vec<FenceSlot> = Vec::new();
    for k in 0..=max_fences.min(slots.len()) {
        if let Some(fix) = search_k(
            program,
            forbidden,
            policy,
            &config,
            &slots,
            k,
            0,
            &mut chosen,
        )? {
            return Ok(Some(fix));
        }
    }
    Ok(None)
}

/// Depth-first choice of exactly `k` more slots starting at `from`.
#[allow(clippy::too_many_arguments)]
fn search_k(
    program: &Program,
    forbidden: &CompiledCondition,
    policy: &Policy,
    config: &EnumConfig,
    slots: &[FenceSlot],
    k: usize,
    from: usize,
    chosen: &mut Vec<FenceSlot>,
) -> Result<Option<FenceFix>, EnumError> {
    if k == 0 {
        let candidate = apply_placements(program, chosen);
        let outcomes = enumerate_pruned(&candidate, policy, config)?.outcomes;
        if !forbidden.observable_in(&outcomes) {
            return Ok(Some(FenceFix {
                placements: chosen.clone(),
                program: candidate,
            }));
        }
        return Ok(None);
    }
    for i in from..slots.len() {
        chosen.push(slots[i]);
        let found = search_k(
            program,
            forbidden,
            policy,
            config,
            slots,
            k - 1,
            i + 1,
            chosen,
        )?;
        chosen.pop();
        if found.is_some() {
            return Ok(found);
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use samm_core::enumerate::enumerate;
    use samm_core::policy::Policy;

    fn fix_for(
        entry: &crate::CatalogEntry,
        condition: usize,
        policy: &Policy,
        max: usize,
    ) -> Option<FenceFix> {
        synthesize_fences(
            &entry.test.program,
            &entry.test.conditions[condition],
            policy,
            max,
            &EnumConfig::default(),
        )
        .expect("enumeration succeeds")
    }

    #[test]
    fn sb_needs_exactly_two_fences_under_weak() {
        let entry = catalog::sb();
        assert!(
            fix_for(&entry, 0, &Policy::weak(), 1).is_none(),
            "one fence is not enough"
        );
        let fix = fix_for(&entry, 0, &Policy::weak(), 2).expect("two fences repair SB");
        assert_eq!(fix.placements.len(), 2);
        // One fence in each thread, between the store and the load.
        let threads: Vec<usize> = fix.placements.iter().map(|&(t, _)| t).collect();
        assert!(threads.contains(&0) && threads.contains(&1));
    }

    #[test]
    fn corr_needs_one_fence_under_weak() {
        let entry = catalog::corr();
        let fix = fix_for(&entry, 0, &Policy::weak(), 2).expect("CoRR is repairable");
        assert_eq!(
            fix.placements.len(),
            1,
            "a single fence between the loads suffices"
        );
        assert_eq!(
            fix.placements[0].0, 1,
            "the fence goes in the reader thread"
        );
    }

    #[test]
    fn already_forbidden_conditions_need_zero_fences() {
        let entry = catalog::sb();
        let fix = fix_for(&entry, 0, &Policy::sequential_consistency(), 2)
            .expect("SC already forbids the SB relaxation");
        assert!(fix.placements.is_empty());
    }

    #[test]
    fn data_races_cannot_be_fenced_away() {
        // broken-incr: both threads may read 0 even under SC; no fence
        // placement can forbid it.
        let entry = catalog::broken_increment();
        let fix = synthesize_fences(
            &entry.test.program,
            &entry.test.conditions[0],
            &Policy::weak(),
            4,
            &EnumConfig::default(),
        )
        .expect("enumeration succeeds");
        assert!(fix.is_none(), "a data race is not a fencing problem");
    }

    #[test]
    fn mp_fix_matches_the_catalog_fenced_variant() {
        let entry = catalog::mp();
        let fix = fix_for(&entry, 0, &Policy::weak(), 2).expect("MP is repairable");
        assert_eq!(fix.placements.len(), 2);
        // The synthesized program must agree with MP+fences: the condition
        // is forbidden under the weak model.
        let outcomes = enumerate(
            &fix.program,
            &Policy::weak(),
            &EnumConfig {
                keep_executions: false,
                ..EnumConfig::default()
            },
        )
        .unwrap()
        .outcomes;
        assert!(!entry.test.conditions[0].observable_in(&outcomes));
    }

    #[test]
    fn insert_fence_remaps_branch_targets() {
        use samm_core::ids::Reg;
        use samm_core::instr::Operand;
        let thread = ThreadProgram::new(vec![
            Instr::Load {
                dst: Reg::new(0),
                addr: 0u64.into(),
            },
            Instr::BranchNz {
                cond: Operand::Reg(Reg::new(0)),
                target: 3,
            },
            Instr::Store {
                addr: 1u64.into(),
                val: 1u64.into(),
            },
        ]);
        let fenced = insert_fence(&thread, 2);
        assert_eq!(fenced.len(), 4);
        assert!(matches!(fenced.instrs()[2], Instr::Fence));
        // The branch skipped to the end (3); after insertion the end is 4.
        assert!(matches!(
            fenced.instrs()[1],
            Instr::BranchNz { target: 4, .. }
        ));
    }

    #[test]
    fn vacuous_slots_are_pruned_before_search() {
        // Under SC every memory pair is already Never-ordered, so every
        // fence slot is vacuous and the search space collapses to the
        // empty placement.
        let entry = catalog::sb();
        assert!(
            useful_fence_slots(&entry.test.program, &Policy::sequential_consistency()).is_empty()
        );
        // Under the weak model the SB slots (between each thread's store
        // and load) genuinely add ordering and must survive the filter.
        let useful = useful_fence_slots(&entry.test.program, &Policy::weak());
        assert_eq!(useful, fence_slots(&entry.test.program));
        // Under TSO the store→load pair is the only reorderable one, so
        // the SB slots stay useful there too.
        assert!(!useful_fence_slots(&entry.test.program, &Policy::tso()).is_empty());
    }

    #[test]
    fn pruned_search_still_reports_unfixable_races() {
        // Even with every slot pruned (SC), an observable condition must
        // still come back `None` rather than panic or mis-report.
        let entry = catalog::broken_increment();
        let fix = synthesize_fences(
            &entry.test.program,
            &entry.test.conditions[0],
            &Policy::sequential_consistency(),
            4,
            &EnumConfig::default(),
        )
        .expect("enumeration succeeds");
        assert!(fix.is_none());
    }

    #[test]
    fn pso_mp_needs_only_the_producer_fence() {
        // Under PSO only the store-store reordering breaks MP, so a single
        // fence (in the producer) suffices.
        let entry = catalog::mp();
        let fix = fix_for(&entry, 0, &Policy::pso(), 2).expect("MP is PSO-repairable");
        assert_eq!(fix.placements.len(), 1);
        assert_eq!(fix.placements[0].0, 0, "the fence goes in the producer");
    }
}
