//! The well-synchronized programming discipline (paper section 8).
//!
//! "We can say a program is *well synchronized* if for every load of a
//! non-synchronization variable there is exactly one eligible store which
//! can provide its value according to Store Atomicity." This generalizes
//! Adve & Hill's Proper Synchronization to arbitrary synchronization
//! mechanisms: when a program obeys the discipline, it behaves identically
//! under much weaker memory models.
//!
//! [`check_well_synchronized`] replays the enumeration of
//! [`mod@crate::enumerate`] and records, for every *static* load site, the
//! maximum number of candidate stores any of its dynamic instances ever
//! had. Loads of designated synchronization addresses are exempt.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use crate::enumerate::EnumConfig;
use crate::error::EnumError;
use crate::exec::{Behavior, StepError};
use crate::ids::Addr;
use crate::instr::Program;
use crate::policy::Policy;

/// A static load site: `(thread, issue index within the thread)`.
pub type LoadSite = (usize, u32);

/// Result of the well-synchronized check.
#[derive(Debug, Clone, Default)]
pub struct SyncReport {
    /// Per load site: the maximum candidate count observed across all
    /// enumerated behaviours (sync-variable loads excluded).
    pub max_candidates: BTreeMap<LoadSite, usize>,
    /// Load sites that had more than one eligible store at some resolution
    /// point — the discipline violations.
    pub racy_loads: Vec<LoadSite>,
    /// Behaviours explored.
    pub explored: usize,
}

impl SyncReport {
    /// Whether the program satisfies the discipline.
    pub fn is_well_synchronized(&self) -> bool {
        self.racy_loads.is_empty()
    }
}

/// Checks the well-synchronized discipline for `program` under `policy`.
///
/// `sync_addrs` lists the synchronization variables (flags, locks); loads
/// of those addresses may legitimately race and are not reported.
///
/// # Errors
///
/// Propagates the same failures as [`crate::enumerate::enumerate`].
pub fn check_well_synchronized(
    program: &Program,
    policy: &Policy,
    config: &EnumConfig,
    sync_addrs: &BTreeSet<Addr>,
) -> Result<SyncReport, EnumError> {
    let mut report = SyncReport::default();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut frontier: Vec<Behavior> = Vec::new();

    let mut root = Behavior::new(program);
    match root.settle(program, policy, config.max_nodes_per_thread) {
        Ok(()) => {}
        Err(StepError::NodeLimit { thread, limit }) => {
            return Err(EnumError::NodeLimit { thread, limit })
        }
        Err(StepError::Inconsistent(e)) => return Err(EnumError::UnexpectedCycle(e)),
    }
    seen.insert(root.canonical_key());
    frontier.push(root);

    let mut racy: BTreeSet<LoadSite> = BTreeSet::new();

    while let Some(behavior) = frontier.pop() {
        report.explored += 1;
        if report.explored > config.max_behaviors {
            return Err(EnumError::BehaviorLimit {
                limit: config.max_behaviors,
            });
        }
        if behavior.is_complete() {
            continue;
        }
        let loads = behavior.resolvable_loads();
        if loads.is_empty() {
            return Err(EnumError::Stuck);
        }
        for load in loads {
            let node = behavior.graph().node(load);
            let site: LoadSite = (node.thread().index(), node.index_in_thread());
            let addr = node.addr().expect("resolvable load has an address");
            let candidates = behavior.candidates(load);
            if !sync_addrs.contains(&addr) {
                let entry = report.max_candidates.entry(site).or_insert(0);
                *entry = (*entry).max(candidates.len());
                if candidates.len() > 1 {
                    racy.insert(site);
                }
            }
            for store in candidates {
                let mut fork = behavior.clone();
                let step = fork
                    .resolve_load(load, store)
                    .and_then(|()| fork.settle(program, policy, config.max_nodes_per_thread));
                match step {
                    Ok(()) => {
                        if seen.insert(fork.canonical_key()) {
                            frontier.push(fork);
                        }
                    }
                    Err(StepError::Inconsistent(_)) => {}
                    Err(StepError::NodeLimit { thread, limit }) => {
                        return Err(EnumError::NodeLimit { thread, limit })
                    }
                }
            }
        }
    }

    report.racy_loads = racy.into_iter().collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Reg, Value};
    use crate::instr::{Instr, Operand, ThreadProgram};

    const DATA: u64 = 0;
    const FLAG: u64 = 1;

    fn st(a: u64, v: u64) -> Instr {
        Instr::Store {
            addr: a.into(),
            val: v.into(),
        }
    }

    fn ld(r: usize, a: u64) -> Instr {
        Instr::Load {
            dst: Reg::new(r),
            addr: a.into(),
        }
    }

    /// Producer/consumer with a spin-free flag handshake: the consumer
    /// branches on the flag and only reads data when it is set.
    fn message_passing_guarded() -> Program {
        let producer = ThreadProgram::new(vec![st(DATA, 42), Instr::Fence, st(FLAG, 1)]);
        // if flag == 0 skip the data read
        let consumer = ThreadProgram::new(vec![
            ld(0, FLAG),
            Instr::Binop {
                dst: Reg::new(1),
                op: crate::instr::BinOp::Eq,
                lhs: Operand::Reg(Reg::new(0)),
                rhs: 0u64.into(),
            },
            Instr::BranchNz {
                cond: Operand::Reg(Reg::new(1)),
                target: 5,
            },
            Instr::Fence,
            ld(2, DATA),
        ]);
        Program::new(vec![producer, consumer])
    }

    #[test]
    fn guarded_mp_is_well_synchronized() {
        let sync: BTreeSet<Addr> = [Addr::new(FLAG)].into_iter().collect();
        let report = check_well_synchronized(
            &message_passing_guarded(),
            &Policy::weak(),
            &EnumConfig::default(),
            &sync,
        )
        .unwrap();
        assert!(
            report.is_well_synchronized(),
            "racy loads: {:?}",
            report.racy_loads
        );
        // The data load appears with exactly one candidate whenever it runs.
        assert!(report.max_candidates.iter().all(|(_, &max)| max <= 1));
    }

    #[test]
    fn unguarded_mp_is_racy() {
        let producer = ThreadProgram::new(vec![st(DATA, 42), Instr::Fence, st(FLAG, 1)]);
        let consumer = ThreadProgram::new(vec![ld(0, FLAG), Instr::Fence, ld(2, DATA)]);
        let prog = Program::new(vec![producer, consumer]);
        let sync: BTreeSet<Addr> = [Addr::new(FLAG)].into_iter().collect();
        let report =
            check_well_synchronized(&prog, &Policy::weak(), &EnumConfig::default(), &sync).unwrap();
        assert!(!report.is_well_synchronized());
        assert_eq!(report.racy_loads, vec![(1, 2)], "the data load races");
    }

    #[test]
    fn sync_exemption_silences_flag_races() {
        // Without the exemption the flag load itself is racy.
        let prog = message_passing_guarded();
        let report = check_well_synchronized(
            &prog,
            &Policy::weak(),
            &EnumConfig::default(),
            &BTreeSet::new(),
        )
        .unwrap();
        assert!(!report.is_well_synchronized());
        assert!(
            report.racy_loads.contains(&(1, 0)),
            "flag load races without exemption"
        );
    }

    #[test]
    fn single_threaded_code_is_trivially_well_synchronized() {
        let prog = Program::new(vec![ThreadProgram::new(vec![
            st(DATA, 1),
            ld(0, DATA),
            st(DATA, 2),
            ld(1, DATA),
        ])]);
        let report = check_well_synchronized(
            &prog,
            &Policy::weak(),
            &EnumConfig::default(),
            &BTreeSet::new(),
        )
        .unwrap();
        assert!(report.is_well_synchronized());
        let _ = Value::ZERO;
    }
}
