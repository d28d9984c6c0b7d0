//! The well-synchronized programming discipline (paper section 8).
//!
//! "We can say a program is *well synchronized* if for every load of a
//! non-synchronization variable there is exactly one eligible store which
//! can provide its value according to Store Atomicity." This generalizes
//! Adve & Hill's Proper Synchronization to arbitrary synchronization
//! mechanisms: when a program obeys the discipline, it behaves identically
//! under much weaker memory models.
//!
//! [`check_well_synchronized`] drains the production engine's goal
//! stream ([`crate::pruned::stream`]) and
//! records, for every *static* load site, the maximum number of candidate
//! stores any of its dynamic instances ever had. Loads of designated
//! synchronization addresses are exempt.

use std::collections::{BTreeMap, BTreeSet};

use crate::enumerate::EnumConfig;
use crate::error::EnumError;
use crate::ids::Addr;
use crate::instr::Program;
use crate::policy::Policy;
use crate::pruned::stream;

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
/// of those addresses may legitimately race and are not reported. Every
/// reachable partial behaviour is expanded once, so `explored` counts
/// the distinct behaviours of the search.
///
/// # Errors
///
/// Propagates the same failures as [`crate::pruned::enumerate_pruned`],
/// including [`EnumError::Overbudget`] past [`EnumConfig::budget`]
/// claims.
pub fn check_well_synchronized(
    program: &Program,
    policy: &Policy,
    config: &EnumConfig,
    sync_addrs: &BTreeSet<Addr>,
) -> Result<SyncReport, EnumError> {
    let mut max_candidates: BTreeMap<LoadSite, usize> = BTreeMap::new();
    let mut behaviors = stream(program, policy, config)?;
    behaviors.on_candidates(|graph, load, count| {
        let node = graph.node(load);
        let addr = node.addr().expect("resolvable load has an address");
        if !sync_addrs.contains(&addr) {
            let site = (node.thread().index(), node.index_in_thread());
            let max = max_candidates.entry(site).or_insert(0);
            *max = (*max).max(count);
        }
    });
    for item in &mut behaviors {
        item?;
    }
    let explored = behaviors.stats().explored;
    drop(behaviors);
    let racy_loads = max_candidates
        .iter()
        .filter(|&(_, &max)| max > 1)
        .map(|(&site, _)| site)
        .collect();
    Ok(SyncReport {
        max_candidates,
        racy_loads,
        explored,
    })
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
