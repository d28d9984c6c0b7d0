//! Error types for the execution-graph framework.

use std::error::Error as StdError;
use std::fmt;

use crate::ids::NodeId;

/// Inserting an ordering edge would have made the `@` relation cyclic.
///
/// A cycle in `@` means the execution has no serialization. During ordinary
/// (non-speculative) enumeration of a store-atomic model this never happens;
/// during speculative execution it is the signal that a speculative fork
/// must be rolled back (paper section 5.2), and in the TSO extension it is
/// how illegal bypass choices are rejected (paper section 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleError {
    /// Source of the offending edge.
    pub from: NodeId,
    /// Target of the offending edge.
    pub to: NodeId,
}

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ordering edge {} -> {} would create a cycle in @",
            self.from, self.to
        )
    }
}

impl StdError for CycleError {}

/// An error raised while enumerating program behaviours.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EnumError {
    /// A thread generated more graph nodes than
    /// [`EnumConfig::max_nodes_per_thread`](crate::enumerate::EnumConfig)
    /// allows (the program probably loops).
    NodeLimit {
        /// Index of the offending thread.
        thread: usize,
        /// The configured limit.
        limit: u32,
    },
    /// The enumeration frontier exceeded
    /// [`EnumConfig::max_behaviors`](crate::enumerate::EnumConfig).
    BehaviorLimit {
        /// The configured limit.
        limit: usize,
    },
    /// A behaviour reached quiescence with unresolved operations but no
    /// resolvable load. This indicates an internal invariant violation and
    /// is never expected for well-formed programs.
    Stuck,
    /// The initial behaviour's ordering closed a cycle before any load
    /// was resolved. (A cycle after a load resolution rolls that fork
    /// back instead, under every model.)
    UnexpectedCycle(CycleError),
    /// The enumeration spent its fork fuel
    /// ([`EnumConfig::budget`](crate::enumerate::EnumConfig)) before
    /// completing. Unlike the hard limits above, a budget is a
    /// *per-request* resource allowance — the service layer maps this
    /// variant to a structured `overbudget` protocol error instead of
    /// letting one query monopolize a worker.
    Overbudget {
        /// The configured fuel (maximum forks).
        budget: u64,
        /// Forks attempted when the fuel ran out.
        forks: u64,
    },
}

impl fmt::Display for EnumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnumError::NodeLimit { thread, limit } => write!(
                f,
                "thread {thread} exceeded the per-thread node limit of {limit} (unbounded loop?)"
            ),
            EnumError::BehaviorLimit { limit } => {
                write!(f, "behaviour frontier exceeded the limit of {limit}")
            }
            EnumError::Stuck => write!(
                f,
                "behaviour is quiescent with unresolved operations but no resolvable load"
            ),
            EnumError::UnexpectedCycle(e) => {
                write!(f, "unexpected ordering cycle in the initial behaviour: {e}")
            }
            EnumError::Overbudget { budget, forks } => write!(
                f,
                "enumeration exhausted its fork budget of {budget} after {forks} forks"
            ),
        }
    }
}

impl StdError for EnumError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            EnumError::UnexpectedCycle(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CycleError> for EnumError {
    fn from(e: CycleError) -> Self {
        EnumError::UnexpectedCycle(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    #[test]
    fn cycle_error_displays_both_ends() {
        let e = CycleError {
            from: NodeId::new(4),
            to: NodeId::new(2),
        };
        let s = e.to_string();
        assert!(s.contains("n4"));
        assert!(s.contains("n2"));
    }

    #[test]
    fn enum_error_wraps_cycle_error_as_source() {
        let cycle = CycleError {
            from: NodeId::new(0),
            to: NodeId::new(1),
        };
        let e: EnumError = cycle.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("cycle"));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CycleError>();
        assert_send_sync::<EnumError>();
    }

    #[test]
    fn enum_error_messages_are_informative() {
        assert!(EnumError::NodeLimit {
            thread: 1,
            limit: 8
        }
        .to_string()
        .contains("thread 1"));
        assert!(EnumError::BehaviorLimit { limit: 10 }
            .to_string()
            .contains("10"));
        assert!(EnumError::Stuck.to_string().contains("quiescent"));
        let over = EnumError::Overbudget {
            budget: 100,
            forks: 101,
        };
        assert!(over.to_string().contains("budget of 100"));
        assert!(over.to_string().contains("101"));
    }
}
