//! # samm-core — memory models as instruction reordering + Store Atomicity
//!
//! An executable implementation of the framework of *"Memory Model =
//! Instruction Reordering + Store Atomicity"* (Arvind & Maessen, ISCA
//! 2006). A memory model is specified by two ingredients:
//!
//! 1. **Thread-local reordering axioms** — a table over instruction classes
//!    saying which program-ordered pairs may be reordered
//!    ([`policy::Policy`], the paper's Figure 1);
//! 2. **Store Atomicity** — inter-thread ordering rules describing which
//!    operations must be ordered in *every* serialization of an execution
//!    ([`atomicity`], the paper's Figure 6).
//!
//! Executions are partially ordered graphs ([`graph::ExecutionGraph`]); one
//! graph compactly stands for all of its serializations. The crate's main
//! entry point is [`enumerate::enumerate`], the paper's operational
//! procedure for generating **all** behaviours of a multithreaded program
//! under any store-atomic model — plus the TSO bypass extension (section 6)
//! and address-aliasing speculation (section 5). It is kept as the oracle
//! for [`pruned::enumerate_pruned`], the production engine, whose stream
//! also serves every witness, refutation and §8 discipline check.
//!
//! ## Quick start
//!
//! ```
//! use samm_core::enumerate::{enumerate, EnumConfig};
//! use samm_core::instr::{Instr, Program, ThreadProgram};
//! use samm_core::ids::Reg;
//! use samm_core::policy::Policy;
//!
//! // Dekker / store-buffering: may both loads read 0?
//! let thread = |mine: u64, theirs: u64| ThreadProgram::new(vec![
//!     Instr::Store { addr: mine.into(), val: 1u64.into() },
//!     Instr::Load { dst: Reg::new(0), addr: theirs.into() },
//! ]);
//! let program = Program::new(vec![thread(0, 1), thread(1, 0)]);
//!
//! let sc = enumerate(&program, &Policy::sequential_consistency(),
//!                    &EnumConfig::default()).unwrap();
//! let weak = enumerate(&program, &Policy::weak(),
//!                      &EnumConfig::default()).unwrap();
//! assert_eq!(sc.outcomes.len(), 3);   // 0/0 is forbidden
//! assert_eq!(weak.outcomes.len(), 4); // 0/0 is allowed
//! ```
//!
//! ## Module map
//!
//! | module | paper | contents |
//! |--------|-------|----------|
//! | [`ids`], [`instr`] | §2 | values, addresses, the instruction set |
//! | [`policy`] | §2, Fig 1 | reordering tables; SC/TSO/PSO/Weak models |
//! | [`graph`], [`closure`], [`bitset`] | §3, Fig 2 | execution DAGs with an incremental transitive closure |
//! | [`atomicity`] | §3.3, Fig 6–7 | Store Atomicity rules a/b/c to fixpoint |
//! | [`candidates`] | §4 | `candidates(L)` and the load-resolution gate |
//! | [`exec`] | §4.1 | graph generation + dataflow execution |
//! | [`mod@enumerate`] | §4.1 | the behaviour-enumeration procedure (the serial oracle) |
//! | [`pruned`] | §4.1 | prune-before-expand enumeration and its behaviour stream, goal-pinned for witnesses and refutations (the production engine) |
//! | [`serialize`] | §3.1 | serializability: witnesses and validation |
//! | [`outcome`] | — | final register files, outcome sets |
//! | [`speculation`] | §5 | aliasing-speculation analysis helpers |
//! | [`static_order`] | §2, Fig 1 | the statically guaranteed part of `≺` |
//! | [`sync`] | §8 | well-synchronized-program discipline checker |
//! | [`dot`] | Fig 2 | Graphviz rendering of execution graphs |
//! | [`obs`] | — | enumeration counters and per-phase timings |
//! | [`explain`] | Fig 3–11 | witnesses for allowed outcomes, refutations for forbidden ones |
//! | [`fingerprint`] | — | stable content hashes of enumeration queries |
//! | [`cache`] | — | content-addressed memoization of enumeration answers |
//! | [`telemetry`] | — | latency histograms, rate counters, JSONL logs, Prometheus exposition |

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod atomicity;
pub mod bitset;
pub mod cache;
pub mod candidates;
pub mod closure;
pub mod dot;
pub mod enumerate;
pub mod error;
pub mod exec;
pub mod explain;
pub mod fingerprint;
pub mod graph;
pub mod ids;
pub mod instr;
pub mod obs;
pub mod outcome;
pub mod policy;
pub mod pruned;
pub mod serialize;
pub mod speculation;
pub mod static_order;
pub mod sync;
pub mod telemetry;

#[cfg(test)]
pub(crate) mod testutil;

pub use atomicity::Rule;
pub use cache::{cached_enumerate, CacheStats, CachedResult, EnumCache};
pub use enumerate::{enumerate, EnumConfig, EnumConfigBuilder, EnumResult, EnumStats};
pub use error::{CycleError, EnumError};
pub use exec::Behavior;
pub use explain::{
    find_witness, refute, BlockedRefutation, Goal, Refutation, RefuteOutcome, RefuteReason,
    Serialization, Witness,
};
pub use fingerprint::{query_fingerprint, Fingerprint};
pub use ids::{Addr, NodeId, Reg, ThreadId, Value};
pub use instr::{BinOp, Instr, Operand, Program, ThreadProgram};
pub use obs::{Obs, ObsStats};
pub use outcome::{Outcome, OutcomeSet};
pub use policy::{Constraint, ConstraintTable, OpClass, Policy};
pub use telemetry::{Histogram, HistogramSnapshot, JsonlLog, RateCounter, RequestIdGen};
