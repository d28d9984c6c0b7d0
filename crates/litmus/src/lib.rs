//! # samm-litmus — litmus tests for the Store Atomicity framework
//!
//! Workloads for [`samm_core`]: a symbolic litmus-test representation with
//! named locations/registers/labels ([`ast`]), a fluent [`builder`], a text
//! [`parser`], a [`catalog`] containing the classic litmus suite *and every
//! worked figure of the paper* with expected per-model verdicts, the
//! conformance harness [`expect`] that checks those verdicts by exhaustive
//! enumeration, and a random-program generator [`rand_prog`] for property
//! tests and benchmarks.
//!
//! ## Example: check a paper figure
//!
//! ```
//! use samm_litmus::{catalog, expect};
//! use samm_core::enumerate::EnumConfig;
//!
//! let report = expect::run_entry(&catalog::fig3(), &EnumConfig::default()).unwrap();
//! assert!(report.all_pass(), "{report}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod builder;
pub mod catalog;
pub mod expect;
pub mod fences;
pub mod parser;
pub mod printer;
pub mod rand_prog;
pub mod synthesis;

pub use ast::{CompiledCondition, CompiledLitmus, CondKind, LitmusError, LitmusTest};
pub use builder::LitmusBuilder;
pub use catalog::{CatalogEntry, ModelSel, Verdict};
pub use expect::{
    run_all, run_entry, run_entry_cached, run_entry_certified, run_entry_serial, Certifier,
    EntryReport, VerdictRow,
};
pub use parser::{parse, ParseError};
