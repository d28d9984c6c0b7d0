//! Exhaustive litmus-test synthesis: every program of a small template
//! family, for *complete* small-world model comparison.
//!
//! Random corpora sample the program space; synthesis covers it. For a
//! bounded shape — `threads × ops_per_thread` slots, each a store, a load
//! or (optionally) a fence over a few locations — the generator emits
//! every distinct program. Sweeping the full family and diffing outcome
//! sets per model pair yields tables like "of all 256 two-by-two
//! programs, SC and TSO differ on N" — the systematic counterpart of the
//! paper's hand-picked examples.

use samm_core::cache::{cached_enumerate, EnumCache};
use samm_core::enumerate::EnumConfig;
use samm_core::ids::{Reg, Value};
use samm_core::instr::{Instr, Operand, Program, ThreadProgram};
use samm_core::outcome::OutcomeSet;
use samm_core::policy::Policy;
use samm_core::pruned::enumerate_pruned;

/// Shape of the synthesized family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthConfig {
    /// Number of threads.
    pub threads: usize,
    /// Instruction slots per thread.
    pub ops_per_thread: usize,
    /// Number of distinct locations.
    pub locations: u64,
    /// Include a fence alternative in every slot.
    pub include_fences: bool,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            threads: 2,
            ops_per_thread: 2,
            locations: 2,
            include_fences: false,
        }
    }
}

/// One slot choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Store(u64),
    Load(u64),
    Fence,
}

impl SynthConfig {
    fn slot_choices(&self) -> Vec<Slot> {
        let mut out = Vec::new();
        for a in 0..self.locations {
            out.push(Slot::Store(a));
            out.push(Slot::Load(a));
        }
        if self.include_fences {
            out.push(Slot::Fence);
        }
        out
    }

    /// Number of programs in the family.
    pub fn family_size(&self) -> usize {
        self.slot_choices()
            .len()
            .pow((self.threads * self.ops_per_thread) as u32)
    }
}

/// Iterator over every program of the family, in a stable order.
///
/// Stores write globally unique values (their slot's ordinal), so outcome
/// sets distinguish sources.
///
/// # Examples
///
/// ```
/// use samm_litmus::synthesis::{programs, SynthConfig};
/// let family: Vec<_> = programs(&SynthConfig::default()).collect();
/// assert_eq!(family.len(), 256); // (2 locations × 2 kinds)^(2×2)
/// ```
pub fn programs(config: &SynthConfig) -> impl Iterator<Item = Program> {
    let choices = config.slot_choices();
    let slots = config.threads * config.ops_per_thread;
    let total = config.family_size();
    let config = *config;
    (0..total).map(move |mut index| {
        let mut picked = Vec::with_capacity(slots);
        for _ in 0..slots {
            picked.push(choices[index % choices.len()]);
            index /= choices.len();
        }
        build_program(&config, &picked)
    })
}

fn build_program(config: &SynthConfig, picked: &[Slot]) -> Program {
    let mut threads = Vec::with_capacity(config.threads);
    let mut unique = 1u64;
    for t in 0..config.threads {
        let mut instrs = Vec::with_capacity(config.ops_per_thread);
        let mut regs = 0usize;
        for s in 0..config.ops_per_thread {
            match picked[t * config.ops_per_thread + s] {
                Slot::Store(a) => {
                    instrs.push(Instr::Store {
                        addr: Operand::Imm(Value::new(a)),
                        val: Operand::Imm(Value::new(unique)),
                    });
                    unique += 1;
                }
                Slot::Load(a) => {
                    instrs.push(Instr::Load {
                        dst: Reg::new(regs),
                        addr: Operand::Imm(Value::new(a)),
                    });
                    regs += 1;
                }
                Slot::Fence => instrs.push(Instr::Fence),
            }
        }
        threads.push(ThreadProgram::new(instrs));
    }
    Program::new(threads)
}

/// Summary of a model-pair sweep over a family.
#[derive(Debug, Clone, Default)]
pub struct DiffSummary {
    /// Programs examined.
    pub programs: usize,
    /// Programs where the two models' outcome sets differ.
    pub differing: usize,
    /// Index (in [`programs`] order) of the first differing
    /// program, if any — an exemplar for inspection.
    pub first_exemplar: Option<usize>,
}

/// Sweeps a family and counts programs where `stronger` and `weaker`
/// disagree; also checks the inclusion `stronger ⊆ weaker` on every
/// program.
///
/// # Panics
///
/// Panics if inclusion is violated (a model bug) or enumeration fails.
pub fn diff_models(config: &SynthConfig, stronger: &Policy, weaker: &Policy) -> DiffSummary {
    diff_models_impl(config, stronger, weaker, None)
}

/// Like [`diff_models`], but routing every enumeration through the
/// content-addressed `cache`. Sweeping a model *chain* (SC/TSO, TSO/PSO,
/// PSO/Weak) with one shared cache enumerates each (program, model) pair
/// once instead of once per pair containing the model — the middle
/// models' enumerations become hits on their second appearance.
///
/// # Panics
///
/// As for [`diff_models`].
pub fn diff_models_cached(
    config: &SynthConfig,
    stronger: &Policy,
    weaker: &Policy,
    cache: &EnumCache,
) -> DiffSummary {
    diff_models_impl(config, stronger, weaker, Some(cache))
}

fn diff_models_impl(
    config: &SynthConfig,
    stronger: &Policy,
    weaker: &Policy,
    cache: Option<&EnumCache>,
) -> DiffSummary {
    let mut summary = DiffSummary::default();
    for (i, program) in programs(config).enumerate() {
        summary.programs += 1;
        if program_differs(i, &program, stronger, weaker, cache) {
            summary.differing += 1;
            if summary.first_exemplar.is_none() {
                summary.first_exemplar = Some(i);
            }
        }
    }
    summary
}

/// Diffs one program of the family; panics on an inclusion violation.
fn program_differs(
    index: usize,
    program: &Program,
    stronger: &Policy,
    weaker: &Policy,
    cache: Option<&EnumCache>,
) -> bool {
    let enum_config = EnumConfig::builder().keep_executions(false).build();
    let outcomes = |policy: &Policy| -> OutcomeSet {
        match cache {
            Some(cache) => cached_enumerate(cache, program, policy, &enum_config)
                .expect("enumeration succeeds")
                .0
                .outcomes
                .clone(),
            None => {
                enumerate_pruned(program, policy, &enum_config)
                    .expect("enumeration succeeds")
                    .outcomes
            }
        }
    };
    let a = outcomes(stronger);
    let b = outcomes(weaker);
    assert!(
        a.is_subset(&b),
        "program #{index}: {} ⊆ {} violated",
        stronger.name(),
        weaker.name()
    );
    a != b
}

#[cfg(test)]
mod tests {
    use super::*;
    use samm_core::policy::Policy;

    #[test]
    fn family_size_matches_enumeration() {
        let cfg = SynthConfig::default();
        assert_eq!(cfg.family_size(), 256);
        assert_eq!(programs(&cfg).count(), 256);
        let fenced = SynthConfig {
            include_fences: true,
            ..SynthConfig::default()
        };
        assert_eq!(fenced.family_size(), 625);
    }

    #[test]
    fn programs_are_distinct() {
        let cfg = SynthConfig::default();
        let mut seen = std::collections::HashSet::new();
        for p in programs(&cfg) {
            assert!(seen.insert(format!("{p:?}")), "duplicate program emitted");
        }
    }

    #[test]
    fn sb_is_in_the_family_and_separates_sc_from_tso() {
        // The family must contain a store-buffering shape, so SC and TSO
        // must differ on at least one program.
        let cfg = SynthConfig::default();
        let summary = diff_models(&cfg, &Policy::sequential_consistency(), &Policy::tso());
        assert!(summary.differing > 0);
        assert_eq!(summary.programs, 256);
    }

    #[test]
    fn cached_sweep_matches_and_reuses_chain_middles() {
        let cfg = SynthConfig {
            threads: 2,
            ops_per_thread: 1,
            locations: 2,
            include_fences: false,
        };
        let cache = EnumCache::new(4096);
        let chain = [
            (Policy::sequential_consistency(), Policy::tso()),
            (Policy::tso(), Policy::pso()),
            (Policy::pso(), Policy::weak()),
        ];
        for (strong, weak) in &chain {
            let plain = diff_models(&cfg, strong, weak);
            let cached = diff_models_cached(&cfg, strong, weak, &cache);
            assert_eq!(plain.programs, cached.programs);
            assert_eq!(plain.differing, cached.differing);
            assert_eq!(plain.first_exemplar, cached.first_exemplar);
        }
        // TSO and PSO each appear in two pairs: their second sweep is
        // pure hits, so the chain does 4×16 lookups with ≥2×16 hits.
        let stats = cache.stats();
        assert!(
            stats.hits >= 2 * cfg.family_size() as u64,
            "expected the chain middles to hit, got {stats:?}"
        );
    }

    #[test]
    fn identical_models_never_differ() {
        let cfg = SynthConfig {
            threads: 2,
            ops_per_thread: 1,
            locations: 2,
            include_fences: false,
        };
        let summary = diff_models(&cfg, &Policy::weak(), &Policy::weak());
        assert_eq!(summary.differing, 0);
    }

    #[test]
    fn single_op_threads_agree_across_all_models() {
        // With one memory op per thread there is nothing to reorder: all
        // models coincide on the whole family.
        let cfg = SynthConfig {
            threads: 2,
            ops_per_thread: 1,
            locations: 2,
            include_fences: false,
        };
        for (strong, weak) in [
            (Policy::sequential_consistency(), Policy::tso()),
            (Policy::tso(), Policy::pso()),
            (Policy::pso(), Policy::weak()),
        ] {
            let summary = diff_models(&cfg, &strong, &weak);
            assert_eq!(
                summary.differing,
                0,
                "{} vs {} must agree on single-op threads",
                strong.name(),
                weak.name()
            );
        }
    }
}
