//! Random litmus-program generation for property tests and benchmarks.
//!
//! The generator emits small, loop-free multithreaded programs over a few
//! shared locations — the space where exhaustive enumeration is feasible
//! and where cross-model properties (outcome-set inclusion, equivalence
//! with operational references, serializability of every execution) can be
//! checked mechanically.

use rand::prelude::*;

use samm_core::ids::{Reg, Value};
use samm_core::instr::{Instr, Operand, Program, ThreadProgram};

/// Shape parameters for [`random_program`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandConfig {
    /// Number of threads.
    pub threads: usize,
    /// Instructions per thread (exactly).
    pub ops_per_thread: usize,
    /// Number of distinct shared locations.
    pub locations: u64,
    /// Probability of a fence at each slot.
    pub fence_prob: f64,
    /// Probability that a slot is a store (vs. a load); the remainder
    /// after fences.
    pub store_prob: f64,
    /// Probability that a store's value is data-dependent on an earlier
    /// load (when one exists) rather than a constant.
    pub data_dep_prob: f64,
    /// Probability of a forward branch over the next instruction, keyed on
    /// an earlier load (when one exists).
    pub branch_prob: f64,
    /// Probability that a memory slot is an atomic read-modify-write
    /// (swap, fetch-add or CAS, chosen uniformly) instead of a plain
    /// load/store.
    pub rmw_prob: f64,
    /// Probability that a memory slot's address is held in the register
    /// of an earlier load (when one exists) instead of an immediate, so
    /// that aliasing is decided only at run time. The generator consults
    /// the random source for it only when it is positive, so a corpus
    /// drawn with it at zero (the default) is the one drawn before it
    /// existed.
    pub addr_dep_prob: f64,
}

impl Default for RandConfig {
    fn default() -> Self {
        RandConfig {
            threads: 2,
            ops_per_thread: 4,
            locations: 2,
            fence_prob: 0.15,
            store_prob: 0.5,
            data_dep_prob: 0.25,
            branch_prob: 0.0,
            rmw_prob: 0.0,
            addr_dep_prob: 0.0,
        }
    }
}

/// Generates a random loop-free program.
///
/// Every store writes a globally unique value (its sequence number), so
/// distinct sources are always distinguishable in outcomes.
///
/// # Examples
///
/// ```
/// use samm_litmus::rand_prog::{random_program, RandConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let prog = random_program(&mut rng, &RandConfig::default());
/// assert_eq!(prog.threads().len(), 2);
/// ```
pub fn random_program<R: Rng + ?Sized>(rng: &mut R, config: &RandConfig) -> Program {
    let mut unique_value = 1u64;
    let mut threads = Vec::with_capacity(config.threads);
    for _ in 0..config.threads {
        let mut instrs: Vec<Instr> = Vec::with_capacity(config.ops_per_thread);
        let mut next_reg = 0usize;
        let mut loaded_regs: Vec<Reg> = Vec::new();
        let mut slots = 0usize;
        while slots < config.ops_per_thread {
            let mut addr = Operand::Imm(Value::new(rng.gen_range(0..config.locations)));
            if config.addr_dep_prob > 0.0
                && !loaded_regs.is_empty()
                && rng.gen_bool(config.addr_dep_prob)
            {
                addr = Operand::Reg(*loaded_regs.choose(rng).expect("non-empty"));
            }
            if rng.gen_bool(config.fence_prob) {
                instrs.push(Instr::Fence);
                slots += 1;
                continue;
            }
            // Optional forward branch guarding the next instruction.
            if !loaded_regs.is_empty()
                && slots + 1 < config.ops_per_thread
                && rng.gen_bool(config.branch_prob)
            {
                let cond = *loaded_regs.choose(rng).expect("non-empty");
                // Branch over exactly one following instruction.
                instrs.push(Instr::BranchNz {
                    cond: Operand::Reg(cond),
                    target: instrs.len() + 2,
                });
                slots += 1;
                // Fall through to emit the guarded instruction below.
            }
            if rng.gen_bool(config.rmw_prob) {
                let dst = Reg::new(next_reg);
                next_reg += 1;
                loaded_regs.push(dst);
                let op = match rng.gen_range(0..3) {
                    0 => samm_core::instr::RmwOp::Swap,
                    1 => samm_core::instr::RmwOp::FetchAdd,
                    // Expect small values so CAS both succeeds and fails
                    // across interleavings.
                    _ => samm_core::instr::RmwOp::Cas {
                        expect: Operand::Imm(Value::new(rng.gen_range(0..3))),
                    },
                };
                let v = Operand::Imm(Value::new(unique_value));
                unique_value += 1;
                instrs.push(Instr::Rmw {
                    dst,
                    addr,
                    op,
                    src: v,
                });
                slots += 1;
                continue;
            }
            if rng.gen_bool(config.store_prob) {
                let val = if !loaded_regs.is_empty() && rng.gen_bool(config.data_dep_prob) {
                    Operand::Reg(*loaded_regs.choose(rng).expect("non-empty"))
                } else {
                    let v = Operand::Imm(Value::new(unique_value));
                    unique_value += 1;
                    v
                };
                instrs.push(Instr::Store { addr, val });
            } else {
                let dst = Reg::new(next_reg);
                next_reg += 1;
                loaded_regs.push(dst);
                instrs.push(Instr::Load { dst, addr });
            }
            slots += 1;
        }
        // Branch targets may point one past the end; ThreadProgram allows
        // that, but a branch emitted at the very last slot could target
        // len+1. Clamp.
        let len = instrs.len();
        for instr in &mut instrs {
            if let Instr::BranchNz { target, .. } = instr {
                *target = (*target).min(len);
            }
        }
        threads.push(ThreadProgram::new(instrs));
    }
    Program::new(threads)
}

/// A fixed corpus of interesting shapes for deterministic sweeps: `count`
/// programs derived from `seed`.
pub fn corpus(seed: u64, count: usize, config: &RandConfig) -> Vec<Program> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| random_program(&mut rng, config))
        .collect()
}

/// An N-thread store-buffering chain used by the scaling benchmarks:
/// thread `i` stores to location `i` then loads location `(i+1) % n`.
pub fn sb_chain(n: usize) -> Program {
    let threads = (0..n)
        .map(|i| {
            ThreadProgram::new(vec![
                Instr::Store {
                    addr: Operand::Imm(Value::new(i as u64)),
                    val: Operand::Imm(Value::new(1)),
                },
                Instr::Load {
                    dst: Reg::new(0),
                    addr: Operand::Imm(Value::new(((i + 1) % n) as u64)),
                },
            ])
        })
        .collect();
    Program::new(threads)
}

/// A single thread issuing `n` alternating stores/loads over `locations`
/// addresses — used by closure/graph micro-benchmarks.
pub fn straightline(n: usize, locations: u64) -> Program {
    let mut instrs = Vec::with_capacity(n);
    let mut reg = 0usize;
    for i in 0..n {
        let addr = Operand::Imm(Value::new(i as u64 % locations));
        if i % 2 == 0 {
            instrs.push(Instr::Store {
                addr,
                val: Operand::Imm(Value::new(i as u64 + 1)),
            });
        } else {
            instrs.push(Instr::Load {
                dst: Reg::new(reg),
                addr,
            });
            reg += 1;
        }
    }
    Program::new(vec![ThreadProgram::new(instrs)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use samm_core::enumerate::{enumerate, EnumConfig};
    use samm_core::policy::Policy;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let cfg = RandConfig::default();
        assert_eq!(random_program(&mut a, &cfg), random_program(&mut b, &cfg));
    }

    #[test]
    fn generated_programs_enumerate_under_all_models() {
        let cfg = RandConfig {
            branch_prob: 0.2,
            ..RandConfig::default()
        };
        for (i, prog) in corpus(7, 10, &cfg).iter().enumerate() {
            for policy in [
                Policy::sequential_consistency(),
                Policy::tso(),
                Policy::weak(),
            ] {
                let r = enumerate(prog, &policy, &EnumConfig::default());
                assert!(
                    r.is_ok(),
                    "program {i} under {} failed: {r:?}",
                    policy.name()
                );
                assert!(!r.unwrap().outcomes.is_empty());
            }
        }
    }

    #[test]
    fn register_held_addresses_are_generated_on_request() {
        let cfg = RandConfig {
            addr_dep_prob: 0.5,
            ..RandConfig::default()
        };
        let register_held = |prog: &Program| {
            prog.threads().iter().flat_map(|t| t.instrs()).any(|i| {
                matches!(
                    i,
                    Instr::Load {
                        addr: Operand::Reg(_),
                        ..
                    } | Instr::Store {
                        addr: Operand::Reg(_),
                        ..
                    }
                )
            })
        };
        let programs = corpus(11, 10, &cfg);
        assert!(programs.iter().any(register_held));
        assert!(!corpus(11, 10, &RandConfig::default())
            .iter()
            .any(register_held));
    }

    #[test]
    fn store_values_are_unique() {
        let mut rng = StdRng::seed_from_u64(3);
        let prog = random_program(
            &mut rng,
            &RandConfig {
                threads: 3,
                ops_per_thread: 5,
                store_prob: 1.0,
                fence_prob: 0.0,
                data_dep_prob: 0.0,
                ..RandConfig::default()
            },
        );
        let mut values = Vec::new();
        for t in prog.threads() {
            for i in t.instrs() {
                if let Instr::Store {
                    val: Operand::Imm(v),
                    ..
                } = i
                {
                    values.push(v.raw());
                }
            }
        }
        let before = values.len();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), before);
    }

    #[test]
    fn sb_chain_shape() {
        let p = sb_chain(4);
        assert_eq!(p.threads().len(), 4);
        for t in p.threads() {
            assert_eq!(t.instrs().len(), 2);
        }
    }

    #[test]
    fn straightline_shape() {
        let p = straightline(9, 3);
        assert_eq!(p.threads().len(), 1);
        assert_eq!(p.threads()[0].instrs().len(), 9);
        let r = enumerate(&p, &Policy::weak(), &EnumConfig::default()).unwrap();
        assert_eq!(r.outcomes.len(), 1, "single thread is deterministic");
    }
}
