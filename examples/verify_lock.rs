//! Verifying a locking algorithm by exhaustive enumeration — the paper's
//! section 8 use case: "it can also be used by programmers to guarantee
//! that a program actually behaves as expected (for example, to check that
//! a locking algorithm meets its specification)."
//!
//! Two threads race a test-and-set lock (one CAS attempt each); the winner
//! increments a shared counter and releases with a fenced store.
//!
//! The twist: the *naive* lock — with no fence between the acquire and the
//! critical section — is **broken under the weak model**, and enumeration
//! finds the bug: Figure 1 lets loads speculate past branches
//! (`Branch → Load` is unconstrained), so the critical-section load can
//! read the counter *before* the CAS acquires the lock. Adding an acquire
//! fence repairs it. This is exactly the programmers-finding-bugs workflow
//! the paper advertises.
//!
//! Run with: `cargo run --release --example verify_lock`

use samm::core::enumerate::EnumConfig;
use samm::core::outcome::Outcome;
use samm::core::pruned::enumerate_pruned;
use samm::litmus::{CompiledLitmus, LitmusBuilder, ModelSel};

fn lock_test(name: &str, acquire_fence: bool) -> CompiledLitmus {
    let body = move |t: &mut samm::litmus::builder::ThreadBuilder| {
        t.cas("r_acq", "lock", 0, 1).branch_nz("r_acq", "lost");
        if acquire_fence {
            t.fence();
        }
        t.load("r_old", "counter")
            .binop(
                "r_new",
                samm::core::instr::BinOp::Add,
                samm::litmus::ast::SymOperand::reg("r_old"),
                1.into(),
            )
            .store_reg("counter", "r_new")
            .fence()
            .store("lock", 0)
            .label("lost");
    };
    LitmusBuilder::new(name)
        .thread("P0", body)
        .thread("P1", body)
        .build()
        .expect("compiles")
}

/// The broken shape: both threads entered the critical section and both
/// read the initial counter — a lost update.
fn lost_update(test: &CompiledLitmus, o: &Outcome) -> bool {
    let acq = |t: usize| o.reg(t, test.reg(t, "r_acq")).raw();
    let old = |t: usize| o.reg(t, test.reg(t, "r_old")).raw();
    acq(0) == 0 && acq(1) == 0 && old(0) == 0 && old(1) == 0
}

fn check(test: &CompiledLitmus) {
    println!("--- {} ---", test.name);
    for model in ModelSel::ALL {
        let result = enumerate_pruned(
            &test.program,
            &model.policy(),
            &EnumConfig {
                keep_executions: false,
                ..EnumConfig::default()
            },
        )
        .expect("enumeration succeeds");
        let broken = result.outcomes.any(|o| lost_update(test, o));
        println!(
            "  {:9}: {:2} behaviours — {}",
            model.name(),
            result.outcomes.len(),
            if broken {
                "LOST UPDATE possible (lock broken)"
            } else {
                "mutual exclusion + visibility hold"
            }
        );
    }
    println!();
}

fn main() {
    println!("=== verifying a test-and-set lock by enumeration ===\n");

    let naive = lock_test("ts-lock (no acquire fence)", false);
    check(&naive);
    println!(
        "the naive lock is broken under the weak model: Figure 1 lets the\n\
         critical-section load speculate past the acquire branch, reading\n\
         the counter before the lock is held.\n"
    );

    let fixed = lock_test("ts-lock (acquire fence)", true);
    check(&fixed);

    // Machine-checked conclusions.
    for model in ModelSel::ALL {
        let cfg = EnumConfig {
            keep_executions: false,
            ..EnumConfig::default()
        };
        let fixed_outcomes = enumerate_pruned(&fixed.program, &model.policy(), &cfg)
            .unwrap()
            .outcomes;
        assert!(
            !fixed_outcomes.any(|o| lost_update(&fixed, o)),
            "{}: the fenced lock must be correct",
            model.name()
        );
    }
    let weak_naive = enumerate_pruned(
        &naive.program,
        &ModelSel::Weak.policy(),
        &EnumConfig {
            keep_executions: false,
            ..EnumConfig::default()
        },
    )
    .unwrap()
    .outcomes;
    assert!(
        weak_naive.any(|o| lost_update(&naive, o)),
        "the naive lock must be (detectably) broken under the weak model"
    );
    println!("the fenced lock meets its specification under every model ✔");
}
