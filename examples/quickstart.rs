//! Quickstart: define a litmus test, enumerate its behaviours under three
//! memory models, and print the outcome sets.
//!
//! Run with: `cargo run --example quickstart`

use samm::core::enumerate::EnumConfig;
use samm::core::policy::Policy;
use samm::core::pruned::enumerate_pruned;
use samm::litmus::LitmusBuilder;

fn main() {
    // Store buffering (Dekker's pattern): can both threads miss each
    // other's store?
    let test = LitmusBuilder::new("SB")
        .thread("P0", |t| {
            t.store("x", 1).load("r0", "y");
        })
        .thread("P1", |t| {
            t.store("y", 1).load("r0", "x");
        })
        .forbid(&[("P0", "r0", 0), ("P1", "r0", 0)])
        .build()
        .expect("test compiles");

    println!("=== {} ===", test.name);
    println!("condition under test: {}\n", test.conditions[0]);

    for policy in [
        Policy::sequential_consistency(),
        Policy::tso(),
        Policy::weak(),
    ] {
        let result = enumerate_pruned(&test.program, &policy, &EnumConfig::default())
            .expect("enumeration succeeds");
        let observable = test.conditions[0].observable_in(&result.outcomes);
        println!(
            "{:6} {} distinct executions, {} outcomes, condition is {}",
            policy.name(),
            result.stats.distinct_executions,
            result.outcomes.len(),
            if observable { "ALLOWED" } else { "FORBIDDEN" }
        );
        for outcome in &result.outcomes {
            println!("         {outcome}");
        }
        println!();
    }

    // The weak model's reordering axioms, as in the paper's Figure 1.
    println!("{}", Policy::weak());
}
