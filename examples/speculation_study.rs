//! The Figure 8/9 case study: address-aliasing speculation introduces new
//! program behaviours (paper section 5).
//!
//! Enumerates the pointer program of Figure 8 with speculation off and on,
//! prints the outcome sets and their difference, and emits a DOT rendering
//! of the new speculative execution.
//!
//! Run with: `cargo run --example speculation_study`

use samm::core::dot::{render, DotOptions};
use samm::core::enumerate::EnumConfig;
use samm::core::policy::Policy;
use samm::core::pruned::enumerate_pruned;
use samm::core::speculation;
use samm::litmus::catalog;

fn main() {
    let entry = catalog::fig8();
    println!("=== {} ===", entry.test.name);
    println!("{}\n", entry.description);

    let report = speculation::compare(&entry.test.program, &Policy::weak(), &EnumConfig::default())
        .expect("enumeration succeeds");

    println!(
        "non-speculative: {} executions, {} outcomes",
        report.base.stats.distinct_executions,
        report.base.outcomes.len()
    );
    println!(
        "speculative:     {} executions, {} outcomes, {} forks rolled back",
        report.speculative.stats.distinct_executions,
        report.speculative.outcomes.len(),
        report.rollbacks()
    );
    assert!(
        report.base_is_subset(),
        "speculation must not lose behaviours"
    );

    let new = report.new_outcomes();
    println!(
        "\nbehaviours only possible with speculation ({}):",
        new.len()
    );
    for outcome in &new {
        println!("  {outcome}");
    }

    // Render the new speculative execution (the paper's Figure 9, right).
    let cond = &entry.test.conditions[0]; // L3 = 2, L6 = &z, L8 = 2
    let spec_result = enumerate_pruned(
        &entry.test.program,
        &Policy::weak().with_alias_speculation(true),
        &EnumConfig::default(),
    )
    .expect("enumeration succeeds");
    if let Some(exec) = spec_result
        .executions
        .iter()
        .find(|b| cond.matches(&b.outcome()))
    {
        let dot = render(
            exec,
            &DotOptions {
                title: "Figure 9 (right): new speculative behaviour".to_owned(),
                loads_and_stores_only: true,
                ..DotOptions::default()
            },
        );
        println!("\nDOT of the new behaviour (render with `dot -Tpng`):\n{dot}");
    }
}
