//! Experimenting with custom memory models (paper section 8: "it is easy
//! to experiment with a broad range of memory models simply by changing
//! the requirements for instruction reordering").
//!
//! Builds a hypothetical model — SC with *only* same-address load→load
//! ordering dropped ("SC-minus-CoRR") — and locates it in the bracketing
//! chain by running the classic suite.
//!
//! Run with: `cargo run --release --example custom_model`

use samm::core::enumerate::EnumConfig;
use samm::core::policy::{Constraint, OpClass, Policy};
use samm::core::pruned::enumerate_pruned;
use samm::litmus::catalog;

fn main() {
    // Start from SC and relax exactly one entry: later loads may pass
    // earlier loads (any address).
    let table = Policy::sequential_consistency().table().with_entry(
        OpClass::Load,
        OpClass::Load,
        Constraint::Free,
    );
    let custom = Policy::custom("SC-minus-LL", table);

    println!("=== a custom model: SC with load->load dropped ===\n");
    println!("{custom}");

    let config = EnumConfig {
        keep_executions: false,
        ..EnumConfig::default()
    };

    println!(
        "\n{:<12} {:>6} {:>12} {:>6} {:>6}",
        "test", "SC", "SC-minus-LL", "TSO", "Weak"
    );
    for entry in catalog::all() {
        let count = |p: &Policy| {
            enumerate_pruned(&entry.test.program, p, &config)
                .expect("enumeration succeeds")
                .outcomes
                .len()
        };
        let sc = count(&Policy::sequential_consistency());
        let cu = count(&custom);
        let tso = count(&Policy::tso());
        let weak = count(&Policy::weak());
        println!(
            "{:<12} {:>6} {:>12} {:>6} {:>6}{}",
            entry.test.name,
            sc,
            cu,
            tso,
            weak,
            if cu > sc {
                "   <- relaxation visible"
            } else {
                ""
            }
        );
    }

    // Sanity: the custom model sits between SC and Weak on every program.
    for entry in catalog::all() {
        let sc = enumerate_pruned(
            &entry.test.program,
            &Policy::sequential_consistency(),
            &config,
        )
        .unwrap()
        .outcomes;
        let cu = enumerate_pruned(&entry.test.program, &custom, &config)
            .unwrap()
            .outcomes;
        let weak = enumerate_pruned(&entry.test.program, &Policy::weak(), &config)
            .unwrap()
            .outcomes;
        assert!(
            sc.is_subset(&cu),
            "{}: SC ⊆ custom violated",
            entry.test.name
        );
        assert!(
            cu.is_subset(&weak),
            "{}: custom ⊆ Weak violated",
            entry.test.name
        );
    }
    println!("\nSC ⊆ SC-minus-LL ⊆ Weak holds on the whole catalog ✔");
    println!("(note how CoRR and IRIW light up: they are exactly the load->load tests)");
}
