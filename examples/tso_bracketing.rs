//! Model bracketing across the whole catalog (paper section 6): prints,
//! for every litmus test, the number of distinct outcomes under each model
//! and whether each condition is observable — the `SC ⊆ TSO ⊆ PSO` and
//! `SC ⊆ NaiveTSO ⊆ Weak` chains made visible, with naive TSO shown as
//! the odd one out. (TSO and PSO are not inside Weak: reproduction
//! finding 4 in EXPERIMENTS.md.)
//!
//! Run with: `cargo run --release --example tso_bracketing`

use samm::core::enumerate::EnumConfig;
use samm::core::pruned::enumerate_pruned;
use samm::litmus::{catalog, ModelSel};

fn main() {
    let config = EnumConfig {
        keep_executions: false,
        ..EnumConfig::default()
    };
    let models = ModelSel::ALL;

    println!(
        "{:<12} {}",
        "test",
        models
            .iter()
            .map(|m| format!("{:>10}", m.name()))
            .collect::<String>()
    );
    println!("{}", "-".repeat(12 + 10 * models.len()));

    for entry in catalog::all() {
        let mut cells = Vec::new();
        let mut sets = Vec::new();
        for model in models {
            let outcomes = enumerate_pruned(&entry.test.program, &model.policy(), &config)
                .expect("enumeration succeeds")
                .outcomes;
            cells.push(format!("{:>10}", outcomes.len()));
            sets.push((model, outcomes));
        }
        println!("{:<12} {}", entry.test.name, cells.concat());

        // Per-condition observability row.
        for cond in &entry.test.conditions {
            let marks: String = sets
                .iter()
                .map(|(_, outcomes)| {
                    format!(
                        "{:>10}",
                        if cond.observable_in(outcomes) {
                            "yes"
                        } else {
                            "no"
                        }
                    )
                })
                .collect();
            println!("  {:<10} {}", truncate(&cond.text, 10), marks);
        }
    }

    println!("\ncolumns are distinct-outcome counts; yes/no rows show condition observability");
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_owned()
    } else {
        format!("{}..", &s[..n.saturating_sub(2)])
    }
}
