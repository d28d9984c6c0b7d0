//! Fence synthesis: where do the barriers go?
//!
//! The paper's section 8 calls for prescriptive tooling on top of the
//! descriptive enumeration. This example mechanically repairs every
//! weak-model-broken catalog test: for each forbidden condition that the
//! weak model can observe, it searches for the minimum set of fence
//! insertions that forbids it again — and reports the placements.
//!
//! Run with: `cargo run --release --example fence_synthesis`

use samm::core::enumerate::EnumConfig;
use samm::core::policy::Policy;
use samm::core::pruned::enumerate_pruned;
use samm::litmus::{catalog, fences, CondKind};

fn main() {
    let policy = Policy::weak();
    let config = EnumConfig {
        keep_executions: false,
        ..EnumConfig::default()
    };

    println!("=== minimal fence placements repairing the weak model ===\n");
    for entry in catalog::all() {
        for cond in &entry.test.conditions {
            if cond.kind != CondKind::Forbidden {
                continue;
            }
            let outcomes = enumerate_pruned(&entry.test.program, &policy, &config)
                .expect("enumeration succeeds")
                .outcomes;
            if !cond.observable_in(&outcomes) {
                continue; // already safe under the weak model
            }
            match fences::synthesize_fences(&entry.test.program, cond, &policy, 3, &config)
                .expect("enumeration succeeds")
            {
                Some(fix) => {
                    let spots: Vec<String> = fix
                        .placements
                        .iter()
                        .map(|&(t, pos)| format!("T{t} before op {pos}"))
                        .collect();
                    println!(
                        "{:<12} `{}`: {} fence(s) — {}",
                        entry.test.name,
                        cond.text,
                        fix.placements.len(),
                        if spots.is_empty() {
                            "none needed".to_owned()
                        } else {
                            spots.join(", ")
                        }
                    );
                }
                None => {
                    println!(
                        "{:<12} `{}`: NOT repairable by fences (a data race, not an ordering bug)",
                        entry.test.name, cond.text
                    );
                }
            }
        }
    }
    println!("\n(each fix is verified by re-enumeration: the condition is unobservable after)");
}
