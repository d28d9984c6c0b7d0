//! `samm-prunecheck` — differential correctness and regression gate for
//! the prune-before-expand enumeration engine.
//!
//! Two checks, both required for a zero exit:
//!
//! 1. **Equivalence.** Every catalog entry under every selectable model
//!    is enumerated fresh by the serial oracle and by
//!    [`samm_core::pruned::enumerate_pruned`]; outcome sets and
//!    `distinct_executions` must match exactly.
//! 2. **Speed.** The E20 workload (fresh enumeration of IRIW under the
//!    weak model, outcomes only) is timed for both engines, their runs
//!    interleaved; the serial median over the pruned median must be at
//!    least `--min-speedup` (default 3×). Both engines run in the same
//!    process on the same host phase, so the ratio does not move with
//!    the host's speed the way a comparison against a recorded time
//!    does. The documented E20 baseline (763 µs) is still printed for
//!    reference. With the claim table disabled, so that every fork is
//!    expanded, the ratio falls below 1×.
//!
//! ```text
//! samm-prunecheck [--min-speedup X] [--iters N] [--quick]
//! ```
//!
//! `--quick` restricts the equivalence sweep to the paper figures
//! (for local runs); CI runs the full catalog.

use std::process::ExitCode;
use std::time::Instant;

use samm_core::enumerate::{enumerate, EnumConfig};
use samm_core::policy::Policy;
use samm_core::pruned::{enumerate_pruned, enumerate_pruned_stats};
use samm_litmus::catalog;

/// E20 baseline from EXPERIMENTS.md: fresh serial enumeration of IRIW
/// under the weak model measured at 763 µs. Printed, not gated on.
const E20_BASELINE_US: f64 = 763.0;

fn median_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

fn main() -> ExitCode {
    let mut min_speedup = 3.0f64;
    let mut iters = 60usize;
    let mut quick = false;
    let mut obs = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--obs" => obs = true,
            "--min-speedup" => {
                min_speedup = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--min-speedup requires a number");
            }
            "--iters" => {
                iters = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--iters requires a number");
            }
            "--quick" => quick = true,
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let config = EnumConfig::builder().keep_executions(false).build();
    let entries = if quick {
        catalog::paper_figures()
    } else {
        catalog::all()
    };

    // Check 1: behaviour-set equality across the catalog.
    let mut checked = 0usize;
    let mut failed = 0usize;
    for entry in &entries {
        for model in entry.models() {
            let policy = model.policy();
            let serial = enumerate(&entry.test.program, &policy, &config)
                .expect("serial enumeration succeeds");
            let pruned = enumerate_pruned(&entry.test.program, &policy, &config)
                .expect("pruned enumeration succeeds");
            checked += 1;
            if serial.outcomes != pruned.outcomes
                || serial.stats.distinct_executions != pruned.stats.distinct_executions
            {
                failed += 1;
                eprintln!(
                    "MISMATCH {} under {}: serial {}/{} vs pruned {}/{}",
                    entry.test.name,
                    model.name(),
                    serial.outcomes.len(),
                    serial.stats.distinct_executions,
                    pruned.outcomes.len(),
                    pruned.stats.distinct_executions,
                );
            }
        }
    }
    println!("equivalence: {checked} (entry, model) pairs checked, {failed} mismatches");

    // Check 2: E20 speedup (fresh IRIW under weak, outcomes only).
    let iriw = catalog::iriw();
    let weak = Policy::weak();
    let run_serial = || {
        let r = enumerate(&iriw.test.program, &weak, &config).unwrap();
        assert!(!r.outcomes.is_empty());
    };
    let run_pruned = || {
        let r = enumerate_pruned(&iriw.test.program, &weak, &config).unwrap();
        assert!(!r.outcomes.is_empty());
    };
    let time = |f: &dyn Fn()| -> f64 {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64() * 1e6
    };
    // One warmup each, then alternate, so a change in the host's speed
    // during the run reaches both engines alike.
    run_serial();
    run_pruned();
    let (serial, pruned): (Vec<f64>, Vec<f64>) = (0..iters)
        .map(|_| (time(&run_serial), time(&run_pruned)))
        .unzip();
    let (serial_us, pruned_us) = (median_us(serial), median_us(pruned));
    let speedup = serial_us / pruned_us;
    let baseline_speedup = E20_BASELINE_US / pruned_us;
    let (result, pstats) = enumerate_pruned_stats(&iriw.test.program, &weak, &config).unwrap();
    println!(
        "E20 fresh IRIW/weak: serial {serial_us:.1} µs, pruned {pruned_us:.1} µs, \
         speedup {speedup:.1}× (documented baseline {E20_BASELINE_US} µs, \
         {baseline_speedup:.1}× vs baseline)"
    );
    println!(
        "pruned counters: {{\"stats\":{},\"in_place\":{}}}",
        result.stats.to_json(),
        pstats.in_place
    );
    if obs {
        // Micro-timings of the per-fork primitives, to steer optimization.
        let full = EnumConfig::builder().keep_executions(true).build();
        let execs = enumerate(&iriw.test.program, &weak, &full)
            .unwrap()
            .executions;
        let reps = 2000usize;
        let t0 = Instant::now();
        let mut sink = 0usize;
        for _ in 0..reps {
            for e in &execs {
                sink += e.clone().graph().len();
            }
        }
        let clone_ns = t0.elapsed().as_nanos() as f64 / (reps * execs.len()) as f64;
        let t1 = Instant::now();
        for _ in 0..reps {
            for e in &execs {
                sink += e.canonical_key().len();
            }
        }
        let key_ns = t1.elapsed().as_nanos() as f64 / (reps * execs.len()) as f64;
        println!(
            "micro: Behavior::clone {clone_ns:.0} ns, canonical_key {key_ns:.0} ns \
             (over {} complete IRIW executions, sink {sink})",
            execs.len()
        );
        let ocfg = EnumConfig::builder()
            .keep_executions(false)
            .observe(true)
            .build();
        let s = enumerate(&iriw.test.program, &weak, &ocfg).unwrap();
        let p = enumerate_pruned(&iriw.test.program, &weak, &ocfg).unwrap();
        println!("serial obs: {}", s.stats.obs.expect("observed"));
        println!(
            "serial explored/forks/deduped: {}/{}/{}",
            s.stats.explored, s.stats.forks, s.stats.deduped
        );
        println!("pruned obs: {}", p.stats.obs.expect("observed"));
        println!(
            "pruned explored/forks/deduped: {}/{}/{}",
            p.stats.explored, p.stats.forks, p.stats.deduped
        );
    }

    let mut passed = true;
    if failed > 0 {
        eprintln!("FAIL: {failed} behaviour-set mismatches");
        passed = false;
    }
    if speedup < min_speedup {
        eprintln!(
            "FAIL: pruned {speedup:.1}× faster than serial in this process, \
             below threshold {min_speedup}×"
        );
        passed = false;
    }
    if !passed {
        return ExitCode::FAILURE;
    }
    println!("OK");
    ExitCode::SUCCESS
}
