#!/usr/bin/env bash
# Regenerates both committed performance ledgers at the repository root:
#
#   BENCH_serve.json  one traced run of every BENCHMARK.json workload
#                     against the live samm-serve, every answer checked
#                     (samm-benchmark, seed 1, 20 s per workload); each
#                     workload's per-layer rows carry `machine.slowdown`
#   BENCH_enum.json   engine-only wall time per (test, engine), min and
#                     mean of N runs, with the verdict pass flags
#                     (samm-bench-report)
#
#   bash crates/bench/ledger.sh
#
# Both writers exit non-zero on a wrong answer, and so does this script.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
bash crates/bench/src/bin/samm-benchmark/run.sh --seed 1 --out BENCH_serve.json
cargo run --release --quiet -p samm-bench --bin samm-bench-report -- --out BENCH_enum.json --iters 20
