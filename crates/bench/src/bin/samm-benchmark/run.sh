#!/usr/bin/env bash
# Builds samm-serve and samm-benchmark from source into one target
# directory, then runs the benchmark with the given arguments.
#
#   bash crates/bench/src/bin/samm-benchmark/run.sh --workload warm-singles --seed 1 --seconds 20 --trace 0
#   bash crates/bench/src/bin/samm-benchmark/run.sh --seed 1 --out bench.json
#   bash crates/bench/src/bin/samm-benchmark/run.sh compare A.json B.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
# Both builds share one target directory, so samm-serve lands next to
# the benchmark executable. A relative CARGO_TARGET_DIR is taken from
# the directory the script was started in, as cargo does.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p samm-serve --bin samm-serve
cargo build --release --quiet --manifest-path "$here/Cargo.toml"
exec "$target/release/samm-benchmark" "$@"
