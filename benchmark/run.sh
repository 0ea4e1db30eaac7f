#!/usr/bin/env bash
# Builds the evematch and repro_fig12 binaries and the benchmark from
# source, then runs the benchmark with the given arguments. Run it from
# the root of the repository:
#
#     bash benchmark/run.sh --workload cli-exact --seed 11 --seconds 12 --trace 0
#
# Outside a full checkout the build fails and the script exits non-zero.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline --manifest-path Cargo.toml --bin evematch --bin repro_fig12
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
