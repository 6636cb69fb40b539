#!/usr/bin/env bash
# The one command: build the benchmark offline in release mode with the
# repository's .cargo/config.toml, then run it. See README.md.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--workload NAME]
#       every workload (or one) untraced, then traced; prints every metric
#       as `name value unit`, checks outputs, writes out/results.json
#   benchmark/run.sh --aa [--seed N] [--workload NAME]
#       the same code against itself: per workload, 3 + 3 untraced runs
#       alternating between two sets, whose medians must agree within the
#       bounds; writes out/aa.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is its JSON result
#   benchmark/run.sh --check
#       cargo fmt --check, clippy -D warnings and the harness unit tests
#   benchmark/run.sh --print-benchmark-json
#       the contents BENCHMARK.json must have
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
manifest=benchmark/Cargo.toml

if [[ "${1:-}" == "--check" ]]; then
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --offline --release --manifest-path "$manifest" --all-targets -- -D warnings
    cargo test --offline --release --manifest-path "$manifest"
    exit
fi

cargo build --quiet --offline --release --manifest-path "$manifest" >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/perf-ledger" "$@"
