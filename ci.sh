#!/usr/bin/env bash
# Repository CI gate: formatting, lints, tests. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings"
# Broken, ambiguous and public-to-private intra-doc links fail the build.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --keep-going

echo "== cargo test --workspace"
# Every crate's unit, integration and doc tests, not only the root
# package's: the speccheck conformance/property/controller suites (64
# cases per property, fixed seeds; the checked-in regression corpus under
# crates/speccheck/proptest-regressions/ replays every historical
# counterexample first), the root kernel_goldens suite, and the ~300 unit
# tests of mpk, speccore, nbody, workloads, netsim, obs and perfmodel.
cargo test -q --workspace

echo "== perf-ledger harness (fmt, clippy, unit tests)"
# benchmark/ is a package of its own, outside the workspace.
benchmark/run.sh --check

echo "== public-surface audit (strict)"
# Every `pub` item of the eight product crates is used outside its crate
# or allowlisted with a reason in ci/public_surface.allow; a stale
# allowlist entry fails too.
ci/coverage_audit.sh --strict

echo "== allocation contract (release)"
# The per-call and per-rank-iteration allocation counts are claims about
# the optimised build the perf ledger measures, not only the debug one.
cargo test --release --test hot_path_alloc -q

echo "== nbody bit contract (release)"
# The SoA force kernels' bit equality with the scalar reference (and the
# pinned engine fingerprints) is a claim about the vectorized
# target-cpu=native code, which only the release build produces.
cargo test --release -p nbody -q

echo "== chaos suite (release, fixed seeds)"
# Seed-matrix fault injection: composed loss/duplication/partitions plus
# a scripted crash, asserting liveness, bounded error, and bit-exact
# determinism per seed. Seeds are fixed inside the tests.
cargo test --release --test chaos -q

echo "== socket SIGKILL chaos (release, multi-process, hard timeout)"
# One OS process per rank over loopback TCP; the highest rank is
# SIGKILLed mid-run and restarted via the RESUME handshake. Asserts
# termination, survivor quarantine/readmission, and bounded error vs
# the fault-free reference. The timeout is a hard backstop: the run
# itself finishes in ~10s, and its internal 90s deadline kills stuck
# children with a diagnostic first.
timeout 150 cargo test --release --test chaos_socket \
    socket_rank_survives_sigkill_and_rejoins -- --exact --ignored --nocapture

echo "== experiments (release) against the golden"
# The workspace tests check tests/golden/experiments.txt in a debug
# build; this pins that release prints the same bytes, which the
# release-built perf ledger relies on.
cargo run -q --release -p spec-bench --bin experiments | diff - tests/golden/experiments.txt

echo "== kernels bench smoke (release)"
# Emits BENCH_kernels.json under target/bench-out/ (cargo bench -p runs
# with the package dir as cwd; the emitter creates the directory):
# wall-clock pairs/sec for the scalar and SoA force kernels (self,
# partition, and the incremental correction with a tenth of the sources
# bad) at N ∈ {1024, 4096}. A scalar-vs-SoA A/B to read, not a gate:
# wall-clock numbers are judged by the perf ledger (BENCHMARK.json).
SPEC_BENCH_OUT="$PWD/target/bench-out" cargo bench -q -p spec-bench --bench kernels

echo "CI green."
