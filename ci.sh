#!/usr/bin/env bash
# Repository CI gate: formatting, lints, docs, tests, the perf-ledger
# harness's own checks, the public-surface audit, the release-build
# contracts and the release experiments golden. No step times anything:
# wall-clock performance is judged by the perf ledger (BENCHMARK.json).
# Run from anywhere.
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
# package's: speccheck's conformance matrix and property suites (fixed
# seeds, 64 cases per in-process row or property, 12 per socket row; the
# checked-in regression corpus under crates/speccheck/proptest-regressions/
# replays every historical counterexample first), mpk's transport
# contract on all three backends, the root kernel_goldens suite, and the
# 376 unit tests of mpk, speccore, nbody, workloads, netsim, obs and
# perfmodel.
cargo test -q --workspace

echo "== perf-ledger harness (fmt, clippy, unit tests)"
# benchmark/ is a package of its own, outside the workspace.
benchmark/run.sh --check

echo "== mutant table (patterns only, no build)"
# Every row of ci/mutants.txt still names a pattern that occurs exactly
# once in its file, so the on-demand kill matrix (ci/mutants.sh with no
# argument) cannot rot silently.
ci/mutants.sh --check

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

echo "CI green."
