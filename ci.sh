#!/usr/bin/env bash
# Repository CI gate: formatting, lints, tests. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")"
BENCH_OUT="$PWD/target/bench-out"

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

echo "== coverage audit (informational)"
# Name-based audit of perfmodel/workloads public APIs against the test
# corpus. Informational here; pass --strict to fail on gaps.
ci/coverage_audit.sh | tail -n 3

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

echo "== kernels bench smoke (release)"
# Emits BENCH_kernels.json: wall-clock pairs/sec for the scalar and SoA
# force kernels (self, partition, and the incremental correction with a
# tenth of the sources bad) at N ∈ {1024, 4096}. SPEC_BENCH_OUT pins the
# four artifacts to target/bench-out/ (cargo bench -p runs with the
# package dir as cwd; the emitters create the directory), where
# ci/bench_gate.sh reads them — nothing is left in the repo root.
SPEC_BENCH_OUT="$BENCH_OUT" cargo bench -q -p spec-bench --bench kernels

echo "== transport bench smoke (release)"
# Emits BENCH_transport.json: messages/sec for broadcast and ping-pong
# traffic over all three Transport backends (sim, thread, socket), plus
# the deterministic full-vs-delta bytes-on-wire rows for the N-body
# exchange phase.
SPEC_BENCH_OUT="$BENCH_OUT" cargo bench -q -p spec-bench --bench transport_regression

echo "== scale sweep (release)"
# Emits BENCH_scale.json: wall-clock and peak-RSS rows for 1k/10k/100k
# simulated ranks in a heterogeneous token ring. The 10000-rank row is
# mandatory in the gate below.
SPEC_BENCH_OUT="$BENCH_OUT" cargo bench -q -p spec-bench --bench scale_sweep

echo "== controller sweep (release, deterministic virtual time)"
# Emits BENCH_controller.json: the fixed (θ, FW) grid vs the adaptive
# controller on the heterogeneous-delay + transient-spike scenario. All
# numbers are exact virtual-time nanoseconds.
SPEC_BENCH_OUT="$BENCH_OUT" cargo bench -q -p spec-bench --bench controller_sweep

echo "== transport regression gate (throughput floors + byte ceilings)"
# Compare the fresh BENCH_transport.json against the checked-in
# throughput floors (fail on >25% regression below budget), hold the
# exchange byte rows under their ceilings, and require delta mode to
# stay ≥3× cheaper per iteration than full broadcast. Also gates the
# fresh BENCH_scale.json: events/sec floors and RSS-per-rank ceilings
# per rank count, with the 10000-rank row mandatory, and the fresh
# BENCH_controller.json: the adaptive controller's makespan must stay
# within ratio_ceiling of the best fixed (θ, FW) grid point. Refresh
# with BENCH_UPDATE_BUDGETS=1 ci/bench_gate.sh after intentional changes
# or a CI hardware move.
ci/bench_gate.sh

echo "CI green."
