//! # speccheck — deterministic conformance & property-testing harness
//!
//! The workspace's correctness claims are mostly *equivalences*: the
//! speculative driver with θ = 0 (or FW = 0) is bit-identical to the
//! blocking baseline; a [`mpk::FaultSpec::none`] run is bit-identical to
//! a fault-free one; the virtual-time simulator, the real-thread backend,
//! and the TCP socket backend agree on final values under exact
//! semantics; and a seeded run
//! reproduces bit-for-bit regardless of how same-virtual-time event ties
//! are broken. Hand-picked examples exercise each claim once; this crate
//! exercises them across *generated scenario space*:
//!
//! * [`scenario`] — plain-data scenario descriptions (machine ramps,
//!   delay/load models, FW/BW/θ grids, fault stacks, small workload
//!   instances) and [`proptest`] strategies that draw and *shrink* them
//!   with domain knowledge.
//! * [`harness`] — differential runners that execute one scenario under
//!   different transports, drivers, fault specs, or tie-breaks and
//!   reduce each run to per-rank state [fingerprints](obs::Fingerprint).
//! * [`oracles`] — invariant checks valid for every run: exhaustive
//!   phase accounting, speculate-through-loss commit bounds,
//!   checkpoint/restore round-trips, momentum conservation of the
//!   symmetric N-body kernel.
//! * [`alloc`] — the counting global allocator behind the workspace's
//!   zero-allocation hot-path oracles.
//! * [`golden`] — golden-file comparison with the uniform
//!   `SPEC_UPDATE_GOLDENS=1` regeneration workflow.
//!
//! The property suites live in this crate's `tests/` directory so their
//! shrunk counterexamples persist to `crates/speccheck/proptest-regressions/`
//! (checked in; replayed before fresh cases on every run). `ci.sh` runs
//! the default 64 cases per property; the `extended` suite behind
//! `--ignored` sweeps 1024 cases for nightly use.

#![warn(missing_docs)]

pub mod alloc;
pub mod golden;
pub mod harness;
pub mod oracles;
pub mod scenario;

pub use golden::assert_matches_golden;
pub use harness::{
    drive_synthetic, drive_synthetic_aio, run_sim, run_sim_values, run_sim_with_faults, run_socket,
    run_socket_with_faults, run_thread, run_thread_with_faults, DriverMode, KernelReport,
    RunOutput,
};
pub use scenario::{
    delay_model, exact_spec_params, fault_stack_scenario, load_scenario, loss_scenario,
    spec_params, synthetic_scenario, synthetic_scenario_up_to, DelayModel, FaultScenario,
    LoadScenario, SpecParams, SyntheticScenario,
};
