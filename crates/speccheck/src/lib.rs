//! # speccheck — deterministic conformance & property-testing harness
//!
//! The workspace's correctness claims are mostly *equivalences*: the
//! speculative driver with θ = 0 + recompute is bit-identical to the
//! blocking baseline (the same driver with FW = 0); a
//! [`mpk::FaultSpec::none`] run is bit-identical to a fault-free one; the
//! virtual-time simulator, the real-thread backend, and the TCP socket
//! backend agree on final values under exact semantics; and a seeded run
//! reproduces bit-for-bit regardless of how same-virtual-time event ties
//! are broken. Hand-picked examples exercise each claim once; this crate
//! exercises them across *generated scenario space*:
//!
//! * [`scenario`] — plain-data scenario descriptions (machine ramps,
//!   networks, FW/BW/θ grids, loss stacks, small workload instances) and
//!   [`proptest`] strategies that draw and *shrink* them with domain
//!   knowledge.
//! * [`harness`] — one differential runner, [`run`], that executes a
//!   scenario's synthetic app, or its N-body arm ([`NBodyScenario`]), on
//!   any [`Backend`] under any driver configuration, fault spec, or
//!   tie-break and reduces the run to per-rank state
//!   [fingerprints](obs::Fingerprint).
//! * [`oracles`] — invariant checks: exhaustive phase accounting of
//!   virtual time (simulator runs) and speculate-through-loss commit
//!   bounds.
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
    drive_synthetic_aio, run, Backend, KernelReport, NBodyScenario, RunOutput, Workload,
};
pub use scenario::{
    exact_spec_params, loss_scenario, spec_params, synthetic_scenario, synthetic_scenario_up_to,
    FaultScenario, SpecParams, SyntheticScenario,
};
