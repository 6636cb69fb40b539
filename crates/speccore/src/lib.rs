//! # speccore — speculative computation for synchronous iterative algorithms
//!
//! This crate is the primary contribution of Govindan & Franklin's
//! *"Speculative Computation: Overcoming Communication Delays in Parallel
//! Algorithms"* (WUCS-94-3 / ICPP 1994), implemented as a reusable library.
//!
//! In a synchronous iterative algorithm, each of `p` processors updates its
//! partition of the problem every iteration using *every* partition's
//! previous values, so each iteration ends in an all-to-all exchange and a
//! wait. When communication is slow, the wait dominates. The paper's idea:
//!
//! > "While waiting for a message, the processor **speculates** the contents
//! > of the message and uses the speculated values in its computation. …
//! > When the message \[arrives\], the speculated and actual values are
//! > compared. If the error in speculation is large, the resulting
//! > computation is corrected or recomputed. If the error is small, the
//! > resulting computation is accepted, and [the processor] has effectively
//! > *masked* the communication delay."
//!
//! ## Pieces
//!
//! * [`SpeculativeApp`] — how an application exposes its iteration structure
//!   (absorb-per-peer + finish) plus speculation, checking, correction and
//!   checkpointing hooks;
//! * [`run_baseline`] / [`run_speculative`] — the Figure 1 and Figure 3
//!   drivers; the speculative driver generalizes to any forward window
//!   (§3.2) with checkpoint/rollback, and the window can be resized at
//!   run time by the controller ([`ControllerConfig`]);
//! * [`History`] — the backward window (BW) of past peer values;
//! * [`speculator`] — stock speculation functions (hold, linear, quadratic,
//!   weighted-sum — the paper's §3.1 family);
//! * [`RunStats`]/[`ClusterStats`] — phase timings and miss counters
//!   matching the paper's Tables 2–3 measurements;
//! * [`ControllerConfig`] — the adaptive speculation controller: online
//!   θ/FW/deadline retuning from observed telemetry through the
//!   `perfmodel` §4 equations.
//!
//! Drivers are generic over [`mpk::Transport`], so the same application code
//! runs deterministically in virtual time (for experiments) and on real
//! threads (for demos).

#![warn(missing_docs)]
#![deny(unsafe_code)]
// The 150-line ceiling is set in the workspace's `clippy.toml`.
#![cfg_attr(not(test), warn(clippy::too_many_lines))]

mod app;
mod config;
mod control;
mod driver;
mod history;
pub mod speculator;
mod stats;
mod window;

pub use app::{CheckOutcome, SpeculativeApp};
pub use config::{CorrectionMode, DeltaExchange, FaultTolerance, SpecConfig, SupervisionConfig};
pub use control::ControllerConfig;
pub use driver::{run_baseline, run_baseline_aio, run_speculative, run_speculative_aio, IterMsg};
pub use history::History;
pub use stats::{ClusterStats, IterationLog, PhaseBreakdown, RunStats};
