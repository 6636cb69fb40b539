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
//! * [`Lanes`] — the shared value as a fixed list of `f64` rows, over which
//!   delta exchange and the default speculation are written once;
//! * [`run_speculative_aio`] — the Figure 3 driver, generalized to any
//!   forward window (§3.2) with checkpoint/rollback; an empty window
//!   ([`SpecConfig::baseline`]) is Figure 1, and the window can be resized
//!   at run time by the controller ([`ControllerConfig`]);
//! * [`History`] — the backward window (BW) of past peer values;
//! * [`speculator`] — linear extrapolation lane by lane, the linear member
//!   of the paper's §3.1 weighted-sum family;
//! * [`RunStats`]/[`ClusterStats`] — phase timings and miss counters
//!   matching the paper's Tables 2–3 measurements;
//! * [`ControllerConfig`] — the adaptive speculation controller: online
//!   θ/FW/deadline retuning from observed telemetry through the
//!   `perfmodel` §4 equations.
//!
//! The driver is generic over [`mpk::AsyncTransport`], so the same
//! application code runs deterministically in virtual time (for
//! experiments) and on real threads or sockets (for demos), where
//! [`mpk::poll_ready`] completes it in one poll.

#![warn(missing_docs)]
#![deny(unsafe_code)]
// The 150-line ceiling is set in the workspace's `clippy.toml`.
#![cfg_attr(not(test), warn(clippy::too_many_lines))]

mod app;
mod config;
mod control;
mod driver;
mod history;
mod peer;
pub mod speculator;
mod stats;
mod window;

pub use app::{CheckOutcome, Lanes, SpeculativeApp};
pub use config::{CorrectionMode, DeltaExchange, FaultTolerance, SpecConfig, SupervisionConfig};
pub use control::ControllerConfig;
pub use driver::{run_speculative_aio, IterMsg};
pub use history::History;
pub use stats::{ClusterStats, IterationLog, PhaseBreakdown, RunStats};
