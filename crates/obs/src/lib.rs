//! Structured telemetry for the speculative-computation workspace.
//!
//! `obs` is the one vocabulary every layer emits into: the simulation
//! kernel samples its event heap, the transports mark message traffic, the
//! speculative driver records each phase as a typed span, and the apps and
//! benches digest the result. The design constraints, in order:
//!
//! 1. **Zero cost when disabled.** Instrumented code holds an
//!    `Option<&mut dyn Recorder>`; the disabled path is a branch on `None`
//!    — no allocation, no formatting, no virtual-time perturbation.
//! 2. **Bit-exact phase accounting.** Spans are emitted with the *same*
//!    `AsyncTransport::now()` readings the driver uses for its
//!    `PhaseBreakdown`, so per-rank span durations equal the phase totals
//!    bit for bit. On the simulator they also partition a rank's virtual
//!    run time exactly, and tests assert it; on the thread and socket
//!    backends the wall time between charged spans (sends, bookkeeping)
//!    is in no phase.
//! 3. **No dependencies.** Timestamps are `u64` nanoseconds, ranks are
//!    `u32`, JSON is hand-rolled ([`Json`]) — so `desim` can depend
//!    on `obs` without a cycle and the crate builds offline.
//!
//! The flow: instrumentation emits [`Event`]s into a [`Recorder`]
//! (typically a [`SharedRecorder`] cloned into every rank);
//! [`RunTrace::split_by_rank`] turns the drained stream into per-rank
//! traces, each with its [`PhaseTotals`] and [`CounterTotals`];
//! [`chrome_trace_string`] exports a Perfetto-loadable timeline, and
//! [`timeline::render`] an ASCII quick look.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod chrome;
mod event;
mod fingerprint;
mod json;
mod recorder;
pub mod timeline;
mod trace;

pub use chrome::chrome_trace_string;
pub use event::{Event, EventKind, Gauge, Mark, Phase};
pub use fingerprint::{fingerprint_f64s, Fingerprint};
pub use json::Json;
pub use recorder::{Recorder, SharedRecorder};
pub use trace::{CounterTotals, PhaseTotals, RunTrace, Span};
