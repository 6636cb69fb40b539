//! # mpk — a message-passing kernel in the spirit of PVM
//!
//! The paper's experiments run "under the PVM programming environment using
//! the message passing paradigm" on a network of workstations. Rust's MPI
//! story is thin, so this crate provides the message-passing substrate from
//! scratch: a small transport interface (identity, async send, blocking and
//! non-blocking receive, charged computation, a clock) with three
//! interchangeable backends:
//!
//! * [`run_sim_proc_cluster`] / [`SimIo`] — ranks are `async` processes of
//!   the [`desim`] virtual-time kernel on a [`netsim`] cluster:
//!   deterministic, seedable, instantaneous, all on the calling thread.
//!   All quantitative experiments use this.
//! * [`run_thread_cluster`] / [`ThreadTransport`] — ranks are real OS
//!   threads exchanging messages through in-process mailboxes with
//!   optionally injected latency: the live "channel-based port".
//! * [`run_socket_cluster`] / [`SocketTransport`] — ranks are processes
//!   (or loopback threads) exchanging length-prefixed frames over a full
//!   mesh of real TCP sockets: delay and disconnects come from the
//!   kernel's network stack, not a model.
//!
//! The interface has two spellings. [`Transport`] is the blocking one the
//! thread and socket endpoints implement; [`AsyncTransport`] is the one
//! algorithms are written against — [`SimIo`] implements it by suspending
//! into the event kernel, and every [`Transport`] implements it with
//! futures that resolve on first poll, which [`poll_ready`] runs to
//! completion. Algorithms written once against [`AsyncTransport`] run on
//! all three.
//!
//! What the backends must agree on is written once, in private modules
//! they all call: the fault gate (`faults` — a [`FaultSpec`]'s fate model,
//! crash plan and per-rank [`FaultCounters`], consulted once per send),
//! the telemetry tap (`tap` — the only builder of the message marks) and,
//! for the two wall-clock backends, the clock `compute`/`now`/`sleep`
//! read (`clock`).

#![warn(missing_docs)]
#![deny(unsafe_code)]
// `SimIo` shares its network state through a `RefCell`; a borrow held
// across an `.await` would still be alive when another rank runs.
#![deny(clippy::await_holding_refcell_ref)]
// `clippy.toml` caps a function at 150 lines: the three `send` bodies stay
// short enough to compare.
#![cfg_attr(not(test), warn(clippy::too_many_lines))]

mod backoff;
mod clock;
mod codec;
mod delta;
mod faults;
mod frame;
// The product crates' one `unsafe` block: the `ppoll(2)` binding.
#[allow(unsafe_code)]
mod poll;
mod sim;
mod socket;
mod tap;
mod threads;
mod transport;
mod types;

pub use codec::{decode_exact, encode_to_vec, WireCodec};
pub use delta::DeltaFrame;
pub use faults::FaultSpec;
pub use sim::{
    run_sim_proc_cluster, run_sim_proc_cluster_with_faults, run_sim_proc_cluster_with_options,
    SimClusterOptions, SimIo,
};
pub use socket::{
    connect_socket_cluster, rejoin_socket_cluster, run_socket_cluster,
    run_socket_cluster_with_faults, SocketClusterOptions, SocketTransport, SupervisorOptions,
};
pub use threads::{
    run_thread_cluster, run_thread_cluster_with_faults, ThreadClusterOptions, ThreadTransport,
};
pub use transport::{poll_ready, AsyncTransport, Transport};
pub use types::{Envelope, FaultCounters, Rank, Tag, WireSize, HEADER_BYTES};
