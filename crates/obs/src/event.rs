//! The typed event vocabulary of the telemetry subsystem.
//!
//! Everything a recorder can capture is one of four shapes: a phase span
//! boundary ([`EventKind::SpanBegin`]/[`EventKind::SpanEnd`]), a point
//! [`Mark`] (message sent, misspeculation, rollback, …), or a [`Gauge`]
//! sample (queue depths, event-heap size). Timestamps are raw `u64`
//! nanoseconds and ranks raw `u32` so this crate stays dependency-free and
//! every layer of the workspace — from the simulation kernel up to the
//! benches — can emit into it without a cycle.

/// The phases of the speculative driver, mirroring
/// `speccore::PhaseBreakdown` field for field so span totals can be
/// compared bit-for-bit against the driver's own accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Useful computation (absorbing inputs, finishing iterations).
    Compute,
    /// Blocked waiting for messages.
    CommWait,
    /// Producing speculated input values.
    Speculate,
    /// Comparing speculated against actual values.
    Check,
    /// Incremental correction of misspeculated inputs.
    Correct,
}

impl Phase {
    /// Every phase, in `PhaseBreakdown` field order.
    pub(crate) const ALL: [Phase; 5] = [
        Phase::Compute,
        Phase::CommWait,
        Phase::Speculate,
        Phase::Check,
        Phase::Correct,
    ];

    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::CommWait => "comm_wait",
            Phase::Speculate => "speculate",
            Phase::Check => "check",
            Phase::Correct => "correct",
        }
    }
}

/// A point event: something that happened at an instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mark {
    /// A message left this rank.
    MsgSent {
        /// Destination rank.
        to: u32,
        /// Payload plus header bytes on the wire.
        bytes: u64,
    },
    /// A message was taken off this rank's mailbox.
    MsgRecv {
        /// Source rank.
        from: u32,
        /// Payload plus header bytes on the wire.
        bytes: u64,
    },
    /// A peer's input was speculated rather than awaited.
    Speculation {
        /// The peer whose value was predicted.
        peer: u32,
        /// How many iterations ahead of its last actual the prediction ran.
        ahead: u32,
    },
    /// A speculation check failed (error above θ).
    Misspeculation {
        /// The peer whose prediction was wrong.
        peer: u32,
        /// Iteration the bad input fed.
        iter: u64,
    },
    /// An incremental correction repaired a misspeculated input.
    Correction {
        /// The peer whose input was corrected.
        peer: u32,
        /// How many iterations had already been computed on top.
        depth: u64,
    },
    /// Execution rolled back to a confirmed checkpoint.
    Rollback {
        /// First iteration to re-execute.
        to_iter: u64,
    },
    /// An iteration was confirmed (all inputs actual or validated).
    Commit {
        /// The confirmed iteration.
        iter: u64,
    },
    /// The fault layer dropped a message at send time (loss, partition, or
    /// a crashed destination).
    MessageDropped {
        /// Destination rank the message never reached.
        to: u32,
        /// Payload plus header bytes that were lost.
        bytes: u64,
    },
    /// The fault layer delivered extra copies of a message.
    MessageDuplicated {
        /// Destination rank.
        to: u32,
        /// Number of extra copies injected (beyond the original).
        copies: u32,
    },
    /// A rank crashed (scripted), losing its volatile state.
    PeerCrashed {
        /// The crashed rank.
        peer: u32,
    },
    /// A crashed rank finished restarting and rejoined the computation.
    PeerRecovered {
        /// The recovered rank.
        peer: u32,
    },
    /// A peer has been silent past the heartbeat miss deadline — it may be
    /// dead, but no disconnect has been observed yet.
    PeerSuspected {
        /// The silent rank.
        peer: u32,
    },
    /// A suspected peer stayed silent long enough that the driver stopped
    /// waiting for its inputs: its partition is carried forward by
    /// speculation alone until it rejoins.
    PeerQuarantined {
        /// The quarantined rank.
        peer: u32,
    },
    /// A quarantined peer was heard from again and was readmitted: the
    /// driver ships it a full keyframe and resets the delta shadows before
    /// resuming θ-checking against its values.
    PeerRejoined {
        /// The readmitted rank.
        peer: u32,
    },
    /// A peer announced an orderly exit (goodbye frame) rather than
    /// vanishing — its absence is expected, not a failure.
    PeerDeparted {
        /// The departing rank.
        peer: u32,
    },
    /// The first peer entered quarantine: the cluster is now running in
    /// degraded mode, committing some iterations on speculation alone.
    DegradedEnter,
    /// The last quarantined peer rejoined (or departed): the cluster left
    /// degraded mode.
    DegradedExit,
    /// A delta frame replaced a full snapshot on the wire, saving bytes.
    DeltaSuppressed {
        /// Destination rank of the delta frame.
        to: u32,
        /// Bytes the full snapshot would have cost minus what the delta
        /// frame actually cost (zero when the delta was larger).
        bytes: u64,
    },
    /// A timed receive's deadline expired with no message: the transport
    /// woke on its (single) timer event, not on an arrival.
    TimerFired {
        /// How long the receive blocked before the deadline hit.
        waited_ns: u64,
    },
    /// A blocked timed receive was woken by a message arriving before its
    /// deadline.
    RecvWakeup {
        /// Source rank of the message that did the waking.
        from: u32,
        /// How long the receive blocked before the arrival.
        waited_ns: u64,
    },
    /// The adaptive speculation controller evaluated a retune at a
    /// confirmation boundary and (re)published its decision.
    ControllerRetune {
        /// The forward window now in force.
        fw: u32,
        /// The acceptance threshold now in force, in parts per billion
        /// (θ × 10⁹, saturating; `u64::MAX` when θ is not managed).
        theta_ppb: u64,
        /// The tightest adaptive per-peer loss deadline in force, in
        /// nanoseconds (0 while every peer still uses the static timeout).
        deadline_ns: u64,
    },
}

impl Mark {
    /// Stable lowercase name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            Mark::MsgSent { .. } => "msg_sent",
            Mark::MsgRecv { .. } => "msg_recv",
            Mark::Speculation { .. } => "speculation",
            Mark::Misspeculation { .. } => "misspeculation",
            Mark::Correction { .. } => "correction",
            Mark::Rollback { .. } => "rollback",
            Mark::Commit { .. } => "commit",
            Mark::MessageDropped { .. } => "message_dropped",
            Mark::MessageDuplicated { .. } => "message_duplicated",
            Mark::PeerCrashed { .. } => "peer_crashed",
            Mark::PeerRecovered { .. } => "peer_recovered",
            Mark::PeerSuspected { .. } => "peer_suspected",
            Mark::PeerQuarantined { .. } => "peer_quarantined",
            Mark::PeerRejoined { .. } => "peer_rejoined",
            Mark::PeerDeparted { .. } => "peer_departed",
            Mark::DegradedEnter => "degraded_enter",
            Mark::DegradedExit => "degraded_exit",
            Mark::DeltaSuppressed { .. } => "delta_suppressed",
            Mark::TimerFired { .. } => "timer_fired",
            Mark::RecvWakeup { .. } => "recv_wakeup",
            Mark::ControllerRetune { .. } => "controller_retune",
        }
    }
}

/// A sampled instantaneous quantity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Gauge {
    /// Executed-but-unconfirmed iterations in the driver's queue (the
    /// forward-window depth actually in flight).
    ExecQueueDepth,
    /// The window policy's current forward window.
    WindowSize,
    /// Iterations with buffered not-yet-consumed peer inputs.
    InboxDepth,
    /// Pending events in the simulation kernel's heap.
    EventHeapSize,
}

impl Gauge {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::ExecQueueDepth => "exec_queue_depth",
            Gauge::WindowSize => "window_size",
            Gauge::InboxDepth => "inbox_depth",
            Gauge::EventHeapSize => "event_heap_size",
        }
    }
}

/// What happened, without the when/who.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// A phase interval opened.
    SpanBegin {
        /// Which phase.
        phase: Phase,
        /// Iteration the span belongs to, if meaningful.
        iter: Option<u64>,
        /// Forward-window depth at the time, if meaningful.
        depth: Option<u64>,
    },
    /// The most recent open span of this phase closed.
    SpanEnd {
        /// Which phase.
        phase: Phase,
    },
    /// A point event.
    Mark(Mark),
    /// A gauge sample.
    GaugeSample {
        /// Which gauge.
        gauge: Gauge,
        /// Its instantaneous value.
        value: u64,
    },
}

/// One recorded telemetry event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Nanosecond timestamp (virtual time on the simulated backend,
    /// wall-clock since cluster start on the thread backend).
    pub t_ns: u64,
    /// Emitting rank. [`Event::KERNEL_RANK`] for kernel-level events that
    /// belong to no rank.
    pub rank: u32,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Pseudo-rank for events emitted by the simulation kernel itself
    /// (e.g. event-heap gauges) rather than by a rank.
    pub const KERNEL_RANK: u32 = u32::MAX;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_unique_and_ordered() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec!["compute", "comm_wait", "speculate", "check", "correct"]
        );
    }

    #[test]
    fn mark_names_are_stable() {
        assert_eq!(Mark::MsgSent { to: 1, bytes: 2 }.name(), "msg_sent");
        assert_eq!(Mark::Rollback { to_iter: 3 }.name(), "rollback");
        assert_eq!(Mark::TimerFired { waited_ns: 7 }.name(), "timer_fired");
        assert_eq!(
            Mark::RecvWakeup {
                from: 1,
                waited_ns: 7
            }
            .name(),
            "recv_wakeup"
        );
        assert_eq!(
            Mark::ControllerRetune {
                fw: 2,
                theta_ppb: 10_000_000,
                deadline_ns: 5_000_000
            }
            .name(),
            "controller_retune"
        );
    }
}
