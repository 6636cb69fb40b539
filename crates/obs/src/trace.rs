//! Assembling raw event streams into per-rank [`RunTrace`]s: spans, phase
//! totals, counter totals, gauge series.

use std::collections::HashMap;

use crate::event::{Event, EventKind, Mark, Phase};

/// A closed phase interval on one rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Which phase.
    pub phase: Phase,
    /// When it opened, nanoseconds.
    pub start_ns: u64,
    /// When it closed, nanoseconds.
    pub end_ns: u64,
    /// Iteration attribute, if recorded.
    pub iter: Option<u64>,
    /// Forward-window-depth attribute, if recorded.
    pub depth: Option<u64>,
}

impl Span {
    /// The span's length in nanoseconds.
    pub(crate) fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-phase accumulated span time, field-compatible with
/// `speccore::PhaseBreakdown` (nanoseconds instead of `SimDuration`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Total [`Phase::Compute`] time.
    pub compute: u64,
    /// Total [`Phase::CommWait`] time.
    pub comm_wait: u64,
    /// Total [`Phase::Speculate`] time.
    pub speculate: u64,
    /// Total [`Phase::Check`] time.
    pub check: u64,
    /// Total [`Phase::Correct`] time.
    pub correct: u64,
}

impl PhaseTotals {
    /// Time attributed to `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Compute => self.compute,
            Phase::CommWait => self.comm_wait,
            Phase::Speculate => self.speculate,
            Phase::Check => self.check,
            Phase::Correct => self.correct,
        }
    }

    fn add(&mut self, phase: Phase, d: u64) {
        match phase {
            Phase::Compute => self.compute += d,
            Phase::CommWait => self.comm_wait += d,
            Phase::Speculate => self.speculate += d,
            Phase::Check => self.check += d,
            Phase::Correct => self.correct += d,
        }
    }

    /// Sum over all phases.
    pub fn total(&self) -> u64 {
        self.compute + self.comm_wait + self.speculate + self.check + self.correct
    }
}

/// Totals derived from the point events of one rank.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterTotals {
    /// Messages sent.
    pub messages_sent: u64,
    /// Messages received.
    pub messages_received: u64,
    /// Wire bytes sent (payload + header).
    pub bytes_sent: u64,
    /// Wire bytes received (payload + header).
    pub bytes_received: u64,
    /// Inputs speculated.
    pub speculations: u64,
    /// Speculation checks that failed.
    pub misspeculations: u64,
    /// Incremental corrections applied.
    pub corrections: u64,
    /// Checkpoint rollbacks.
    pub rollbacks: u64,
    /// Iterations confirmed.
    pub commits: u64,
    /// Messages the fault layer dropped at send time.
    pub messages_dropped: u64,
    /// Extra message copies the fault layer injected.
    pub messages_duplicated: u64,
    /// [`Mark::PeerCrashed`] events: the rank's own scripted crashes (from
    /// the driver) plus remote links that dropped (from the socket
    /// transport).
    pub peer_crashes: u64,
    /// [`Mark::PeerRecovered`] events, from the same two emitters.
    pub peer_recoveries: u64,
    /// [`Mark::PeerSuspected`] events: the socket transport's wire-silence
    /// suspicions *plus* the driver's supervision suspicions, so on the
    /// socket backend this can exceed the driver's
    /// `RunStats::peers_suspected`, which counts only the latter.
    pub peers_suspected: u64,
    /// Peers the driver stopped waiting for (speculate-through-failure).
    pub peers_quarantined: u64,
    /// Quarantined peers heard from again and readmitted.
    pub peers_rejoined: u64,
    /// Peers that announced an orderly exit via goodbye frame.
    pub peers_departed: u64,
    /// Transitions into degraded mode (first peer quarantined).
    pub degraded_enters: u64,
    /// Transitions out of degraded mode (last quarantined peer back).
    pub degraded_exits: u64,
    /// Wire bytes saved by delta frames standing in for full snapshots.
    pub delta_suppressed_bytes: u64,
    /// Timed receives that expired on their deadline timer.
    pub timer_fires: u64,
    /// Blocked timed receives woken by an arrival before their deadline.
    pub recv_wakeups: u64,
    /// Total nanoseconds timed receives spent blocked before waking
    /// (summed over both timer expiries and arrival wakeups).
    pub wakeup_wait_ns: u64,
    /// Retune evaluations published by the adaptive speculation
    /// controller. Zero when the controller is off.
    pub controller_retunes: u64,
}

/// The telemetry of one rank over one run, in event order.
#[derive(Clone, Debug, Default)]
pub struct RunTrace {
    /// The rank these events belong to.
    pub rank: u32,
    /// Its events, time-ordered as recorded.
    pub events: Vec<Event>,
}

impl RunTrace {
    /// Split a combined event stream (e.g. from
    /// [`SharedRecorder::drain`](crate::SharedRecorder::drain)) into one
    /// trace per rank, ranks ascending, per-rank order preserved. The
    /// kernel pseudo-rank, if present, sorts last.
    pub fn split_by_rank(events: Vec<Event>) -> Vec<RunTrace> {
        let mut per_rank: HashMap<u32, Vec<Event>> = HashMap::new();
        for ev in events {
            per_rank.entry(ev.rank).or_default().push(ev);
        }
        let mut ranks: Vec<u32> = per_rank.keys().copied().collect();
        ranks.sort_unstable();
        ranks
            .into_iter()
            .map(|rank| RunTrace {
                rank,
                events: per_rank.remove(&rank).unwrap(),
            })
            .collect()
    }

    /// The closed [`Span`]s, in the order they closed.
    pub fn spans(&self) -> Vec<Span> {
        self.events
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::Span {
                    phase,
                    start_ns,
                    iter,
                    depth,
                } => Some(Span {
                    phase,
                    start_ns,
                    end_ns: ev.t_ns,
                    iter,
                    depth,
                }),
                _ => None,
            })
            .collect()
    }

    /// Per-phase total span time. When the instrumented code accounts every
    /// active nanosecond to exactly one phase (as the speculative driver
    /// does), `phase_totals().total()` equals the rank's total active time
    /// bit for bit.
    pub fn phase_totals(&self) -> PhaseTotals {
        let mut totals = PhaseTotals::default();
        for span in self.spans() {
            totals.add(span.phase, span.duration_ns());
        }
        totals
    }

    /// Totals of the point events.
    pub fn counter_totals(&self) -> CounterTotals {
        let mut c = CounterTotals::default();
        for ev in &self.events {
            if let EventKind::Mark(m) = ev.kind {
                match m {
                    Mark::MsgSent { bytes, .. } => {
                        c.messages_sent += 1;
                        c.bytes_sent += bytes;
                    }
                    Mark::MsgRecv { bytes, .. } => {
                        c.messages_received += 1;
                        c.bytes_received += bytes;
                    }
                    Mark::Speculation { .. } => c.speculations += 1,
                    Mark::Misspeculation { .. } => c.misspeculations += 1,
                    Mark::Correction { .. } => c.corrections += 1,
                    Mark::Rollback { .. } => c.rollbacks += 1,
                    Mark::Commit { .. } => c.commits += 1,
                    Mark::MessageDropped { .. } => c.messages_dropped += 1,
                    Mark::MessageDuplicated { copies, .. } => {
                        c.messages_duplicated += u64::from(copies)
                    }
                    Mark::PeerCrashed { .. } => c.peer_crashes += 1,
                    Mark::PeerRecovered { .. } => c.peer_recoveries += 1,
                    Mark::PeerSuspected { .. } => c.peers_suspected += 1,
                    Mark::PeerQuarantined { .. } => c.peers_quarantined += 1,
                    Mark::PeerRejoined { .. } => c.peers_rejoined += 1,
                    Mark::PeerDeparted { .. } => c.peers_departed += 1,
                    Mark::DegradedEnter => c.degraded_enters += 1,
                    Mark::DegradedExit => c.degraded_exits += 1,
                    Mark::DeltaSuppressed { bytes, .. } => c.delta_suppressed_bytes += bytes,
                    Mark::TimerFired { waited_ns } => {
                        c.timer_fires += 1;
                        c.wakeup_wait_ns += waited_ns;
                    }
                    Mark::RecvWakeup { waited_ns, .. } => {
                        c.recv_wakeups += 1;
                        c.wakeup_wait_ns += waited_ns;
                    }
                    Mark::ControllerRetune { .. } => c.controller_retunes += 1,
                }
            }
        }
        c
    }

    /// Timestamp of the last event, or 0 for an empty trace.
    pub(crate) fn end_ns(&self) -> u64 {
        self.events.last().map_or(0, |e| e.t_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Gauge;
    use crate::recorder::Recorder;

    fn sample_events() -> Vec<Event> {
        let mut r = Vec::new();
        // Rank 0: compute 10..40, wait 40..100, check 100..110.
        r.span(0, 10, 40, Phase::Compute, Some(0), Some(1));
        r.mark(
            0,
            70,
            Mark::MsgRecv {
                from: 1,
                bytes: 128,
            },
        );
        r.span(0, 40, 100, Phase::CommWait, None, None);
        r.span(0, 100, 110, Phase::Check, Some(0), Some(1));
        r.mark(0, 110, Mark::Commit { iter: 0 });
        r.gauge(0, 110, Gauge::ExecQueueDepth, 0);
        // Rank 1: one compute span and a send.
        r.mark(1, 5, Mark::MsgSent { to: 0, bytes: 128 });
        r.span(1, 5, 45, Phase::Compute, Some(0), Some(1));
        r
    }

    #[test]
    fn split_by_rank_orders_and_partitions() {
        let traces = RunTrace::split_by_rank(sample_events());
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].rank, 0);
        assert_eq!(traces[1].rank, 1);
        assert_eq!(traces[0].events.len(), 6);
        assert_eq!(traces[1].events.len(), 2);
    }

    #[test]
    fn spans_pair_and_total() {
        let traces = RunTrace::split_by_rank(sample_events());
        let spans = traces[0].spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].phase, Phase::Compute);
        assert_eq!(spans[0].duration_ns(), 30);
        assert_eq!(spans[0].iter, Some(0));
        let totals = traces[0].phase_totals();
        assert_eq!(totals.compute, 30);
        assert_eq!(totals.comm_wait, 60);
        assert_eq!(totals.check, 10);
        assert_eq!(totals.total(), 100);
        assert_eq!(totals.get(Phase::CommWait), 60);
    }

    #[test]
    fn counters_tally_marks() {
        let mut events = sample_events();
        for (t, fw) in [(50, 1), (90, 3)] {
            events.mark(
                0,
                t,
                Mark::ControllerRetune {
                    fw,
                    theta_ppb: 0,
                    deadline_ns: 0,
                },
            );
        }
        events.mark(0, 60, Mark::MessageDuplicated { to: 1, copies: 2 });
        events.mark(0, 70, Mark::PeerSuspected { peer: 1 });
        let traces = RunTrace::split_by_rank(events);
        let c0 = traces[0].counter_totals();
        assert_eq!((c0.messages_duplicated, c0.peers_suspected), (2, 1));
        assert_eq!(c0.messages_received, 1);
        assert_eq!(c0.bytes_received, 128);
        assert_eq!(c0.commits, 1);
        assert_eq!(c0.controller_retunes, 2);
        let c1 = traces[1].counter_totals();
        assert_eq!(c1.messages_sent, 1);
        assert_eq!(c1.bytes_sent, 128);
        assert_eq!(c1.controller_retunes, 0);
    }
}
