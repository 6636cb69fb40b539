//! The telemetry tap every endpoint carries: where a rank's recorder is
//! kept, and the only place the transports' message marks are built.
//!
//! Every method takes the time as a closure and reads it once, after
//! finding a recorder attached: with none, a call is one `None` branch and
//! no clock read, and the marks of one call share one timestamp.

use obs::{Mark, Recorder};

use crate::faults::Verdict;
use crate::types::{Envelope, Rank, WireSize};

/// One rank's telemetry sink, if it has one.
pub(crate) struct Tap {
    rank: u32,
    rec: Option<Box<dyn Recorder>>,
}

impl Tap {
    /// The tap of `rank`, with nothing attached.
    pub(crate) fn new(rank: Rank) -> Self {
        Tap {
            rank: rank.0 as u32,
            rec: None,
        }
    }

    pub(crate) fn attach(&mut self, rec: Box<dyn Recorder>) {
        self.rec = Some(rec);
    }

    /// What the endpoint's `recorder()` hands the algorithm.
    pub(crate) fn recorder(&mut self) -> Option<&mut (dyn Recorder + 'static)> {
        self.rec.as_deref_mut()
    }

    /// The recorder and the time, if there is a recorder.
    #[inline]
    fn at(&mut self, t_ns: impl FnOnce() -> u64) -> Option<(&mut dyn Recorder, u64)> {
        let rec = self.rec.as_deref_mut()?;
        Some((rec, t_ns()))
    }

    /// Any other point event (the socket backend's membership changes).
    pub(crate) fn mark(&mut self, t_ns: impl FnOnce() -> u64, mark: Mark) {
        let rank = self.rank;
        if let Some((rec, t)) = self.at(t_ns) {
            rec.mark(rank, t, mark);
        }
    }

    /// A send of `bytes` left for `to` and met `verdict`: sent, then
    /// dropped or — if any — duplicated.
    pub(crate) fn fated(
        &mut self,
        t_ns: impl FnOnce() -> u64,
        to: Rank,
        bytes: usize,
        verdict: Verdict,
    ) {
        let (rank, to, bytes) = (self.rank, to.0 as u32, bytes as u64);
        let Some((rec, t)) = self.at(t_ns) else {
            return;
        };
        rec.mark(rank, t, Mark::MsgSent { to, bytes });
        match verdict {
            Verdict::Dropped => rec.mark(rank, t, Mark::MessageDropped { to, bytes }),
            Verdict::Deliver { copies: 0, .. } => {}
            Verdict::Deliver { copies, .. } => {
                rec.mark(rank, t, Mark::MessageDuplicated { to, copies })
            }
        }
    }

    /// A frame of `bytes` for `to` was lost below the fault layer, on a
    /// dead link: dropped without ever counting as sent.
    pub(crate) fn lost(&mut self, t_ns: impl FnOnce() -> u64, to: Rank, bytes: usize) {
        let (to, bytes) = (to.0 as u32, bytes as u64);
        self.mark(t_ns, Mark::MessageDropped { to, bytes });
    }

    /// `env` reached the caller, as its payload plus `header` bytes — and
    /// woke it, if a timed receive armed at `armed_ns` was waiting.
    pub(crate) fn received<M: WireSize>(
        &mut self,
        t_ns: impl FnOnce() -> u64,
        env: &Envelope<M>,
        header: usize,
        armed_ns: Option<u64>,
    ) {
        let (rank, from) = (self.rank, env.src.0 as u32);
        let Some((rec, t)) = self.at(t_ns) else {
            return;
        };
        if let Some(armed_ns) = armed_ns {
            let waited_ns = t - armed_ns;
            rec.mark(rank, t, Mark::RecvWakeup { from, waited_ns });
        }
        let bytes = (env.msg.wire_size() + header) as u64;
        rec.mark(rank, t, Mark::MsgRecv { from, bytes });
    }

    /// A timed receive armed at `armed_ns` ran out with nothing.
    pub(crate) fn timer_fired(&mut self, t_ns: impl FnOnce() -> u64, armed_ns: u64) {
        let rank = self.rank;
        if let Some((rec, t)) = self.at(t_ns) {
            let waited_ns = t - armed_ns;
            rec.mark(rank, t, Mark::TimerFired { waited_ns });
        }
    }
}
