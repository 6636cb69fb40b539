//! The [`Recorder`] sink trait and its stock implementations.
//!
//! Instrumented code holds an `Option<&mut dyn Recorder>` (or a struct
//! field of `Option<Box<dyn Recorder>>`): the disabled path is a `None`
//! branch — no allocation, no virtual-time cost, no label formatting.
//! Enabled paths build a plain [`Event`] (all-`Copy`) and hand it to
//! [`Recorder::record`].

use std::sync::{Arc, Mutex};

use crate::event::{Event, EventKind, Gauge, Mark, Phase};

/// A sink for telemetry events.
///
/// One required method keeps implementations trivial; the provided helpers
/// exist so instrumentation sites read as what they mean.
pub trait Recorder: Send {
    /// Accept one event.
    fn record(&mut self, event: Event);

    /// Record the closed phase span `[start_ns, end_ns]` on `rank`.
    fn span(
        &mut self,
        rank: u32,
        start_ns: u64,
        end_ns: u64,
        phase: Phase,
        iter: Option<u64>,
        depth: Option<u64>,
    ) {
        debug_assert!(start_ns <= end_ns, "span ends before it begins");
        self.record(Event {
            t_ns: end_ns,
            rank,
            kind: EventKind::Span {
                phase,
                start_ns,
                iter,
                depth,
            },
        });
    }

    /// Record a point event.
    fn mark(&mut self, rank: u32, t_ns: u64, mark: Mark) {
        self.record(Event {
            t_ns,
            rank,
            kind: EventKind::Mark(mark),
        });
    }

    /// Record a gauge sample.
    fn gauge(&mut self, rank: u32, t_ns: u64, gauge: Gauge, value: u64) {
        self.record(Event {
            t_ns,
            rank,
            kind: EventKind::GaugeSample { gauge, value },
        });
    }
}

/// The unit tests' in-memory sink: every event appended, in arrival order.
#[cfg(test)]
impl Recorder for Vec<Event> {
    fn record(&mut self, event: Event) {
        self.push(event);
    }
}

/// A cloneable handle to one shared in-memory event log.
///
/// The pattern for cluster runs: create one `SharedRecorder` outside,
/// clone it into every rank's closure (each clone attaches to that rank's
/// transport), and [`drain`](SharedRecorder::drain) the combined stream
/// afterwards. Events carry their rank, so a single shared sink loses
/// nothing; within a rank, order is preserved.
#[derive(Clone, Debug, Default)]
pub struct SharedRecorder {
    inner: Arc<Mutex<Vec<Event>>>,
}

impl SharedRecorder {
    /// A fresh, empty shared recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Remove and return everything recorded so far (all ranks interleaved,
    /// per-rank order preserved).
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.inner.lock().expect("recorder mutex poisoned"))
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("recorder mutex poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Recorder for SharedRecorder {
    fn record(&mut self, event: Event) {
        self.inner
            .lock()
            .expect("recorder mutex poisoned")
            .push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_recorder_keeps_order() {
        let mut r = Vec::new();
        r.mark(0, 15, Mark::Commit { iter: 1 });
        r.span(0, 10, 20, Phase::Compute, Some(1), Some(0));
        assert_eq!(r.len(), 2);
        assert!(matches!(
            r[0].kind,
            EventKind::Mark(Mark::Commit { iter: 1 })
        ));
        assert_eq!(r[1].t_ns, 20);
        assert!(matches!(r[1].kind, EventKind::Span { start_ns: 10, .. }));
    }

    #[test]
    fn shared_recorder_merges_clones() {
        let shared = SharedRecorder::new();
        let mut a = shared.clone();
        let mut b = shared.clone();
        a.gauge(0, 1, Gauge::ExecQueueDepth, 2);
        b.gauge(1, 2, Gauge::ExecQueueDepth, 3);
        assert_eq!(shared.len(), 2);
        let ev = shared.drain();
        assert_eq!(ev[0].rank, 0);
        assert_eq!(ev[1].rank, 1);
        assert!(shared.is_empty());
    }
}
