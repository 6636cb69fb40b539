//! Optional trace recording: timestamped annotations emitted by processes.

use crate::process::ProcessId;
use crate::time::SimTime;

/// One annotation recorded via [`AsyncHandle::trace`](crate::AsyncHandle::trace)
/// or [`AsyncHandle::trace_with`](crate::AsyncHandle::trace_with).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the annotation.
    pub time: SimTime,
    /// Process that emitted it.
    pub pid: ProcessId,
    /// Free-form label.
    pub label: String,
}

/// Collector for trace events; disabled by default to keep runs cheap.
///
/// The disabled variant is a contract, not just a default: [`record`]
/// with tracing off neither allocates nor runs the label closure, so
/// instrumentation can stay in place on hot paths.
///
/// [`record`]: TraceLog::record
pub enum TraceLog {
    /// Drop every annotation without building its label.
    Disabled,
    /// Keep annotations in emission order.
    Enabled(Vec<TraceEvent>),
}

impl TraceLog {
    /// A log that ignores all records.
    pub fn disabled() -> Self {
        TraceLog::Disabled
    }

    /// A log that collects records.
    pub(crate) fn enabled() -> Self {
        TraceLog::Enabled(Vec::new())
    }

    /// Record an annotation. The label is built lazily so the disabled
    /// path performs no allocation or formatting.
    pub fn record(&mut self, time: SimTime, pid: ProcessId, label: impl FnOnce() -> String) {
        if let TraceLog::Enabled(events) = self {
            events.push(TraceEvent {
                time,
                pid,
                label: label(),
            });
        }
    }

    /// Drain the collected events (empty when disabled).
    pub fn take(&mut self) -> Vec<TraceEvent> {
        match self {
            TraceLog::Disabled => Vec::new(),
            TraceLog::Enabled(events) => std::mem::take(events),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::disabled();
        log.record(SimTime::ZERO, ProcessId(0), || "x".into());
        assert!(log.take().is_empty());
    }

    #[test]
    fn disabled_log_never_builds_the_label() {
        let mut log = TraceLog::disabled();
        log.record(SimTime::ZERO, ProcessId(0), || {
            panic!("label closure must not run when tracing is disabled")
        });
    }
}
