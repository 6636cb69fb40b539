//! Chrome-trace (Trace Event Format) export.
//!
//! The output loads in Perfetto / `chrome://tracing`: one track (`tid`)
//! per rank, complete (`"X"`) events for phase spans, instant (`"i"`)
//! events for marks, and counter (`"C"`) events for gauge samples.
//! Timestamps are microseconds with three decimals — exact nanoseconds,
//! via [`Json::Micros`]. Output is deterministic: ranks ascending, events
//! in recorded order.

use crate::event::{Event, EventKind, Mark};
use crate::json::Json;
use crate::trace::RunTrace;

/// Build the Chrome-trace document for a set of per-rank traces.
pub(crate) fn chrome_trace(traces: &[RunTrace]) -> Json {
    let mut events = Vec::new();
    for trace in traces {
        events.push(thread_name_event(trace.rank));
        emit_rank(trace, &mut events);
    }
    Json::obj([
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
    ])
}

/// The Chrome-trace document for a set of per-rank traces, serialized to
/// a string ready to write to a `.json` file.
pub fn chrome_trace_string(traces: &[RunTrace]) -> String {
    chrome_trace(traces).to_string()
}

fn tid(rank: u32) -> Json {
    Json::U64(u64::from(rank))
}

fn track_label(rank: u32) -> String {
    if rank == Event::KERNEL_RANK {
        "kernel".to_string()
    } else {
        format!("rank {rank}")
    }
}

fn thread_name_event(rank: u32) -> Json {
    Json::obj([
        ("ph", Json::Str("M".into())),
        ("pid", Json::U64(0)),
        ("tid", tid(rank)),
        ("name", Json::Str("thread_name".into())),
        ("args", Json::obj([("name", Json::Str(track_label(rank)))])),
    ])
}

fn emit_rank(trace: &RunTrace, out: &mut Vec<Json>) {
    // Spans become "X" (complete) events, in the order they closed.
    for span in trace.spans() {
        let mut args = Vec::new();
        if let Some(iter) = span.iter {
            args.push(("iter".to_string(), Json::U64(iter)));
        }
        if let Some(depth) = span.depth {
            args.push(("depth".to_string(), Json::U64(depth)));
        }
        out.push(Json::obj([
            ("ph", Json::Str("X".into())),
            ("pid", Json::U64(0)),
            ("tid", tid(trace.rank)),
            ("ts", Json::Micros(span.start_ns)),
            ("dur", Json::Micros(span.duration_ns())),
            ("name", Json::Str(span.phase.name().into())),
            ("cat", Json::Str("phase".into())),
            ("args", Json::Obj(args)),
        ]));
    }
    // Marks and gauges, in recorded order.
    for ev in &trace.events {
        match ev.kind {
            EventKind::Mark(mark) => out.push(Json::obj([
                ("ph", Json::Str("i".into())),
                ("pid", Json::U64(0)),
                ("tid", tid(trace.rank)),
                ("ts", Json::Micros(ev.t_ns)),
                ("name", Json::Str(mark.name().into())),
                ("cat", Json::Str("mark".into())),
                ("s", Json::Str("t".into())),
                ("args", mark_args(mark)),
            ])),
            EventKind::GaugeSample { gauge, value } => out.push(Json::obj([
                ("ph", Json::Str("C".into())),
                ("pid", Json::U64(0)),
                ("tid", tid(trace.rank)),
                ("ts", Json::Micros(ev.t_ns)),
                ("name", Json::Str(gauge.name().into())),
                ("args", Json::obj([("value", Json::U64(value))])),
            ])),
            EventKind::Span { .. } => {}
        }
    }
}

fn mark_args(mark: Mark) -> Json {
    match mark {
        Mark::MsgSent { to, bytes } => {
            Json::obj([("to", Json::U64(to.into())), ("bytes", Json::U64(bytes))])
        }
        Mark::MsgRecv { from, bytes } => Json::obj([
            ("from", Json::U64(from.into())),
            ("bytes", Json::U64(bytes)),
        ]),
        Mark::Speculation { peer, ahead } => Json::obj([
            ("peer", Json::U64(peer.into())),
            ("ahead", Json::U64(ahead.into())),
        ]),
        Mark::Misspeculation { peer, iter } => {
            Json::obj([("peer", Json::U64(peer.into())), ("iter", Json::U64(iter))])
        }
        Mark::Correction { peer, depth } => Json::obj([
            ("peer", Json::U64(peer.into())),
            ("depth", Json::U64(depth)),
        ]),
        Mark::Rollback { to_iter } => Json::obj([("to_iter", Json::U64(to_iter))]),
        Mark::Commit { iter } => Json::obj([("iter", Json::U64(iter))]),
        Mark::MessageDropped { to, bytes } => {
            Json::obj([("to", Json::U64(to.into())), ("bytes", Json::U64(bytes))])
        }
        Mark::MessageDuplicated { to, copies } => Json::obj([
            ("to", Json::U64(to.into())),
            ("copies", Json::U64(copies.into())),
        ]),
        Mark::PeerCrashed { peer }
        | Mark::PeerRecovered { peer }
        | Mark::PeerSuspected { peer }
        | Mark::PeerQuarantined { peer }
        | Mark::PeerRejoined { peer }
        | Mark::PeerDeparted { peer } => Json::obj([("peer", Json::U64(peer.into()))]),
        Mark::DegradedEnter | Mark::DegradedExit => Json::obj([]),
        Mark::DeltaSuppressed { to, bytes } => {
            Json::obj([("to", Json::U64(to.into())), ("bytes", Json::U64(bytes))])
        }
        Mark::TimerFired { waited_ns } => Json::obj([("waited_ns", Json::U64(waited_ns))]),
        Mark::RecvWakeup { from, waited_ns } => Json::obj([
            ("from", Json::U64(from.into())),
            ("waited_ns", Json::U64(waited_ns)),
        ]),
        Mark::ControllerRetune {
            fw,
            theta_ppb,
            deadline_ns,
        } => Json::obj([
            ("fw", Json::U64(fw.into())),
            ("theta_ppb", Json::U64(theta_ppb)),
            ("deadline_ns", Json::U64(deadline_ns)),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Gauge, Phase};
    use crate::recorder::Recorder;

    fn sample_traces() -> Vec<RunTrace> {
        let mut r = Vec::new();
        r.span(0, 1_000, 4_500, Phase::Compute, Some(3), Some(1));
        r.mark(0, 4_500, Mark::MsgSent { to: 1, bytes: 64 });
        r.gauge(0, 4_500, Gauge::ExecQueueDepth, 2);
        r.span(1, 0, 9_000, Phase::CommWait, None, None);
        RunTrace::split_by_rank(r)
    }

    #[test]
    fn span_event_carries_exact_micros_and_args() {
        let doc = chrome_trace(&sample_traces());
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .unwrap();
        assert_eq!(span.get("name").and_then(Json::as_str), Some("compute"));
        assert_eq!(span.get("ts").unwrap().to_string(), "1.000");
        assert_eq!(span.get("dur").unwrap().to_string(), "3.500");
        assert_eq!(
            span.get("args")
                .and_then(|a| a.get("iter"))
                .and_then(Json::as_u64),
            Some(3)
        );
    }
}
