//! Machine-readable run reports: per-phase totals, per-rank timelines,
//! counter snapshots, and span-duration histograms, serialized as JSON.
//!
//! The JSON has a stable key order and exact integers, and is
//! self-describing enough to post-process without this crate.

use crate::event::{Gauge, Phase};
use crate::json::Json;
use crate::trace::{CounterTotals, PhaseTotals, RunTrace};

/// A power-of-two-bucketed histogram of nanosecond durations.
///
/// Bucket `i` counts values `v` with `floor(log2(v)) == i` (bucket 0 also
/// takes `v == 0`). 64 buckets cover the full `u64` range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: [0; 64] }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one value.
    pub fn record(&mut self, value_ns: u64) {
        let bucket = if value_ns <= 1 {
            0
        } else {
            63 - value_ns.leading_zeros() as usize
        };
        self.counts[bucket] += 1;
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Non-empty buckets as `(lower_bound_ns, upper_bound_ns, count)`,
    /// ascending. Bounds are inclusive-lower, exclusive-upper.
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| {
                let lo = if i == 0 { 0 } else { 1u64 << i };
                let hi = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
                (lo, hi, *c)
            })
            .collect()
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.buckets()
                .into_iter()
                .map(|(lo, hi, count)| {
                    Json::obj([
                        ("ge_ns", Json::U64(lo)),
                        ("lt_ns", Json::U64(hi)),
                        ("count", Json::U64(count)),
                    ])
                })
                .collect(),
        )
    }
}

/// The adaptive speculation controller's final published decision on one
/// rank, digested from its `ControllerRetune` marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ControllerDigest {
    /// Retune evaluations over the run.
    pub retunes: u64,
    /// Forward window in force at the end of the run.
    pub fw: u32,
    /// Acceptance threshold in force at the end, in parts per billion
    /// (`u64::MAX` when θ was not managed).
    pub theta_ppb: u64,
    /// Tightest adaptive per-peer deadline at the end, in nanoseconds
    /// (0 while every peer still used the static timeout).
    pub deadline_ns: u64,
}

/// One rank's digest of a run.
#[derive(Clone, Debug)]
pub struct RankReport {
    /// The rank.
    pub rank: u32,
    /// Per-phase span totals (nanoseconds).
    pub phases: PhaseTotals,
    /// Point-event totals.
    pub counters: CounterTotals,
    /// Number of closed spans.
    pub span_count: usize,
    /// Histogram of span durations, per phase (only non-empty phases).
    pub span_histograms: Vec<(Phase, Histogram)>,
    /// Final sample of each gauge that appeared, `(gauge, last value)`.
    pub final_gauges: Vec<(Gauge, u64)>,
    /// Adaptive-controller summary; `None` when no retune ever fired.
    pub controller: Option<ControllerDigest>,
}

/// A whole run's digest, serializable with [`RunReport::to_json`].
#[derive(Clone, Debug)]
pub struct RunReport {
    /// A label for the run (experiment name, figure id, …).
    pub name: String,
    /// The makespan in nanoseconds: the latest phase-span end over ranks.
    pub total_ns: u64,
    /// Per-rank digests, rank ascending.
    pub per_rank: Vec<RankReport>,
}

const GAUGES: [Gauge; 4] = [
    Gauge::ExecQueueDepth,
    Gauge::WindowSize,
    Gauge::InboxDepth,
    Gauge::EventHeapSize,
];

impl RunReport {
    /// Digest per-rank traces into a report.
    pub fn from_traces(name: impl Into<String>, traces: &[RunTrace]) -> RunReport {
        let mut total_ns = 0;
        let per_rank = traces
            .iter()
            .map(|trace| {
                let spans = trace.spans();
                let mut histograms: Vec<(Phase, Histogram)> = Vec::new();
                for span in &spans {
                    total_ns = total_ns.max(span.end_ns);
                    match histograms.iter_mut().find(|(p, _)| *p == span.phase) {
                        Some((_, h)) => h.record(span.duration_ns()),
                        None => {
                            let mut h = Histogram::new();
                            h.record(span.duration_ns());
                            histograms.push((span.phase, h));
                        }
                    }
                }
                histograms.sort_by_key(|(p, _)| Phase::ALL.iter().position(|q| q == p));
                let final_gauges = GAUGES
                    .iter()
                    .filter_map(|g| trace.gauge_series(*g).last().map(|(_, v)| (*g, *v)))
                    .collect();
                let counters = trace.counter_totals();
                let controller =
                    trace
                        .last_controller_decision()
                        .map(|(fw, theta_ppb, deadline_ns)| ControllerDigest {
                            retunes: counters.controller_retunes,
                            fw,
                            theta_ppb,
                            deadline_ns,
                        });
                RankReport {
                    rank: trace.rank,
                    phases: trace.phase_totals(),
                    counters,
                    span_count: spans.len(),
                    span_histograms: histograms,
                    final_gauges,
                    controller,
                }
            })
            .collect();
        RunReport {
            name: name.into(),
            total_ns,
            per_rank,
        }
    }

    /// Cluster-wide phase totals: the sum of every rank's.
    pub fn phase_totals(&self) -> PhaseTotals {
        let mut acc = PhaseTotals::default();
        for r in &self.per_rank {
            acc.compute += r.phases.compute;
            acc.comm_wait += r.phases.comm_wait;
            acc.speculate += r.phases.speculate;
            acc.check += r.phases.check;
            acc.correct += r.phases.correct;
        }
        acc
    }

    /// Cluster-wide wire-byte totals summed over every rank's counters:
    /// `(bytes_sent, bytes_received, delta_suppressed_bytes)`.
    pub fn byte_totals(&self) -> (u64, u64, u64) {
        self.per_rank.iter().fold((0, 0, 0), |(s, r, d), rank| {
            (
                s + rank.counters.bytes_sent,
                r + rank.counters.bytes_received,
                d + rank.counters.delta_suppressed_bytes,
            )
        })
    }

    /// The report as a JSON tree.
    pub fn to_json(&self) -> Json {
        let (bytes_sent, bytes_received, delta_suppressed) = self.byte_totals();
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("total_ns", Json::U64(self.total_ns)),
            ("ranks", Json::U64(self.per_rank.len() as u64)),
            ("phase_totals_ns", phases_json(&self.phase_totals())),
            (
                "byte_totals",
                Json::obj([
                    ("bytes_sent", Json::U64(bytes_sent)),
                    ("bytes_received", Json::U64(bytes_received)),
                    ("delta_suppressed_bytes", Json::U64(delta_suppressed)),
                ]),
            ),
            (
                "per_rank",
                Json::Arr(self.per_rank.iter().map(rank_json).collect()),
            ),
        ])
    }

    /// The report serialized, ready to write to a file.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}

fn phases_json(p: &PhaseTotals) -> Json {
    Json::Obj(
        Phase::ALL
            .iter()
            .map(|ph| (ph.name().to_string(), Json::U64(p.get(*ph))))
            .collect(),
    )
}

fn counters_json(c: &CounterTotals) -> Json {
    Json::obj([
        ("messages_sent", Json::U64(c.messages_sent)),
        ("messages_received", Json::U64(c.messages_received)),
        ("bytes_sent", Json::U64(c.bytes_sent)),
        ("bytes_received", Json::U64(c.bytes_received)),
        ("speculations", Json::U64(c.speculations)),
        ("misspeculations", Json::U64(c.misspeculations)),
        ("corrections", Json::U64(c.corrections)),
        ("rollbacks", Json::U64(c.rollbacks)),
        ("commits", Json::U64(c.commits)),
        ("messages_dropped", Json::U64(c.messages_dropped)),
        ("messages_duplicated", Json::U64(c.messages_duplicated)),
        ("peer_crashes", Json::U64(c.peer_crashes)),
        ("peer_recoveries", Json::U64(c.peer_recoveries)),
        ("peers_suspected", Json::U64(c.peers_suspected)),
        ("peers_quarantined", Json::U64(c.peers_quarantined)),
        ("peers_rejoined", Json::U64(c.peers_rejoined)),
        ("peers_departed", Json::U64(c.peers_departed)),
        ("degraded_enters", Json::U64(c.degraded_enters)),
        ("degraded_exits", Json::U64(c.degraded_exits)),
        (
            "delta_suppressed_bytes",
            Json::U64(c.delta_suppressed_bytes),
        ),
        ("timer_fires", Json::U64(c.timer_fires)),
        ("recv_wakeups", Json::U64(c.recv_wakeups)),
        ("wakeup_wait_ns", Json::U64(c.wakeup_wait_ns)),
        ("controller_retunes", Json::U64(c.controller_retunes)),
    ])
}

fn rank_json(r: &RankReport) -> Json {
    Json::obj([
        ("rank", Json::U64(u64::from(r.rank))),
        ("active_ns", Json::U64(r.phases.total())),
        ("phases_ns", phases_json(&r.phases)),
        ("counters", counters_json(&r.counters)),
        ("span_count", Json::U64(r.span_count as u64)),
        (
            "span_duration_histograms",
            Json::Obj(
                r.span_histograms
                    .iter()
                    .map(|(p, h)| (p.name().to_string(), h.to_json()))
                    .collect(),
            ),
        ),
        (
            "final_gauges",
            Json::Obj(
                r.final_gauges
                    .iter()
                    .map(|(g, v)| (g.name().to_string(), Json::U64(*v)))
                    .collect(),
            ),
        ),
        (
            "controller",
            match &r.controller {
                None => Json::Null,
                Some(c) => Json::obj([
                    ("retunes", Json::U64(c.retunes)),
                    ("fw", Json::U64(u64::from(c.fw))),
                    ("theta_ppb", Json::U64(c.theta_ppb)),
                    ("deadline_ns", Json::U64(c.deadline_ns)),
                ]),
            },
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Mark;
    use crate::recorder::{MemoryRecorder, Recorder};

    fn sample_traces() -> Vec<RunTrace> {
        let mut r = MemoryRecorder::new();
        r.span_begin(0, 0, Phase::Compute, Some(0), None);
        r.span_end(0, 100, Phase::Compute);
        r.span_begin(0, 100, Phase::CommWait, None, None);
        r.span_end(0, 400, Phase::CommWait);
        r.mark(0, 400, Mark::Commit { iter: 0 });
        r.gauge(0, 400, Gauge::ExecQueueDepth, 1);
        r.gauge(0, 401, Gauge::ExecQueueDepth, 0);
        r.span_begin(1, 0, Phase::Compute, Some(0), None);
        r.span_end(1, 250, Phase::Compute);
        RunTrace::split_by_rank(r.take())
    }

    #[test]
    fn report_totals_and_makespan() {
        let report = RunReport::from_traces("unit", &sample_traces());
        assert_eq!(report.total_ns, 400);
        assert_eq!(report.per_rank.len(), 2);
        assert_eq!(report.per_rank[0].phases.total(), 400);
        assert_eq!(report.per_rank[1].phases.total(), 250);
        assert_eq!(report.phase_totals().compute, 350);
        assert_eq!(
            report.per_rank[0].final_gauges,
            vec![(Gauge::ExecQueueDepth, 0)]
        );
    }

    #[test]
    fn report_json_is_valid_and_exact() {
        let report = RunReport::from_traces("unit", &sample_traces());
        let text = report.to_json_string();
        let doc = Json::parse(&text).expect("report must be valid JSON");
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("unit"));
        assert_eq!(doc.get("total_ns").and_then(Json::as_u64), Some(400));
        let ranks = doc.get("per_rank").and_then(Json::as_arr).unwrap();
        assert_eq!(ranks.len(), 2);
        assert_eq!(
            ranks[0]
                .get("phases_ns")
                .and_then(|p| p.get("comm_wait"))
                .and_then(Json::as_u64),
            Some(300)
        );
        assert_eq!(
            ranks[0]
                .get("counters")
                .and_then(|c| c.get("commits"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn controller_section_digests_last_retune() {
        let mut r = MemoryRecorder::new();
        r.span_begin(0, 0, Phase::Compute, Some(0), None);
        r.span_end(0, 100, Phase::Compute);
        r.mark(
            0,
            50,
            Mark::ControllerRetune {
                fw: 1,
                theta_ppb: 0,
                deadline_ns: 0,
            },
        );
        r.mark(
            0,
            90,
            Mark::ControllerRetune {
                fw: 3,
                theta_ppb: 10_000_000,
                deadline_ns: 2_000_000,
            },
        );
        let traces = RunTrace::split_by_rank(r.take());
        let report = RunReport::from_traces("ctl", &traces);
        assert_eq!(
            report.per_rank[0].controller,
            Some(ControllerDigest {
                retunes: 2,
                fw: 3,
                theta_ppb: 10_000_000,
                deadline_ns: 2_000_000
            })
        );
        let doc = Json::parse(&report.to_json_string()).unwrap();
        let ctl = doc.get("per_rank").and_then(Json::as_arr).unwrap()[0]
            .get("controller")
            .unwrap();
        assert_eq!(ctl.get("fw").and_then(Json::as_u64), Some(3));
        assert_eq!(ctl.get("retunes").and_then(Json::as_u64), Some(2));
        // And the counters list carries the retune count too.
        assert_eq!(
            doc.get("per_rank").and_then(Json::as_arr).unwrap()[0]
                .get("counters")
                .and_then(|c| c.get("controller_retunes"))
                .and_then(Json::as_u64),
            Some(2)
        );
        // A controller-off run serializes the section as null.
        let plain = RunReport::from_traces("off", &sample_traces());
        assert_eq!(plain.per_rank[0].controller, None);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets(), vec![(0, 2, 2), (2, 4, 2), (1024, 2048, 1)]);
    }

    #[test]
    fn histogram_handles_extreme_values() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.buckets(), vec![(1 << 63, u64::MAX, 1)]);
    }
}
