//! Run reports: per-phase totals and counter snapshots, digested per rank
//! from the traces.

use crate::trace::{CounterTotals, PhaseTotals, RunTrace};

/// One rank's digest of a run.
#[derive(Clone, Debug)]
pub struct RankReport {
    /// The rank.
    pub rank: u32,
    /// Per-phase span totals (nanoseconds).
    pub phases: PhaseTotals,
    /// Point-event totals.
    pub counters: CounterTotals,
}

/// A whole run's digest.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// A label for the run (experiment name, figure id, …).
    pub name: String,
    /// The makespan in nanoseconds: the latest phase-span end over ranks.
    pub total_ns: u64,
    /// Per-rank digests, rank ascending.
    pub per_rank: Vec<RankReport>,
}

impl RunReport {
    /// Digest per-rank traces into a report.
    pub fn from_traces(name: impl Into<String>, traces: &[RunTrace]) -> RunReport {
        let mut total_ns = 0;
        let per_rank = traces
            .iter()
            .map(|trace| {
                for span in trace.spans() {
                    total_ns = total_ns.max(span.end_ns);
                }
                RankReport {
                    rank: trace.rank,
                    phases: trace.phase_totals(),
                    counters: trace.counter_totals(),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Gauge, Mark, Phase};
    use crate::recorder::Recorder;

    fn sample_traces() -> Vec<RunTrace> {
        let mut r = Vec::new();
        r.span_begin(0, 0, Phase::Compute, Some(0), None);
        r.span_end(0, 100, Phase::Compute);
        r.span_begin(0, 100, Phase::CommWait, None, None);
        r.span_end(0, 400, Phase::CommWait);
        r.mark(0, 400, Mark::Commit { iter: 0 });
        r.gauge(0, 400, Gauge::ExecQueueDepth, 1);
        r.gauge(0, 401, Gauge::ExecQueueDepth, 0);
        r.span_begin(1, 0, Phase::Compute, Some(0), None);
        r.span_end(1, 250, Phase::Compute);
        RunTrace::split_by_rank(r)
    }

    #[test]
    fn report_totals_and_makespan() {
        let report = RunReport::from_traces("unit", &sample_traces());
        assert_eq!(report.total_ns, 400);
        assert_eq!(report.per_rank.len(), 2);
        assert_eq!(report.per_rank[0].phases.total(), 400);
        assert_eq!(report.per_rank[1].phases.total(), 250);
        assert_eq!(report.phase_totals().compute, 350);
        assert_eq!(report.per_rank[0].counters.commits, 1);
    }

    #[test]
    fn counters_count_controller_retunes() {
        let mut r = Vec::new();
        r.span_begin(0, 0, Phase::Compute, Some(0), None);
        r.span_end(0, 100, Phase::Compute);
        for (t, fw) in [(50, 1), (90, 3)] {
            r.mark(
                0,
                t,
                Mark::ControllerRetune {
                    fw,
                    theta_ppb: 0,
                    deadline_ns: 0,
                },
            );
        }
        let report = RunReport::from_traces("ctl", &RunTrace::split_by_rank(r));
        assert_eq!(report.per_rank[0].counters.controller_retunes, 2);
        let plain = RunReport::from_traces("off", &sample_traces());
        assert_eq!(plain.per_rank[0].counters.controller_retunes, 0);
    }
}
