//! Execution statistics matching the paper's measurement methodology.
//!
//! Table 2 of the paper breaks each iteration into computation,
//! communication(-wait), speculation and check time; Table 3 and the model's
//! `k` need counts of speculated and misspeculated variables. [`RunStats`]
//! collects exactly those, per rank; [`ClusterStats`] aggregates them.

use desim::{SimDuration, SimTime};
use mpk::Rank;

/// One confirmed iteration's timing record (collected only when
/// [`SpecConfig::with_iteration_log`] is set — it costs memory, not
/// virtual time).
///
/// [`SpecConfig::with_iteration_log`]: crate::SpecConfig::with_iteration_log
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterationLog {
    /// Iteration number.
    pub iter: u64,
    /// When the (final) execution of this iteration started.
    pub exec_start: SimTime,
    /// When its computation finished.
    pub exec_end: SimTime,
    /// When every input was validated and the iteration committed.
    pub confirmed_at: SimTime,
    /// Peer inputs that were speculated in the final execution.
    pub speculated_inputs: u32,
    /// Extra executions this iteration needed (rollback re-runs).
    pub re_executions: u32,
}

/// Virtual time spent in each phase of the speculative driver.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Useful computation (absorbing inputs, finishing iterations),
    /// including re-execution after rollbacks.
    pub compute: SimDuration,
    /// Time blocked waiting for messages.
    pub comm_wait: SimDuration,
    /// Time producing speculated values (the paper's `f_spec` cost).
    pub speculate: SimDuration,
    /// Time comparing speculated with actual values (`f_check`).
    pub check: SimDuration,
    /// Time spent in incremental corrections of misspeculated inputs.
    pub correct: SimDuration,
}

impl PhaseBreakdown {
    /// Sum of all phases (equals total time when accounting is exhaustive).
    pub fn total(&self) -> SimDuration {
        self.compute + self.comm_wait + self.speculate + self.check + self.correct
    }
}

/// Everything one rank measured during a run.
///
/// `PartialEq` so differential suites can assert two kernels produced
/// identical statistics wholesale.
#[derive(Clone, Debug, PartialEq)]
pub struct RunStats {
    /// The rank these statistics belong to.
    pub rank: Rank,
    /// Number of confirmed iterations.
    pub iterations: u64,
    /// Per-phase virtual time.
    pub phases: PhaseBreakdown,
    /// Virtual time from start to this rank's finish.
    pub total_time: SimDuration,
    /// Partition values absorbed from speculated inputs.
    pub speculated_partitions: u64,
    /// Partition values validated against a later actual.
    pub checked_partitions: u64,
    /// Partition checks that passed the error threshold.
    pub accepted_partitions: u64,
    /// Partition checks that failed (triggered correction or rollback).
    pub misspeculated_partitions: u64,
    /// Finer-grained units checked (e.g. particles), app-defined.
    pub checked_units: u64,
    /// Finer-grained units beyond the threshold (recomputed).
    pub bad_units: u64,
    /// Incremental corrections applied.
    pub corrections: u64,
    /// Checkpoint rollbacks (forward-window misspeculations).
    pub rollbacks: u64,
    /// Iterations executed, including speculative re-executions.
    pub executions: u64,
    /// Messages sent by this rank.
    pub messages_sent: u64,
    /// Messages received by this rank.
    pub messages_received: u64,
    /// Modelled bytes this rank put on the wire (payload plus per-message
    /// header), across data messages, retransmit traffic and replies.
    pub bytes_sent: u64,
    /// Modelled bytes received, same accounting as
    /// [`bytes_sent`](Self::bytes_sent).
    pub bytes_received: u64,
    /// Bytes the delta exchange avoided sending: for every delta frame,
    /// the size of the full snapshot it replaced minus the frame's own
    /// size (never negative). Zero without a delta policy.
    pub delta_suppressed_bytes: u64,
    /// Delta frames received that could not be applied because their
    /// predecessor never arrived (a gap) or because the frame was a
    /// duplicate of one already applied. Gaps heal via retransmission or
    /// the next keyframe; zero on fault-free FIFO links.
    pub delta_frames_dropped: u64,
    /// Largest forward window actually used.
    pub max_depth_used: u64,
    /// Largest error among *accepted* speculations — the residual error
    /// the run silently absorbed (drives the paper's Table 3 "max error
    /// in force" column).
    pub max_accepted_error: f64,
    /// Messages the fault layer dropped from this rank's sends (loss,
    /// partitions, crashed destinations). Zero on reliable transports.
    pub messages_lost: u64,
    /// Speculated inputs promoted to committed values because the actual
    /// message was declared lost (speculate-through-loss commits).
    pub speculate_through_loss_commits: u64,
    /// Retransmit requests this rank sent to stale peers.
    pub retransmit_requests: u64,
    /// Times this rank crashed and re-seeded itself from its confirmed
    /// checkpoint.
    pub peer_restarts: u64,
    /// Loss-promotions committed while the missing peer was *quarantined*
    /// — degraded-mode commits that skipped the loss timeout entirely.
    /// A subset of [`speculate_through_loss_commits`](Self::speculate_through_loss_commits).
    pub degraded_commits: u64,
    /// Peers this rank marked `Suspected` (transitions, not peers — a peer
    /// that recovers and goes silent again counts twice).
    pub peers_suspected: u64,
    /// Peers this rank quarantined.
    pub peers_quarantined: u64,
    /// Quarantined peers readmitted after being heard from again.
    pub peer_rejoins: u64,
    /// Virtual time this rank spent down (crashed), excluded from the
    /// phase breakdown: `phases.total() + downtime == total_time`.
    pub downtime: SimDuration,
    /// Retune evaluations the adaptive controller performed. Zero when the
    /// controller is off.
    pub controller_retunes: u64,
    /// Forward window most recently chosen by the controller (0 until the
    /// first retune, and always 0 when the controller is off).
    pub controller_fw: u64,
    /// Acceptance threshold most recently chosen by the controller (0.0
    /// until the first retune or when the grid is empty/controller off).
    pub controller_theta: f64,
    /// Per-iteration timing records (empty unless the config enabled the
    /// iteration log).
    pub iteration_log: Vec<IterationLog>,
}

impl RunStats {
    /// Fresh zeroed statistics for `rank`.
    pub fn new(rank: Rank) -> Self {
        RunStats {
            rank,
            iterations: 0,
            phases: PhaseBreakdown::default(),
            total_time: SimDuration::ZERO,
            speculated_partitions: 0,
            checked_partitions: 0,
            accepted_partitions: 0,
            misspeculated_partitions: 0,
            checked_units: 0,
            bad_units: 0,
            corrections: 0,
            rollbacks: 0,
            executions: 0,
            messages_sent: 0,
            messages_received: 0,
            bytes_sent: 0,
            bytes_received: 0,
            delta_suppressed_bytes: 0,
            delta_frames_dropped: 0,
            max_depth_used: 0,
            max_accepted_error: 0.0,
            messages_lost: 0,
            speculate_through_loss_commits: 0,
            retransmit_requests: 0,
            peer_restarts: 0,
            degraded_commits: 0,
            peers_suspected: 0,
            peers_quarantined: 0,
            peer_rejoins: 0,
            downtime: SimDuration::ZERO,
            controller_retunes: 0,
            controller_fw: 0,
            controller_theta: 0.0,
            iteration_log: Vec::new(),
        }
    }

    /// The paper's `k`: fraction of checked units that had to be recomputed
    /// because of speculation error. `0` when nothing was checked.
    pub fn recomputation_fraction(&self) -> f64 {
        if self.checked_units == 0 {
            0.0
        } else {
            self.bad_units as f64 / self.checked_units as f64
        }
    }

    /// Average per-iteration phase times (Table 2 reports per-iteration
    /// seconds). Returns zeroes for a zero-iteration run.
    pub fn per_iteration(&self) -> PhaseBreakdown {
        if self.iterations == 0 {
            return PhaseBreakdown::default();
        }
        let n = self.iterations;
        PhaseBreakdown {
            compute: self.phases.compute / n,
            comm_wait: self.phases.comm_wait / n,
            speculate: self.phases.speculate / n,
            check: self.phases.check / n,
            correct: self.phases.correct / n,
        }
    }
}

/// Statistics of every rank of one run, with cluster-level summaries.
#[derive(Clone, Debug)]
pub struct ClusterStats {
    /// Per-rank statistics, rank order.
    pub per_rank: Vec<RunStats>,
}

impl ClusterStats {
    /// Wrap per-rank stats.
    pub fn new(per_rank: Vec<RunStats>) -> Self {
        assert!(!per_rank.is_empty());
        ClusterStats { per_rank }
    }

    /// Cluster-wide recomputation fraction `k`.
    pub fn recomputation_fraction(&self) -> f64 {
        let checked: u64 = self.per_rank.iter().map(|r| r.checked_units).sum();
        let bad: u64 = self.per_rank.iter().map(|r| r.bad_units).sum();
        if checked == 0 {
            0.0
        } else {
            bad as f64 / checked as f64
        }
    }

    /// Mean per-iteration phase breakdown across ranks (the aggregation the
    /// paper's Table 2 reports).
    pub fn mean_per_iteration(&self) -> PhaseBreakdown {
        let n = self.per_rank.len() as u64;
        let mut acc = PhaseBreakdown::default();
        for r in &self.per_rank {
            let pi = r.per_iteration();
            acc.compute += pi.compute;
            acc.comm_wait += pi.comm_wait;
            acc.speculate += pi.speculate;
            acc.check += pi.check;
            acc.correct += pi.correct;
        }
        PhaseBreakdown {
            compute: acc.compute / n,
            comm_wait: acc.comm_wait / n,
            speculate: acc.speculate / n,
            check: acc.check / n,
            correct: acc.correct / n,
        }
    }

    /// Total rollbacks across ranks.
    pub fn total_rollbacks(&self) -> u64 {
        self.per_rank.iter().map(|r| r.rollbacks).sum()
    }

    /// Total messages the fault layer dropped, across ranks.
    pub fn total_messages_lost(&self) -> u64 {
        self.per_rank.iter().map(|r| r.messages_lost).sum()
    }

    /// Total speculate-through-loss commits, across ranks.
    pub fn total_loss_commits(&self) -> u64 {
        self.per_rank
            .iter()
            .map(|r| r.speculate_through_loss_commits)
            .sum()
    }

    /// Total crash/restart cycles, across ranks.
    pub fn total_restarts(&self) -> u64 {
        self.per_rank.iter().map(|r| r.peer_restarts).sum()
    }

    /// Largest error among accepted speculations, across ranks.
    pub fn max_accepted_error(&self) -> f64 {
        self.per_rank
            .iter()
            .map(|r| r.max_accepted_error)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_of_empty_stats_are_zero() {
        let s = RunStats::new(Rank(0));
        assert_eq!(s.recomputation_fraction(), 0.0);
        assert_eq!(s.per_iteration(), PhaseBreakdown::default());
    }

    #[test]
    fn recomputation_fraction_counts_units() {
        let mut s = RunStats::new(Rank(0));
        s.checked_units = 200;
        s.bad_units = 4;
        assert!((s.recomputation_fraction() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn per_iteration_divides_by_iterations() {
        let mut s = RunStats::new(Rank(0));
        s.iterations = 4;
        s.phases.compute = SimDuration::from_millis(40);
        s.phases.comm_wait = SimDuration::from_millis(8);
        let pi = s.per_iteration();
        assert_eq!(pi.compute, SimDuration::from_millis(10));
        assert_eq!(pi.comm_wait, SimDuration::from_millis(2));
    }

    #[test]
    fn phase_total_sums_components() {
        let p = PhaseBreakdown {
            compute: SimDuration::from_millis(1),
            comm_wait: SimDuration::from_millis(2),
            speculate: SimDuration::from_millis(3),
            check: SimDuration::from_millis(4),
            correct: SimDuration::from_millis(5),
        };
        assert_eq!(p.total(), SimDuration::from_millis(15));
    }

    #[test]
    fn cluster_recomputation_fraction_pools_units() {
        let mut a = RunStats::new(Rank(0));
        a.checked_units = 100;
        a.bad_units = 10;
        let mut b = RunStats::new(Rank(1));
        b.checked_units = 300;
        b.bad_units = 0;
        let c = ClusterStats::new(vec![a, b]);
        assert!((c.recomputation_fraction() - 0.025).abs() < 1e-12);
    }
}
