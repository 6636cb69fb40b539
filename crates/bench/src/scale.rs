//! Stackless-kernel scale sweep: how far the event-scheduled rank model
//! stretches.
//!
//! The threaded backend pins one OS thread per rank, so it tops out around
//! the platform thread limit (a few thousand). The stackless kernel holds
//! every rank as a resumable state machine inside the event loop, so rank
//! counts are bounded by memory, not by threads. Each sweep point runs a
//! token ring — one message per rank per round over heterogeneous
//! (ramped-capacity, jittered-latency) machines, closed by an expiring
//! timed receive per rank — and reports wall-clock throughput plus the
//! process peak-RSS growth attributable to the run. `examples/scale_sweep`
//! drives it interactively; the numbers a PR is judged on for this shape
//! are the perf ledger's `ring100k_sim` rows (`desim.events_per_s_1k`,
//! `desim.rss_bytes_per_rank`).

use std::time::Instant;

use desim::SimDuration;
use mpk::{run_sim_proc_cluster_with_options, FaultSpec, SimClusterOptions};
use netsim::{ClusterSpec, ConstantLatency, Jitter, MachineSpec, Unloaded};

/// One sweep point: a ring of `ranks` stackless processes.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Rank count (each rank is one event-scheduled coroutine, zero OS
    /// threads).
    pub ranks: usize,
    /// Ring rounds driven (one send + one blocking receive per rank per
    /// round).
    pub rounds: u64,
    /// Wall-clock seconds for the whole run, setup included.
    pub wall_secs: f64,
    /// Events the kernel dispatched.
    pub events: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Peak-RSS growth (bytes) of this process across the run, from
    /// `VmHWM` in `/proc/self/status`. High-water deltas only ever grow,
    /// so run sweep points in ascending rank order; 0 on platforms
    /// without procfs.
    pub peak_rss_bytes: u64,
}

impl ScaleRow {
    /// Kernel event throughput.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs
    }

    /// Rank-rounds completed per wall-clock second.
    pub fn ranks_per_sec(&self) -> f64 {
        (self.ranks as u64 * self.rounds) as f64 / self.wall_secs
    }

    /// Peak-RSS growth per rank.
    pub fn rss_bytes_per_rank(&self) -> f64 {
        self.peak_rss_bytes as f64 / self.ranks as f64
    }
}

/// Current peak resident set (`VmHWM`) in bytes, or 0 when unavailable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// A heterogeneous cluster for the sweep: capacities ramp 2:1 across the
/// ranks, echoing the paper's mixed-workstation testbed at scale.
fn ramped_cluster(ranks: usize) -> ClusterSpec {
    let denom = (ranks - 1).max(1) as f64;
    ClusterSpec::new(
        (0..ranks)
            .map(|i| MachineSpec::new(50.0 * (1.0 - 0.5 * i as f64 / denom)))
            .collect(),
    )
}

/// Run one sweep point: `ranks` stackless processes in a token ring for
/// `rounds` rounds under jittered latency, each closing with an expiring
/// timed receive. Panics if the simulation errors — a deadlock here is a
/// kernel bug, not a measurement.
pub fn run_scale_point(ranks: usize, rounds: u64, seed: u64) -> ScaleRow {
    let cluster = ramped_cluster(ranks);
    let net = Jitter::new(ConstantLatency(SimDuration::from_micros(200)), 0.5, seed);
    let rss_before = peak_rss_bytes();
    let t0 = Instant::now();
    let (outs, report) = run_sim_proc_cluster_with_options::<u64, _, _, _>(
        &cluster,
        net,
        Unloaded,
        FaultSpec::none(),
        SimClusterOptions::default(),
        move |mut t| async move {
            use mpk::AsyncTransport;
            let me = t.rank().0 as u64;
            let mut seen = 0u64;
            for round in 0..rounds {
                let next = mpk::Rank((t.rank().0 + 1) % t.size());
                t.send(next, mpk::Tag(round as u32), me).await;
                seen += t.recv().await.msg;
                t.compute(100).await;
            }
            assert!(t.recv_timeout(SimDuration::from_micros(10)).await.is_none());
            seen
        },
    )
    .expect("scale ring must complete");
    let wall_secs = t0.elapsed().as_secs_f64();
    assert_eq!(outs.len(), ranks);
    ScaleRow {
        ranks,
        rounds,
        wall_secs,
        events: report.events_processed,
        messages: report.messages_delivered,
        peak_rss_bytes: peak_rss_bytes().saturating_sub(rss_before),
    }
}
