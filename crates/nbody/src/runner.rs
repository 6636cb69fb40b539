//! End-to-end parallel N-body experiment runner: partitions particles over
//! a simulated cluster, runs the speculative (or baseline) driver on every
//! rank, and reassembles results and statistics.

use std::sync::Arc;

use desim::{SimError, SimReport};
use mpk::{run_sim_proc_cluster_with_faults, AsyncTransport, FaultSpec};
use netsim::{ClusterSpec, LoadModel, NetworkModel};
use obs::{RunTrace, SharedRecorder};
use speccore::{run_speculative_aio, ClusterStats, IterMsg, RunStats, SpecConfig};

use crate::app::{NBodyApp, PartitionShared, SpeculationOrder};
use crate::particle::{NBodyConfig, Particle};
use crate::partition::partition_proportional;

/// Parameters of one parallel run.
#[derive(Clone, Debug)]
pub struct ParallelRunConfig {
    /// Number of timesteps.
    pub iterations: u64,
    /// Driver configuration (forward window, correction mode, BW).
    pub spec: SpecConfig,
    /// Physics parameters, including θ.
    pub nbody: NBodyConfig,
    /// Speculation function.
    pub order: SpeculationOrder,
    /// Collect structured telemetry (phase spans, message marks, gauges)
    /// into [`ParallelRunResult::traces`]. Telemetry is virtual-time only,
    /// so it does not perturb the simulated schedule.
    pub collect_trace: bool,
}

impl ParallelRunConfig {
    /// A run of `iterations` steps with the given forward window and the
    /// paper's defaults elsewhere.
    pub fn new(iterations: u64, forward_window: u32) -> Self {
        ParallelRunConfig {
            iterations,
            spec: if forward_window == 0 {
                SpecConfig::baseline()
            } else {
                SpecConfig::speculative(forward_window)
            },
            nbody: NBodyConfig::default(),
            order: SpeculationOrder::Linear,
            collect_trace: false,
        }
    }

    /// Enable structured telemetry collection.
    pub fn with_trace(mut self) -> Self {
        self.collect_trace = true;
        self
    }
}

/// Everything a parallel run produces.
#[derive(Debug)]
pub struct ParallelRunResult {
    /// Final particle state, global order.
    pub particles: Vec<Particle>,
    /// Per-rank driver statistics.
    pub stats: ClusterStats,
    /// Simulation-kernel report (end time, event counts, traces).
    pub report: SimReport,
    /// Per-rank structured telemetry (rank ascending, kernel track last),
    /// present when [`ParallelRunConfig::collect_trace`] was set.
    pub traces: Option<Vec<RunTrace>>,
}

impl ParallelRunResult {
    /// The run's virtual wall-clock: the makespan over ranks.
    pub fn elapsed_secs(&self) -> f64 {
        self.report.end_time.as_secs_f64()
    }
}

/// Simulate `particles` for `cfg.iterations` timesteps on `cluster` with
/// the given network and load models, one rank per machine, partitioned
/// proportionally to capacity (the paper's eqs. 4–5).
pub fn run_parallel(
    particles: &[Particle],
    cluster: &ClusterSpec,
    net: impl NetworkModel + 'static,
    load: impl LoadModel + 'static,
    cfg: ParallelRunConfig,
) -> Result<ParallelRunResult, SimError> {
    run_parallel_with_faults(particles, cluster, net, load, FaultSpec::none(), cfg)
}

/// [`run_parallel`] over an unreliable network: `faults` decides per
/// message whether it is delivered, duplicated, or corrupted, and can
/// schedule machine crashes. Pair with
/// [`SpecConfig::with_fault_tolerance`](speccore::SpecConfig) so the
/// driver speculates through the losses instead of deadlocking.
pub fn run_parallel_with_faults(
    particles: &[Particle],
    cluster: &ClusterSpec,
    net: impl NetworkModel + 'static,
    load: impl LoadModel + 'static,
    faults: FaultSpec<IterMsg<Arc<PartitionShared>>>,
    cfg: ParallelRunConfig,
) -> Result<ParallelRunResult, SimError> {
    let ranges = partition_proportional(particles.len(), &cluster.capacities());
    let recorder = cfg.collect_trace.then(SharedRecorder::new);

    let (outs, report): (Vec<(Vec<Particle>, RunStats)>, SimReport) =
        run_sim_proc_cluster_with_faults::<IterMsg<Arc<PartitionShared>>, _, _, _>(
            cluster,
            net,
            load,
            faults,
            false,
            |mut t| {
                if let Some(rec) = &recorder {
                    t.set_recorder(Box::new(rec.clone()));
                }
                let mut app =
                    NBodyApp::new(particles, ranges.clone(), t.rank().0, cfg.nbody, cfg.order);
                let (iterations, spec) = (cfg.iterations, cfg.spec.clone());
                async move {
                    let stats = run_speculative_aio(&mut t, &mut app, iterations, spec).await;
                    (app.particles(), stats)
                }
            },
        )?;

    let mut final_particles = Vec::with_capacity(particles.len());
    let mut per_rank = Vec::with_capacity(outs.len());
    for (chunk, stats) in outs {
        final_particles.extend(chunk);
        per_rank.push(stats);
    }
    let traces = recorder.map(|rec| RunTrace::split_by_rank(rec.drain()));
    Ok(ParallelRunResult {
        particles: final_particles,
        stats: ClusterStats::new(per_rank),
        report,
        traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::step_partition_order;
    use crate::particle::uniform_cloud;
    use desim::SimDuration;
    use netsim::{ConstantLatency, Unloaded};

    #[test]
    fn parallel_baseline_matches_sequential_bitwise() {
        let particles = uniform_cloud(24, 5);
        let cluster = ClusterSpec::new(vec![
            netsim::MachineSpec::new(30.0),
            netsim::MachineSpec::new(20.0),
            netsim::MachineSpec::new(10.0),
        ]);
        let iters = 5;
        let result = run_parallel(
            &particles,
            &cluster,
            ConstantLatency(SimDuration::from_millis(1)),
            Unloaded,
            ParallelRunConfig::new(iters, 0),
        )
        .unwrap();

        let ranges = partition_proportional(particles.len(), &cluster.capacities());
        let mut reference = particles.clone();
        for _ in 0..iters {
            step_partition_order(&mut reference, &ranges, &NBodyConfig::default());
        }
        for (got, want) in result.particles.iter().zip(&reference) {
            assert_eq!(got.pos, want.pos, "baseline must match sequential exactly");
            assert_eq!(got.vel, want.vel);
        }
    }
}
