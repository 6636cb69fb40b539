//! The six experiment regenerators, and the two deterministic scenarios
//! (`exchange_bytes_per_iter`, `controller_sweep`) the root tests gate.

use desim::rng::derive_seed;
use desim::SimDuration;
use mpk::{run_sim_proc_cluster, AsyncTransport};
use nbody::{centered_cloud, run_parallel, NBodyConfig, ParallelRunConfig, ParallelRunResult};
use netsim::{
    ClusterSpec, ConstantLatency, Jitter, MsgCtx, NetworkModel, SharedMedium, TransientDelays,
    Unloaded,
};
use perfmodel::{fig5_series, fig6_series, CommModel, Fig5Row, Fig6Row, ModelParams};
use speccore::{
    run_speculative_aio, ControllerConfig, CorrectionMode, DeltaExchange, IterMsg, SpecConfig,
};
use workloads::{SyntheticApp, SyntheticConfig};

use crate::Scale;

// ---------------------------------------------------------------------------
// Shared experiment environment
// ---------------------------------------------------------------------------

/// The network standing in for the paper's shared 10 Mb/s Ethernet:
/// a contended shared medium with ±30% jitter and rare large transient
/// delays (the paper: delays are "large and often subject to large
/// variations due to non-deterministic network traffic").
///
/// Parameters are derived from the particle count so that at p = 16 the
/// per-iteration communication-to-computation ratio lands near the paper's
/// Table 2 (4.73 s comm vs 5.83 s comp ⇒ ≈ 0.8) at *any* problem size —
/// the quick CI scale then probes the same regime as the paper scale.
pub fn testbed_network(seed: u64, n_particles: usize) -> impl NetworkModel + 'static {
    let cluster = ClusterSpec::paper_testbed();
    let total_ops_per_sec: f64 = cluster.capacities().iter().map(|m| m * 1e6).sum();
    let n = n_particles as f64;
    // Balanced compute per iteration at p = 16 (70 ops per pair).
    let comp16 = 70.0 * n * n / total_ops_per_sec;
    // Bytes on the bus per iteration: every rank broadcasts its partition.
    let bytes_per_iter = 15.0 * (48.0 * n + 16.0 * 72.0);
    let bandwidth = bytes_per_iter / (0.8 * comp16);

    let bus = SharedMedium::new(SimDuration::from_secs_f64(comp16 / 134.0), bandwidth);
    let jittered = Jitter::new(bus, 0.3, derive_seed(seed, 0xA));
    // Rare but long stalls (~2 compute phases): the Figure 4 regime where
    // a deeper forward window pays off.
    TransientDelays::new(
        jittered,
        0.01,
        SimDuration::from_secs_f64(1.8 * comp16),
        derive_seed(seed, 0xB),
    )
}

/// Physics parameters for the measured experiments. `G` and `dt` are set
/// so the cloud is dynamically hot: close encounters produce speculation
/// errors spanning the paper's θ sweep (otherwise every θ accepts
/// everything and Table 3 degenerates).
pub fn experiment_nbody_config() -> NBodyConfig {
    NBodyConfig {
        g: 1.0,
        softening: 0.01,
        dt: 1e-2,
        theta: 0.01,
    }
}

fn run_case(
    particles: &[nbody::Particle],
    cluster: &ClusterSpec,
    fw: u32,
    ncfg: NBodyConfig,
    scale: &Scale,
    net_stream: u64,
) -> ParallelRunResult {
    let mut cfg = ParallelRunConfig::new(scale.iterations, fw);
    cfg.nbody = ncfg;
    cfg.spec = cfg.spec.with_correction(CorrectionMode::Incremental);
    run_parallel(
        particles,
        cluster,
        testbed_network(derive_seed(scale.seed, net_stream), particles.len()),
        Unloaded,
        cfg,
    )
    .expect("experiment run failed")
}

// ---------------------------------------------------------------------------
// Figure 5 and Figure 6 (model)
// ---------------------------------------------------------------------------

/// Figure 5: model speedups versus processor count for the §4 example
/// (k = 2%).
pub fn fig5() -> Vec<Fig5Row> {
    fig5_series(&ModelParams::paper_example(), 16)
}

/// Figure 6: model speedup on 8 processors versus recomputation
/// percentage.
pub fn fig6() -> Vec<Fig6Row> {
    let ks: Vec<f64> = (0..=30).map(|i| i as f64 * 0.01).collect();
    fig6_series(&ModelParams::paper_example(), 8, &ks)
}

// ---------------------------------------------------------------------------
// Figure 8 (measured speedups) + raw data for Figure 9
// ---------------------------------------------------------------------------

/// One measured N-body run's summary.
#[derive(Clone, Debug)]
pub struct Fig8Run {
    /// Processor count.
    pub p: usize,
    /// Forward window.
    pub fw: u32,
    /// Total virtual run time, seconds.
    pub elapsed: f64,
    /// Mean communication wait per iteration per rank, seconds.
    pub comm_wait_per_iter: f64,
    /// Mean compute time per iteration per rank, seconds.
    pub compute_per_iter: f64,
    /// Measured recomputation fraction `k`.
    pub k: f64,
    /// Largest error among accepted speculations.
    pub max_accepted_error: f64,
    /// Full per-phase mean per-iteration breakdown.
    pub phases: speccore::PhaseBreakdown,
}

/// Figure 8's raw data: every `(p, FW)` run plus the single-processor
/// reference time.
#[derive(Clone, Debug)]
pub struct Fig8Data {
    /// Execution time on the fastest machine alone, seconds.
    pub t1: f64,
    /// All parallel runs.
    pub runs: Vec<Fig8Run>,
    /// The cluster used (fastest-first).
    pub cluster: ClusterSpec,
}

impl Fig8Data {
    /// The run for `(p, fw)`.
    pub fn run(&self, p: usize, fw: u32) -> &Fig8Run {
        self.runs
            .iter()
            .find(|r| r.p == p && r.fw == fw)
            .expect("no such run")
    }

    /// Measured speedup of `(p, fw)` relative to the fastest machine.
    pub fn speedup(&self, p: usize, fw: u32) -> f64 {
        self.t1 / self.run(p, fw).elapsed
    }
}

/// Run the full measured N-body sweep (p × FW ∈ {0, 1, 2}).
pub fn fig8_data(scale: &Scale) -> Fig8Data {
    let cluster = ClusterSpec::paper_testbed();
    let particles = centered_cloud(scale.n_particles, scale.seed);
    let ncfg = experiment_nbody_config();

    let single = run_case(&particles, &cluster.fastest(1), 0, ncfg, scale, 1);
    let t1 = single.elapsed_secs();

    let mut runs = Vec::new();
    for &p in &scale.p_values {
        if p < 2 {
            continue;
        }
        let sub = cluster.fastest(p);
        for fw in 0..=2u32 {
            let result = run_case(&particles, &sub, fw, ncfg, scale, p as u64);
            let phases = result.stats.mean_per_iteration();
            runs.push(Fig8Run {
                p,
                fw,
                elapsed: result.elapsed_secs(),
                comm_wait_per_iter: phases.comm_wait.as_secs_f64(),
                compute_per_iter: phases.compute.as_secs_f64(),
                k: result.stats.recomputation_fraction(),
                max_accepted_error: result.stats.max_accepted_error(),
                phases,
            });
        }
    }
    Fig8Data { t1, runs, cluster }
}

/// One row of Figure 8: measured speedups per forward window plus the
/// attainable maximum.
#[derive(Clone, Copy, Debug)]
pub struct Fig8Row {
    /// Processor count.
    pub p: usize,
    /// Speedup without speculation (FW = 0).
    pub fw0: f64,
    /// Speedup with FW = 1.
    pub fw1: f64,
    /// Speedup with FW = 2.
    pub fw2: f64,
    /// `Σ M_i / M_1`.
    pub max: f64,
}

/// Figure 8 rows derived from raw data.
pub fn fig8_rows(data: &Fig8Data, scale: &Scale) -> Vec<Fig8Row> {
    scale
        .p_values
        .iter()
        .filter(|&&p| p >= 2)
        .map(|&p| Fig8Row {
            p,
            fw0: data.speedup(p, 0),
            fw1: data.speedup(p, 1),
            fw2: data.speedup(p, 2),
            max: data.cluster.max_speedup(p),
        })
        .collect()
}

/// Figure 8, end to end.
pub fn fig8(scale: &Scale) -> Vec<Fig8Row> {
    fig8_rows(&fig8_data(scale), scale)
}

/// Re-run the flagship Figure 8 configuration (largest `p`, FW = 1) with
/// structured telemetry enabled and digest it into an [`obs::RunReport`]:
/// per-rank phase totals, message counters, span histograms. This is the
/// machine-readable run report embedded in `BENCH_fig8.json`.
pub fn fig8_run_report(scale: &Scale) -> obs::RunReport {
    let cluster = ClusterSpec::paper_testbed();
    let particles = centered_cloud(scale.n_particles, scale.seed);
    let p = scale.p_values.iter().copied().max().unwrap_or(16).max(2);
    let sub = cluster.fastest(p);
    let mut cfg = ParallelRunConfig::new(scale.iterations, 1).with_trace();
    cfg.nbody = experiment_nbody_config();
    cfg.spec = cfg.spec.with_correction(CorrectionMode::Incremental);
    let result = run_parallel(
        &particles,
        &sub,
        testbed_network(derive_seed(scale.seed, p as u64), particles.len()),
        Unloaded,
        cfg,
    )
    .expect("traced fig8 run failed");
    let traces = result.traces.as_deref().expect("collect_trace was set");
    obs::RunReport::from_traces(format!("fig8_p{p}_fw1"), traces)
}

// ---------------------------------------------------------------------------
// Table 2: phase breakdown at the largest processor count
// ---------------------------------------------------------------------------

/// One row of Table 2: mean per-iteration seconds in each phase.
#[derive(Clone, Copy, Debug)]
pub struct Table2Row {
    /// Forward window.
    pub fw: u32,
    /// Computation time (including corrections, as the paper folds
    /// recomputation into computation).
    pub computation: f64,
    /// Communication wait.
    pub communication: f64,
    /// Speculation time.
    pub speculation: f64,
    /// Checking time.
    pub check: f64,
    /// Makespan per iteration.
    pub total: f64,
}

/// Table 2: measured per-iteration phase times for the largest `p` in the
/// sweep (the paper's caption says 16), FW ∈ {0, 1, 2}.
pub fn table2(scale: &Scale) -> Vec<Table2Row> {
    let cluster = ClusterSpec::paper_testbed();
    let particles = centered_cloud(scale.n_particles, scale.seed);
    let ncfg = experiment_nbody_config();
    let p = scale.p_values.iter().copied().max().unwrap_or(16).max(2);
    let sub = cluster.fastest(p);

    (0..=2u32)
        .map(|fw| {
            let result = run_case(&particles, &sub, fw, ncfg, scale, 1000 + fw as u64);
            let ph = result.stats.mean_per_iteration();
            Table2Row {
                fw,
                computation: ph.compute.as_secs_f64() + ph.correct.as_secs_f64(),
                communication: ph.comm_wait.as_secs_f64(),
                speculation: ph.speculate.as_secs_f64(),
                check: ph.check.as_secs_f64(),
                total: result.elapsed_secs() / scale.iterations as f64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 3: θ sweep
// ---------------------------------------------------------------------------

/// One row of Table 3.
#[derive(Clone, Copy, Debug)]
pub struct Table3Row {
    /// Acceptance threshold θ.
    pub theta: f64,
    /// Percentage of checked particles rejected (recomputed) — the
    /// paper's "Incorrect speculations".
    pub incorrect_pct: f64,
    /// Maximum force error silently accepted, in percent. The eq. 11
    /// metric bounds the relative position error; with inverse-square
    /// forces the induced force error is ≈ 2× that, which is exactly the
    /// factor visible in the paper's own table (θ = 0.1 → 20%).
    pub max_force_error_pct: f64,
}

/// Table 3: effect of the error bound θ on recomputations and accepted
/// force error (FW = 1, largest p).
pub fn table3(scale: &Scale) -> Vec<Table3Row> {
    let cluster = ClusterSpec::paper_testbed();
    let particles = centered_cloud(scale.n_particles, scale.seed);
    let p = scale.p_values.iter().copied().max().unwrap_or(16).max(2);
    let sub = cluster.fastest(p);

    [0.1, 0.05, 0.01, 0.005, 0.001]
        .iter()
        .map(|&theta| {
            let ncfg = experiment_nbody_config().with_theta(theta);
            let result = run_case(&particles, &sub, 1, ncfg, scale, 2000);
            Table3Row {
                theta,
                incorrect_pct: 100.0 * result.stats.recomputation_fraction(),
                max_force_error_pct: 200.0 * result.stats.max_accepted_error(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 9: model vs measured
// ---------------------------------------------------------------------------

/// One row of Figure 9.
#[derive(Clone, Copy, Debug)]
pub struct Fig9Row {
    /// Processor count.
    pub p: usize,
    /// Measured speedup, no speculation.
    pub measured_nospec: f64,
    /// Model-predicted speedup, no speculation.
    pub model_nospec: f64,
    /// Measured speedup, FW = 1.
    pub measured_spec: f64,
    /// Model-predicted speedup, FW = 1.
    pub model_spec: f64,
}

/// Build the §4 model parameterized from the N-body experiment, the way
/// the paper does for its Figure 9: per-variable costs from the kernel's
/// operation counts (70·N compute, 12 speculate, 24 check), capacities
/// from the testbed, `t_comm(p)` from the measured baseline communication
/// waits, and `k` from the measured FW = 1 recomputation fractions.
pub fn calibrated_model(scale: &Scale, data: &Fig8Data) -> ModelParams {
    let n = scale.n_particles as f64;
    let capacities: Vec<f64> = data.cluster.capacities().iter().map(|m| m * 1e6).collect();

    let max_p = *scale.p_values.iter().max().expect("non-empty sweep");
    let mut t_comm = vec![0.0; max_p];
    for &p in &scale.p_values {
        if p >= 2 {
            t_comm[p - 1] = data.run(p, 0).comm_wait_per_iter;
        }
    }
    let ks: Vec<f64> = scale
        .p_values
        .iter()
        .filter(|&&p| p >= 2)
        .map(|&p| data.run(p, 1).k)
        .collect();
    let k = ks.iter().sum::<f64>() / ks.len().max(1) as f64;

    ModelParams {
        n,
        f_comp: nbody::forces::OPS_PER_PAIR as f64 * n,
        f_spec: nbody::forces::OPS_PER_SPECULATE as f64,
        f_check: nbody::forces::OPS_PER_CHECK as f64,
        capacities,
        comm: CommModel::Table(t_comm),
        k,
    }
}

/// Figure 9 rows from already-collected Figure 8 data.
pub fn fig9_rows(scale: &Scale, data: &Fig8Data) -> Vec<Fig9Row> {
    let model = calibrated_model(scale, data);
    scale
        .p_values
        .iter()
        .filter(|&&p| p >= 2)
        .map(|&p| Fig9Row {
            p,
            measured_nospec: data.speedup(p, 0),
            model_nospec: model.speedup_nospec(p),
            measured_spec: data.speedup(p, 1),
            model_spec: model.speedup_spec(p),
        })
        .collect()
}

/// Figure 9, end to end (runs the measured sweep internally).
pub fn fig9(scale: &Scale) -> Vec<Fig9Row> {
    let data = fig8_data(scale);
    fig9_rows(scale, &data)
}

// ---------------------------------------------------------------------------
// Deterministic virtual-time facts (asserted by `tests/experiment_shapes.rs`)
// ---------------------------------------------------------------------------

/// Cluster-total wire bytes per iteration of the driver's exchange phase:
/// 64 bodies on 4 simulated ranks for 64 iterations at FW = 2 under a
/// constant 2 ms latency, broadcast as full partition snapshots or
/// (`delta`) as delta frames with floor 1e-2 and a keyframe every 32
/// iterations. Virtual time makes the byte counters exact.
pub fn exchange_bytes_per_iter(delta: bool) -> f64 {
    const ITERS: u64 = 64;
    let particles = nbody::uniform_cloud(64, 11);
    let cluster = ClusterSpec::homogeneous(4, 1000.0);
    let mut cfg = ParallelRunConfig::new(ITERS, 2);
    if delta {
        cfg.spec = cfg.spec.with_delta_exchange(DeltaExchange::new(1e-2, 32));
    }
    let result = run_parallel(
        &particles,
        &cluster,
        ConstantLatency(SimDuration::from_millis(2)),
        Unloaded,
        cfg,
    )
    .expect("exchange run failed");
    let bytes: u64 = result.stats.per_rank.iter().map(|s| s.bytes_sent).sum();
    bytes as f64 / ITERS as f64
}

/// The adaptive controller against an offline grid search over fixed
/// `(θ, FW)` points, as virtual-time makespans in nanoseconds.
#[derive(Clone, Debug)]
pub struct ControllerSweep {
    /// `(θ, FW, makespan)` for every fixed grid point.
    pub grid: Vec<(f64, u32, u64)>,
    /// Makespan of the run the controller retuned.
    pub adaptive_ns: u64,
    /// Rank 0's final forward window.
    pub adaptive_fw: u64,
    /// Rank 0's final acceptance threshold.
    pub adaptive_theta: f64,
    /// Retunes summed over all ranks.
    pub adaptive_retunes: u64,
}

impl ControllerSweep {
    /// The smallest makespan on the fixed grid.
    pub fn best_fixed_ns(&self) -> u64 {
        self.grid.iter().map(|g| g.2).min().expect("non-empty grid")
    }

    /// Controller makespan over the best fixed one.
    pub fn ratio(&self) -> f64 {
        self.adaptive_ns as f64 / self.best_fixed_ns() as f64
    }
}

/// Per-source one-way latency of [`controller_sweep`], microseconds: rank 2
/// is 16× slower than rank 0, so the best window depth differs per peer.
pub const CONTROLLER_SWEEP_LATENCY_US: [u64; 4] = [500, 2_000, 8_000, 1_000];

/// Each sender's messages take its own fixed one-way delay.
struct HeteroLatency;

impl NetworkModel for HeteroLatency {
    fn delay(&mut self, ctx: &MsgCtx) -> SimDuration {
        SimDuration::from_micros(CONTROLLER_SWEEP_LATENCY_US[ctx.src % 4])
    }
}

/// Four ranks of the synthetic workload (32 variables, 60 iterations,
/// ~1 ms of compute per iteration at 100 MIPS) send through
/// [`CONTROLLER_SWEEP_LATENCY_US`] with a 30 ms spike on a quarter of the
/// messages. Constant latency alone is absorbed by the send-on-confirm
/// pipeline at any depth; it is delay *variation* that deeper windows
/// compute through (the paper's §1 premise), so the spikes give the FW
/// axis its range: deep windows pay speculation and check work, tight θ
/// pays corrections. The fixed rows sweep θ ∈ {0.01, 0.05} × FW ∈ 1..=6;
/// the adaptive run starts at (θ = 0.01, FW = 1) and retunes θ over the
/// same values and FW over the same range.
pub fn controller_sweep() -> ControllerSweep {
    const P: usize = 4;
    const N_VARS: usize = 32;
    const THETAS: [f64; 2] = [0.01, 0.05];
    const FW_MAX: u32 = 6;
    let run = |theta: f64, cfg: SpecConfig| {
        let cluster = ClusterSpec::homogeneous(P, 100.0);
        let ranges: Vec<_> = (0..P)
            .map(|i| i * N_VARS / P..(i + 1) * N_VARS / P)
            .collect();
        let net = TransientDelays::new(HeteroLatency, 0.25, SimDuration::from_millis(30), 7);
        let (stats, report) = run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(
            &cluster,
            net,
            Unloaded,
            false,
            |mut t| {
                let app_cfg = SyntheticConfig {
                    theta,
                    seed: 42,
                    f_comp: 3_000,
                    ..Default::default()
                };
                let mut app = SyntheticApp::new(N_VARS, &ranges, t.rank().0, app_cfg);
                let cfg = cfg.clone();
                async move { run_speculative_aio(&mut t, &mut app, 60, cfg).await }
            },
        )
        .expect("controller sweep run failed");
        (report.end_time.as_nanos(), stats)
    };

    let mut grid = Vec::new();
    for theta in THETAS {
        for fw in 1..=FW_MAX {
            grid.push((theta, fw, run(theta, SpecConfig::speculative(fw)).0));
        }
    }
    let ctl = ControllerConfig::new()
        .with_theta_grid(THETAS.to_vec())
        .with_cadence(6, 2)
        .with_fw_max(FW_MAX);
    let (adaptive_ns, stats) = run(THETAS[0], SpecConfig::speculative(1).with_adaptive(ctl));
    ControllerSweep {
        grid,
        adaptive_ns,
        adaptive_fw: stats[0].controller_fw,
        adaptive_theta: stats[0].controller_theta,
        adaptive_retunes: stats.iter().map(|s| s.controller_retunes).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            n_particles: 60,
            iterations: 4,
            p_values: vec![1, 2, 4],
            seed: 7,
        }
    }

    #[test]
    fn fig5_and_fig6_are_cheap_and_shaped() {
        let f5 = fig5();
        assert_eq!(f5.len(), 16);
        let f6 = fig6();
        assert_eq!(f6.len(), 31);
    }

    #[test]
    fn fig8_data_is_complete_and_deterministic() {
        let scale = tiny_scale();
        let a = fig8_data(&scale);
        let b = fig8_data(&scale);
        assert_eq!(a.runs.len(), 6); // p ∈ {2,4} × FW ∈ {0,1,2}
        assert!(a.t1 > 0.0);
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            assert_eq!(ra.elapsed, rb.elapsed, "experiments must be deterministic");
        }
    }

    #[test]
    fn table2_and_table3_have_expected_rows() {
        let scale = tiny_scale();
        let t2 = table2(&scale);
        assert_eq!(t2.len(), 3);
        assert_eq!(t2[0].fw, 0);
        assert_eq!(t2[0].speculation, 0.0, "FW=0 must not speculate");
        let t3 = table3(&scale);
        assert_eq!(t3.len(), 5);
        // Tighter θ ⇒ (weakly) more recomputations and less accepted error.
        for w in t3.windows(2) {
            assert!(w[0].theta > w[1].theta);
            assert!(
                w[0].incorrect_pct <= w[1].incorrect_pct + 1e-9,
                "θ {} -> {}% vs θ {} -> {}%",
                w[0].theta,
                w[0].incorrect_pct,
                w[1].theta,
                w[1].incorrect_pct
            );
        }
    }

    #[test]
    fn fig9_model_is_in_the_same_ballpark_as_measured() {
        let scale = tiny_scale();
        let rows = fig9(&scale);
        for r in rows {
            let rel = (r.model_nospec - r.measured_nospec).abs() / r.measured_nospec;
            assert!(rel < 0.5, "model vs measured at p={} off by {rel}", r.p);
        }
    }
}
