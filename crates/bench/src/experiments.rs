//! Every deterministic result of the reproduction, built by one
//! [`Report::generate`] at one scale: the paper's §5 artifacts, the
//! ablations and the controller sweep. Also the exchange-bytes scenario
//! the root tests gate.

use desim::rng::derive_seed;
use desim::SimDuration;
use mpk::{run_sim_proc_cluster, AsyncTransport};
use nbody::{
    centered_cloud, run_parallel, NBodyConfig, ParallelRunConfig, ParallelRunResult,
    SpeculationOrder,
};
use netsim::{
    ClusterSpec, ConstantLatency, Jitter, MsgCtx, NetworkModel, SharedMedium, TransientDelays,
    Unloaded,
};
use perfmodel::{fig5_series, fig6_series, CommModel, Fig5Row, Fig6Row, ModelParams};
use speccore::{
    run_speculative_aio, ControllerConfig, CorrectionMode, DeltaExchange, IterMsg, SpecConfig,
};
use workloads::{SyntheticApp, SyntheticConfig};

/// Particles in every measured paper run (the paper uses 1000).
pub(crate) const N_PARTICLES: usize = 1000;
/// Timesteps per measured paper run.
pub(crate) const ITERATIONS: u64 = 10;
/// Master seed of every measured run.
pub(crate) const SEED: u64 = 42;
/// Processor counts of the measured sweep behind Figures 8 and 9.
const P_VALUES: [usize; 8] = [2, 4, 6, 8, 10, 12, 14, 16];
/// The largest processor count: the cluster of Tables 2 and 3.
pub(crate) const P_MAX: usize = 16;
/// The ablations run a smaller problem on half the testbed.
pub(crate) const ABLATION_N: usize = 500;
pub(crate) const ABLATION_P: usize = 8;
pub(crate) const ABLATION_ITERATIONS: u64 = 8;

// ---------------------------------------------------------------------------
// Shared experiment environment
// ---------------------------------------------------------------------------

/// The network standing in for the paper's shared 10 Mb/s Ethernet:
/// a contended shared medium with ±30% jitter and large transient delays
/// on 1 % of messages (the paper: delays are "large and often subject to
/// large variations due to non-deterministic network traffic"). Per
/// message that stall is rare, but at p = 16 an iteration sends 16 × 15
/// = 240 messages, so it averages about 2.4 stalls.
///
/// Parameters are derived from the particle count so that at p = 16 the
/// per-iteration communication-to-computation ratio lands near the paper's
/// Table 2 (4.73 s comm vs 5.83 s comp ⇒ ≈ 0.8) at *any* problem size —
/// the ablations' N = 500 then probes the same regime as the paper's 1000.
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
    // Long stalls (~2 compute phases) on 1 % of messages, about 2.4 per
    // iteration at p = 16: the Figure 4 regime where a deeper forward
    // window pays off.
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

/// One N-body run of `n` particles on the `p` fastest testbed machines,
/// its network drawn from stream `net_stream` of [`SEED`].
fn run(n: usize, p: usize, cfg: ParallelRunConfig, net_stream: u64) -> ParallelRunResult {
    run_parallel(
        &centered_cloud(n, SEED),
        &ClusterSpec::paper_testbed().fastest(p),
        testbed_network(derive_seed(SEED, net_stream), n),
        Unloaded,
        cfg,
    )
    .expect("experiment run failed")
}

/// The paper runs' configuration at forward window `fw`: the experiment
/// physics (θ = 0.01) and incremental correction.
fn paper_config(fw: u32) -> ParallelRunConfig {
    let mut cfg = ParallelRunConfig::new(ITERATIONS, fw);
    cfg.nbody = experiment_nbody_config();
    cfg.spec = cfg.spec.with_correction(CorrectionMode::Incremental);
    cfg
}

// ---------------------------------------------------------------------------
// The report
// ---------------------------------------------------------------------------

/// Every deterministic result of the reproduction, in the order
/// [`crate::render::report`] prints it.
#[derive(Clone, Debug)]
pub struct Report {
    /// Figure 5: model speedups vs p for the §4 example (k = 2%).
    pub fig5: Vec<Fig5Row>,
    /// Figure 6: model speedup on 8 processors vs recomputation fraction.
    pub fig6: Vec<Fig6Row>,
    /// Figure 8: measured N-body speedups vs p.
    pub fig8: Vec<Fig8Row>,
    /// Figure 9: the §4 model calibrated from Figure 8's runs, vs them.
    pub fig9: Vec<Fig9Row>,
    /// Table 2: per-iteration phase times at p = 16.
    pub table2: Vec<Table2Row>,
    /// Table 3: the θ sweep at p = 16.
    pub table3: Vec<Table3Row>,
    /// The five ablations of DESIGN.md's design choices.
    pub ablations: Ablations,
    /// The adaptive controller against a fixed (θ, FW) grid.
    pub controller: ControllerSweep,
}

impl Report {
    /// Run every experiment. The measured sweep behind Figures 8 and 9 runs
    /// once, on its own thread beside the rest: each run is an independent
    /// deterministic simulation, so the split cannot change a bit.
    pub fn generate() -> Report {
        std::thread::scope(|s| {
            let sweep = s.spawn(Sweep::measure);
            let table2 = table2();
            let table3 = table3();
            let ablations = ablations();
            let controller = controller_sweep();
            let sweep = sweep.join().expect("the measured sweep panicked");
            let ks: Vec<f64> = (0..=30).map(|i| i as f64 * 0.01).collect();
            Report {
                fig5: fig5_series(&ModelParams::paper_example(), 16),
                fig6: fig6_series(&ModelParams::paper_example(), 8, &ks),
                fig8: sweep.fig8_rows(),
                fig9: sweep.fig9_rows(),
                table2,
                table3,
                ablations,
                controller,
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Figures 8 and 9: the measured sweep
// ---------------------------------------------------------------------------

/// One `(p, FW)` run of the measured sweep.
struct SweepRun {
    p: usize,
    fw: u32,
    /// Total virtual run time, seconds.
    elapsed: f64,
    /// Mean communication wait per iteration per rank, seconds.
    comm_wait_per_iter: f64,
    /// Measured recomputation fraction `k`.
    k: f64,
}

/// The measured N-body sweep: the fastest machine alone, then every
/// p × FW ∈ {0, 1, 2}.
struct Sweep {
    /// Execution time on the fastest machine alone, seconds.
    t1: f64,
    runs: Vec<SweepRun>,
}

impl Sweep {
    fn measure() -> Sweep {
        let t1 = run(N_PARTICLES, 1, paper_config(0), 1).elapsed_secs();
        let mut runs = Vec::new();
        for p in P_VALUES {
            for fw in 0..=2u32 {
                let result = run(N_PARTICLES, p, paper_config(fw), p as u64);
                runs.push(SweepRun {
                    p,
                    fw,
                    elapsed: result.elapsed_secs(),
                    comm_wait_per_iter: result.stats.mean_per_iteration().comm_wait.as_secs_f64(),
                    k: result.stats.recomputation_fraction(),
                });
            }
        }
        Sweep { t1, runs }
    }

    fn run(&self, p: usize, fw: u32) -> &SweepRun {
        self.runs
            .iter()
            .find(|r| r.p == p && r.fw == fw)
            .expect("no such run")
    }

    /// Measured speedup of `(p, fw)` relative to the fastest machine.
    fn speedup(&self, p: usize, fw: u32) -> f64 {
        self.t1 / self.run(p, fw).elapsed
    }

    fn fig8_rows(&self) -> Vec<Fig8Row> {
        let cluster = ClusterSpec::paper_testbed();
        P_VALUES
            .iter()
            .map(|&p| Fig8Row {
                p,
                fw0: self.speedup(p, 0),
                fw1: self.speedup(p, 1),
                fw2: self.speedup(p, 2),
                max: cluster.max_speedup(p),
            })
            .collect()
    }

    /// The §4 model parameterized from the N-body experiment, the way the
    /// paper does for its Figure 9: per-variable costs from the kernel's
    /// operation counts (70·N compute, 12 speculate, 24 check), capacities
    /// from the testbed, `t_comm(p)` from the measured baseline
    /// communication waits, and `k` from the measured FW = 1 recomputation
    /// fractions.
    fn calibrated_model(&self) -> ModelParams {
        let n = N_PARTICLES as f64;
        let mut t_comm = vec![0.0; P_MAX];
        for p in P_VALUES {
            t_comm[p - 1] = self.run(p, 0).comm_wait_per_iter;
        }
        let k = P_VALUES.iter().map(|&p| self.run(p, 1).k).sum::<f64>() / P_VALUES.len() as f64;
        ModelParams {
            n,
            f_comp: nbody::forces::OPS_PER_PAIR as f64 * n,
            f_spec: nbody::forces::OPS_PER_SPECULATE as f64,
            f_check: nbody::forces::OPS_PER_CHECK as f64,
            capacities: ClusterSpec::paper_testbed()
                .capacities()
                .iter()
                .map(|m| m * 1e6)
                .collect(),
            comm: CommModel::Table(t_comm),
            k,
        }
    }

    fn fig9_rows(&self) -> Vec<Fig9Row> {
        let model = self.calibrated_model();
        P_VALUES
            .iter()
            .map(|&p| Fig9Row {
                p,
                measured_nospec: self.speedup(p, 0),
                model_nospec: model.speedup_nospec(p),
                measured_spec: self.speedup(p, 1),
                model_spec: model.speedup_spec(p),
            })
            .collect()
    }
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

impl Fig8Row {
    /// Gain of the better speculative window over FW = 0, percent.
    pub fn gain_pct(&self) -> f64 {
        100.0 * (self.fw1.max(self.fw2) / self.fw0 - 1.0)
    }

    /// The better speculative speedup as a share of the maximum, percent.
    pub fn best_over_max_pct(&self) -> f64 {
        100.0 * self.fw1.max(self.fw2) / self.max
    }
}

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

impl Fig9Row {
    /// The model's error relative to the measurement, percent:
    /// `[no speculation, FW = 1]`.
    pub fn error_pct(&self) -> [f64; 2] {
        [
            100.0 * (self.model_nospec - self.measured_nospec).abs() / self.measured_nospec,
            100.0 * (self.model_spec - self.measured_spec).abs() / self.measured_spec,
        ]
    }
}

/// The worst model error of Figure 9 over the rows with `p ≤ max_p`,
/// percent.
pub fn worst_model_error_pct(rows: &[Fig9Row], max_p: usize) -> f64 {
    rows.iter()
        .filter(|r| r.p <= max_p)
        .flat_map(Fig9Row::error_pct)
        .fold(0.0, f64::max)
}

// ---------------------------------------------------------------------------
// Tables 2 and 3
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

/// Table 2: measured per-iteration phase times at p = 16 (the paper's
/// caption), FW ∈ {0, 1, 2}.
fn table2() -> Vec<Table2Row> {
    (0..=2u32)
        .map(|fw| {
            let result = run(N_PARTICLES, P_MAX, paper_config(fw), 1000 + u64::from(fw));
            let ph = result.stats.mean_per_iteration();
            Table2Row {
                fw,
                computation: ph.compute.as_secs_f64() + ph.correct.as_secs_f64(),
                communication: ph.comm_wait.as_secs_f64(),
                speculation: ph.speculate.as_secs_f64(),
                check: ph.check.as_secs_f64(),
                total: result.elapsed_secs() / ITERATIONS as f64,
            }
        })
        .collect()
}

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
/// force error (FW = 1, p = 16).
fn table3() -> Vec<Table3Row> {
    [0.1, 0.05, 0.01, 0.005, 0.001]
        .into_iter()
        .map(|theta| {
            let mut cfg = paper_config(1);
            cfg.nbody = cfg.nbody.with_theta(theta);
            let result = run(N_PARTICLES, P_MAX, cfg, 2000);
            Table3Row {
                theta,
                incorrect_pct: 100.0 * result.stats.recomputation_fraction(),
                max_force_error_pct: 200.0 * result.stats.max_accepted_error(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Ablations (beyond the paper)
// ---------------------------------------------------------------------------

/// One ablation run, with every column any ablation table prints.
#[derive(Clone, Debug)]
pub struct AblationRun {
    /// The setting under test, as its table's first column prints it.
    pub label: String,
    /// Checked partitions rejected, percent.
    pub rejected_pct: f64,
    /// Largest accepted speculation error.
    pub max_accepted_error: f64,
    /// Virtual run time, seconds.
    pub elapsed: f64,
    /// Rollbacks summed over ranks.
    pub rollbacks: u64,
    /// Deepest forward window any rank used.
    pub max_depth_used: u64,
    /// Incremental corrections summed over ranks.
    pub corrections: u64,
}

/// The ablations of the design choices DESIGN.md calls out, each a
/// sweep of one knob (N = 500 on the 8 fastest machines, 8 iterations).
#[derive(Clone, Debug)]
pub struct Ablations {
    /// Backward window 1–4 under quadratic speculation: §3.2's
    /// accuracy/complexity trade-off.
    pub backward_window: Vec<AblationRun>,
    /// Speculation function (hold, eq. 10 linear, quadratic): the "higher
    /// order derivatives" variant §5 leaves unstudied.
    pub order: Vec<AblationRun>,
    /// Forward window 0–4: §3.2's masking-depth trade-off.
    pub forward_window: Vec<AblationRun>,
    /// Fixed windows vs the adaptive controller started from each.
    pub controller: Vec<AblationRun>,
    /// Incremental correction vs full recomputation at θ = 0.003: §3.1's
    /// "corrected or recomputed" choice.
    pub correction: Vec<AblationRun>,
}

fn ablation(label: impl ToString, cfg: ParallelRunConfig, net_stream: u64) -> AblationRun {
    let r = run(ABLATION_N, ABLATION_P, cfg, net_stream);
    let per_rank = &r.stats.per_rank;
    AblationRun {
        label: label.to_string(),
        rejected_pct: 100.0 * r.stats.recomputation_fraction(),
        max_accepted_error: r.stats.max_accepted_error(),
        elapsed: r.elapsed_secs(),
        rollbacks: r.stats.total_rollbacks(),
        max_depth_used: per_rank.iter().map(|x| x.max_depth_used).max().unwrap_or(0),
        corrections: per_rank.iter().map(|x| x.corrections).sum(),
    }
}

fn ablations() -> Ablations {
    let base = |fw| ParallelRunConfig {
        nbody: experiment_nbody_config(),
        ..ParallelRunConfig::new(ABLATION_ITERATIONS, fw)
    };
    let with_spec = |spec| ParallelRunConfig { spec, ..base(1) };
    let ctl = ControllerConfig::new().with_fw_max(3).with_cadence(2, 2);
    Ablations {
        backward_window: (1..=4usize)
            .map(|bw| {
                let spec = SpecConfig::speculative(1).with_backward_window(bw);
                let cfg = ParallelRunConfig {
                    order: SpeculationOrder::Quadratic,
                    ..with_spec(spec)
                };
                ablation(bw, cfg, 10 + bw as u64)
            })
            .collect(),
        order: [
            ("hold", SpeculationOrder::Hold),
            ("linear", SpeculationOrder::Linear),
            ("quadratic", SpeculationOrder::Quadratic),
        ]
        .into_iter()
        .map(|(name, order)| ablation(name, ParallelRunConfig { order, ..base(1) }, 20))
        .collect(),
        forward_window: (0..=4u32).map(|fw| ablation(fw, base(fw), 30)).collect(),
        controller: [
            ("fixed(1)", SpecConfig::speculative(1)),
            ("fixed(3)", SpecConfig::speculative(3)),
            (
                "controller(1→)",
                SpecConfig::speculative(1).with_adaptive(ctl.clone()),
            ),
            (
                "controller(3→)",
                SpecConfig::speculative(3).with_adaptive(ctl),
            ),
        ]
        .into_iter()
        .map(|(name, spec)| ablation(name, with_spec(spec), 40))
        .collect(),
        correction: [
            ("incremental", CorrectionMode::Incremental),
            ("recompute", CorrectionMode::Recompute),
        ]
        .into_iter()
        .map(|(name, mode)| {
            let mut cfg = with_spec(SpecConfig::speculative(1).with_correction(mode));
            cfg.nbody = cfg.nbody.with_theta(0.003); // force misses
            ablation(name, cfg, 50)
        })
        .collect(),
    }
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

/// Per-source one-way latency of the controller sweep, microseconds: rank
/// 2 is 16× slower than rank 0, so the best window depth differs per peer.
pub(crate) const CONTROLLER_SWEEP_LATENCY_US: [u64; 4] = [500, 2_000, 8_000, 1_000];

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
fn controller_sweep() -> ControllerSweep {
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
