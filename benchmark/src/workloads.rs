//! The seven workloads: inputs from the seed, set-up with its output
//! checks, the timed repeat, and the measurements only one workload owns.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use desim::rng::derive_seed;
use desim::{SimDuration, SimReport};
use mpk::{
    decode_exact, encode_to_vec, run_socket_cluster, run_thread_cluster, FaultSpec,
    SocketClusterOptions, Tag, ThreadClusterOptions, Transport, WireSize,
};
use nbody::{NBodyApp, NBodyConfig, Particle, PartitionShared, SpeculationOrder};
use netsim::{ClusterSpec, Loss, Unloaded};
use obs::SharedRecorder;
use perfmodel::{predicted_iteration_time, CommModel, ModelParams};
use speccore::{
    ClusterStats, CorrectionMode, FaultTolerance, IterMsg, RunStats, SpecConfig, SpeculativeApp,
};
use workloads::{heat2d_reference, Heat2dApp, Heat2dConfig};

use crate::runs::{
    flatten, run_real_app, run_ring, run_sim_app, testbed_network, BenchApp, RealBackend, RingOut,
    RunOut,
};
use crate::stats::{median, tail, typical};
use crate::trace::{AppOps, TracedFaults, Tracer};

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The workloads, in the order they are reported.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "nbody16_sim",
        "The paper's own case, N=4096 on 16 simulated machines: the force kernel is nearly all of host time, so kernel work shows here and driver, transport and event-kernel work must not.",
    ),
    (
        "nbody16_small_sim",
        "Same cluster with N=64: the speccore driver, the mpk sim path and the desim kernel dominate, so their changes show here and a force-kernel change shows nothing.",
    ),
    (
        "nbody16_small_lossy_sim",
        "nbody16_small_sim under 5% message loss with fault tolerance and FW=2: deadline timers, retransmits and loss promotion; a fast-path gain that costs the fault path shows here.",
    ),
    (
        "heat2d16_sim",
        "A second app and payload (2-D heat, row halos) under the same exchange: the workloads crate and per-peer driver and app-hook cost show here.",
    ),
    (
        "nbody2_thread",
        "Two ranks on real threads through the mailbox, no codec: real concurrency, and the bypass arm for every socket and codec change.",
    ),
    (
        "nbody2_socket",
        "The same two ranks over loopback TCP: every message crosses the codec, framing, the kernel TCP stack and a reader thread, which nbody2_thread bypasses.",
    ),
    (
        "ring100k_sim",
        "100 000 stackless ranks in a token ring, about 10 events per rank: the desim kernel at scale, against 16 ranks times 500 events per iteration in the small workloads.",
    ),
];

/// What one timed cluster call gave, reduced to what the harness keeps.
pub struct Repeat {
    /// Wall-clock of the whole cluster call, seconds.
    pub wall_s: f64,
    /// Rank-iterations committed.
    pub committed: u64,
    pub bytes_sent: u64,
    /// Why this repeat's output check failed, if it did.
    pub failure: Option<String>,
    pub stats: Vec<RunStats>,
    /// The kernel's counters (simulator only).
    pub kernel: Option<Kernel>,
    pub ops: AppOps,
    pub tracer: Option<Tracer>,
    pub longest_rank_s: f64,
    /// Gaps between successive commits on rank 0, µs (traced real runs).
    pub commit_gaps_us: Vec<f64>,
}

/// The scalar part of a `desim::SimReport`.
#[derive(Clone, Copy, Debug)]
pub struct Kernel {
    /// Virtual time when the last rank finished, seconds.
    pub end_time_s: f64,
    pub events: u64,
    pub timers_fired: u64,
    pub messages_sent: u64,
}

impl Kernel {
    fn of(report: &SimReport) -> Self {
        Kernel {
            end_time_s: report.end_time.as_secs_f64(),
            events: report.events_processed,
            timers_fired: report.timers_fired,
            messages_sent: report.messages_sent,
        }
    }
}

/// A prepared workload: inputs generated, set-up checks passed.
pub trait Case {
    /// Ranks in the cluster.
    fn ranks(&self) -> u64;
    /// Iterations (ring: rounds) one repeat asks of every rank.
    fn iters(&self) -> u64;
    /// One timed cluster call with its output check.
    fn repeat(&mut self, on: bool) -> Repeat;
    /// The layer the app hooks are booked to: `"nbody"`, `"workloads"`, or
    /// `""` when the ranks run no app (then the rank body is the
    /// harness's own).
    fn app_layer(&self) -> &'static str;
    /// Real backends run their ranks concurrently.
    fn is_real(&self) -> bool;
    /// Measurements that belong to this workload only (traced run).
    /// `baseline_wall_s` is the wall-clock of an untraced repeat.
    fn companions(&mut self, baseline_wall_s: f64, out: &mut Values);
}

/// Generate `name`'s inputs from `seed`, check them and warm up.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Case>, String> {
    if let Some(spec) = NBODY.iter().find(|s| s.name == name) {
        return Ok(Box::new(nbody_case(spec, seed)?));
    }
    match name {
        "heat2d16_sim" => Ok(Box::new(heat_case(seed)?)),
        "ring100k_sim" => Ok(Box::new(RingCase::new(seed)?)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Backend {
    Sim,
    Real(RealBackend),
}

/// One N-body workload. Sim workloads run on the 16-machine paper testbed
/// with a capacity-proportional partition, real ones on two equal ranks.
struct NbodySpec {
    name: &'static str,
    n: usize,
    backend: Backend,
    /// Iterations per timed repeat, and of the exact-semantics check.
    iters: u64,
    exact_iters: u64,
    forward_window: u32,
    /// 5 % message loss with a 40 ms loss timeout.
    lossy: bool,
}

const NBODY: [NbodySpec; 5] = [
    NbodySpec {
        name: "nbody16_sim",
        n: 4096,
        backend: Backend::Sim,
        iters: 20,
        exact_iters: 3,
        forward_window: 1,
        lossy: false,
    },
    NbodySpec {
        name: "nbody16_small_sim",
        n: 64,
        backend: Backend::Sim,
        iters: 1000,
        exact_iters: 20,
        forward_window: 1,
        lossy: false,
    },
    NbodySpec {
        name: "nbody16_small_lossy_sim",
        n: 64,
        backend: Backend::Sim,
        iters: 1000,
        exact_iters: 20,
        forward_window: 2,
        lossy: true,
    },
    NbodySpec {
        name: "nbody2_thread",
        n: 128,
        backend: Backend::Real(RealBackend::Thread),
        iters: 5_000,
        exact_iters: 20,
        forward_window: 1,
        lossy: false,
    },
    NbodySpec {
        name: "nbody2_socket",
        n: 128,
        backend: Backend::Real(RealBackend::Socket),
        iters: 2_500,
        exact_iters: 20,
        forward_window: 1,
        lossy: false,
    },
];

/// One cluster call of an app workload: `(traced, config, iterations,
/// exact-semantics variant, recorder)`.
type Runner<A> = Box<dyn Fn(bool, &SpecConfig, u64, bool, Option<&SharedRecorder>) -> RunOut<A>>;

/// The paper-testbed cluster and network, optionally under 5 % loss.
fn sim_runner<A>(
    net: (u64, usize),
    loss_seed: Option<u64>,
    mk_app: impl Fn(usize, bool) -> A + 'static,
) -> Runner<A>
where
    A: BenchApp + 'static,
    A::Shared: WireSize + Clone + Send + 'static,
{
    let cluster = ClusterSpec::paper_testbed();
    Box::new(move |on, cfg, iters, exact, recorder| {
        // The exact-semantics variant runs fault-free: under loss a
        // promoted speculation is committed, which is not exact.
        let faults = match loss_seed.filter(|_| !exact) {
            Some(seed) => FaultSpec::new(TracedFaults::new(on, Loss::new(0.05, seed))),
            None => FaultSpec::none(),
        };
        run_sim_app(
            on,
            &cluster,
            testbed_network(net.0, net.1),
            faults,
            cfg,
            iters,
            recorder,
            |r| mk_app(r, exact),
        )
    })
}

/// A speculative application on one backend.
struct AppCase<A: BenchApp> {
    name: &'static str,
    ranks: u64,
    runner: Runner<A>,
    /// `Some((seed, n))` of the testbed network on the simulator.
    net: Option<(u64, usize)>,
    lossy: bool,
    cfg: SpecConfig,
    iters: u64,
    /// First sim repeat's outputs: every later one must equal them.
    first: Option<(Vec<u64>, Vec<RunStats>, SimReport)>,
    /// Rank 0's first broadcast, for the codec rows.
    sample: A::Shared,
    /// The N-body inputs, for the legacy-runner rows.
    particles: Arc<Vec<Particle>>,
}

impl<A: BenchApp> AppCase<A> {
    /// The exact-semantics run (θ = 0, recompute) on this backend must
    /// equal the sequential reference bit for bit; then one warm-up run
    /// (allocator pools, page faults, caches) outside the timing.
    fn check_and_warm(&self, exact_iters: u64, reference: &[f64]) -> Result<(), String> {
        let name = self.name;
        let cfg = SpecConfig::speculative(1).with_correction(CorrectionMode::Recompute);
        let out = (self.runner)(false, &cfg, exact_iters, true, None);
        if out.committed() != exact_iters * self.ranks {
            return Err(format!("{name}: exact run did not commit every iteration"));
        }
        let got: Vec<f64> = out.ranks.iter().flat_map(|r| r.app.values()).collect();
        let same = got.len() == reference.len()
            && got
                .iter()
                .zip(reference)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(format!(
                "{name}: exact run differs from the sequential reference"
            ));
        }
        let warm_iters = (self.iters / 10).max(3);
        let warm = (self.runner)(false, &self.cfg, warm_iters, false, None);
        if warm.committed() != warm_iters * self.ranks {
            return Err(format!("{name}: warm-up did not commit every iteration"));
        }
        Ok(())
    }

    fn repeat_checked(&mut self, on: bool) -> Repeat {
        let out = (self.runner)(on, &self.cfg, self.iters, false, None);
        let mut failure = None;
        if out.committed() != self.iters * self.ranks {
            failure = Some("a rank did not commit every iteration".to_string());
        } else if !out.all_finite() {
            failure = Some("final state is not finite".to_string());
        }
        let (committed, bytes_sent, ops) = (out.committed(), out.bytes_sent(), out.ops());
        let fingerprints = out.fingerprints();
        let mut stats: Vec<RunStats> = out.ranks.into_iter().map(|r| r.stats).collect();
        let commit_gaps_us = if on {
            let at = |l: &speccore::IterationLog| l.confirmed_at.as_nanos() as f64 * 1e-3;
            stats[0]
                .iteration_log
                .windows(2)
                .map(|w| at(&w[1]) - at(&w[0]))
                .collect()
        } else {
            Vec::new()
        };
        for s in &mut stats {
            s.iteration_log = Vec::new();
        }
        if self.lossy {
            let losses: u64 = stats.iter().map(|s| s.messages_lost).sum();
            let commits: u64 = stats.iter().map(|s| s.speculate_through_loss_commits).sum();
            if commits > losses {
                failure = Some(format!("{commits} loss commits exceed {losses} losses"));
            }
        }
        let kernel = out.report.as_ref().map(Kernel::of);
        if let Some(report) = out.report {
            // Bit-repeatable: traced or not, every repeat equals the first.
            match &self.first {
                None => self.first = Some((fingerprints, stats.clone(), report)),
                Some((fp, st, rep)) => {
                    if *fp != fingerprints || *st != stats || *rep != report {
                        failure = Some("sim repeat differs from the first repeat".to_string());
                    }
                }
            }
        }
        Repeat {
            wall_s: out.wall_s,
            committed,
            bytes_sent,
            failure,
            stats,
            kernel,
            ops,
            tracer: out.tracer,
            longest_rank_s: out.longest_rank_s,
            commit_gaps_us,
        }
    }

    /// Virtual makespan of a blocking (FW = 0) run on the same inputs over
    /// the speculative run's — the paper's Figure 8 quantity. Returns the
    /// blocking run's mean communication wait per iteration.
    fn blocking_rows(&self, out: &mut Values) -> f64 {
        let spec_makespan = self.first.as_ref().expect("a repeat ran").2.end_time;
        let run = (self.runner)(false, &SpecConfig::baseline(), self.iters, false, None);
        let blocking_makespan = run.report.as_ref().expect("sim run").end_time;
        out.insert(
            "speccore.virtual_speedup_vs_blocking",
            blocking_makespan.as_secs_f64() / spec_makespan.as_secs_f64(),
        );
        let stats = ClusterStats::new(run.ranks.into_iter().map(|r| r.stats).collect());
        stats.mean_per_iteration().comm_wait.as_secs_f64()
    }

    /// Untraced repeats with an `obs` recorder set on every rank, against
    /// the untraced baseline without one.
    fn recorder_rows(&self, baseline_wall_s: f64, out: &mut Values) {
        const REPEATS: usize = 5;
        let mut walls = Vec::with_capacity(REPEATS);
        let mut events = 0;
        for _ in 0..REPEATS {
            let rec = SharedRecorder::new();
            let run = (self.runner)(false, &self.cfg, self.iters, false, Some(&rec));
            walls.push(run.wall_s);
            events = rec.drain().len();
        }
        let wall = typical(&walls, false);
        out.insert(
            "obs.recorder_on_host_us_per_iter",
            wall * 1e6 / self.iters as f64,
        );
        out.insert("obs.overhead_frac", wall / baseline_wall_s - 1.0);
        out.insert("obs.events_recorded", events as f64);
    }
}

impl Case for AppCase<Heat2dApp> {
    fn ranks(&self) -> u64 {
        self.ranks
    }
    fn iters(&self) -> u64 {
        self.iters
    }
    fn app_layer(&self) -> &'static str {
        "workloads"
    }
    fn is_real(&self) -> bool {
        false
    }
    fn repeat(&mut self, on: bool) -> Repeat {
        self.repeat_checked(on)
    }
    fn companions(&mut self, _baseline_wall_s: f64, out: &mut Values) {
        self.blocking_rows(out);
    }
}

impl Case for AppCase<NBodyApp> {
    fn ranks(&self) -> u64 {
        self.ranks
    }
    fn iters(&self) -> u64 {
        self.iters
    }
    fn app_layer(&self) -> &'static str {
        "nbody"
    }
    fn is_real(&self) -> bool {
        self.net.is_none()
    }
    fn repeat(&mut self, on: bool) -> Repeat {
        self.repeat_checked(on)
    }
    fn companions(&mut self, baseline_wall_s: f64, out: &mut Values) {
        match self.name {
            "nbody16_sim" => {
                let comm_wait = self.blocking_rows(out);
                self.model_rows(comm_wait, out);
            }
            "nbody16_small_sim" => {
                self.blocking_rows(out);
                self.recorder_rows(baseline_wall_s, out);
                legacy_runner_rows(&self.particles, self.net.expect("sim workload"), out);
            }
            "nbody2_thread" => {
                out.insert(
                    "mpk.thread_pingpong_rtt_us",
                    pingpong_rtt_us(RealBackend::Thread),
                );
            }
            "nbody2_socket" => {
                out.insert(
                    "mpk.socket_pingpong_rtt_us",
                    pingpong_rtt_us(RealBackend::Socket),
                );
                self.codec_rows(out);
            }
            _ => {}
        }
    }
}

impl AppCase<NBodyApp> {
    /// §4 eqs. 3–9 against the measured virtual iteration time, the model
    /// calibrated as `spec_bench`'s `calibrated_model` does: the paper's
    /// op counts, the testbed capacities, `t_comm(16)` from the blocking
    /// run's mean communication wait and `k` from the speculative run.
    fn model_rows(&self, blocking_comm_wait: f64, out: &mut Values) {
        let (_, stats, report) = self.first.as_ref().expect("a repeat ran");
        let cluster = ClusterSpec::paper_testbed();
        let p = cluster.len();
        let n = self.net.expect("sim workload").1 as f64;
        let mut t_comm = vec![0.0; p];
        t_comm[p - 1] = blocking_comm_wait;
        let params = ModelParams {
            n,
            f_comp: nbody::forces::OPS_PER_PAIR as f64 * n,
            f_spec: nbody::forces::OPS_PER_SPECULATE as f64,
            f_check: nbody::forces::OPS_PER_CHECK as f64,
            capacities: cluster.capacities().iter().map(|m| m * 1e6).collect(),
            comm: CommModel::Table(t_comm),
            k: ClusterStats::new(stats.clone()).recomputation_fraction(),
        };
        let predicted = predicted_iteration_time(&params, p).expect("well-formed model");
        let measured = report.end_time.as_secs_f64() / self.iters as f64;
        out.insert("perfmodel.predicted_s_per_iter", predicted);
        out.insert(
            "perfmodel.model_residual_frac",
            (measured - predicted).abs() / predicted,
        );
    }

    /// `encode_to_vec` / `decode_exact` timed on the workload's own
    /// message. The socket path decodes on reader threads the harness
    /// cannot see, so the codec's share is an estimate: frames × (encode +
    /// decode).
    fn codec_rows(&self, out: &mut Values) {
        const FRAMES: u32 = 20_000;
        let msg = IterMsg::full(7, Arc::clone(&self.sample));
        let bytes = encode_to_vec(&msg);
        let t0 = Instant::now();
        for _ in 0..FRAMES {
            std::hint::black_box(encode_to_vec(std::hint::black_box(&msg)));
        }
        let enc_ns = t0.elapsed().as_secs_f64() * 1e9 / FRAMES as f64;
        let t0 = Instant::now();
        for _ in 0..FRAMES {
            let back: Option<IterMsg<Arc<PartitionShared>>> =
                decode_exact(std::hint::black_box(&bytes));
            assert!(
                std::hint::black_box(back).is_some(),
                "frame must round-trip"
            );
        }
        let dec_ns = t0.elapsed().as_secs_f64() * 1e9 / FRAMES as f64;
        let frames = (self.ranks * (self.ranks - 1) * self.iters) as f64;
        out.insert("mpk.codec_encode_ns_per_frame", enc_ns);
        out.insert("mpk.codec_decode_ns_per_frame", dec_ns);
        out.insert("mpk.codec_bytes_per_frame", bytes.len() as f64);
        out.insert("mpk.codec_est_s", frames * (enc_ns + dec_ns) * 1e-9);
    }
}

/// `nbody16_small_sim`'s inputs through `nbody::run_parallel`, which still
/// runs on the legacy thread-per-rank sim runner. Its host time is bimodal
/// on a shared box, so the row is a min and a max and is never gated.
fn legacy_runner_rows(particles: &[Particle], net: (u64, usize), out: &mut Values) {
    const ITERS: u64 = 50;
    const REPEATS: usize = 3;
    let per_iter: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let mut cfg = nbody::ParallelRunConfig::new(ITERS, 1);
            cfg.nbody = experiment_physics(0.01);
            cfg.spec = cfg.spec.with_correction(CorrectionMode::Incremental);
            let t0 = Instant::now();
            let res = nbody::run_parallel(
                particles,
                &ClusterSpec::paper_testbed(),
                testbed_network(net.0, net.1),
                Unloaded,
                cfg,
            )
            .expect("legacy runner must complete");
            let wall_s = t0.elapsed().as_secs_f64();
            assert!(res.stats.per_rank.iter().all(|r| r.iterations == ITERS));
            wall_s * 1e6 / ITERS as f64
        })
        .collect();
    out.insert(
        "mpk.sim_threaded_host_us_per_iter_min",
        per_iter.iter().copied().fold(f64::INFINITY, f64::min),
    );
    out.insert(
        "mpk.sim_threaded_host_us_per_iter_max",
        per_iter.iter().copied().fold(0.0, f64::max),
    );
}

/// Round-trip time of a one-word echo between two ranks, µs (median).
fn pingpong_rtt_us(backend: RealBackend) -> f64 {
    const ROUNDS: u64 = 2000;
    fn body<T: Transport<Msg = u64>>(t: &mut T) -> Vec<f64> {
        let mut rtts = Vec::new();
        for i in 0..ROUNDS {
            if t.rank().0 == 0 {
                let t0 = Instant::now();
                t.send(mpk::Rank(1), Tag(0), i);
                assert_eq!(t.recv().msg, i);
                rtts.push(t0.elapsed().as_secs_f64() * 1e6);
            } else {
                let v = t.recv().msg;
                t.send(mpk::Rank(0), Tag(0), v);
            }
        }
        rtts
    }
    let outs = match backend {
        RealBackend::Thread => {
            run_thread_cluster::<u64, _, _>(2, ThreadClusterOptions::default(), body)
        }
        RealBackend::Socket => {
            run_socket_cluster::<u64, _, _>(2, SocketClusterOptions::default(), body)
        }
    };
    median(&outs[0])
}

/// Physics of the measured experiments (`spec_bench`'s
/// `experiment_nbody_config`): a dynamically hot cloud, so speculation
/// errors straddle θ.
fn experiment_physics(theta: f64) -> NBodyConfig {
    NBodyConfig {
        g: 1.0,
        softening: 0.01,
        dt: 1e-2,
        theta,
    }
}

fn nbody_case(spec: &NbodySpec, seed: u64) -> Result<AppCase<NBodyApp>, String> {
    let &NbodySpec {
        name,
        n,
        backend,
        iters,
        exact_iters,
        forward_window,
        lossy,
    } = spec;
    let particles = Arc::new(nbody::centered_cloud(n, seed));
    let ranges: Vec<Range<usize>> = match backend {
        Backend::Sim => {
            nbody::partition_proportional(n, &ClusterSpec::paper_testbed().capacities())
        }
        // Two equal ranks: p = 2 = the cores the real backends get.
        Backend::Real(_) => vec![0..n / 2, n / 2..n],
    };
    let mut cfg =
        SpecConfig::speculative(forward_window).with_correction(CorrectionMode::Incremental);
    if lossy {
        cfg = cfg.with_fault_tolerance(FaultTolerance::new(SimDuration::from_millis(40)));
    }
    if backend != Backend::Sim {
        cfg = cfg.with_iteration_log();
    }
    let mk_app = {
        let (particles, ranges) = (Arc::clone(&particles), ranges.clone());
        move |rank: usize, exact: bool| {
            let theta = if exact { 0.0 } else { 0.01 };
            NBodyApp::new(
                &particles,
                ranges.clone(),
                rank,
                experiment_physics(theta),
                SpeculationOrder::Linear,
            )
        }
    };
    let net = (backend == Backend::Sim).then(|| (derive_seed(seed, 1), n));
    let sample = mk_app(0, false).shared();
    let runner: Runner<NBodyApp> = match backend {
        Backend::Sim => sim_runner(
            net.expect("sim"),
            lossy.then(|| derive_seed(seed, 2)),
            mk_app,
        ),
        Backend::Real(b) => Box::new(move |on, cfg, iters, exact, _recorder| {
            run_real_app(on, b, 2, cfg, iters, |r| mk_app(r, exact))
        }),
    };
    let case = AppCase {
        name,
        ranks: ranges.len() as u64,
        runner,
        net,
        lossy,
        cfg,
        iters,
        first: None,
        sample,
        particles: Arc::clone(&particles),
    };
    let mut reference = particles.to_vec();
    for _ in 0..exact_iters {
        nbody::integrate::step_partition_order(&mut reference, &ranges, &experiment_physics(0.0));
    }
    case.check_and_warm(exact_iters, &flatten(&reference))?;
    Ok(case)
}

const HEAT_ROWS: usize = 64;
const HEAT_COLS: usize = 64;

fn heat_case(seed: u64) -> Result<AppCase<Heat2dApp>, String> {
    const EXACT_ITERS: u64 = 20;
    let p = ClusterSpec::paper_testbed().len();
    let ranges: Vec<Range<usize>> = (0..p)
        .map(|r| r * HEAT_ROWS / p..(r + 1) * HEAT_ROWS / p)
        .collect();
    let mk_app = move |rank: usize, exact: bool| {
        let mut cfg = Heat2dConfig::default();
        if exact {
            cfg.theta = 0.0;
        }
        Heat2dApp::new(HEAT_ROWS, HEAT_COLS, &ranges, rank, cfg)
    };
    // The N = 64 testbed network, as on the small N-body workloads.
    let net = (derive_seed(seed, 1), 64);
    let sample = mk_app(0, false).shared();
    let case = AppCase {
        name: "heat2d16_sim",
        ranks: p as u64,
        runner: sim_runner(net, None, mk_app),
        net: Some(net),
        lossy: false,
        cfg: SpecConfig::speculative(1).with_correction(CorrectionMode::Incremental),
        iters: 250,
        first: None,
        sample,
        particles: Arc::new(Vec::new()),
    };
    let reference = heat2d_reference(HEAT_ROWS, HEAT_COLS, Heat2dConfig::default(), EXACT_ITERS);
    case.check_and_warm(EXACT_ITERS, &reference)?;
    Ok(case)
}

const RING_RANKS: usize = 100_000;
const RING_ROUNDS: u64 = 4;

/// The token ring at 100 000 ranks.
struct RingCase {
    seed: u64,
    first: Option<SimReport>,
    /// Peak-RSS growth of the process across its first full-size run.
    rss_bytes_per_rank: f64,
}

impl RingCase {
    fn new(seed: u64) -> Result<Self, String> {
        // Warm-up at full size: the first 100 000-rank run pays the page
        // faults of the kernel's tables, later ones reuse them.
        let before = crate::peak_rss_bytes();
        let warm = run_ring(false, RING_RANKS, RING_ROUNDS, seed);
        let grown = crate::peak_rss_bytes().saturating_sub(before);
        if let Some(f) = token_check(&warm) {
            return Err(format!("ring100k_sim: {f}"));
        }
        Ok(RingCase {
            seed,
            first: None,
            rss_bytes_per_rank: grown as f64 / RING_RANKS as f64,
        })
    }
}

/// Token counts: every rank received its predecessor's token once per
/// round, and every message was delivered.
fn token_check(out: &RingOut) -> Option<String> {
    let ranks = out.seen.len();
    let rounds = RING_ROUNDS;
    let wrong = (0..ranks).find(|&r| out.seen[r] != rounds * ((r + ranks - 1) % ranks) as u64);
    if let Some(r) = wrong {
        return Some(format!("rank {r} saw the wrong tokens"));
    }
    if out.report.messages_delivered != ranks as u64 * rounds {
        return Some("not every token was delivered".to_string());
    }
    None
}

impl Case for RingCase {
    fn ranks(&self) -> u64 {
        RING_RANKS as u64
    }

    fn iters(&self) -> u64 {
        RING_ROUNDS
    }

    fn app_layer(&self) -> &'static str {
        ""
    }

    fn is_real(&self) -> bool {
        false
    }

    fn repeat(&mut self, on: bool) -> Repeat {
        let out = run_ring(on, RING_RANKS, RING_ROUNDS, self.seed);
        let mut failure = token_check(&out);
        let kernel = Some(Kernel::of(&out.report));
        match &self.first {
            None => self.first = Some(out.report),
            Some(first) => {
                if *first != out.report {
                    failure = Some("ring repeat differs from the first repeat".to_string());
                }
            }
        }
        Repeat {
            wall_s: out.wall_s,
            committed: if failure.is_none() {
                RING_RANKS as u64 * RING_ROUNDS
            } else {
                0
            },
            bytes_sent: out.bytes_sent,
            failure,
            stats: Vec::new(),
            kernel,
            ops: AppOps::default(),
            tracer: out.tracer,
            longest_rank_s: 0.0,
            commit_gaps_us: Vec::new(),
        }
    }

    fn companions(&mut self, baseline_wall_s: f64, out: &mut Values) {
        // The 1 000-rank companion: same ring, a hundredth of the ranks.
        const SMALL: usize = 1000;
        let runs: Vec<RingOut> = (0..21)
            .map(|_| run_ring(false, SMALL, RING_ROUNDS, self.seed))
            .collect();
        let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
        let small_rate = runs[0].report.events_processed as f64 / typical(&walls, false);
        let big = self.first.as_ref().expect("a repeat ran");
        let big_rate = big.events_processed as f64 / baseline_wall_s;
        out.insert("desim.events_per_s_1k", small_rate);
        out.insert("desim.falloff_1k_over_100k", small_rate / big_rate);
        out.insert("desim.rss_bytes_per_rank", self.rss_bytes_per_rank);
    }
}

/// Commit-gap rows for the real backends: median and the highest
/// percentile with at least ten samples beyond it.
pub fn commit_gap_rows(gaps_us: &[f64], out: &mut Values) {
    if gaps_us.is_empty() {
        return;
    }
    out.insert("speccore.commit_gap_us_p50", median(gaps_us));
    out.insert("speccore.commit_gap_samples", gaps_us.len() as f64);
    if let Some((pct, value)) = tail(gaps_us) {
        out.insert("speccore.commit_gap_us_tail", value);
        out.insert("speccore.commit_gap_tail_percentile", pct);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A repeat compares its fingerprints, `RunStats` and `SimReport` with
    /// the first repeat's, so an untraced repeat followed by a traced one
    /// proves the wrappers change nothing the program computes.
    fn assert_wrappers_are_neutral(mut case: impl Case) {
        let plain = case.repeat(false);
        assert_eq!(plain.failure, None);
        assert!(plain.tracer.is_none());
        let traced = case.repeat(true);
        assert_eq!(traced.failure, None, "traced run must equal the untraced");
        let tracer = traced.tracer.expect("traced repeat carries a tracer");
        assert!(tracer.is_closed());
        assert!(tracer.self_sum_ns() > 0);
        assert_eq!(
            tracer.self_sum_ns(),
            tracer.acc[crate::trace::Kind::Cluster as usize].total_ns,
            "self times sum to the cluster call"
        );
    }

    #[test]
    fn traced_and_untraced_sim_runs_are_identical() {
        let spec = NbodySpec {
            iters: 40,
            exact_iters: 5,
            ..NBODY[1]
        };
        assert_wrappers_are_neutral(nbody_case(&spec, 7).expect("set-up checks pass"));
    }

    #[test]
    fn traced_and_untraced_lossy_sim_runs_are_identical() {
        let spec = NbodySpec {
            iters: 40,
            exact_iters: 5,
            ..NBODY[2]
        };
        assert!(spec.lossy);
        assert_wrappers_are_neutral(nbody_case(&spec, 7).expect("set-up checks pass"));
    }

    #[test]
    fn ring_tokens_are_checked() {
        let mut out = run_ring(false, 50, RING_ROUNDS, 3);
        assert_eq!(token_check(&out), None);
        out.seen[7] += 1;
        assert!(token_check(&out).is_some());
    }

    #[test]
    fn unknown_workload_is_refused() {
        assert!(setup("nope", 1).is_err());
    }
}
