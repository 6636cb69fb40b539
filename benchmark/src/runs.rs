//! The timed cluster calls: one speculative application on the stackless
//! simulator, the same on a real (thread or socket) backend, and the token
//! ring. Each takes an `on` flag that arms the tracing wrappers; with it
//! off the wrappers delegate and the call is the untraced measurement.

use std::pin::pin;
use std::time::Instant;

use desim::{SimDuration, SimReport};
use mpk::{
    run_sim_proc_cluster_with_faults, run_socket_cluster, run_thread_cluster, AsyncTransport,
    FaultSpec, Rank, SocketClusterOptions, Tag, ThreadClusterOptions, WireCodec, WireSize,
    HEADER_BYTES,
};
use netsim::{
    ClusterSpec, ConstantLatency, Jitter, MachineSpec, NetworkModel, SharedMedium, TransientDelays,
    Unloaded,
};
use obs::SharedRecorder;
use speccore::{run_speculative_aio, IterMsg, RunStats, SpecConfig, SpeculativeApp};

use crate::trace::{
    self, block_on_ready, AppOps, Kind, PollSpan, TracedApp, TracedIo, TracedNet, Tracer,
};

/// What the harness needs from an application beyond the driver's trait.
pub trait BenchApp: SpeculativeApp {
    /// Bit-exact fingerprint of this rank's state.
    fn fingerprint(&self) -> u64;
    /// This rank's state as plain values, in the order the sequential
    /// reference lays them out.
    fn values(&self) -> Vec<f64>;
}

impl BenchApp for nbody::NBodyApp {
    fn fingerprint(&self) -> u64 {
        nbody::NBodyApp::fingerprint(self)
    }
    fn values(&self) -> Vec<f64> {
        flatten(&self.particles())
    }
}

impl BenchApp for workloads::Heat2dApp {
    fn fingerprint(&self) -> u64 {
        workloads::Heat2dApp::fingerprint(self)
    }
    fn values(&self) -> Vec<f64> {
        self.cells().to_vec()
    }
}

/// Positions then velocities, particle by particle.
pub fn flatten(particles: &[nbody::Particle]) -> Vec<f64> {
    particles
        .iter()
        .flat_map(|p| [p.pos.x, p.pos.y, p.pos.z, p.vel.x, p.vel.y, p.vel.z])
        .collect()
}

/// One rank's result.
pub struct RankOut<A> {
    /// The application in its final state.
    pub app: A,
    pub stats: RunStats,
    pub ops: AppOps,
}

/// One cluster call's result.
pub struct RunOut<A> {
    /// Wall-clock of the whole cluster call, seconds.
    pub wall_s: f64,
    pub ranks: Vec<RankOut<A>>,
    /// The kernel's report (simulator only).
    pub report: Option<SimReport>,
    /// Merged spans and accumulators (traced calls only).
    pub tracer: Option<Tracer>,
    /// Longest rank closure, seconds (traced real-backend calls only).
    pub longest_rank_s: f64,
}

impl<A: BenchApp> RunOut<A> {
    pub fn fingerprints(&self) -> Vec<u64> {
        self.ranks.iter().map(|r| r.app.fingerprint()).collect()
    }

    pub fn bytes_sent(&self) -> u64 {
        self.ranks.iter().map(|r| r.stats.bytes_sent).sum()
    }

    pub fn ops(&self) -> AppOps {
        let mut total = AppOps::default();
        for r in &self.ranks {
            total.add(r.ops);
        }
        total
    }

    /// Rank-iterations committed.
    pub fn committed(&self) -> u64 {
        self.ranks.iter().map(|r| r.stats.iterations).sum()
    }

    pub fn all_finite(&self) -> bool {
        self.ranks
            .iter()
            .all(|r| r.app.values().iter().all(|v| v.is_finite()))
    }
}

/// The paper-testbed network recipe of `spec_bench::experiments::
/// testbed_network`, restated: a shared medium sized so that at p = 16 the
/// communication-to-computation ratio is ≈ 0.8 for an N-body problem of
/// `n` particles, ±30 % jitter, and 1 % transient stalls of ≈ 2 compute
/// phases.
pub fn testbed_network(seed: u64, n: usize) -> impl NetworkModel + 'static {
    use desim::rng::derive_seed;
    let total_ops_per_sec: f64 = ClusterSpec::paper_testbed()
        .capacities()
        .iter()
        .map(|m| m * 1e6)
        .sum();
    let n = n as f64;
    let comp16 = 70.0 * n * n / total_ops_per_sec;
    let bytes_per_iter = 15.0 * (48.0 * n + 16.0 * 72.0);
    let bandwidth = bytes_per_iter / (0.8 * comp16);
    let bus = SharedMedium::new(SimDuration::from_secs_f64(comp16 / 134.0), bandwidth);
    let jittered = Jitter::new(bus, 0.3, derive_seed(seed, 0xA));
    TransientDelays::new(
        jittered,
        0.01,
        SimDuration::from_secs_f64(1.8 * comp16),
        derive_seed(seed, 0xB),
    )
}

/// The body every rank of every app workload runs: the `speccore` driver
/// over a (possibly traced) transport and app.
async fn rank_body<T, A>(
    on: bool,
    t: &mut T,
    mut app: TracedApp<A>,
    iters: u64,
    cfg: SpecConfig,
) -> RankOut<A>
where
    A: BenchApp,
    A::Shared: WireSize,
    T: AsyncTransport<Msg = IterMsg<A::Shared>>,
{
    let mut io = TracedIo::new(on, t);
    let stats = run_speculative_aio(&mut io, &mut app, iters, cfg).await;
    RankOut {
        app: app.inner,
        stats,
        ops: app.ops,
    }
}

/// Run `iters` iterations of the app `mk_app` builds per rank on the
/// stackless simulator. `recorder`, when given, is set on every rank (the
/// `obs` overhead rows).
#[allow(clippy::too_many_arguments)]
pub fn run_sim_app<A>(
    on: bool,
    cluster: &ClusterSpec,
    net: impl NetworkModel + 'static,
    faults: FaultSpec<IterMsg<A::Shared>>,
    cfg: &SpecConfig,
    iters: u64,
    recorder: Option<&SharedRecorder>,
    mk_app: impl Fn(usize) -> A,
) -> RunOut<A>
where
    A: BenchApp + 'static,
    A::Shared: WireSize + Clone + Send + 'static,
{
    let t0 = Instant::now();
    if on {
        let _ = trace::take();
        trace::begin(Kind::Cluster);
    }
    let (ranks, report) = run_sim_proc_cluster_with_faults::<IterMsg<A::Shared>, _, _, _>(
        cluster,
        TracedNet::new(on, net),
        Unloaded,
        faults,
        false,
        |mut t| {
            let rank = t.rank().0;
            let app = trace::span(on, Kind::RankSetup, || TracedApp::new(on, mk_app(rank)));
            let cfg = cfg.clone();
            if let Some(rec) = recorder {
                t.set_recorder(Box::new(rec.clone()));
            }
            async move {
                let body = pin!(rank_body(on, &mut t, app, iters, cfg));
                PollSpan::rank(on, rank, body).await
            }
        },
    )
    .expect("simulated cluster run must complete");
    let tracer = on.then(|| {
        trace::end();
        trace::take()
    });
    RunOut {
        wall_s: t0.elapsed().as_secs_f64(),
        ranks,
        report: Some(report),
        tracer,
        longest_rank_s: 0.0,
    }
}

/// The two real backends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RealBackend {
    Thread,
    Socket,
}

/// One rank of a real-backend run, on its own OS thread: the rank closure
/// is the root span, and the thread's tracer travels back with the result.
fn real_rank<T, A>(
    on: bool,
    t: &mut T,
    cfg: &SpecConfig,
    iters: u64,
    mk_app: &impl Fn(usize) -> A,
) -> (RankOut<A>, Option<Tracer>)
where
    A: BenchApp,
    A::Shared: WireSize,
    T: AsyncTransport<Msg = IterMsg<A::Shared>>,
{
    let rank = t.rank().0;
    if on {
        let _ = trace::take();
        trace::set_rank(rank as u32);
        trace::begin(Kind::RankRun);
    }
    let app = trace::span(on, Kind::RankSetup, || TracedApp::new(on, mk_app(rank)));
    let out = block_on_ready(rank_body(on, t, app, iters, cfg.clone()));
    let tracer = on.then(|| {
        trace::end();
        trace::take()
    });
    (out, tracer)
}

/// Run `iters` iterations on `p` OS threads over the thread mailbox or
/// loopback TCP. `mips` is infinite so `Transport::compute`'s modelled
/// charge is a zero-length sleep and wall-clock is the program's own work.
pub fn run_real_app<A>(
    on: bool,
    backend: RealBackend,
    p: usize,
    cfg: &SpecConfig,
    iters: u64,
    mk_app: impl Fn(usize) -> A + Sync,
) -> RunOut<A>
where
    A: BenchApp + Send,
    A::Shared: WireSize + WireCodec + Clone + Send + 'static,
{
    let t0 = Instant::now();
    let outs = match backend {
        RealBackend::Thread => run_thread_cluster::<IterMsg<A::Shared>, _, _>(
            p,
            ThreadClusterOptions {
                mips: f64::INFINITY,
                ..ThreadClusterOptions::default()
            },
            |t| real_rank(on, t, cfg, iters, &mk_app),
        ),
        RealBackend::Socket => run_socket_cluster::<IterMsg<A::Shared>, _, _>(
            p,
            SocketClusterOptions {
                mips: f64::INFINITY,
                ..SocketClusterOptions::default()
            },
            |t| real_rank(on, t, cfg, iters, &mk_app),
        ),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let mut ranks = Vec::with_capacity(p);
    let mut merged = on.then(Tracer::default);
    let mut longest_ns = 0;
    for (out, tracer) in outs {
        ranks.push(out);
        if let (Some(all), Some(t)) = (merged.as_mut(), tracer) {
            longest_ns = longest_ns.max(t.acc[Kind::RankRun as usize].total_ns);
            all.merge(t);
        }
    }
    RunOut {
        wall_s,
        ranks,
        report: None,
        tracer: merged,
        longest_rank_s: longest_ns as f64 * 1e-9,
    }
}

/// One token-ring run's result.
pub struct RingOut {
    pub wall_s: f64,
    /// Per rank: sum of the tokens received.
    pub seen: Vec<u64>,
    /// Modelled bytes put on the wire (payload plus header), all ranks.
    pub bytes_sent: u64,
    pub report: SimReport,
    pub tracer: Option<Tracer>,
}

/// The `spec_bench::scale` recipe restated: `ranks` stackless processes in
/// a token ring for `rounds` rounds — one send, one blocking receive and a
/// 100-op compute per rank per round — over capacities ramping 2:1 and a
/// 200 µs latency with ±50 % jitter, each rank closing with one expiring
/// timed receive.
pub fn run_ring(on: bool, ranks: usize, rounds: u64, seed: u64) -> RingOut {
    let denom = (ranks - 1).max(1) as f64;
    let cluster = ClusterSpec::new(
        (0..ranks)
            .map(|i| MachineSpec::new(50.0 * (1.0 - 0.5 * i as f64 / denom)))
            .collect(),
    );
    let net = Jitter::new(ConstantLatency(SimDuration::from_micros(200)), 0.5, seed);
    let t0 = Instant::now();
    if on {
        let _ = trace::take();
        trace::begin(Kind::Cluster);
    }
    let (outs, report) = run_sim_proc_cluster_with_faults::<u64, _, _, _>(
        &cluster,
        TracedNet::new(on, net),
        Unloaded,
        FaultSpec::none(),
        false,
        |mut t| async move {
            let rank = t.rank().0;
            let body = pin!(async {
                let mut io = TracedIo::new(on, &mut t);
                let me = rank as u64;
                let next = Rank((rank + 1) % io.size());
                let (mut seen, mut bytes) = (0u64, 0u64);
                for round in 0..rounds {
                    if on {
                        trace::note_iteration();
                    }
                    io.send(next, Tag(round as u32), me).await;
                    bytes += (HEADER_BYTES + me.wire_size()) as u64;
                    seen += io.recv().await.msg;
                    io.compute(100).await;
                }
                let late = io.recv_timeout(SimDuration::from_micros(10)).await;
                assert!(late.is_none(), "ring must be drained");
                (seen, bytes)
            });
            PollSpan::rank(on, rank, body).await
        },
    )
    .expect("ring must complete");
    let tracer = on.then(|| {
        trace::end();
        trace::take()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let (seen, bytes): (Vec<u64>, Vec<u64>) = outs.into_iter().unzip();
    RingOut {
        wall_s,
        seen,
        bytes_sent: bytes.iter().sum(),
        report,
        tracer,
    }
}
