//! Differential run harness: execute one described scenario under
//! different backends, driver configurations, fault specs, or event
//! tie-breaks, and reduce each run to per-rank state fingerprints plus
//! driver stats so properties can compare runs bit-for-bit.

use crate::scenario::SyntheticScenario;
use desim::{SimReport, TieBreak};
use mpk::{
    poll_ready, run_sim_proc_cluster_with_options, run_socket_cluster_with_faults,
    run_thread_cluster_with_faults, AsyncTransport, FaultSpec, SimClusterOptions,
    SocketClusterOptions, ThreadClusterOptions, WireCodec, WireSize,
};
use nbody::{centered_cloud, NBodyApp, NBodyConfig, SpeculationOrder};
use speccore::{run_speculative_aio, IterMsg, RunStats, SpecConfig, SpeculativeApp};
use workloads::SyntheticApp;

/// Where a run executes.
#[derive(Clone, Copy, Debug)]
pub enum Backend {
    /// The virtual-time simulator under the given event tie-break, with
    /// the kernel's scheduling-invariant oracle armed: its per-grant
    /// assertions are cheap, and running every generated case under it is
    /// free coverage.
    Sim(TieBreak),
    /// Real OS threads: in-process mailboxes, no injected latency (the
    /// values, not the timing, are under test).
    Thread,
    /// Real loopback TCP: every message is encoded, framed, crosses the
    /// kernel's network stack, and is decoded on the far side.
    Socket,
}

/// What a conformance run reduces to: one state fingerprint, the final
/// values and one [`RunStats`] per rank, plus the run's virtual end time
/// (0 for thread and socket runs, whose wall clock is not comparable).
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Per-rank bit-exact fingerprints of the final workload state.
    pub fingerprints: Vec<u64>,
    /// Per-rank final variable values, for properties that bound
    /// *numeric* drift (e.g. the quantized delta exchange) rather than
    /// compare fingerprints.
    pub values: Vec<Vec<f64>>,
    /// Per-rank driver statistics.
    pub stats: Vec<RunStats>,
    /// Virtual end time in seconds (simulator runs only).
    pub elapsed: f64,
    /// The simulation kernel's own counters (simulator runs only) —
    /// pinned per case by `tests/kernel_goldens.rs`.
    pub kernel: Option<KernelReport>,
}

/// The comparable subset of [`desim::SimReport`]: every kernel counter
/// that must agree for two runs to count as bit-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelReport {
    /// Virtual end time in nanoseconds.
    pub end_time_ns: u64,
    /// Events the kernel dispatched.
    pub events_processed: u64,
    /// Messages scheduled for delivery.
    pub messages_sent: u64,
    /// Messages that reached a mailbox.
    pub messages_delivered: u64,
    /// Deadline timers that expired and woke a timed receive.
    pub timers_fired: u64,
}

impl KernelReport {
    fn from_report(report: &SimReport) -> Self {
        KernelReport {
            end_time_ns: report.end_time.as_nanos(),
            events_processed: report.events_processed,
            messages_sent: report.messages_sent,
            messages_delivered: report.messages_delivered,
            timers_fired: report.timers_fired,
        }
    }
}

/// A workload the harness drives over a [`SyntheticScenario`]'s shape:
/// `n` variables (or particles) on `p` ranks for `iters` iterations,
/// over the scenario's machines and network.
pub trait Workload: Clone + Sync + 'static {
    /// The app one rank runs.
    type App: SpeculativeApp;
    /// The shape, machines and network of the run.
    fn scenario(&self) -> &SyntheticScenario;
    /// Rank `rank`'s app at acceptance threshold `theta`.
    fn app(&self, rank: usize, theta: f64) -> Self::App;
    /// The app's state fingerprint and final values.
    fn reduce(app: &Self::App) -> (u64, Vec<f64>);
}

/// What a rank of workload `W` broadcasts.
type Shared<W> = <<W as Workload>::App as SpeculativeApp>::Shared;

/// The synthetic app over the scenario's `n` variables.
impl Workload for SyntheticScenario {
    type App = SyntheticApp;

    fn scenario(&self) -> &SyntheticScenario {
        self
    }

    fn app(&self, rank: usize, theta: f64) -> SyntheticApp {
        SyntheticApp::new(self.n, &self.ranges(), rank, self.app_cfg(theta))
    }

    fn reduce(app: &SyntheticApp) -> (u64, Vec<f64>) {
        (app.fingerprint(), app.values().to_vec())
    }
}

/// The N-body arm: the scenario's `n` particles as a centred cloud drawn
/// from its `seed`, eq. 10 linear speculation and eq. 11 checks at θ.
/// Final values are the positions, x, y, z per particle.
#[derive(Clone, Debug)]
pub struct NBodyScenario(pub SyntheticScenario);

impl Workload for NBodyScenario {
    type App = NBodyApp;

    fn scenario(&self) -> &SyntheticScenario {
        &self.0
    }

    fn app(&self, rank: usize, theta: f64) -> NBodyApp {
        let sc = &self.0;
        let cfg = NBodyConfig::default().with_theta(theta);
        let particles = centered_cloud(sc.n, sc.seed);
        NBodyApp::new(&particles, sc.ranges(), rank, cfg, SpeculationOrder::Linear)
    }

    fn reduce(app: &NBodyApp) -> (u64, Vec<f64>) {
        let particles = app.particles();
        let values = particles.iter().flat_map(|p| [p.pos.x, p.pos.y, p.pos.z]);
        (app.fingerprint(), values.collect())
    }
}

/// Run the scenario's synthetic app under `cfg` on any transport and
/// reduce to (fingerprint, stats). This is the *one* definition every
/// differential arm executes: the runs differ only in the transport
/// handed in.
pub async fn drive_synthetic_aio<T: AsyncTransport<Msg = IterMsg<Vec<f64>>>>(
    t: &mut T,
    sc: &SyntheticScenario,
    theta: f64,
    cfg: &SpecConfig,
) -> (u64, RunStats) {
    let (fingerprint, _, stats) = drive(t, sc, theta, cfg).await;
    (fingerprint, stats)
}

/// Build the workload's app for this rank, run it to completion and
/// reduce it to (fingerprint, final values, stats).
async fn drive<W, T>(t: &mut T, w: &W, theta: f64, cfg: &SpecConfig) -> (u64, Vec<f64>, RunStats)
where
    W: Workload,
    Shared<W>: WireSize,
    T: AsyncTransport<Msg = IterMsg<Shared<W>>>,
{
    let mut app = w.app(t.rank().0, theta);
    let stats = run_speculative_aio(t, &mut app, w.scenario().iters, cfg.clone()).await;
    let (fingerprint, values) = W::reduce(&app);
    (fingerprint, values, stats)
}

/// Run the workload under `cfg` on `backend`, with `faults` applied at
/// every send (the thread and socket backends share the simulator's
/// fault gate, stamped with wall-clock time).
pub fn run<W>(
    backend: Backend,
    w: &W,
    theta: f64,
    cfg: &SpecConfig,
    faults: FaultSpec<IterMsg<Shared<W>>>,
) -> RunOutput
where
    W: Workload,
    Shared<W>: WireCodec + WireSize + Clone,
{
    let sc = w.scenario();
    let (outs, kernel, elapsed) = match backend {
        Backend::Sim(tie) => {
            let options = SimClusterOptions {
                tie_break: tie,
                check_scheduling: true,
            };
            let body = |mut t| {
                let (w, cfg) = (w.clone(), cfg.clone());
                async move { drive(&mut t, &w, theta, &cfg).await }
            };
            let (outs, report) = run_sim_proc_cluster_with_options(
                &sc.cluster(),
                sc.net(),
                netsim::Unloaded,
                faults,
                options,
                body,
            )
            .expect("generated scenario must complete");
            let elapsed = report.end_time.as_secs_f64();
            (outs, Some(KernelReport::from_report(&report)), elapsed)
        }
        Backend::Thread => {
            let body = |t: &mut _| poll_ready(drive(t, w, theta, cfg));
            let opts = ThreadClusterOptions::default();
            let outs = run_thread_cluster_with_faults(sc.p, opts, faults, body);
            (outs, None, 0.0)
        }
        Backend::Socket => {
            let body = |t: &mut _| poll_ready(drive(t, w, theta, cfg));
            let opts = SocketClusterOptions::default();
            let outs = run_socket_cluster_with_faults(sc.p, opts, faults, body);
            (outs, None, 0.0)
        }
    };
    let mut out = RunOutput {
        fingerprints: Vec::with_capacity(outs.len()),
        values: Vec::with_capacity(outs.len()),
        stats: Vec::with_capacity(outs.len()),
        elapsed,
        kernel,
    };
    for (fingerprint, values, stats) in outs {
        out.fingerprints.push(fingerprint);
        out.values.push(values);
        out.stats.push(stats);
    }
    out
}
