//! Differential run harness: execute one described scenario under
//! different transports, drivers, fault specs, or event tie-breaks, and
//! reduce each run to per-rank state fingerprints plus driver stats so
//! properties can compare runs bit-for-bit.

use crate::scenario::{SpecParams, SyntheticScenario};
use desim::{SimReport, TieBreak};
use mpk::{
    run_sim_proc_cluster_with_options, run_socket_cluster, run_socket_cluster_with_faults,
    run_thread_cluster, run_thread_cluster_with_faults, AsyncTransport, FaultSpec,
    SimClusterOptions, SimIo, SocketClusterOptions, ThreadClusterOptions, Transport,
};
use speccore::{run_baseline_aio, run_speculative_aio, IterMsg, RunStats, SpecConfig};

/// What a conformance run reduces to: one state fingerprint and one
/// [`RunStats`] per rank, plus the run's virtual end time (0 for thread
/// runs, whose wall clock is not comparable).
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Per-rank bit-exact fingerprints of the final workload state.
    pub fingerprints: Vec<u64>,
    /// Per-rank driver statistics.
    pub stats: Vec<RunStats>,
    /// Virtual end time in seconds (simulation runs only).
    pub elapsed: f64,
    /// The simulation kernel's own counters (simulation runs only) —
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

/// How to drive the app: the plain non-speculative loop or the
/// speculative driver under a given configuration.
// Short-lived test-harness selector, cloned a handful of times per run;
// boxing the config would only move the bytes, not save any.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum DriverMode {
    /// [`run_baseline_aio`]: block on every message (the paper's Figure 1).
    Baseline,
    /// [`run_speculative_aio`] under the given config (Figure 3).
    Speculative(SpecConfig),
}

impl DriverMode {
    /// The speculative mode for a grid point.
    pub fn from_params(params: &SpecParams) -> Self {
        DriverMode::Speculative(params.build())
    }
}

/// Run the scenario's synthetic app on any transport and reduce to
/// (fingerprint, stats). This is the *one* definition every differential
/// arm executes — the runs differ only in the transport handed in.
pub async fn drive_synthetic_aio<T: AsyncTransport<Msg = IterMsg<Vec<f64>>>>(
    t: &mut T,
    sc: &SyntheticScenario,
    theta: f64,
    mode: &DriverMode,
) -> (u64, RunStats) {
    let (app, stats) = drive_app(t, sc, theta, mode).await;
    (app.fingerprint(), stats)
}

/// [`drive_synthetic_aio`] on a blocking transport (thread, socket), whose
/// futures never suspend.
pub fn drive_synthetic<T: Transport<Msg = IterMsg<Vec<f64>>>>(
    t: &mut T,
    sc: &SyntheticScenario,
    theta: f64,
    mode: &DriverMode,
) -> (u64, RunStats) {
    mpk::poll_ready(drive_synthetic_aio(t, sc, theta, mode))
}

/// Build the scenario's app for this rank and run it to completion.
async fn drive_app<T: AsyncTransport<Msg = IterMsg<Vec<f64>>>>(
    t: &mut T,
    sc: &SyntheticScenario,
    theta: f64,
    mode: &DriverMode,
) -> (workloads::SyntheticApp, RunStats) {
    let ranges = sc.ranges();
    let mut app = workloads::SyntheticApp::new(sc.n, &ranges, t.rank().0, sc.app_cfg(theta));
    let stats = match mode {
        DriverMode::Baseline => run_baseline_aio(t, &mut app, sc.iters).await,
        DriverMode::Speculative(cfg) => {
            run_speculative_aio(t, &mut app, sc.iters, cfg.clone()).await
        }
    };
    (app, stats)
}

/// Run `body` on every rank of the scenario's cluster on the virtual-time
/// simulator. The kernel's scheduling-invariant oracle is always armed:
/// its per-grant assertions are cheap, and running every generated case
/// under it is free coverage.
fn sim_cluster<R: 'static, Fut: std::future::Future<Output = R> + 'static>(
    sc: &SyntheticScenario,
    faults: FaultSpec<IterMsg<Vec<f64>>>,
    tie: TieBreak,
    body: impl Fn(SimIo<IterMsg<Vec<f64>>>) -> Fut,
) -> (Vec<R>, SimReport) {
    run_sim_proc_cluster_with_options(
        &sc.cluster(),
        sc.net(),
        netsim::Unloaded,
        faults,
        SimClusterOptions {
            tie_break: tie,
            check_scheduling: true,
            ..Default::default()
        },
        body,
    )
    .expect("generated scenario must complete")
}

fn sim_output((outs, report): (Vec<(u64, RunStats)>, SimReport)) -> RunOutput {
    let (fingerprints, stats) = outs.into_iter().unzip();
    RunOutput {
        fingerprints,
        stats,
        elapsed: report.end_time.as_secs_f64(),
        kernel: Some(KernelReport::from_report(&report)),
    }
}

/// Run the scenario on the virtual-time simulator, fault-free, under the
/// given event tie-break.
pub fn run_sim(sc: &SyntheticScenario, theta: f64, mode: &DriverMode, tie: TieBreak) -> RunOutput {
    run_sim_with_faults(sc, theta, mode, FaultSpec::none(), tie)
}

/// Run the scenario on the virtual-time simulator with an explicit fault
/// spec and event tie-break.
pub fn run_sim_with_faults(
    sc: &SyntheticScenario,
    theta: f64,
    mode: &DriverMode,
    faults: FaultSpec<IterMsg<Vec<f64>>>,
    tie: TieBreak,
) -> RunOutput {
    sim_output(sim_cluster(sc, faults, tie, |mut t| {
        let (sc, mode) = (sc.clone(), mode.clone());
        async move { drive_synthetic_aio(&mut t, &sc, theta, &mode).await }
    }))
}

/// Run the scenario on the simulator and return each rank's final
/// variable values — for properties that bound *numeric* drift (e.g. the
/// quantized delta exchange) rather than compare fingerprints.
pub fn run_sim_values(
    sc: &SyntheticScenario,
    theta: f64,
    mode: &DriverMode,
    tie: TieBreak,
) -> Vec<Vec<f64>> {
    let (outs, _) = sim_cluster(sc, FaultSpec::none(), tie, |mut t| {
        let (sc, mode) = (sc.clone(), mode.clone());
        async move {
            drive_app(&mut t, &sc, theta, &mode)
                .await
                .0
                .values()
                .to_vec()
        }
    });
    outs
}

/// Run the scenario on real OS threads (in-process mailboxes, no
/// injected latency — the values, not the timing, are under test).
pub fn run_thread(sc: &SyntheticScenario, theta: f64, mode: &DriverMode) -> RunOutput {
    let scenario = sc.clone();
    let mode = mode.clone();
    let outs = run_thread_cluster::<IterMsg<Vec<f64>>, _, _>(
        sc.p,
        ThreadClusterOptions::default(),
        move |t| drive_synthetic(t, &scenario, theta, &mode),
    );
    let (fingerprints, stats) = outs.into_iter().unzip();
    RunOutput {
        fingerprints,
        stats,
        elapsed: 0.0,
        kernel: None,
    }
}

/// [`run_thread`] with an explicit fault spec (fate model, crash plan):
/// the thread backend sends through the same fault gate as the simulator,
/// stamped with wall-clock time, so crash→rejoin schedules can be
/// exercised on real OS threads.
pub fn run_thread_with_faults(
    sc: &SyntheticScenario,
    theta: f64,
    mode: &DriverMode,
    faults: FaultSpec<IterMsg<Vec<f64>>>,
) -> RunOutput {
    let scenario = sc.clone();
    let mode = mode.clone();
    let outs = run_thread_cluster_with_faults::<IterMsg<Vec<f64>>, _, _>(
        sc.p,
        ThreadClusterOptions::default(),
        faults,
        move |t| drive_synthetic(t, &scenario, theta, &mode),
    );
    let (fingerprints, stats) = outs.into_iter().unzip();
    RunOutput {
        fingerprints,
        stats,
        elapsed: 0.0,
        kernel: None,
    }
}

/// [`run_socket`] with an explicit fault spec applied at the socket
/// send path — frames are dropped, duplicated, or suppressed (crashed
/// destination) before they reach the kernel, over otherwise-real TCP.
pub fn run_socket_with_faults(
    sc: &SyntheticScenario,
    theta: f64,
    mode: &DriverMode,
    faults: FaultSpec<IterMsg<Vec<f64>>>,
) -> RunOutput {
    let scenario = sc.clone();
    let mode = mode.clone();
    let outs = run_socket_cluster_with_faults::<IterMsg<Vec<f64>>, _, _>(
        sc.p,
        SocketClusterOptions::default(),
        faults,
        move |t| drive_synthetic(t, &scenario, theta, &mode),
    );
    let (fingerprints, stats) = outs.into_iter().unzip();
    RunOutput {
        fingerprints,
        stats,
        elapsed: 0.0,
        kernel: None,
    }
}

/// Run the scenario over real loopback TCP sockets: every message is
/// encoded, framed, crosses the kernel's network stack, and is decoded
/// on the far side. The third differential arm — agreement with
/// [`run_sim`] and [`run_thread`] proves the wire codec and socket
/// delivery path preserve the algorithm's semantics end to end.
pub fn run_socket(sc: &SyntheticScenario, theta: f64, mode: &DriverMode) -> RunOutput {
    let scenario = sc.clone();
    let mode = mode.clone();
    let outs = run_socket_cluster::<IterMsg<Vec<f64>>, _, _>(
        sc.p,
        SocketClusterOptions::default(),
        move |t| drive_synthetic(t, &scenario, theta, &mode),
    );
    let (fingerprints, stats) = outs.into_iter().unzip();
    RunOutput {
        fingerprints,
        stats,
        elapsed: 0.0,
        kernel: None,
    }
}
