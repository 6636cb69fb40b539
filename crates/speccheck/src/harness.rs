//! Differential run harness: execute one described scenario under
//! different backends, driver configurations, fault specs, or event
//! tie-breaks, and reduce each run to per-rank state fingerprints plus
//! driver stats so properties can compare runs bit-for-bit.

use crate::scenario::SyntheticScenario;
use desim::{SimReport, TieBreak};
use mpk::{
    poll_ready, run_sim_proc_cluster_with_options, run_socket_cluster_with_faults,
    run_thread_cluster_with_faults, AsyncTransport, FaultSpec, SimClusterOptions,
    SocketClusterOptions, ThreadClusterOptions,
};
use speccore::{run_speculative_aio, IterMsg, RunStats, SpecConfig};

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

/// Build the scenario's app for this rank, run it to completion and
/// reduce it to (fingerprint, final values, stats).
async fn drive<T: AsyncTransport<Msg = IterMsg<Vec<f64>>>>(
    t: &mut T,
    sc: &SyntheticScenario,
    theta: f64,
    cfg: &SpecConfig,
) -> (u64, Vec<f64>, RunStats) {
    let ranges = sc.ranges();
    let mut app = workloads::SyntheticApp::new(sc.n, &ranges, t.rank().0, sc.app_cfg(theta));
    let stats = run_speculative_aio(t, &mut app, sc.iters, cfg.clone()).await;
    (app.fingerprint(), app.values().to_vec(), stats)
}

/// Run the scenario under `cfg` on `backend`, with `faults` applied at
/// every send (the thread and socket backends share the simulator's
/// fault gate, stamped with wall-clock time).
pub fn run(
    backend: Backend,
    sc: &SyntheticScenario,
    theta: f64,
    cfg: &SpecConfig,
    faults: FaultSpec<IterMsg<Vec<f64>>>,
) -> RunOutput {
    let (outs, kernel, elapsed) = match backend {
        Backend::Sim(tie) => {
            let options = SimClusterOptions {
                tie_break: tie,
                check_scheduling: true,
                ..Default::default()
            };
            let body = |mut t| {
                let (sc, cfg) = (sc.clone(), cfg.clone());
                async move { drive(&mut t, &sc, theta, &cfg).await }
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
            let body = |t: &mut _| poll_ready(drive(t, sc, theta, cfg));
            let opts = ThreadClusterOptions::default();
            let outs = run_thread_cluster_with_faults(sc.p, opts, faults, body);
            (outs, None, 0.0)
        }
        Backend::Socket => {
            let body = |t: &mut _| poll_ready(drive(t, sc, theta, cfg));
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
