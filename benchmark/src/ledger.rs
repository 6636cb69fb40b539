//! The books: every nanosecond of the timed cluster call belongs to exactly
//! one layer, and the layers must sum to the whole.
//!
//! | inside a span of | booked to |
//! |---|---|
//! | an app hook | `nbody` or `workloads` |
//! | the network or fault model | `netsim` |
//! | a transport call, minus `netsim` children | `mpk` |
//! | a rank's poll / closure, minus the above | `speccore` (the driver) |
//! | the cluster call, minus rank polls and rank set-up | `desim` (the kernel) |
//! | the per-rank factory, or the ring's own rank body | `ledger` (this harness) |
//!
//! On the real backends the ranks run concurrently, so the whole is
//! rank-seconds (`p × wall`) and the part of it outside every rank closure
//! on the socket backend — bind, mesh handshake, join — is
//! `mpk.socket_setup_s`.
//!
//! What the closing check can catch differs by backend. On the simulator
//! the kernel's share is defined as what is left of the cluster span, so
//! the layers sum to that span by construction and the check is the
//! harness testing itself: a span left open, mis-nested or dropped, or a
//! cluster span that disagrees with the separately read wall-clock. On
//! thread and socket the whole is `p ×` a wall-clock no span measured, so
//! rank-seconds outside every rank closure (spawn, join, the faster rank
//! idling) are really unattributed there.

use speccore::ClusterStats;

use crate::metrics::MAX_UNATTRIBUTED;
use crate::stats::typical;
use crate::trace::{Acc, Kind, Tracer};
use crate::workloads::{commit_gap_rows, Case, Repeat, Values};

/// Operations the heat workload charges per cell
/// (`Heat2dConfig::default().ops_per_cell`).
const HEAT_OPS_PER_CELL: f64 = 12.0;

/// Per-layer metrics of one workload from its traced repeats, with
/// `base_wall` — the wall-clock of an untraced repeat in the same process —
/// as the baseline. Returns the values and, if the books do not
/// close, why.
pub fn per_layer(
    name: &str,
    case: &dyn Case,
    base_wall: f64,
    traced: &[Repeat],
    all: &Tracer,
) -> (Values, Option<String>) {
    let mut out = Values::new();
    let reps = traced.len() as f64;
    let iters = case.iters() as f64;
    let acc = |k: Kind| -> Acc { all.acc[k as usize] };
    // Mean per traced repeat, seconds / calls.
    let self_s = |k: Kind| acc(k).self_ns as f64 * 1e-9 / reps;
    let total_s = |k: Kind| acc(k).total_ns as f64 * 1e-9 / reps;
    let calls = |k: Kind| acc(k).calls as f64 / reps;

    let wall = traced.iter().map(|r| r.wall_s).sum::<f64>() / reps;
    let traced_wall = typical(
        &traced.iter().map(|r| r.wall_s).collect::<Vec<_>>(),
        case.is_real(),
    );
    let p_eff = if case.is_real() {
        case.ranks() as f64
    } else {
        1.0
    };
    let whole = p_eff * wall;

    // desim: the kernel is what is left of the cluster call.
    let kernel_self = self_s(Kind::Cluster);
    out.insert("desim.kernel_self_s", kernel_self);
    let first = &traced[0];
    if let Some(k) = first.kernel {
        out.insert("desim.events", k.events as f64);
        out.insert("desim.timers_fired", k.timers_fired as f64);
        out.insert("desim.ns_per_event", kernel_self * 1e9 / k.events as f64);
        out.insert("desim.host_events_per_s", k.events as f64 / base_wall);
        if !first.stats.is_empty() {
            out.insert("speccore.virtual_s_per_iter", k.end_time_s / iters);
        }
    }

    // netsim
    out.insert("netsim.delay_calls", calls(Kind::NetDelay));
    out.insert("netsim.delay_self_s", self_s(Kind::NetDelay));
    out.insert("netsim.fate_calls", calls(Kind::NetFate));
    out.insert("netsim.fate_self_s", self_s(Kind::NetFate));

    // mpk: on the simulator a receive span is one poll; on the real
    // backends it is the whole blocking wait for a peer.
    let (recv_self, recv_wait) = if case.is_real() {
        (self_s(Kind::IoTryRecv), self_s(Kind::IoRecv))
    } else {
        (self_s(Kind::IoTryRecv) + self_s(Kind::IoRecv), 0.0)
    };
    out.insert("mpk.send_self_s", self_s(Kind::IoSend));
    out.insert("mpk.recv_self_s", recv_self);
    out.insert("mpk.recv_wait_s", recv_wait);
    out.insert("mpk.compute_call_s", total_s(Kind::IoCompute));
    let socket_setup = if name == "nbody2_socket" {
        traced
            .iter()
            .map(|r| r.wall_s - r.longest_rank_s)
            .sum::<f64>()
            / reps
    } else {
        0.0
    };
    out.insert("mpk.socket_setup_s", socket_setup);
    out.insert("mpk.bytes_sent", first.bytes_sent as f64);

    // The rank body: the driver, or on the ring the harness's own loop.
    let app = case.app_layer();
    let rank_self = self_s(Kind::RankRun);
    let (driver_self, harness_self) = if app.is_empty() {
        (0.0, rank_self + self_s(Kind::RankSetup))
    } else {
        (rank_self, self_s(Kind::RankSetup))
    };
    out.insert("speccore.driver_self_s", driver_self);
    out.insert(
        "speccore.driver_self_us_per_iter",
        driver_self * 1e6 / iters,
    );
    out.insert("speccore.driver_self_frac", driver_self / whole);
    out.insert("ledger.harness_self_s", harness_self);

    // The app hooks.
    let hooks = [
        Kind::AppShared,
        Kind::AppBegin,
        Kind::AppAbsorb,
        Kind::AppFinish,
        Kind::AppSpeculate,
        Kind::AppCheck,
        Kind::AppCorrect,
        Kind::AppCheckpoint,
        Kind::AppRestore,
    ];
    let app_self: f64 = hooks.iter().map(|&k| self_s(k)).sum();
    let kernels_s = self_s(Kind::AppBegin) + self_s(Kind::AppAbsorb);
    match app {
        "nbody" => {
            out.insert("nbody.app_self_s", app_self);
            out.insert("nbody.begin_s", self_s(Kind::AppBegin));
            out.insert("nbody.absorb_s", self_s(Kind::AppAbsorb));
            out.insert("nbody.finish_s", self_s(Kind::AppFinish));
            out.insert("nbody.speculate_s", self_s(Kind::AppSpeculate));
            out.insert("nbody.check_s", self_s(Kind::AppCheck));
            out.insert("nbody.correct_s", self_s(Kind::AppCorrect));
            out.insert("nbody.checkpoint_s", self_s(Kind::AppCheckpoint));
            out.insert("nbody.shared_s", self_s(Kind::AppShared));
            let pairs =
                (first.ops.begin + first.ops.absorb) as f64 / nbody::forces::OPS_PER_PAIR as f64;
            out.insert("nbody.pairs", pairs);
            out.insert("nbody.pairs_per_s", pairs / kernels_s);
        }
        "workloads" => {
            out.insert("workloads.app_self_s", app_self);
            out.insert("workloads.speculate_s", self_s(Kind::AppSpeculate));
            out.insert("workloads.finish_s", self_s(Kind::AppFinish));
            out.insert("workloads.check_s", self_s(Kind::AppCheck));
            out.insert("workloads.checkpoint_s", self_s(Kind::AppCheckpoint));
            let cells = first.ops.finish as f64 / HEAT_OPS_PER_CELL;
            out.insert("workloads.cells_per_s", cells / self_s(Kind::AppFinish));
        }
        _ => {}
    }

    // Counts and virtual-time phases, from the driver's own statistics.
    if let Some(k) = first.kernel.filter(|_| first.stats.is_empty()) {
        out.insert("mpk.msgs_sent", k.messages_sent as f64);
    }
    if !first.stats.is_empty() {
        let sum = |f: fn(&speccore::RunStats) -> u64| -> f64 {
            first.stats.iter().map(f).sum::<u64>() as f64
        };
        let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
        out.insert("mpk.msgs_sent", sum(|s| s.messages_sent));
        out.insert("netsim.msgs_dropped", sum(|s| s.messages_lost));
        out.insert("speccore.executions", sum(|s| s.executions));
        out.insert("speccore.rollbacks", sum(|s| s.rollbacks));
        out.insert(
            "speccore.speculated_partitions",
            sum(|s| s.speculated_partitions),
        );
        out.insert(
            "speccore.spec_accept_frac",
            ratio(
                sum(|s| s.accepted_partitions),
                sum(|s| s.checked_partitions),
            ),
        );
        out.insert(
            "speccore.recompute_frac",
            ratio(sum(|s| s.bad_units), sum(|s| s.checked_units)),
        );
        out.insert(
            "speccore.loss_commits",
            sum(|s| s.speculate_through_loss_commits),
        );
        out.insert(
            "speccore.retransmit_requests",
            sum(|s| s.retransmit_requests),
        );
        let depth = first.stats.iter().map(|s| s.max_depth_used).max();
        out.insert("speccore.max_depth_used", depth.unwrap_or(0) as f64);
        if !case.is_real() {
            // The paper's Table 2 columns; they partition the iteration.
            let phases = ClusterStats::new(first.stats.clone()).mean_per_iteration();
            out.insert("speccore.virtual_compute_s", phases.compute.as_secs_f64());
            out.insert(
                "speccore.virtual_comm_wait_s",
                phases.comm_wait.as_secs_f64(),
            );
            out.insert(
                "speccore.virtual_speculate_s",
                phases.speculate.as_secs_f64(),
            );
            out.insert("speccore.virtual_check_s", phases.check.as_secs_f64());
            out.insert("speccore.virtual_correct_s", phases.correct.as_secs_f64());
        }
    }
    let gaps: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.commit_gaps_us.iter().copied())
        .collect();
    commit_gap_rows(&gaps, &mut out);

    // Close the books.
    let attributed = all.self_sum_ns() as f64 * 1e-9 / reps + p_eff * socket_setup;
    let unattributed = (whole - attributed).abs() / whole;
    out.insert("ledger.traced_wall_s", wall);
    out.insert("ledger.traced_repeats", reps);
    out.insert("ledger.unattributed_frac", unattributed);
    out.insert(
        "ledger.tracing_overhead_frac",
        traced_wall / base_wall - 1.0,
    );
    let failure = (unattributed > MAX_UNATTRIBUTED).then(|| {
        format!(
            "books do not close: {:.1} % of the timed wall-clock is booked to no layer",
            100.0 * unattributed
        )
    });
    (out, failure)
}
