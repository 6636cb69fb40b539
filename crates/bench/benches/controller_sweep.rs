//! Regenerate `BENCH_controller.json`: the adaptive speculation
//! controller on a heterogeneous-delay cluster, against an offline grid
//! search over fixed `(θ, FW)` points.
//!
//! Four ranks send through per-source one-way latencies spanning 16×
//! (0.5 / 2 / 8 / 1 ms) with deterministic transient spikes on top, so
//! the fixed `(θ, FW)` grid has genuinely bad corners (deep windows pay
//! speculation and check work; tight θ pays corrections). The fixed rows
//! sweep θ ∈ {0.01, 0.05} × FW ∈ 1..=6; the adaptive row starts from
//! (θ = 0.01, FW = 1) and must retune itself to a makespan within
//! `ratio_ceiling` of the best fixed point — that ratio is what
//! `ci/bench_gate.sh` gates against `ci/bench_budgets.json`.
//!
//! Everything runs on the virtual-time simulator, so every number here is
//! a deterministic function of the scenario: the gate compares exact
//! nanoseconds across checkouts, not wall-clock noise.

use desim::SimDuration;
use mpk::{run_sim_proc_cluster, AsyncTransport};
use netsim::{ClusterSpec, MachineSpec, MsgCtx, NetworkModel, TransientDelays, Unloaded};
use spec_bench::artifact::{self, ControllerRow};
use speccore::{run_speculative_aio, ControllerConfig, IterMsg, RunStats, SpecConfig};
use workloads::{SyntheticApp, SyntheticConfig};

const P: usize = 4;
const N_VARS: usize = 32;
const ITERS: u64 = 60;
const MIPS: f64 = 100.0;
/// Per-source one-way latency, microseconds: rank 2 is 16× slower than
/// rank 0, so the best window depth differs per peer.
const LATENCY_US: [u64; P] = [500, 2_000, 8_000, 1_000];
const THETAS: [f64; 2] = [0.01, 0.05];
const FW_MAX: u32 = 6;
/// Transient spike injection: probability per message and extra delay.
/// Constant latency alone is absorbed by the send-on-confirm pipeline at
/// any depth — it is delay *variation* that deeper windows compute
/// through (the paper's §1 premise), so the spikes are what give the FW
/// axis of the sweep its dynamic range.
const SPIKE_PROB: f64 = 0.25;
const SPIKE_EXTRA_MS: u64 = 30;
const SPIKE_SEED: u64 = 7;

/// Per-source constant latency: each sender's messages take its own
/// fixed one-way delay, regardless of destination or size.
struct HeteroLatency;

impl NetworkModel for HeteroLatency {
    fn delay(&mut self, ctx: &MsgCtx) -> SimDuration {
        SimDuration::from_micros(LATENCY_US[ctx.src % P])
    }
}

fn app_cfg(theta: f64) -> SyntheticConfig {
    SyntheticConfig {
        theta,
        seed: 42,
        // ~1 ms of compute per iteration at 100 MIPS: small against the
        // spike scale, so window depth genuinely trades masking against
        // speculation work.
        f_comp: 3_000,
        ..Default::default()
    }
}

/// One deterministic cluster run; returns (virtual ns, per-rank stats).
fn run(theta: f64, cfg: SpecConfig) -> (u64, Vec<RunStats>) {
    let cluster = ClusterSpec::new(vec![MachineSpec::new(MIPS); P]);
    let ranges: Vec<_> = (0..P)
        .map(|i| i * N_VARS / P..(i + 1) * N_VARS / P)
        .collect();
    let net = TransientDelays::new(
        HeteroLatency,
        SPIKE_PROB,
        SimDuration::from_millis(SPIKE_EXTRA_MS),
        SPIKE_SEED,
    );
    let (stats, report) = run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(
        &cluster,
        net,
        Unloaded,
        false,
        |mut t| {
            let mut app = SyntheticApp::new(N_VARS, &ranges, t.rank().0, app_cfg(theta));
            let cfg = cfg.clone();
            async move { run_speculative_aio(&mut t, &mut app, ITERS, cfg).await }
        },
    )
    .expect("controller sweep run failed");
    (report.end_time.as_nanos(), stats)
}

fn main() {
    println!("controller vs fixed (θ, FW) grid, heterogeneous delays {LATENCY_US:?} µs:");
    println!("{:>8} {:>4} {:>14}", "theta", "fw", "makespan ms");

    let mut rows = Vec::new();
    for &theta in &THETAS {
        for fw in 1..=FW_MAX {
            let (elapsed_ns, _) = run(theta, SpecConfig::speculative(fw));
            println!("{:>8} {:>4} {:>14.3}", theta, fw, elapsed_ns as f64 / 1e6);
            rows.push(ControllerRow {
                theta,
                fw,
                elapsed_ns,
            });
        }
    }
    let best_fixed_ns = rows.iter().map(|r| r.elapsed_ns).min().expect("grid");

    // Adaptive run: start at the worst corner of the grid and let the
    // controller retune θ over the same values and FW over the same range.
    let ctl = ControllerConfig::new()
        .with_theta_grid(THETAS.to_vec())
        .with_cadence(6, 2)
        .with_fw_max(FW_MAX);
    let (adaptive_ns, stats) = run(THETAS[0], SpecConfig::speculative(1).with_adaptive(ctl));
    let s0 = &stats[0];
    println!(
        "{:>8} {:>4} {:>14.3}  (controller: fw {} theta {} after {} retunes)",
        "adapt",
        "-",
        adaptive_ns as f64 / 1e6,
        s0.controller_fw,
        s0.controller_theta,
        s0.controller_retunes
    );
    println!(
        "best fixed {:.3} ms, adaptive {:.3} ms, ratio {:.3}",
        best_fixed_ns as f64 / 1e6,
        adaptive_ns as f64 / 1e6,
        adaptive_ns as f64 / best_fixed_ns as f64
    );

    let doc = artifact::controller_json(
        &rows,
        best_fixed_ns,
        adaptive_ns,
        s0.controller_fw,
        s0.controller_theta,
        stats.iter().map(|s| s.controller_retunes).sum(),
    );
    let path = artifact::write("controller", &doc).expect("write artifact");
    println!("wrote {}", path.display());
}
