//! Measures what the event-driven bounded wait costs versus the
//! reference polling implementation it replaced ([`PolledRecv`]), on
//! both backends. The "event-driven delivery" appendix in
//! `EXPERIMENTS.md` records one run of this example.
//!
//! Run with: `cargo run --release -p speccheck --example wait_cost`

use std::time::Instant;

use desim::{SimDuration, TieBreak};
use mpk::{
    poll_ready, run_sim_proc_cluster_with_options, run_thread_cluster, SimClusterOptions,
    ThreadClusterOptions,
};
use speccheck::{drive_synthetic_aio, DriverMode, FaultScenario, PolledRecv, SyntheticScenario};
use speccore::{IterMsg, SpecConfig};

const THETA: f64 = 0.1;

fn scenario() -> (SyntheticScenario, DriverMode, FaultScenario) {
    let sc = SyntheticScenario {
        p: 4,
        n: 32,
        iters: 8,
        mips: 20.0,
        ramp: 0.5,
        latency_us: 1_000,
        jitter_frac: 0.0,
        jump_prob: 0.0,
        delta_floor: 0.0,
        delta_keyframe: 1,
        seed: 42,
    };
    let fault = FaultScenario {
        loss_prob: 0.1,
        dup_prob: 0.0,
        seed: 7,
        timeout_ms: 40,
    };
    let cfg = SpecConfig::speculative(2).with_fault_tolerance(fault.tolerance());
    (sc, DriverMode::Speculative(cfg), fault)
}

/// One simulated FT run over a lossy network; prints the kernel's event
/// accounting so the two wait implementations can be compared directly.
fn sim_run(label: &str, polled: bool) {
    let (sc, mode, fault) = scenario();
    let (outs, report) = run_sim_proc_cluster_with_options::<IterMsg<Vec<f64>>, _, _, _>(
        &sc.cluster(),
        sc.net(),
        netsim::Unloaded,
        fault.build(),
        SimClusterOptions {
            tie_break: TieBreak::Fifo,
            ..Default::default()
        },
        |mut t| {
            let (sc, mode) = (sc.clone(), mode.clone());
            async move {
                if polled {
                    drive_synthetic_aio(&mut PolledRecv(&mut t), &sc, THETA, &mode).await
                } else {
                    drive_synthetic_aio(&mut t, &sc, THETA, &mode).await
                }
            }
        },
    )
    .expect("scenario must complete");
    let lost: u64 = outs.iter().map(|(_, s)| s.messages_lost).sum();
    let commits: u64 = outs
        .iter()
        .map(|(_, s)| s.speculate_through_loss_commits)
        .sum();
    println!(
        "sim {label:<13} events={:>5} timers_fired={:>3} delivered={:>3} \
         end_time={:.3}s lost={lost} loss_commits={commits}",
        report.events_processed,
        report.timers_fired,
        report.messages_delivered,
        report.end_time.as_secs_f64(),
    );
}

fn main() {
    // Simulated backend: identical lossy scenario (p=4, 8 iterations,
    // 10% loss, 40 ms timeout), event-driven wait vs polling reference.
    sim_run("event-driven:", false);
    sim_run("polled (ref):", true);

    // Thread backend: the raw cost of an *expired* bounded wait — 20
    // back-to-back 5 ms timeouts on an empty mailbox. Event-driven
    // blocks once per wait (counted by the transport); the polling
    // reference sleeps 16 quanta per wait by construction.
    const WAITS: u64 = 20;
    let start = Instant::now();
    let blocks = run_thread_cluster::<u8, _, _>(1, ThreadClusterOptions::default(), |t| {
        use mpk::Transport;
        for _ in 0..WAITS {
            assert!(t.recv_timeout(SimDuration::from_millis(5)).is_none());
        }
        t.timed_waits()
    });
    let event_wall = start.elapsed();
    let start = Instant::now();
    run_thread_cluster::<u8, _, _>(1, ThreadClusterOptions::default(), |t| {
        use mpk::AsyncTransport;
        let mut p = PolledRecv(t);
        for _ in 0..WAITS {
            assert!(poll_ready(p.recv_timeout(SimDuration::from_millis(5))).is_none());
        }
    });
    let polled_wall = start.elapsed();
    println!(
        "thread event-driven: {WAITS} expired waits -> {} blocks, wall {:.1} ms",
        blocks[0],
        event_wall.as_secs_f64() * 1e3,
    );
    println!(
        "thread polled (ref): {WAITS} expired waits -> {} sleeps, wall {:.1} ms",
        WAITS * 16,
        polled_wall.as_secs_f64() * 1e3,
    );
}
