//! Chaos recovery demo: an 8-rank N-body run through a scripted loss
//! burst and one mid-run machine crash, with a per-rank recovery
//! timeline and a fault-accounting table.
//!
//! The fault schedule:
//!
//! * 60–140 ms: every message rolls a 40% loss dice (a network brown-out).
//! * 200 ms: rank 5 crashes, losing all in-flight state, and restarts
//!   80 ms later from its last confirmed checkpoint, re-syncing peers
//!   with retransmit requests.
//!
//! The driver speculates through both: lost inputs are promoted from the
//! backward-window extrapolation once the loss timeout expires, and the
//! crashed rank rejoins without any other rank deadlocking.
//!
//! ```text
//! cargo run --release --example chaos_recovery
//! ```

use speculative_computation::prelude::*;

fn main() {
    let p = 8;
    let iters = 60;
    let particles = uniform_cloud(96, 17);
    let cluster = ClusterSpec::paper_testbed().fastest(p);

    let crash = MachineCrash {
        rank: 5,
        at: SimTime::from_nanos(200_000_000),
        restart_after: SimDuration::from_millis(80),
    };
    let burst = FaultPlan::new().window(
        SimTime::from_nanos(60_000_000),
        SimTime::from_nanos(140_000_000),
        Loss::new(0.4, 90210),
    );

    let mut cfg = ParallelRunConfig::new(iters, 2).with_trace();
    cfg.spec = cfg.spec.with_fault_tolerance(
        FaultTolerance::new(SimDuration::from_millis(25)).with_staleness_budget(3),
    );

    let faulty = run_parallel_with_faults(
        &particles,
        &cluster,
        ConstantLatency(SimDuration::from_millis(4)),
        Unloaded,
        FaultSpec::new(burst).with_crashes(CrashPlan::new(vec![crash])),
        cfg,
    )
    .expect("chaos run failed");

    let golden = run_parallel(
        &particles,
        &cluster,
        ConstantLatency(SimDuration::from_millis(4)),
        Unloaded,
        ParallelRunConfig::new(iters, 2),
    )
    .expect("golden run failed");

    println!("8-rank N-body, {iters} iterations, loss burst at 60-140 ms,");
    println!("rank 5 crashes at 200 ms and restarts 80 ms later.\n");

    println!("Per-rank recovery timeline (D = drop, K = crash, R = recover):");
    print!(
        "{}",
        obs::timeline::render(faulty.traces.as_ref().expect("trace enabled"), 100)
    );

    println!("\nFault accounting:");
    println!("rank |  lost | promoted | retrans | restarts | downtime (ms)");
    println!("-----+-------+----------+---------+----------+--------------");
    for s in &faulty.stats.per_rank {
        println!(
            "{:>4} | {:>5} | {:>8} | {:>7} | {:>8} | {:>12.1}",
            s.rank.0,
            s.messages_lost,
            s.speculate_through_loss_commits,
            s.retransmit_requests,
            s.peer_restarts,
            s.downtime.as_secs_f64() * 1e3,
        );
    }

    let drift = faulty
        .particles
        .iter()
        .zip(&golden.particles)
        .map(|(a, b)| a.pos.distance(b.pos))
        .fold(0.0, f64::max);
    println!(
        "\nmakespan: {:.3}s faulty vs {:.3}s fault-free; max position drift {:.2e}",
        faulty.elapsed_secs(),
        golden.elapsed_secs(),
        drift
    );
    println!(
        "total: {} messages lost, {} speculate-through-loss commits, {} restart",
        faulty.stats.total_messages_lost(),
        faulty.stats.total_loss_commits(),
        faulty.stats.total_restarts()
    );
}
