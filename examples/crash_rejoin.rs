//! Supervised crash→rejoin demo: the peer-lifecycle state machine
//! (Healthy → Suspected → Quarantined → Rejoining) driving an N-body
//! cluster through one long mid-run outage, plus a permanent-failure run
//! showing degraded-mode completion.
//!
//! Scenario A — rank 4 crashes at 150 ms and restarts 120 ms later. The
//! survivors suspect it after one promoted input (`?` in the timeline),
//! quarantine it on the next (`Q`), then carry its partition by
//! speculation alone — quarantined inputs are promoted immediately, so
//! the cluster's pace stops depending on the dead rank. When its frames
//! flow again every survivor readmits it (`J`) with a full-state
//! keyframe, resetting the delta shadows, and θ-checking resumes.
//!
//! Scenario B — the same crash never restarts. With supervision the
//! cluster finishes in degraded mode at nearly fault-free pace; without
//! it every remaining iteration eats a full loss timeout. The makespan
//! table quantifies the gap.
//!
//! ```text
//! cargo run --release --example crash_rejoin
//! ```

use speculative_computation::prelude::*;

fn run(crash: MachineCrash, supervised: bool) -> ParallelRunResult {
    let p = 6;
    let particles = uniform_cloud(72, 23);
    let cluster = ClusterSpec::paper_testbed().fastest(p);

    let mut cfg = ParallelRunConfig::new(60, 2).with_trace();
    let mut ft = FaultTolerance::new(SimDuration::from_millis(15));
    if supervised {
        ft = ft.with_supervision(SupervisionConfig::new(1, 2));
    }
    cfg.spec = cfg.spec.with_fault_tolerance(ft);

    run_parallel_with_faults(
        &particles,
        &cluster,
        ConstantLatency(SimDuration::from_millis(4)),
        Unloaded,
        FaultSpec::none().with_crashes(CrashPlan::new(vec![crash])),
        cfg,
    )
    .expect("run failed")
}

fn main() {
    let rejoin = MachineCrash {
        rank: 4,
        at: SimTime::from_nanos(150_000_000),
        restart_after: SimDuration::from_millis(120),
    };

    println!("6-rank N-body, 60 iterations; rank 4 crashes at 150 ms and");
    println!("restarts 120 ms later, under supervision (suspect 1, quarantine 2).\n");

    let run_a = run(rejoin, true);
    println!("Timeline (K crash, R recover, ? suspected, Q quarantined, J rejoined):");
    print!(
        "{}",
        obs::timeline::render(run_a.traces.as_ref().expect("trace enabled"), 100)
    );

    println!("\nSupervision accounting:");
    println!("rank | suspected | quarantined | rejoins | degraded | promoted");
    println!("-----+-----------+-------------+---------+----------+---------");
    for s in &run_a.stats.per_rank {
        println!(
            "{:>4} | {:>9} | {:>11} | {:>7} | {:>8} | {:>7}",
            s.rank.0,
            s.peers_suspected,
            s.peers_quarantined,
            s.peer_rejoins,
            s.degraded_commits,
            s.speculate_through_loss_commits,
        );
    }

    // Scenario B: the rank never comes back. Supervision's quarantine
    // bypass is what keeps the degraded cluster near fault-free pace.
    let permanent = MachineCrash::permanent(4, SimTime::from_nanos(150_000_000));
    let with_sup = run(permanent, true);
    let without = run(permanent, false);

    println!("\nPermanent failure of rank 4 at 150 ms — makespan:");
    println!(
        "  supervised (quarantine + degraded mode): {:>7.3}s",
        with_sup.elapsed_secs()
    );
    println!(
        "  unsupervised (loss timeout per input):   {:>7.3}s",
        without.elapsed_secs()
    );
    println!(
        "  degraded commits by survivors: {}",
        with_sup
            .stats
            .per_rank
            .iter()
            .map(|s| s.degraded_commits)
            .sum::<u64>()
    );
}
