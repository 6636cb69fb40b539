//! Adverse-condition tests: jittery reordering networks, extreme transient
//! stalls, heavy background load, adaptive windows under shifting
//! conditions — the driver must stay live, correct, and deterministic.

use speculative_computation::prelude::*;
use speculative_computation::speccore::ControllerConfig;

fn even_ranges(n: usize, p: usize) -> Vec<std::ops::Range<usize>> {
    (0..p).map(|i| i * n / p..(i + 1) * n / p).collect()
}

fn run_synthetic(
    net: impl NetworkModel + 'static,
    load: impl netsim::LoadModel + 'static,
    cfg: SpecConfig,
    p: usize,
    iters: u64,
) -> (Vec<Vec<f64>>, Vec<RunStats>, f64) {
    let n = 40;
    let cluster = ClusterSpec::homogeneous(p, 10.0);
    let ranges = even_ranges(n, p);
    let (outs, report) =
        run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(&cluster, net, load, |mut t| {
            let mut app = SyntheticApp::new(
                n,
                &ranges,
                t.rank().0,
                SyntheticConfig {
                    theta: 0.3,
                    jump_prob: 0.02,
                    ..Default::default()
                },
            );
            let cfg = cfg.clone();
            async move {
                let stats = run_speculative_aio(&mut t, &mut app, iters, cfg).await;
                (app.values().to_vec(), stats)
            }
        })
        .expect("run must survive adverse conditions");
    let (values, stats): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
    (values, stats, report.end_time.as_secs_f64())
}

#[test]
fn survives_heavy_jitter_reordering() {
    // ±90% jitter reorders messages freely between pairs; the driver's
    // iteration-tagged inbox must sort it out.
    let net = Jitter::new(ConstantLatency(SimDuration::from_millis(5)), 0.9, 123);
    let (_, stats, _) = run_synthetic(net, Unloaded, SpecConfig::speculative(2), 5, 20);
    for s in &stats {
        assert_eq!(s.iterations, 20, "rank {} lost iterations", s.rank.0);
    }
}

#[test]
fn survives_huge_transient_stalls() {
    // 10% of messages stall for 2 s (vs ~ms iterations).
    let net = TransientDelays::new(
        ConstantLatency(SimDuration::from_millis(1)),
        0.1,
        SimDuration::from_millis(2000),
        9,
    );
    let (_, stats, elapsed) = run_synthetic(net, Unloaded, SpecConfig::speculative(2), 4, 15);
    for s in &stats {
        assert_eq!(s.iterations, 15);
    }
    assert!(elapsed.is_finite());
}

#[test]
fn survives_background_load_spikes() {
    let net = ConstantLatency(SimDuration::from_millis(2));
    let load = RandomSpikes::new(0.3, 5.0, 77);
    let (_, stats, _) = run_synthetic(net, load, SpecConfig::speculative(1), 4, 15);
    for s in &stats {
        assert_eq!(s.iterations, 15);
    }
}

#[test]
fn baseline_and_speculative_agree_under_chaos_with_exact_config() {
    // Even under jitter + transients + load, θ=0 + recompute equals the
    // baseline bit-for-bit: network chaos may reorder messages but never
    // change values.
    let chaos_net = || {
        TransientDelays::new(
            Jitter::new(ConstantLatency(SimDuration::from_millis(2)), 0.8, 5),
            0.05,
            SimDuration::from_millis(100),
            6,
        )
    };
    let exact = SpecConfig::speculative(2).with_correction(CorrectionMode::Recompute);
    let (base_vals, _, _) = run_synthetic(chaos_net(), Unloaded, SpecConfig::baseline(), 4, 12);
    // θ = 0 via the workload's theta… the exact run uses theta 0.3 from the
    // helper; instead compare two *speculative* runs for determinism and
    // compare baseline against a θ=0 run built inline.
    let n = 40;
    let p = 4;
    let cluster = ClusterSpec::homogeneous(p, 10.0);
    let ranges = even_ranges(n, p);
    let (outs, _) = run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(
        &cluster,
        chaos_net(),
        Unloaded,
        |mut t| {
            let mut app = SyntheticApp::new(
                n,
                &ranges,
                t.rank().0,
                SyntheticConfig {
                    theta: 0.0,
                    jump_prob: 0.02,
                    ..Default::default()
                },
            );
            let exact = exact.clone();
            async move {
                run_speculative_aio(&mut t, &mut app, 12, exact).await;
                app.values().to_vec()
            }
        },
    )
    .unwrap();
    // Baseline helper used jump_prob 0.02 too but theta 0.3 — theta is
    // irrelevant for the baseline (nothing is speculated), so values match.
    let exact_vals: Vec<f64> = outs.into_iter().flatten().collect();
    let base_flat: Vec<f64> = base_vals.into_iter().flatten().collect();
    assert_eq!(exact_vals, base_flat);
}

#[test]
fn adaptive_window_deepens_then_retreats() {
    // Phase 1: slow network, perfect speculation — window should grow.
    // Phase 2 (separate run): jumpy values — window should stay shallow.
    let run = |jump_prob: f64| {
        let n = 40;
        let p = 4;
        let cluster = ClusterSpec::homogeneous(p, 10.0);
        let ranges = even_ranges(n, p);
        let cfg = SpecConfig::speculative(1).with_adaptive(ControllerConfig::new().with_fw_max(4));
        let (outs, _) = run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(50)),
            Unloaded,
            |mut t| {
                let mut app = SyntheticApp::new(
                    n,
                    &ranges,
                    t.rank().0,
                    // θ accepts the smooth-dynamics extrapolation error but
                    // rejects the 50% jumps.
                    SyntheticConfig {
                        theta: 0.05,
                        jump_prob,
                        f_comp: 700,
                        ..Default::default()
                    },
                );
                let cfg = cfg.clone();
                async move { run_speculative_aio(&mut t, &mut app, 40, cfg).await }
            },
        )
        .unwrap();
        outs.iter().map(|s| s.max_depth_used).max().unwrap()
    };
    let calm_depth = run(0.0);
    let jumpy_depth = run(0.9);
    assert!(
        calm_depth >= 2,
        "adaptive window never grew under calm latency"
    );
    assert!(
        jumpy_depth <= calm_depth,
        "adaptive window should be shallower when speculation keeps missing"
    );
}

#[test]
fn deterministic_under_all_stochastic_models() {
    let run = || {
        let net = TransientDelays::new(
            Jitter::new(SharedMedium::new(SimDuration::from_millis(1), 1e6), 0.5, 11),
            0.1,
            SimDuration::from_millis(30),
            12,
        );
        let load = RandomSpikes::new(0.2, 3.0, 13);
        let (vals, stats, elapsed) = run_synthetic(net, load, SpecConfig::speculative(2), 5, 15);
        let depths: Vec<u64> = stats.iter().map(|s| s.max_depth_used).collect();
        let rollbacks: Vec<u64> = stats.iter().map(|s| s.rollbacks).collect();
        (vals, depths, rollbacks, elapsed)
    };
    assert_eq!(
        run(),
        run(),
        "stochastic models must be reproducible from their seeds"
    );
}

// ---------------------------------------------------------------------------
// Real faults: messages that never arrive, not merely late ones.
// ---------------------------------------------------------------------------

fn run_synthetic_faulty(
    net: impl NetworkModel + 'static,
    faults: FaultSpec<IterMsg<Vec<f64>>>,
    cfg: SpecConfig,
    p: usize,
    iters: u64,
) -> (Vec<Vec<f64>>, Vec<RunStats>, f64) {
    let n = 40;
    let cluster = ClusterSpec::homogeneous(p, 10.0);
    let ranges = even_ranges(n, p);
    let (outs, report) = run_sim_proc_cluster_with_faults::<IterMsg<Vec<f64>>, _, _, _>(
        &cluster,
        net,
        Unloaded,
        faults,
        false,
        |mut t| {
            let mut app = SyntheticApp::new(
                n,
                &ranges,
                t.rank().0,
                SyntheticConfig {
                    theta: 0.3,
                    jump_prob: 0.02,
                    ..Default::default()
                },
            );
            let cfg = cfg.clone();
            async move {
                let stats = run_speculative_aio(&mut t, &mut app, iters, cfg).await;
                (app.values().to_vec(), stats)
            }
        },
    )
    .expect("run must survive injected faults");
    let (values, stats): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
    (values, stats, report.end_time.as_secs_f64())
}

#[test]
fn survives_random_message_loss() {
    let ft = FaultTolerance::new(SimDuration::from_millis(40));
    let cfg = SpecConfig::speculative(2).with_fault_tolerance(ft);
    let (vals, stats, _) = run_synthetic_faulty(
        ConstantLatency(SimDuration::from_millis(5)),
        FaultSpec::new(Loss::new(0.1, 21)),
        cfg,
        4,
        20,
    );
    let total_lost: u64 = stats.iter().map(|s| s.messages_lost).sum();
    assert!(total_lost > 0, "10% loss over 240+ messages must drop some");
    for (vs, s) in vals.iter().zip(&stats) {
        assert_eq!(s.iterations, 20, "rank {} lost iterations", s.rank.0);
        assert!(vs.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn survives_link_partition_window() {
    // Ranks 0↔2 cannot talk for a mid-run window; both must speculate
    // through it and resynchronize afterwards. The window spans several
    // timeout+grace cycles: a shorter outage is bridged by retransmission
    // alone (the driver asks before it promotes, and a post-heal re-send
    // fills the gap with the actual value), so forcing promotion requires
    // an outage that also swallows the retransmit round-trips.
    let part = LinkPartition {
        a: 0,
        b: 2,
        from: SimTime::from_nanos(30_000_000),
        until: SimTime::from_nanos(500_000_000),
    };
    let ft = FaultTolerance::new(SimDuration::from_millis(30));
    let cfg = SpecConfig::speculative(2).with_fault_tolerance(ft);
    let (vals, stats, _) = run_synthetic_faulty(
        ConstantLatency(SimDuration::from_millis(5)),
        FaultSpec::new(part),
        cfg,
        4,
        25,
    );
    for (vs, s) in vals.iter().zip(&stats) {
        assert_eq!(s.iterations, 25);
        assert!(vs.iter().all(|v| v.is_finite()));
    }
    // Only the partitioned endpoints lose sends.
    assert!(stats[0].messages_lost > 0);
    assert!(stats[2].messages_lost > 0);
    assert_eq!(stats[1].messages_lost, 0);
    assert_eq!(stats[3].messages_lost, 0);
    // Both endpoints first asked for retransmits (swallowed by the
    // partition) and then promoted speculations to cross the outage.
    assert!(stats[0].retransmit_requests > 0);
    assert!(stats[2].retransmit_requests > 0);
    assert!(stats[0].speculate_through_loss_commits > 0);
    assert!(stats[2].speculate_through_loss_commits > 0);
}

#[test]
fn loss_burst_inside_fault_plan_window_only() {
    // Total loss during a burst window; clean before and after. The run
    // completes, and losses happen only inside the window.
    let plan = FaultPlan::new().window(
        SimTime::from_nanos(50_000_000),
        SimTime::from_nanos(100_000_000),
        Loss::new(1.0, 5),
    );
    let ft = FaultTolerance::new(SimDuration::from_millis(25));
    let cfg = SpecConfig::speculative(1).with_fault_tolerance(ft);
    let (_, stats, _) = run_synthetic_faulty(
        ConstantLatency(SimDuration::from_millis(4)),
        FaultSpec::new(plan),
        cfg,
        3,
        20,
    );
    let lost: u64 = stats.iter().map(|s| s.messages_lost).sum();
    assert!(lost > 0, "the burst must drop something");
    for s in &stats {
        assert_eq!(s.iterations, 20);
    }
}

#[test]
fn faulty_runs_reproduce_per_seed() {
    let run = |seed: u64| {
        let ft = FaultTolerance::new(SimDuration::from_millis(40));
        let cfg = SpecConfig::speculative(2).with_fault_tolerance(ft);
        let (vals, stats, elapsed) = run_synthetic_faulty(
            ConstantLatency(SimDuration::from_millis(5)),
            FaultSpec::new(Loss::new(0.15, seed)),
            cfg,
            4,
            15,
        );
        let lost: Vec<u64> = stats.iter().map(|s| s.messages_lost).collect();
        (vals, lost, elapsed)
    };
    assert_eq!(run(33), run(33), "same fault seed must be bit-reproducible");
}

#[test]
fn zero_latency_network_is_handled() {
    let (_, stats, elapsed) = run_synthetic(
        ConstantLatency(SimDuration::ZERO),
        Unloaded,
        SpecConfig::speculative(1),
        3,
        10,
    );
    for s in &stats {
        assert_eq!(s.iterations, 10);
        // With instant delivery little to nothing should be speculated.
        assert!(s.phases.comm_wait.as_secs_f64() < 1e-6);
    }
    assert!(elapsed > 0.0);
}
