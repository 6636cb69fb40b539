//! The virtual-time, real-thread, and real-TCP-socket backends run the
//! same speculative algorithm and must produce the same *results*
//! (timing differs by construction).

use speculative_computation::prelude::*;

fn even_ranges(n: usize, p: usize) -> Vec<std::ops::Range<usize>> {
    (0..p).map(|i| i * n / p..(i + 1) * n / p).collect()
}

/// Run the synthetic workload with exact semantics (θ = 0 + recompute) on
/// any transport and return the final values.
async fn run_exact<T: AsyncTransport<Msg = IterMsg<Vec<f64>>>>(
    t: &mut T,
    n: usize,
    iters: u64,
) -> Vec<f64> {
    let ranges = even_ranges(n, t.size());
    let scfg = SyntheticConfig {
        theta: 0.0,
        jump_prob: 0.1,
        seed: 5,
        ..Default::default()
    };
    let mut app = SyntheticApp::new(n, &ranges, t.rank().0, scfg);
    let cfg = SpecConfig::speculative(1).with_correction(CorrectionMode::Recompute);
    run_speculative_aio(t, &mut app, iters, cfg).await;
    app.values().to_vec()
}

#[test]
fn sim_thread_and_socket_backends_agree_exactly() {
    let n = 32;
    let p = 4;
    let iters = 8;

    let cluster = ClusterSpec::homogeneous(p, 1000.0);
    let (sim_out, _) = run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(
        &cluster,
        ConstantLatency(SimDuration::from_micros(100)),
        Unloaded,
        false,
        |mut t| async move { run_exact(&mut t, n, iters).await },
    )
    .unwrap();

    let thread_out = run_thread_cluster::<IterMsg<Vec<f64>>, _, _>(
        p,
        ThreadClusterOptions {
            latency: std::time::Duration::from_micros(200),
            ..Default::default()
        },
        move |t| poll_ready(run_exact(t, n, iters)),
    );

    // Third arm: every message is codec-encoded, framed, and crosses the
    // kernel's TCP stack on loopback.
    let socket_out = run_socket_cluster::<IterMsg<Vec<f64>>, _, _>(
        p,
        SocketClusterOptions::default(),
        move |t| poll_ready(run_exact(t, n, iters)),
    );

    assert_eq!(
        sim_out, thread_out,
        "sim and thread backends must agree bit-for-bit under θ=0+recompute"
    );
    assert_eq!(
        sim_out, socket_out,
        "socket backend must agree bit-for-bit with the in-process backends"
    );
}

/// Frame-layer loss on the socket backend feeds the same fault-tolerance
/// path as the thread backend's mailbox-layer loss: under total loss with
/// an identically-seeded `FaultSpec`, nothing is ever delivered on either
/// backend, so the speculate-through-loss machinery must promote the same
/// speculations and converge to the same values.
fn run_lossy<T: mpk::Transport<Msg = IterMsg<Vec<f64>>>>(
    t: &mut T,
    n: usize,
    iters: u64,
) -> (Vec<f64>, RunStats) {
    let ranges = even_ranges(n, t.size());
    let scfg = SyntheticConfig {
        theta: 0.0,
        jump_prob: 0.1,
        seed: 5,
        ..Default::default()
    };
    let mut app = SyntheticApp::new(n, &ranges, t.rank().0, scfg);
    let cfg = SpecConfig::speculative(1)
        .with_correction(CorrectionMode::Recompute)
        .with_fault_tolerance(
            FaultTolerance::new(SimDuration::from_millis(5)).with_staleness_budget(1),
        );
    let stats = run_speculative(t, &mut app, iters, cfg);
    (app.values().to_vec(), stats)
}

#[test]
fn socket_loss_promotions_match_thread_backend() {
    let n = 24;
    let p = 3;
    let iters = 5;
    let seed = 42;

    let thread_out = run_thread_cluster_with_faults::<IterMsg<Vec<f64>>, _, _>(
        p,
        ThreadClusterOptions::default(),
        FaultSpec::new(Loss::new(1.0, seed)),
        move |t| run_lossy(t, n, iters),
    );
    let socket_out = run_socket_cluster_with_faults::<IterMsg<Vec<f64>>, _, _>(
        p,
        SocketClusterOptions::default(),
        FaultSpec::new(Loss::new(1.0, seed)),
        move |t| run_lossy(t, n, iters),
    );

    for (rank, ((tv, ts), (sv, ss))) in thread_out.iter().zip(&socket_out).enumerate() {
        assert_eq!(
            tv, sv,
            "rank {rank}: total loss must leave both backends on identical values"
        );
        assert_eq!(ts.iterations, iters);
        assert_eq!(ss.iterations, iters);
        assert!(
            ss.speculate_through_loss_commits > 0,
            "rank {rank}: socket backend never promoted through loss"
        );
        assert_eq!(
            ts.speculate_through_loss_commits, ss.speculate_through_loss_commits,
            "rank {rank}: promotion counts must match under the same FaultSpec seed"
        );
        assert_eq!(ts.messages_lost, ss.messages_lost, "rank {rank}");
        assert_eq!(
            ts.retransmit_requests, ss.retransmit_requests,
            "rank {rank}"
        );
    }
}

#[test]
fn thread_backend_handles_speculation_under_real_latency() {
    // With a visible injected latency the thread backend must actually
    // speculate (not merely fall through to the actual-input path).
    let n = 24;
    let p = 3;
    let stats = run_thread_cluster::<IterMsg<Vec<f64>>, _, _>(
        p,
        ThreadClusterOptions {
            latency: std::time::Duration::from_millis(5),
            mips: 5000.0,
            ..Default::default()
        },
        move |t| {
            let ranges = even_ranges(n, t.size());
            let mut app = SyntheticApp::new(
                n,
                &ranges,
                t.rank().0,
                SyntheticConfig {
                    theta: 0.5,
                    ..Default::default()
                },
            );
            run_speculative(t, &mut app, 10, SpecConfig::speculative(1))
        },
    );
    let total_spec: u64 = stats.iter().map(|s| s.speculated_partitions).sum();
    assert!(
        total_spec > 0,
        "thread backend never speculated under 5 ms latency"
    );
    for s in &stats {
        assert_eq!(s.iterations, 10);
    }
}

#[test]
fn thread_backend_baseline_equals_sim_baseline() {
    let n = 30;
    let p = 3;
    let iters = 6;
    let cluster = ClusterSpec::homogeneous(p, 1000.0);
    let (sim_out, _) = run_sim_proc_cluster::<IterMsg<Vec<f64>>, _, _, _>(
        &cluster,
        ConstantLatency(SimDuration::from_micros(50)),
        Unloaded,
        false,
        |mut t| async move {
            let ranges = even_ranges(n, t.size());
            let mut app = SyntheticApp::new(n, &ranges, t.rank().0, SyntheticConfig::default());
            run_baseline_aio(&mut t, &mut app, iters).await;
            app.values().to_vec()
        },
    )
    .unwrap();

    let thread_out = run_thread_cluster::<IterMsg<Vec<f64>>, _, _>(
        p,
        ThreadClusterOptions::default(),
        move |t| {
            let ranges = even_ranges(n, t.size());
            let mut app = SyntheticApp::new(n, &ranges, t.rank().0, SyntheticConfig::default());
            run_baseline(t, &mut app, iters);
            app.values().to_vec()
        },
    );
    assert_eq!(sim_out, thread_out);
}
