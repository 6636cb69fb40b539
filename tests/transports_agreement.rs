//! The virtual-time, real-thread, and real-TCP-socket backends run the
//! same speculative algorithm and must produce the same *results*
//! (timing differs by construction). Fault-free exact-semantics agreement
//! of the speculative driver is a row of speccheck's conformance matrix;
//! these tests pin the baseline entry points, and agreement under loss,
//! real latency and scripted faults.

use speculative_computation::prelude::*;

fn even_ranges(n: usize, p: usize) -> Vec<std::ops::Range<usize>> {
    (0..p).map(|i| i * n / p..(i + 1) * n / p).collect()
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

/// How long the scripted outage of rank 1 lasts, from time zero.
const OUTAGE: SimDuration = SimDuration::from_millis(500);

/// Rank 0 sends six numbered messages to rank 1 — two while rank 1 is
/// scripted down, four after it is back — and reports what the fault layer
/// booked; rank 1 reports every copy that reached it. One sender, so the
/// fate stream is the same on the backends whose threads race.
async fn scripted_exchange<T: AsyncTransport<Msg = u64>>(t: &mut T) -> (FaultCounters, Vec<u64>) {
    let mut got = Vec::new();
    if t.rank().0 == 0 {
        let started = t.now();
        assert!(
            started < SimTime::ZERO + OUTAGE,
            "cluster setup outlasted the scripted outage: {started:?}"
        );
        for v in 0..2 {
            t.send(Rank(1), Tag(0), v).await;
        }
        let back_up = SimTime::ZERO + OUTAGE + SimDuration::from_millis(100);
        t.sleep(back_up - t.now()).await;
        for v in 2..6 {
            t.send(Rank(1), Tag(0), v).await;
        }
    } else {
        // The last message is delivered, twice; give up rather than hang
        // if a backend disagrees.
        while got.iter().filter(|&&v| v == 5).count() < 2 {
            match t.recv_timeout(SimDuration::from_millis(10_000)).await {
                Some(env) => got.push(env.msg),
                None => break,
            }
        }
    }
    (t.fault_counters(), got)
}

/// Run a backend with a recorder for rank 0 to attach; return the sender's
/// counters, the receiver's copies and the names of the sender's marks.
fn observe(
    run: impl FnOnce(&SharedRecorder) -> Vec<(FaultCounters, Vec<u64>)>,
) -> (FaultCounters, Vec<u64>, Vec<&'static str>) {
    let rec = SharedRecorder::new();
    let mut outs = run(&rec).into_iter();
    let (booked, _) = outs.next().expect("rank 0's result");
    let (_, got) = outs.next().expect("rank 1's result");
    let marks = rec.drain().into_iter().filter_map(|e| match &e.kind {
        obs::EventKind::Mark(m) if e.rank == 0 => Some(m.name()),
        _ => None,
    });
    (booked, got, marks.collect())
}

/// Duplication, a scripted drop and "a send to a crashed rank is lost" —
/// not only total loss — come out of the one fault gate the same way on
/// all three backends: the same counters, the same copies received, and
/// the same kinds of transport marks in the same order.
#[test]
fn scripted_faults_agree_on_all_three_backends() {
    let faults = || {
        let fates = FaultStack::new()
            .with(ScriptedFaults::new(vec![(0, 1, 3, Fate::dropped())]))
            .with(Duplicate::new(1.0, 9));
        FaultSpec::<u64>::new(fates).with_crashes(CrashPlan::new(vec![MachineCrash {
            rank: 1,
            at: SimTime::ZERO,
            restart_after: OUTAGE,
        }]))
    };
    let sim = observe(|rec| {
        let cluster = ClusterSpec::homogeneous(2, 1000.0);
        let latency = ConstantLatency(SimDuration::from_micros(100));
        let body = |mut t: SimIo<u64>| {
            let rec = rec.clone();
            async move {
                if t.rank().0 == 0 {
                    t.set_recorder(Box::new(rec));
                }
                scripted_exchange(&mut t).await
            }
        };
        let run =
            run_sim_proc_cluster_with_faults(&cluster, latency, Unloaded, faults(), false, body);
        run.unwrap().0
    });
    let thread = observe(|rec| {
        run_thread_cluster_with_faults(2, ThreadClusterOptions::default(), faults(), |t| {
            if t.rank().0 == 0 {
                t.set_recorder(Box::new(rec.clone()));
            }
            poll_ready(scripted_exchange(t))
        })
    });
    let socket = observe(|rec| {
        run_socket_cluster_with_faults(2, SocketClusterOptions::default(), faults(), |t| {
            if t.rank().0 == 0 {
                t.set_recorder(Box::new(rec.clone()));
            }
            poll_ready(scripted_exchange(t))
        })
    });

    let booked = FaultCounters {
        delivered: 3,
        dropped: 3,
        duplicated: 3,
    };
    let lost = ["msg_sent", "message_dropped"];
    let doubled = ["msg_sent", "message_duplicated"];
    let marks = [lost, lost, doubled, lost, doubled, doubled].concat();
    assert_eq!(sim, (booked, vec![2, 2, 4, 4, 5, 5], marks));
    assert_eq!(sim, thread, "sim vs thread");
    assert_eq!(sim, socket, "sim vs socket");
}
