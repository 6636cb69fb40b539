//! The simulator's reference behaviour, frozen as data.
//!
//! Until PR 15 `desim` carried a second execution model — one parked OS
//! thread per rank — and a differential suite proved the event-scheduled
//! kernel bit-identical to it. The threaded runner is gone; what it
//! computed survives here as one golden line per case under
//! `tests/golden/kernel/`, written by the threaded runner at the last
//! commit that had it (`tests/golden/kernel/README.md` has the recipe).
//! Every case replays on the kernel and must reproduce its line exactly:
//! per-rank fingerprints, an FNV of the per-rank [`RunStats`], the bits of
//! the virtual end time, and the kernel's own counters or whole
//! [`SimReport`].
//!
//! Four layers of cases:
//!
//! 1. **Corpus replay** — the checked-in proptest-regressions witnesses
//!    (the RNG states that once shrank to real bugs), re-drawn with the
//!    exact strategies that produced them.
//! 2. **Chaos matrix** — the failure-injection settings from
//!    `tests/failure_injection.rs` (heavy jitter, transient delay storms,
//!    load spikes, random loss, duplication, loss+dup stacks) at the `mpk`
//!    level, pinning the full [`SimReport`].
//! 3. **Grid sweep** — baseline and FW = 3 under every tie-break mode.
//! 4. **Kernel and transport level** — a raw `desim` mesh and the
//!    same-instant timer-vs-delivery race under every tie-break mode, and
//!    a contended-medium `mpk` cluster.
//! 5. **Driver event stream** — one run with every driver feature on,
//!    pinning the sequence of telemetry events, not only their totals.

use std::fmt::Write as _;
use std::path::PathBuf;

use desim::{SimDuration, SimReport, SimTime, Simulation, TieBreak};
use mpk::{AsyncTransport, FaultSpec, SimClusterOptions, Tag};
use netsim::{
    ClusterSpec, ConstantLatency, CrashPlan, Duplicate, FaultStack, Jitter, LoadModel, Loss,
    MachineCrash, NetworkModel, RandomSpikes, SharedMedium, TransientDelays, Unloaded,
};
use proptest::corpus;
use proptest::strategy::Strategy;
use proptest::TestRng;
use speccheck::{
    assert_matches_golden, drive_synthetic_aio, loss_scenario, run, spec_params,
    synthetic_scenario, Backend, RunOutput, SyntheticScenario,
};
use speccore::{
    ControllerConfig, FaultTolerance, IterMsg, RunStats, SpecConfig, SupervisionConfig,
};

// ---------------------------------------------------------------------------
// Golden lines
// ---------------------------------------------------------------------------

fn golden(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/kernel")).join(name)
}

/// FNV-1a of the `Debug` rendering (floats print shortest-round-trip, so
/// the text is as exact as the bits).
fn fnv(value: &impl std::fmt::Debug) -> u64 {
    let mut fp = obs::Fingerprint::new();
    for b in format!("{value:?}").bytes() {
        fp.write_u64(u64::from(b));
    }
    fp.finish()
}

fn hex_list(values: impl IntoIterator<Item = u64>) -> String {
    let hex: Vec<String> = values.into_iter().map(|v| format!("{v:016x}")).collect();
    hex.join(",")
}

/// Every field of a [`SimReport`], spelled out.
fn report_fields(r: &SimReport) -> String {
    let finish: Vec<String> = r
        .finish_times
        .iter()
        .map(|(name, t)| format!("{name}@{}", t.as_nanos()))
        .collect();
    format!(
        "end_ns={} events={} sent={} delivered={} timers={} finish={}",
        r.end_time.as_nanos(),
        r.events_processed,
        r.messages_sent,
        r.messages_delivered,
        r.timers_fired,
        finish.join(",")
    )
}

fn run_line(ctx: &str, out: &RunOutput) -> String {
    let k = out
        .kernel
        .as_ref()
        .expect("sim runs report kernel counters");
    format!(
        "{ctx} | fp={} | stats={:016x} | elapsed={:016x} | end_ns={} events={} sent={} delivered={} timers={}\n",
        hex_list(out.fingerprints.iter().copied()),
        fnv(&out.stats),
        out.elapsed.to_bits(),
        k.end_time_ns,
        k.events_processed,
        k.messages_sent,
        k.messages_delivered,
        k.timers_fired
    )
}

// ---------------------------------------------------------------------------
// The arms: one function per kind of case, each running on the kernel.
// (tests/golden/kernel/README.md lists the threaded-runner bodies that
// wrote the goldens.)
// ---------------------------------------------------------------------------

/// One chaos configuration — arbitrary network model, load model and fault
/// spec — at the `mpk` level.
fn chaos_arm<N: NetworkModel + 'static, L: LoadModel + 'static>(
    sc: &SyntheticScenario,
    theta: f64,
    cfg: &SpecConfig,
    net: N,
    load: L,
    faults: FaultSpec<IterMsg<Vec<f64>>>,
) -> (Vec<(u64, RunStats)>, SimReport) {
    mpk::run_sim_proc_cluster_with_options::<IterMsg<Vec<f64>>, _, _, _>(
        &sc.cluster(),
        net,
        load,
        faults,
        SimClusterOptions {
            check_scheduling: true,
            ..Default::default()
        },
        |mut t| {
            let (sc, cfg) = (sc.clone(), cfg.clone());
            async move { drive_synthetic_aio(&mut t, &sc, theta, &cfg).await }
        },
    )
    .expect("chaos run must complete")
}

/// Broadcasts over a contended medium, compute, and one timed receive that
/// must expire, on the 16-machine model cluster.
fn mpk_cluster_arm() -> (Vec<(u64, f64)>, SimReport) {
    mpk::run_sim_proc_cluster::<(u64, f64), _, _, _>(
        &ClusterSpec::paper_model_example(),
        SharedMedium::new(SimDuration::from_micros(200), 1.25e6),
        Unloaded,
        |mut t| async move {
            let mut acc = 0.0f64;
            for round in 0..5u64 {
                t.broadcast(Tag(0), (round, t.rank().0 as f64)).await;
                for _ in 0..t.size() - 1 {
                    acc += t.recv().await.msg.1;
                }
                t.compute(10_000).await;
            }
            // All messages are consumed: the timer path, expiring at
            // exactly +50 us.
            assert!(t.recv_timeout(SimDuration::from_micros(50)).await.is_none());
            (t.now().as_nanos(), acc)
        },
    )
    .expect("cluster run must complete")
}

/// A raw `desim` mesh exercising every grant kind (start, timer, message,
/// deadline timeout): four processes, twenty rounds of all-to-all sends,
/// compute, and three timed receives with a blocking fallback.
fn desim_mesh_arm(tie: TieBreak) -> SimReport {
    let mut sim = Simulation::new();
    sim.set_tie_break(tie);
    let boxes: Vec<_> = (0..4).map(|_| sim.create_mailbox()).collect();
    for me in 0..4usize {
        let boxes = boxes.clone();
        sim.spawn_async(format!("p{me}"), move |h| async move {
            for round in 0..20u64 {
                for (k, b) in boxes.iter().enumerate() {
                    if k != me {
                        h.send(
                            *b,
                            SimDuration::from_micros(100 + (me as u64) * 7 + round),
                            (me, round),
                        )
                        .await;
                    }
                }
                h.advance(SimDuration::from_micros(50 + me as u64)).await;
                for _ in 0..3 {
                    let deadline = h.now() + SimDuration::from_micros(40);
                    if h.recv_deadline(boxes[me], deadline).await.is_none() {
                        let _ = h.recv(boxes[me]).await;
                    }
                }
            }
        });
    }
    sim.run().expect("mesh must complete")
}

/// A 5 ms deadline racing a message that lands at exactly 5 ms: which one
/// pops first is the tie-break's call. Returns what the receiver got, the
/// timers fired, and the messages delivered.
fn desim_timer_vs_deliver_arm(tie: TieBreak) -> (Option<u8>, u64, u64) {
    let mut sim = Simulation::new();
    sim.set_tie_break(tie);
    let mbox = sim.create_mailbox();
    let got = sim.spawn_async("rx", move |h| async move {
        h.recv_deadline_as::<u8>(mbox, SimTime::from_nanos(5_000_000))
            .await
    });
    sim.spawn_async("tx", move |h| async move {
        h.send(mbox, SimDuration::from_millis(5), 7u8).await;
    });
    let report = sim.run().expect("race must complete");
    (
        got.take().expect("rx finished"),
        report.timers_fired,
        report.messages_delivered,
    )
}

// ---------------------------------------------------------------------------
// 1. Corpus replay
// ---------------------------------------------------------------------------

/// The speccheck crate's corpus directory, resolved from this test's own
/// manifest so the suite works from any working directory.
fn speccheck_corpus(test_ident: &str) -> Vec<u64> {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/speccheck");
    let states = corpus::states(&corpus::path_for(manifest, test_ident));
    assert!(
        !states.is_empty(),
        "checked-in witness corpus for {test_ident} must exist and parse"
    );
    states
}

/// Replay the conformance witness (`fault_tolerance_is_inert_without_faults`):
/// the exact strategy tuple that test uses, re-drawn from each stored RNG
/// state, run plain and with fault tolerance armed.
#[test]
fn conformance_witness_matches_golden() {
    let strategy = (synthetic_scenario(), spec_params(), 200u64..500);
    let mut lines = String::new();
    for state in speccheck_corpus("conformance::fault_tolerance_is_inert_without_faults") {
        let mut rng = TestRng::from_state(state);
        let (sc, params, timeout_ms) = Strategy::sample(&strategy, &mut rng);
        let fifo = Backend::Sim(TieBreak::Fifo);
        let plain = run(fifo, &sc, params.theta, &params.build(), FaultSpec::none());
        lines += &run_line(&format!("conformance witness {state:#x} plain"), &plain);
        let ft_cfg = params
            .build()
            .with_fault_tolerance(FaultTolerance::new(SimDuration::from_millis(timeout_ms)));
        let ft = run(fifo, &sc, params.theta, &ft_cfg, FaultSpec::none());
        lines += &run_line(
            &format!("conformance witness {state:#x} fault-tolerant"),
            &ft,
        );
    }
    assert_matches_golden(&golden("conformance_witness.txt"), &lines);
}

/// Replay the loss-accounting witness (`loss_commits_bounded_by_losses`):
/// same strategy tuple and the same calm-network clamp, with the loss
/// stack actually injected.
#[test]
fn loss_witness_matches_golden() {
    let strategy = (synthetic_scenario(), loss_scenario(), 1u32..4, 0.0f64..0.4);
    let mut lines = String::new();
    for state in speccheck_corpus("oracles::loss_commits_bounded_by_losses") {
        let mut rng = TestRng::from_state(state);
        let (sc, fault, fw, theta) = Strategy::sample(&strategy, &mut rng);
        let mut sc = sc;
        sc.jitter_frac = 0.0;
        sc.latency_us = sc.latency_us.min(2_000);
        let cfg = SpecConfig::speculative(fw).with_fault_tolerance(fault.tolerance());
        let out = run(
            Backend::Sim(TieBreak::Fifo),
            &sc,
            theta,
            &cfg,
            fault.build(),
        );
        lines += &run_line(&format!("loss witness {state:#x}"), &out);
    }
    assert_matches_golden(&golden("loss_witness.txt"), &lines);
}

// ---------------------------------------------------------------------------
// 2. Chaos matrix
// ---------------------------------------------------------------------------

/// A fixed mid-size scenario for the chaos matrix (the matrix varies the
/// environment, not the workload).
fn chaos_scenario() -> SyntheticScenario {
    SyntheticScenario {
        p: 4,
        n: 12,
        iters: 5,
        mips: 25.0,
        ramp: 0.4,
        latency_us: 2_000,
        jitter_frac: 0.0,
        jump_prob: 0.1,
        delta_floor: 0.0,
        delta_keyframe: 1,
        seed: 0xC0FFEE,
    }
}

/// The failure-injection matrix from `tests/failure_injection.rs`: heavy
/// jitter, transient delay storms, CPU load spikes, random loss,
/// duplication, and a loss+dup stack.
#[test]
fn chaos_matrix_matches_golden() {
    let sc = chaos_scenario();
    let spec = SpecConfig::speculative(2)
        .with_fault_tolerance(FaultTolerance::new(SimDuration::from_millis(60)));
    let base = || ConstantLatency(SimDuration::from_millis(5));
    let mut lines = String::new();
    let mut case = |ctx: &str, (outs, report): (Vec<(u64, RunStats)>, SimReport)| {
        let (fps, stats): (Vec<u64>, Vec<RunStats>) = outs.into_iter().unzip();
        writeln!(
            lines,
            "{ctx} | fp={} | stats={:016x} | {}",
            hex_list(fps),
            fnv(&stats),
            report_fields(&report)
        )
        .unwrap();
    };

    case(
        "jitter 0.9 seed 123",
        chaos_arm(
            &sc,
            0.2,
            &spec,
            Jitter::new(base(), 0.9, 123),
            Unloaded,
            FaultSpec::none(),
        ),
    );
    case(
        "transient delays 0.1/2s seed 9",
        chaos_arm(
            &sc,
            0.2,
            &spec,
            TransientDelays::new(base(), 0.1, SimDuration::from_millis(2_000), 9),
            Unloaded,
            FaultSpec::none(),
        ),
    );
    case(
        "load spikes 0.3/5.0 seed 77",
        chaos_arm(
            &sc,
            0.2,
            &spec,
            base(),
            RandomSpikes::new(0.3, 5.0, 77),
            FaultSpec::none(),
        ),
    );
    case(
        "loss 0.1 seed 21",
        chaos_arm(
            &sc,
            0.2,
            &spec,
            base(),
            Unloaded,
            FaultSpec::new(Loss::new(0.1, 21)),
        ),
    );
    case(
        "dup 0.2 seed 33",
        chaos_arm(
            &sc,
            0.2,
            &spec,
            base(),
            Unloaded,
            FaultSpec::new(Duplicate::new(0.2, 33)),
        ),
    );
    case(
        "jitter+spikes+loss+dup stack",
        chaos_arm(
            &sc,
            0.2,
            &spec,
            Jitter::new(base(), 0.5, 11),
            RandomSpikes::new(0.2, 3.0, 13),
            FaultSpec::new(
                FaultStack::new()
                    .with(Loss::new(0.05, 41))
                    .with(Duplicate::new(0.1, 42)),
            ),
        ),
    );
    assert_matches_golden(&golden("chaos_matrix.txt"), &lines);
}

// ---------------------------------------------------------------------------
// 3. Grid sweep
// ---------------------------------------------------------------------------

/// Baseline driver and FW = 3 under every tie-break mode (the tie-break
/// changes the schedule; the golden pins how).
#[test]
fn tie_breaks_and_baseline_match_golden() {
    let sc = chaos_scenario();
    let mut lines = String::new();
    for tie in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(7)] {
        let base = run(
            Backend::Sim(tie),
            &sc,
            0.0,
            &SpecConfig::baseline(),
            FaultSpec::none(),
        );
        lines += &run_line(&format!("baseline {tie:?}"), &base);
        let spec = run(
            Backend::Sim(tie),
            &sc,
            0.15,
            &SpecConfig::speculative(3),
            FaultSpec::none(),
        );
        lines += &run_line(&format!("speculative fw=3 {tie:?}"), &spec);
    }
    assert_matches_golden(&golden("tie_breaks_and_baseline.txt"), &lines);
}

// ---------------------------------------------------------------------------
// 4. Kernel and transport level
// ---------------------------------------------------------------------------

#[test]
fn mpk_cluster_matches_golden() {
    let (outs, report) = mpk_cluster_arm();
    let ranks: Vec<String> = outs
        .iter()
        .map(|(ns, acc)| format!("{ns}:{:016x}", acc.to_bits()))
        .collect();
    let line = format!(
        "paper_model_example shared-medium | ranks={} | {}\n",
        ranks.join(","),
        report_fields(&report)
    );
    assert_matches_golden(&golden("mpk_cluster.txt"), &line);
}

#[test]
fn desim_mesh_matches_golden() {
    let mut lines = String::new();
    for tie in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(0xC0FFEE)] {
        writeln!(
            lines,
            "mesh {tie:?} | {}",
            report_fields(&desim_mesh_arm(tie))
        )
        .unwrap();
    }
    assert_matches_golden(&golden("desim_mesh.txt"), &lines);
}

#[test]
fn desim_timer_vs_deliver_matches_golden() {
    let mut lines = String::new();
    for tie in [
        TieBreak::Fifo,
        TieBreak::Lifo,
        TieBreak::Seeded(0),
        TieBreak::Seeded(1),
        TieBreak::Seeded(0xDEAD_BEEF),
    ] {
        let (got, timers, delivered) = desim_timer_vs_deliver_arm(tie);
        writeln!(
            lines,
            "timer-vs-deliver {tie:?} | got={got:?} timers={timers} delivered={delivered}"
        )
        .unwrap();
    }
    assert_matches_golden(&golden("desim_timer_vs_deliver.txt"), &lines);
}

// ---------------------------------------------------------------------------
// 5. Driver event stream
// ---------------------------------------------------------------------------

/// Every driver feature at once — 5 % loss, one transient scripted crash
/// long enough to be quarantined and readmitted, supervision, the
/// controller, delta exchange and the iteration log — with a recorder on
/// every rank. The other goldens run untraced and the Chrome-trace golden
/// is fault-free, so this line is what pins the *order* of the driver's
/// marks, spans and gauges under faults.
#[test]
fn driver_events_match_golden() {
    let sc = SyntheticScenario {
        iters: 40,
        delta_floor: 1e-3,
        delta_keyframe: 4,
        ..chaos_scenario()
    };
    let crash = MachineCrash {
        rank: 2,
        at: SimTime::from_nanos(30_000_000),
        restart_after: SimDuration::from_millis(150),
    };
    let cfg = SpecConfig::speculative(2)
        .with_iteration_log()
        .with_fault_tolerance(
            FaultTolerance::new(SimDuration::from_millis(20))
                .with_supervision(SupervisionConfig::new(1, 2)),
        )
        .with_adaptive(ControllerConfig::new().with_fw_max(3).with_cadence(2, 2))
        .with_delta_exchange(sc.delta_policy());
    let recorder = obs::SharedRecorder::new();
    let (outs, report) = mpk::run_sim_proc_cluster_with_options::<IterMsg<Vec<f64>>, _, _, _>(
        &sc.cluster(),
        ConstantLatency(SimDuration::from_millis(2)),
        Unloaded,
        FaultSpec::new(Loss::new(0.05, 77)).with_crashes(CrashPlan::new(vec![crash])),
        SimClusterOptions {
            check_scheduling: true,
            ..Default::default()
        },
        |mut t| {
            t.set_recorder(Box::new(recorder.clone()));
            let (sc, cfg) = (sc.clone(), cfg.clone());
            async move { drive_synthetic_aio(&mut t, &sc, 0.05, &cfg).await }
        },
    )
    .expect("the all-features run must complete");
    let events = recorder.drain();
    let (fps, stats): (Vec<u64>, Vec<RunStats>) = outs.into_iter().unzip();
    let line = format!(
        "all features fw=2 loss 0.05 seed 77 crash r2@30ms+150ms | fp={} | events={} fnv={:016x} | stats={:016x} | end_ns={}\n",
        hex_list(fps),
        events.len(),
        fnv(&events),
        fnv(&stats),
        report.end_time.as_nanos()
    );
    assert_matches_golden(&golden("driver_events.txt"), &line);
}
