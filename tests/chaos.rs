//! Chaos harness: composed message faults (loss, duplication, partitions)
//! plus scripted machine crashes, over the full nbody pipeline.
//!
//! Every test asserts some combination of the three fault-tolerance
//! obligations:
//!
//! 1. **Liveness** — every rank completes every iteration; no deadlock no
//!    matter what the network eats.
//! 2. **Bounded error** — the faulty run stays within a small multiple of
//!    the θ-implied tolerance of the fault-free golden run.
//! 3. **Determinism** — identical seeds reproduce results bit-for-bit
//!    under the virtual clock.

use speculative_computation::desim::SimError;
use speculative_computation::obs::{EventKind, Mark};
use speculative_computation::prelude::*;

/// θ-checked speculative nbody config with fault tolerance attached.
fn chaos_config(iters: u64, fw: u32, loss_timeout_ms: u64) -> ParallelRunConfig {
    let mut cfg = ParallelRunConfig::new(iters, fw);
    cfg.spec = cfg
        .spec
        .with_fault_tolerance(FaultTolerance::new(SimDuration::from_millis(
            loss_timeout_ms,
        )));
    cfg
}

fn max_drift(a: &ParallelRunResult, b: &ParallelRunResult) -> f64 {
    a.particles
        .iter()
        .zip(&b.particles)
        .map(|(x, y)| x.pos.distance(y.pos))
        .fold(0.0, f64::max)
}

fn position_bits(r: &ParallelRunResult) -> Vec<[u64; 3]> {
    r.particles
        .iter()
        .map(|p| [p.pos.x.to_bits(), p.pos.y.to_bits(), p.pos.z.to_bits()])
        .collect()
}

// ---------------------------------------------------------------------------
// Acceptance: 16-rank, 200-iteration nbody on the paper testbed under 5%
// loss — complete, bounded, reproducible.
// ---------------------------------------------------------------------------

#[test]
fn paper_testbed_survives_five_percent_loss() {
    let particles = uniform_cloud(64, 11);
    let cluster = ClusterSpec::paper_testbed();
    let iters = 200;
    let net = || ConstantLatency(SimDuration::from_millis(2));

    let golden = run_parallel(
        &particles,
        &cluster,
        net(),
        Unloaded,
        ParallelRunConfig::new(iters, 2),
    )
    .unwrap();

    let lossy = || {
        run_parallel_with_faults(
            &particles,
            &cluster,
            net(),
            Unloaded,
            FaultSpec::new(Loss::new(0.05, 4242)),
            chaos_config(iters, 2, 40),
        )
        .unwrap()
    };
    let run1 = lossy();

    // Liveness: all 16 ranks confirm all 200 iterations.
    assert_eq!(run1.stats.per_rank.len(), 16);
    for s in &run1.stats.per_rank {
        assert_eq!(s.iterations, iters, "rank {} did not finish", s.rank.0);
    }
    // The fault layer genuinely bit: messages were dropped and the driver
    // promoted speculations in their place.
    assert!(run1.stats.total_messages_lost() > 0);
    assert!(run1.stats.total_loss_commits() > 0);

    // Bounded error: promoted inputs carry extrapolation error the θ-check
    // never saw, so allow a modest multiple of the golden run's own
    // accepted-speculation drift scale, but nothing explosive.
    let drift = max_drift(&run1, &golden);
    assert!(
        drift < 1e-2,
        "5% loss drifted {drift:e} from the fault-free golden"
    );
    for p in &run1.particles {
        assert!(p.pos.x.is_finite() && p.pos.y.is_finite() && p.pos.z.is_finite());
    }

    // Bit-exact reproducibility under the same seed.
    let run2 = lossy();
    assert_eq!(position_bits(&run1), position_bits(&run2));
    assert_eq!(run1.elapsed_secs(), run2.elapsed_secs());
    assert_eq!(
        run1.stats.total_messages_lost(),
        run2.stats.total_messages_lost()
    );
}

// ---------------------------------------------------------------------------
// Crash recovery: a scripted mid-run crash re-seeds from the checkpoint,
// leaves PeerCrashed/PeerRecovered marks at the scripted times, and every
// send to the down rank is dropped and counted.
// ---------------------------------------------------------------------------

#[test]
fn scripted_crash_recovers_and_marks_the_trace() {
    let particles = uniform_cloud(48, 3);
    let cluster = ClusterSpec::paper_testbed().fastest(8);
    let iters = 40;
    // Mid-run: the survivors are still exchanging when rank 3 goes down.
    let crash = MachineCrash {
        rank: 3,
        at: SimTime::from_nanos(60_000_000),
        restart_after: SimDuration::from_millis(60),
    };
    let cfg = chaos_config(iters, 2, 30).with_trace();
    let result = run_parallel_with_faults(
        &particles,
        &cluster,
        ConstantLatency(SimDuration::from_millis(3)),
        Unloaded,
        FaultSpec::none().with_crashes(CrashPlan::new(vec![crash])),
        cfg,
    )
    .unwrap();

    for s in &result.stats.per_rank {
        assert_eq!(s.iterations, iters, "rank {} deadlocked", s.rank.0);
    }
    let crashed = &result.stats.per_rank[3];
    assert_eq!(crashed.peer_restarts, 1);
    assert!(crashed.downtime >= SimDuration::from_millis(30));
    assert_eq!(
        crashed.phases.total() + crashed.downtime,
        crashed.total_time,
        "outage must be accounted as downtime, not phase time"
    );
    assert_eq!(result.stats.total_restarts(), 1);

    // The obs trace of rank 3 carries the crash at exactly the scripted
    // virtual time and the recovery at (or after) the scripted restart.
    let traces = result.traces.as_ref().expect("trace collection enabled");
    let rank3 = traces.iter().find(|t| t.rank == 3).unwrap();
    let crashed_at: Vec<u64> = rank3
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Mark(Mark::PeerCrashed { .. })))
        .map(|e| e.t_ns)
        .collect();
    assert_eq!(crashed_at, vec![crash.at.as_nanos()]);
    let recovered_at: Vec<u64> = rank3
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Mark(Mark::PeerRecovered { .. })))
        .map(|e| e.t_ns)
        .collect();
    assert_eq!(recovered_at.len(), 1);
    assert!(recovered_at[0] >= crash.back_at().as_nanos());
    // No other rank crashed.
    for t in traces.iter().filter(|t| t.rank != 3) {
        assert_eq!(t.counter_totals().peer_crashes, 0);
    }

    // The one crash plan reaches the transport too: every send to rank 3
    // during its outage is marked dropped right after it is marked sent,
    // and those drops are all the senders count lost.
    let outage = crash.at.as_nanos()..crash.back_at().as_nanos();
    let mut drops = 0;
    for t in traces {
        for pair in t.events.windows(2) {
            let (sent, next) = (pair[0], pair[1]);
            let EventKind::Mark(Mark::MsgSent { to: 3, bytes }) = sent.kind else {
                continue;
            };
            if outage.contains(&sent.t_ns) {
                let dropped = EventKind::Mark(Mark::MessageDropped { to: 3, bytes });
                let why = format!("rank {}'s send at {} ns", t.rank, sent.t_ns);
                assert_eq!((next.t_ns, next.kind), (sent.t_ns, dropped), "{why}");
                drops += 1;
            }
        }
    }
    assert!(drops > 0, "no peer sent to rank 3 during its outage");
    assert_eq!(result.stats.total_messages_lost(), drops);
}

// ---------------------------------------------------------------------------
// Supervision: a permanently dead rank is suspected, quarantined, and
// carried in degraded mode; a long-but-finite outage additionally rejoins.
// ---------------------------------------------------------------------------

#[test]
fn permanent_crash_finishes_degraded_and_marks_the_trace() {
    let particles = uniform_cloud(48, 21);
    let cluster = ClusterSpec::paper_testbed().fastest(6);
    let iters = 40;
    let crash = MachineCrash::permanent(2, SimTime::from_nanos(100_000_000));
    let run = || {
        let mut cfg = chaos_config(iters, 2, 10).with_trace();
        cfg.spec = cfg.spec.with_fault_tolerance(
            FaultTolerance::new(SimDuration::from_millis(10))
                .with_supervision(SupervisionConfig::new(1, 2)),
        );
        run_parallel_with_faults(
            &particles,
            &cluster,
            ConstantLatency(SimDuration::from_millis(3)),
            Unloaded,
            FaultSpec::none().with_crashes(CrashPlan::new(vec![crash])),
            cfg,
        )
        .unwrap()
    };
    let result = run();

    // Liveness: every survivor commits every iteration; the dead rank
    // stops at whatever prefix it had confirmed when the machine died.
    for s in &result.stats.per_rank {
        if s.rank.0 == 2 {
            assert!(s.iterations < iters, "a dead rank cannot finish");
        } else {
            assert_eq!(s.iterations, iters, "survivor {} deadlocked", s.rank.0);
            assert!(
                s.peers_quarantined >= 1,
                "rank {} never quarantined 2",
                s.rank.0
            );
            assert!(
                s.degraded_commits >= 1,
                "rank {} never ran degraded",
                s.rank.0
            );
            assert!(
                s.speculate_through_loss_commits <= s.messages_lost,
                "rank {}: promoted commits must be backed by losses",
                s.rank.0
            );
            assert_eq!(s.peer_rejoins, 0, "the dead rank must never rejoin");
        }
    }

    // The supervision timeline: suspicion strictly before quarantine,
    // both after the scripted crash instant; degraded mode is entered
    // and — with no rejoin — never exited.
    let traces = result.traces.as_ref().expect("trace collection enabled");
    for t in traces.iter().filter(|t| t.rank != 2) {
        let at = |want: fn(&Mark) -> bool| -> Vec<u64> {
            t.events
                .iter()
                .filter_map(|e| match &e.kind {
                    EventKind::Mark(m) if want(m) => Some(e.t_ns),
                    _ => None,
                })
                .collect()
        };
        let suspected = at(|m| matches!(m, Mark::PeerSuspected { peer: 2 }));
        let quarantined = at(|m| matches!(m, Mark::PeerQuarantined { peer: 2 }));
        assert_eq!(suspected.len(), 1, "rank {} suspicion marks", t.rank);
        assert_eq!(quarantined.len(), 1, "rank {} quarantine marks", t.rank);
        assert!(suspected[0] >= crash.at.as_nanos());
        assert!(suspected[0] <= quarantined[0]);
        let totals = t.counter_totals();
        assert_eq!(totals.degraded_enters, 1);
        assert_eq!(totals.degraded_exits, 0, "no rejoin, no exit");
        assert_eq!(totals.peers_rejoined, 0);
    }

    // Determinism: the whole degraded schedule replays bit-for-bit.
    assert_eq!(position_bits(&result), position_bits(&run()));
}

#[test]
fn crash_rejoin_timeline_quarantines_then_readmits() {
    let particles = uniform_cloud(48, 22);
    let cluster = ClusterSpec::paper_testbed().fastest(6);
    let iters = 80;
    let crash = MachineCrash {
        rank: 2,
        at: SimTime::from_nanos(100_000_000),
        // Far past the ~20 ms it takes survivors to promote once and
        // quarantine at thresholds (1, 2), and well before the ~300 ms
        // survivors need for 80 iterations on 3 ms links — so the rejoin
        // lands while they are still running.
        restart_after: SimDuration::from_millis(80),
    };
    let mut cfg = chaos_config(iters, 2, 10).with_trace();
    cfg.spec = cfg.spec.with_fault_tolerance(
        FaultTolerance::new(SimDuration::from_millis(10))
            .with_supervision(SupervisionConfig::new(1, 2)),
    );
    let result = run_parallel_with_faults(
        &particles,
        &cluster,
        ConstantLatency(SimDuration::from_millis(3)),
        Unloaded,
        FaultSpec::none().with_crashes(CrashPlan::new(vec![crash])),
        cfg,
    )
    .unwrap();

    for s in &result.stats.per_rank {
        assert_eq!(s.iterations, iters, "rank {} deadlocked", s.rank.0);
    }
    assert_eq!(result.stats.per_rank[2].peer_restarts, 1);

    let traces = result.traces.as_ref().expect("trace collection enabled");
    for t in traces.iter().filter(|t| t.rank != 2) {
        let at = |want: fn(&Mark) -> bool| -> Vec<u64> {
            t.events
                .iter()
                .filter_map(|e| match &e.kind {
                    EventKind::Mark(m) if want(m) => Some(e.t_ns),
                    _ => None,
                })
                .collect()
        };
        let quarantined = at(|m| matches!(m, Mark::PeerQuarantined { peer: 2 }));
        let rejoined = at(|m| matches!(m, Mark::PeerRejoined { peer: 2 }));
        assert!(
            !quarantined.is_empty(),
            "rank {} never quarantined 2",
            t.rank
        );
        assert!(!rejoined.is_empty(), "rank {} never readmitted 2", t.rank);
        assert!(
            quarantined[0] <= rejoined[0],
            "rejoin must follow quarantine"
        );
        assert!(
            rejoined[0] >= crash.back_at().as_nanos(),
            "rejoin cannot precede the restart"
        );
        let totals = t.counter_totals();
        assert!(totals.degraded_enters >= 1);
        assert_eq!(
            totals.degraded_enters, totals.degraded_exits,
            "every degraded window must close once the peer is back"
        );
    }
}

// ---------------------------------------------------------------------------
// Seed matrix over composed faults: loss + duplication + a partition
// window, several seeds — liveness, bounded error, bit-exact per seed.
// ---------------------------------------------------------------------------

#[test]
fn seed_matrix_of_composed_faults_is_live_bounded_and_deterministic() {
    let particles = uniform_cloud(32, 9);
    let cluster = ClusterSpec::paper_testbed().fastest(4);
    let iters = 30;
    let golden = run_parallel(
        &particles,
        &cluster,
        ConstantLatency(SimDuration::from_millis(3)),
        Unloaded,
        ParallelRunConfig::new(iters, 2),
    )
    .unwrap();

    let composed = |seed: u64| {
        FaultSpec::new(
            FaultStack::new()
                .with(Loss::new(0.04, seed))
                .with(Duplicate::new(0.08, seed ^ 0x9e3779b97f4a7c15))
                .with(LinkPartition {
                    a: 0,
                    b: 2,
                    from: SimTime::from_nanos(40_000_000),
                    until: SimTime::from_nanos(90_000_000),
                }),
        )
    };
    let run = |seed: u64| {
        run_parallel_with_faults(
            &particles,
            &cluster,
            ConstantLatency(SimDuration::from_millis(3)),
            Unloaded,
            composed(seed),
            chaos_config(iters, 2, 25),
        )
        .unwrap()
    };

    for seed in [1u64, 7, 23] {
        let a = run(seed);
        for s in &a.stats.per_rank {
            assert_eq!(s.iterations, iters, "seed {seed}: rank {} hung", s.rank.0);
        }
        let drift = max_drift(&a, &golden);
        assert!(
            drift < 1e-2,
            "seed {seed}: composed faults drifted {drift:e}"
        );
        let b = run(seed);
        assert_eq!(
            position_bits(&a),
            position_bits(&b),
            "seed {seed} not reproducible"
        );
    }
}

// ---------------------------------------------------------------------------
// Property-style checks on the fault layer's boundary behaviors.
// ---------------------------------------------------------------------------

#[test]
fn loss_zero_is_bit_identical_to_no_fault_layer() {
    let particles = uniform_cloud(24, 5);
    let cluster = ClusterSpec::paper_testbed().fastest(3);
    let iters = 12;
    let plain = run_parallel(
        &particles,
        &cluster,
        ConstantLatency(SimDuration::from_millis(2)),
        Unloaded,
        ParallelRunConfig::new(iters, 1),
    )
    .unwrap();
    // Loss(0.0) consults its RNG on every message but never drops; the
    // delay stream, the schedule, and all results must match exactly.
    let gated = run_parallel_with_faults(
        &particles,
        &cluster,
        ConstantLatency(SimDuration::from_millis(2)),
        Unloaded,
        FaultSpec::new(Loss::new(0.0, 77)),
        ParallelRunConfig::new(iters, 1),
    )
    .unwrap();
    assert_eq!(position_bits(&plain), position_bits(&gated));
    assert_eq!(plain.elapsed_secs(), gated.elapsed_secs());
    assert_eq!(gated.stats.total_messages_lost(), 0);
}

#[test]
fn total_loss_with_staleness_budget_still_terminates() {
    let particles = uniform_cloud(16, 2);
    let cluster = ClusterSpec::paper_testbed().fastest(3);
    let iters = 8;
    let mut cfg = chaos_config(iters, 1, 20);
    cfg.spec = cfg.spec.with_fault_tolerance(
        FaultTolerance::new(SimDuration::from_millis(20)).with_staleness_budget(2),
    );
    let result = run_parallel_with_faults(
        &particles,
        &cluster,
        ConstantLatency(SimDuration::from_millis(2)),
        Unloaded,
        FaultSpec::new(Loss::new(1.0, 1)),
        cfg,
    )
    .unwrap();
    for s in &result.stats.per_rank {
        assert_eq!(s.iterations, iters, "total loss must not deadlock");
        assert!(s.speculate_through_loss_commits > 0);
    }
    assert!(result.stats.total_messages_lost() > 0);
    for p in &result.particles {
        assert!(p.pos.x.is_finite() && p.pos.y.is_finite() && p.pos.z.is_finite());
    }
}

#[test]
fn duplicates_never_change_committed_results() {
    let particles = uniform_cloud(24, 8);
    let cluster = ClusterSpec::paper_testbed().fastest(4);
    let iters = 15;
    let clean = run_parallel(
        &particles,
        &cluster,
        ConstantLatency(SimDuration::from_millis(2)),
        Unloaded,
        ParallelRunConfig::new(iters, 1),
    )
    .unwrap();
    // Heavy duplication on a deterministic-latency network: copies land
    // with the original, and the idempotent inbox/history must shrug.
    let duped = run_parallel_with_faults(
        &particles,
        &cluster,
        ConstantLatency(SimDuration::from_millis(2)),
        Unloaded,
        FaultSpec::new(Duplicate::new(0.5, 99)),
        ParallelRunConfig::new(iters, 1),
    )
    .unwrap();
    assert_eq!(position_bits(&clean), position_bits(&duped));
    let dup_count: u64 = duped
        .stats
        .per_rank
        .iter()
        .map(|s| s.messages_received)
        .sum::<u64>()
        - clean
            .stats
            .per_rank
            .iter()
            .map(|s| s.messages_received)
            .sum::<u64>();
    assert!(
        dup_count > 0,
        "duplication must actually have injected copies"
    );
}

#[test]
fn fault_streams_are_deterministic_per_seed_and_distinct_across_seeds() {
    let particles = uniform_cloud(20, 6);
    let cluster = ClusterSpec::paper_testbed().fastest(3);
    let run = |seed: u64| {
        let r = run_parallel_with_faults(
            &particles,
            &cluster,
            ConstantLatency(SimDuration::from_millis(2)),
            Unloaded,
            FaultSpec::new(Loss::new(0.3, seed)),
            chaos_config(20, 2, 20),
        )
        .unwrap();
        (
            position_bits(&r),
            r.stats.total_messages_lost(),
            r.stats.total_loss_commits(),
        )
    };
    assert_eq!(run(5), run(5));
    assert_ne!(
        run(5).1,
        run(6).1,
        "different seeds should lose different messages"
    );
}

// ---------------------------------------------------------------------------
// Delta-exchange × fault interactions: dropped or duplicated delta frames
// must heal through retransmission or the next keyframe, and a fault-free
// lossless delta stream must be indistinguishable from full broadcast.
// ---------------------------------------------------------------------------

/// `chaos_config` with a delta-exchange policy stacked on top.
fn delta_chaos_config(
    iters: u64,
    fw: u32,
    loss_timeout_ms: u64,
    delta: DeltaExchange,
) -> ParallelRunConfig {
    let mut cfg = chaos_config(iters, fw, loss_timeout_ms);
    cfg.spec = cfg.spec.with_delta_exchange(delta);
    cfg
}

#[test]
fn fault_free_lossless_delta_matches_full_broadcast_bit_for_bit() {
    let particles = uniform_cloud(32, 13);
    let cluster = ClusterSpec::paper_testbed().fastest(6);
    let iters = 30;
    let net = || ConstantLatency(SimDuration::from_millis(2));
    let full = run_parallel(
        &particles,
        &cluster,
        net(),
        Unloaded,
        ParallelRunConfig::new(iters, 2),
    )
    .unwrap();
    let mut cfg = ParallelRunConfig::new(iters, 2);
    cfg.spec = cfg.spec.with_delta_exchange(DeltaExchange::new(0.0, 8));
    let delta = run_parallel(&particles, &cluster, net(), Unloaded, cfg).unwrap();

    // Floor 0 suppresses nothing: every broadcast carries the exact new
    // state, just framed as sparse absolute entries, so the committed
    // trajectory and the virtual schedule are bit-identical.
    assert_eq!(position_bits(&full), position_bits(&delta));
    assert_eq!(full.elapsed_secs(), delta.elapsed_secs());
    for s in &delta.stats.per_rank {
        assert_eq!(s.iterations, iters);
        assert_eq!(s.delta_frames_dropped, 0, "FIFO net must not gap frames");
        assert!(s.bytes_sent > 0, "delta runs must still meter bytes");
    }
}

/// A known gap, asserted so that it cannot move unnoticed (ROADMAP item
/// 19): delta exchange without fault tolerance assumes FIFO links. The
/// testbed network samples jitter and stalls per message, so two frames
/// on one link can arrive out of order; `stash` drops a delta whose
/// predecessor has not arrived yet, and only a retransmit, which exists
/// only with fault tolerance, could heal that. So every rank waits
/// forever. On a FIFO network the same run completes and equals full
/// broadcast. When item 19 lands (hold early frames, or reject the
/// configuration), this assertion flips.
#[test]
fn delta_exchange_without_fault_tolerance_deadlocks_on_a_reordering_network() {
    let particles = uniform_cloud(64, 11);
    let cluster = ClusterSpec::paper_testbed();
    let fifo = || ConstantLatency(SimDuration::from_millis(2));
    for fw in [1, 2] {
        let mut cfg = ParallelRunConfig::new(30, fw);
        cfg.spec = cfg.spec.with_delta_exchange(DeltaExchange::new(0.0, 32));
        let reordering = spec_bench::experiments::testbed_network(42, 64);
        match run_parallel(&particles, &cluster, reordering, Unloaded, cfg.clone()) {
            Err(SimError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked.len(), cluster.len(), "FW={fw}: every rank waits");
            }
            other => panic!("FW={fw}: the reordering-network gap moved: {other:?}"),
        }
        let delta = run_parallel(&particles, &cluster, fifo(), Unloaded, cfg).unwrap();
        let full = run_parallel(
            &particles,
            &cluster,
            fifo(),
            Unloaded,
            ParallelRunConfig::new(30, fw),
        )
        .unwrap();
        assert_eq!(position_bits(&delta), position_bits(&full), "FW={fw}");
    }
}

#[test]
fn lost_delta_frames_heal_via_keyframes_and_retransmit() {
    let particles = uniform_cloud(48, 17);
    let cluster = ClusterSpec::paper_testbed().fastest(8);
    let iters = 60;
    let net = || ConstantLatency(SimDuration::from_millis(2));
    let golden = run_parallel(
        &particles,
        &cluster,
        net(),
        Unloaded,
        ParallelRunConfig::new(iters, 2),
    )
    .unwrap();
    let lossy = || {
        run_parallel_with_faults(
            &particles,
            &cluster,
            net(),
            Unloaded,
            FaultSpec::new(Loss::new(0.05, 2026)),
            delta_chaos_config(iters, 2, 40, DeltaExchange::new(0.0, 8)),
        )
        .unwrap()
    };
    let run1 = lossy();

    // Liveness: a lost frame blanks the delta stream until the retransmit
    // or the next keyframe re-seeds the receiver shadow — it must never
    // stall the driver.
    for s in &run1.stats.per_rank {
        assert_eq!(s.iterations, iters, "rank {} stalled", s.rank.0);
    }
    assert!(run1.stats.total_messages_lost() > 0);
    // The interaction genuinely occurred: at least one gapped delta frame
    // was discarded on arrival rather than applied out of order.
    let dropped: u64 = run1
        .stats
        .per_rank
        .iter()
        .map(|s| s.delta_frames_dropped)
        .sum();
    assert!(dropped > 0, "loss must have gapped the delta stream");

    // Bounded error: floor 0 means every applied frame is exact, so the
    // only drift source is the same loss-promotion path full broadcast
    // has. Same envelope as the full-broadcast loss test.
    let drift = max_drift(&run1, &golden);
    assert!(drift < 1e-2, "lossy delta run drifted {drift:e}");
    for p in &run1.particles {
        assert!(p.pos.x.is_finite() && p.pos.y.is_finite() && p.pos.z.is_finite());
    }

    // Determinism: bit-exact replay under the same fault seed.
    let run2 = lossy();
    assert_eq!(position_bits(&run1), position_bits(&run2));
    assert_eq!(run1.elapsed_secs(), run2.elapsed_secs());
}

#[test]
fn duplicated_delta_frames_are_inert() {
    let particles = uniform_cloud(24, 21);
    let cluster = ClusterSpec::paper_testbed().fastest(4);
    let iters = 24;
    let net = || ConstantLatency(SimDuration::from_millis(2));
    let delta = DeltaExchange::new(0.0, 8);
    let clean = {
        let mut cfg = ParallelRunConfig::new(iters, 1);
        cfg.spec = cfg.spec.with_delta_exchange(delta);
        run_parallel(&particles, &cluster, net(), Unloaded, cfg).unwrap()
    };
    let duped = {
        let mut cfg = ParallelRunConfig::new(iters, 1);
        cfg.spec = cfg.spec.with_delta_exchange(delta);
        run_parallel_with_faults(
            &particles,
            &cluster,
            net(),
            Unloaded,
            FaultSpec::new(Duplicate::new(0.5, 99)),
            cfg,
        )
        .unwrap()
    };
    // A duplicated delta frame re-arrives at `iter == shadow_iter`, is
    // dropped without touching the shadow, history, or inbox, and the
    // committed results stay bit-identical.
    assert_eq!(position_bits(&clean), position_bits(&duped));
    let dup_drops: u64 = duped
        .stats
        .per_rank
        .iter()
        .map(|s| s.delta_frames_dropped)
        .sum();
    assert!(
        dup_drops > 0,
        "duplication must have exercised the dup-drop path"
    );
    let extra: u64 = duped
        .stats
        .per_rank
        .iter()
        .map(|s| s.messages_received)
        .sum::<u64>()
        - clean
            .stats
            .per_rank
            .iter()
            .map(|s| s.messages_received)
            .sum::<u64>();
    assert!(extra > 0, "duplication must actually have injected copies");
}

#[test]
fn scripted_crash_under_delta_exchange_recovers() {
    let particles = uniform_cloud(32, 19);
    let cluster = ClusterSpec::paper_testbed().fastest(6);
    let iters = 40;
    let crash = MachineCrash {
        rank: 2,
        at: SimTime::from_nanos(100_000_000),
        restart_after: SimDuration::from_millis(50),
    };
    let cfg = delta_chaos_config(iters, 2, 30, DeltaExchange::new(0.0, 8));
    let result = run_parallel_with_faults(
        &particles,
        &cluster,
        ConstantLatency(SimDuration::from_millis(3)),
        Unloaded,
        FaultSpec::none().with_crashes(CrashPlan::new(vec![crash])),
        cfg,
    )
    .unwrap();

    // Recovery resets both shadow sides and fans out full frames, so the
    // restarted rank and its peers re-synchronize and finish every
    // iteration with finite state.
    for s in &result.stats.per_rank {
        assert_eq!(s.iterations, iters, "rank {} deadlocked", s.rank.0);
    }
    assert_eq!(result.stats.per_rank[2].peer_restarts, 1);
    assert_eq!(result.stats.total_restarts(), 1);
    for p in &result.particles {
        assert!(p.pos.x.is_finite() && p.pos.y.is_finite() && p.pos.z.is_finite());
    }
}

// ---------------------------------------------------------------------------
// Loss-rate sweep backing the EXPERIMENTS.md appendix. Ignored by default;
// run with: cargo test --release --test chaos -- --ignored --nocapture
// ---------------------------------------------------------------------------

#[test]
#[ignore = "slow: generates the EXPERIMENTS.md loss-sweep table"]
fn loss_rate_sweep_table() {
    let particles = uniform_cloud(64, 11);
    let cluster = ClusterSpec::paper_testbed();
    let iters = 200;
    let golden = run_parallel(
        &particles,
        &cluster,
        ConstantLatency(SimDuration::from_millis(2)),
        Unloaded,
        ParallelRunConfig::new(iters, 2),
    )
    .unwrap();
    println!("| loss | makespan (s) | lost | promoted | retrans | max drift |");
    println!("|------|--------------|------|----------|---------|-----------|");
    for loss in [0.0, 0.01, 0.05, 0.20] {
        let r = run_parallel_with_faults(
            &particles,
            &cluster,
            ConstantLatency(SimDuration::from_millis(2)),
            Unloaded,
            FaultSpec::new(Loss::new(loss, 4242)),
            chaos_config(iters, 2, 40),
        )
        .unwrap();
        for s in &r.stats.per_rank {
            assert_eq!(s.iterations, iters);
        }
        let retrans: u64 = r.stats.per_rank.iter().map(|s| s.retransmit_requests).sum();
        println!(
            "| {:>4.0}% | {:.3} | {} | {} | {} | {:.2e} |",
            loss * 100.0,
            r.elapsed_secs(),
            r.stats.total_messages_lost(),
            r.stats.total_loss_commits(),
            retrans,
            max_drift(&r, &golden),
        );
    }
}
