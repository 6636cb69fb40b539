//! Kernel-scheduling invariant oracle over generated scenarios.
//!
//! The kernel (`desim::spawn_async` / `mpk::run_sim_proc_cluster*`) carries
//! a per-grant assertion oracle (`check_scheduling`): events are dispatched
//! in nondecreasing virtual time, a rank is never granted twice
//! concurrently, and every suspension is matched by exactly one resumption.
//! These properties drive generated clusters — including the widened
//! rank-count axis up to 4096 — through the oracle. (The speculative driver
//! runs under it too: every simulator run of `speccheck::run` arms it.)

use mpk::{run_sim_proc_cluster_with_options, FaultSpec, SimClusterOptions};
use netsim::Unloaded;
use proptest::prelude::*;
use speccheck::{synthetic_scenario_up_to, SyntheticScenario};

/// Run a token ring over the scenario's cluster with the scheduling oracle
/// armed: each rank sends one message per round
/// to its successor and blocks on its predecessor. O(p) messages per round,
/// so rank counts in the thousands stay cheap.
fn ring(sc: &SyntheticScenario, rounds: u64) -> desim::SimReport {
    let p = sc.p;
    let (outs, report) = run_sim_proc_cluster_with_options::<u64, _, _, _>(
        &sc.cluster(),
        sc.net(),
        Unloaded,
        FaultSpec::none(),
        SimClusterOptions {
            check_scheduling: true,
            ..Default::default()
        },
        move |mut t| async move {
            use mpk::AsyncTransport;
            let me = t.rank().0 as u64;
            let mut seen = 0u64;
            for round in 0..rounds {
                let next = mpk::Rank((t.rank().0 + 1) % t.size());
                t.send(next, mpk::Tag(round as u32), me).await;
                let env = t.recv().await;
                assert_eq!(env.src.0, (t.rank().0 + t.size() - 1) % t.size());
                seen += env.msg;
                t.compute(200).await;
            }
            // Quiesced ring: nothing further in flight, so the timed
            // receive must expire (exercising the timer path on every
            // rank under the oracle).
            assert!(t
                .recv_timeout(desim::SimDuration::from_micros(10))
                .await
                .is_none());
            seen
        },
    )
    .expect("ring must complete");
    assert_eq!(outs.len(), p);
    // Every rank receives its predecessor's id each round.
    for (r, seen) in outs.iter().enumerate() {
        let pred = ((r + p - 1) % p) as u64;
        assert_eq!(*seen, pred * rounds);
    }
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The scheduling oracle holds on rings over the widened rank-count
    /// axis (log-uniform up to 4096 ranks), and the kernel's own
    /// accounting matches the workload: exactly `p` messages per round,
    /// all delivered, one expired timer per rank.
    #[test]
    fn ring_schedules_cleanly_up_to_4096_ranks(sc in synthetic_scenario_up_to(4096)) {
        let rounds = sc.iters.min(4);
        let report = ring(&sc, rounds);
        let p = sc.p as u64;
        prop_assert_eq!(report.messages_sent, p * rounds);
        prop_assert_eq!(report.messages_delivered, p * rounds);
        prop_assert_eq!(report.timers_fired, p);
        prop_assert!(report.events_processed >= p * rounds);
    }
}

/// Deterministic pinned case: a 4096-rank heterogeneous ring completes
/// under the scheduling oracle with the expected kernel accounting. This
/// is the fixed large-scale anchor the generated sweep shrinks toward.
#[test]
fn pinned_4096_rank_ring() {
    let sc = SyntheticScenario {
        p: 4096,
        n: 4096,
        iters: 2,
        mips: 50.0,
        ramp: 0.5,
        latency_us: 500,
        jitter_frac: 0.4,
        jump_prob: 0.0,
        delta_floor: 0.0,
        delta_keyframe: 1,
        seed: 42,
    };
    let report = ring(&sc, 2);
    assert_eq!(report.messages_sent, 4096 * 2);
    assert_eq!(report.messages_delivered, 4096 * 2);
    assert_eq!(report.timers_fired, 4096);
}
