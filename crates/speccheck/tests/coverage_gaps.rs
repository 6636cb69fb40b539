//! Targeted unit tests closing the gaps reported by
//! `ci/coverage_audit.sh` (public perfmodel/workloads APIs that no other
//! test referenced). Keep this file in sync with the audit: a new gap in
//! its output should gain a test here.

use proptest::prelude::*;
use workloads::{Graph, Heat2dApp, Heat2dConfig};

proptest! {
    /// `Heat2dApp::shape` reports exactly the strip this rank owns: its
    /// row range's length by the full grid width, and `cells()` has
    /// matching size — over arbitrary grid splits.
    #[test]
    fn heat2d_shape_matches_the_partition(
        rows_per in 1usize..6,
        p in 2usize..5,
        cols in 3usize..12,
    ) {
        let n_rows = rows_per * p;
        let ranges: Vec<_> = (0..p).map(|i| i * rows_per..(i + 1) * rows_per).collect();
        for me in 0..p {
            let app = Heat2dApp::new(n_rows, cols, &ranges, me, Heat2dConfig::default());
            let (r, c) = app.shape();
            prop_assert_eq!(r, rows_per);
            prop_assert_eq!(c, cols);
            prop_assert_eq!(app.cells().len(), r * c);
        }
    }

    /// `Graph::out_degree` agrees with the adjacency it summarises, and
    /// `Graph::random(n, d, seed)` gives every node exactly `d`
    /// out-edges with in-range targets.
    #[test]
    fn graph_out_degree_is_consistent(
        n in 2usize..40,
        d in 1usize..6,
        seed in 0u64..1_000,
    ) {
        let g = Graph::random(n, d, seed);
        prop_assert_eq!(g.n, n);
        for j in 0..n {
            prop_assert_eq!(g.out_degree(j), g.edges[j].len());
            prop_assert_eq!(g.out_degree(j), d);
            for &t in &g.edges[j] {
                prop_assert!(t < n, "edge {j}->{t} out of range");
            }
        }
    }
}

/// Gap-closers for the desim crate (the audit's third crate since the
/// stackless kernel landed): typed receives on the threaded handle, raw
/// event-queue draining, the stackless `ProcCtx` surface, and saturating
/// duration arithmetic.
mod desim_gaps {
    use desim::{
        EventKind, EventQueue, MailboxId, ProcCtx, Process, ProcessId, Resume, SimDuration,
        SimTime, Simulation, Yield,
    };

    #[test]
    fn sim_duration_saturating_arithmetic_clamps_at_the_edges() {
        let max = SimDuration::from_nanos(u64::MAX);
        let one = SimDuration::from_nanos(1);
        assert_eq!(max.saturating_add(one), max);
        assert_eq!(one.saturating_sub(max), SimDuration::from_nanos(0));
        assert_eq!(
            SimDuration::from_nanos(5).saturating_add(one),
            SimDuration::from_nanos(6)
        );
        assert_eq!(
            SimDuration::from_nanos(5).saturating_sub(one),
            SimDuration::from_nanos(4)
        );
    }

    #[test]
    fn event_queue_pop_event_drains_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), EventKind::Wake(ProcessId(3)));
        q.push(SimTime::from_nanos(10), EventKind::Wake(ProcessId(1)));
        q.push(SimTime::from_nanos(20), EventKind::Wake(ProcessId(2)));
        let mut times = Vec::new();
        while let Some((key, kind)) = q.pop_event() {
            assert!(matches!(kind, EventKind::Wake(_)));
            times.push(key.time);
        }
        assert_eq!(
            times,
            vec![
                SimTime::from_nanos(10),
                SimTime::from_nanos(20),
                SimTime::from_nanos(30)
            ]
        );
        assert!(q.pop_event().is_none());
    }

    /// The handle's typed receive family: `recv_as` (blocking),
    /// `try_recv_as` (polling, including the type-preserving miss), and
    /// `recv_deadline_as` (hit and expiry), plus `pid()` on both the
    /// handle and the spawn result.
    #[test]
    fn typed_receives_round_trip() {
        let mut sim = Simulation::new();
        let mbox = sim.create_mailbox();
        let res = sim.spawn_async("typed", move |h| async move {
            assert_eq!(h.pid(), ProcessId(0));
            let early: Option<u64> = h.try_recv_as(mbox).await;
            assert!(early.is_none(), "nothing delivered yet");
            let first: u64 = h.recv_as(mbox).await;
            let second: u64 = h
                .recv_deadline_as(mbox, h.now() + SimDuration::from_millis(10))
                .await
                .expect("second message arrives before deadline");
            let expired: Option<u64> = h
                .recv_deadline_as(mbox, h.now() + SimDuration::from_micros(1))
                .await;
            assert!(expired.is_none(), "no third message: deadline must expire");
            first + second
        });
        sim.spawn_async("feeder", move |h| async move {
            h.send(mbox, SimDuration::from_millis(1), 40u64).await;
            h.send(mbox, SimDuration::from_millis(2), 2u64).await;
        });
        sim.run().unwrap();
        assert_eq!(res.pid(), ProcessId(0));
        assert_eq!(res.take(), Some(42));
    }

    /// A raw `Process` state machine exercising the remaining `ProcCtx`
    /// surface: `pid`, `tracing_enabled`, and `send_payload` (re-sending
    /// an already-boxed message without downcasting it).
    struct Forwarder {
        rx: MailboxId,
        tx: MailboxId,
        forwarded: u64,
        quota: u64,
    }

    impl Process for Forwarder {
        fn resume(&mut self, ctx: &mut ProcCtx<'_>) -> Yield {
            assert_eq!(ctx.pid(), ProcessId(0));
            assert!(!ctx.tracing_enabled(), "tracing was never enabled");
            match ctx.take_resume() {
                Resume::Message(Some(payload)) => {
                    ctx.send_payload(self.tx, SimDuration::from_millis(1), payload);
                    self.forwarded += 1;
                }
                Resume::Start | Resume::Resumed => {}
                Resume::Message(None) => unreachable!("no deadline armed"),
            }
            if self.forwarded == self.quota {
                return Yield::Done;
            }
            Yield::Recv { mbox: self.rx }
        }
    }

    #[test]
    fn raw_process_forwards_boxed_payloads() {
        let mut sim = Simulation::new();
        let inbox = sim.create_mailbox();
        let outbox = sim.create_mailbox();
        sim.spawn_process(
            "forwarder",
            Forwarder {
                rx: inbox,
                tx: outbox,
                forwarded: 0,
                quota: 3,
            },
        );
        let out = sim.spawn_async("sink", move |h| async move {
            assert_eq!(h.pid(), desim::ProcessId(1));
            let mut sum = 0u64;
            for i in 0u64..3 {
                h.send(inbox, SimDuration::from_millis(1), i + 10).await;
                sum += h.recv_as::<u64>(outbox).await;
            }
            sum
        });
        sim.run().unwrap();
        assert_eq!(out.take(), Some(10 + 11 + 12));
    }
}

/// `perfmodel::predicted_iteration_time` agrees with the §4 model it
/// wraps: the checked entry point returns exactly `t_hat(p)` for a
/// well-formed parameter set and clamps out-of-range processor counts
/// into the capacity table instead of panicking.
#[test]
fn predicted_iteration_time_matches_t_hat() {
    let params = perfmodel::ModelParams {
        n: 200.0,
        f_comp: 1_500.0,
        f_spec: 15.0,
        f_check: 30.0,
        capacities: vec![2e6; 4],
        comm: perfmodel::CommModel::Affine {
            base: 0.02,
            per_proc: 0.001,
        },
        k: 0.1,
    };
    let t = perfmodel::predicted_iteration_time(&params, 3).expect("well-formed params");
    assert_eq!(t, params.t_hat(3));
    let clamped = perfmodel::predicted_iteration_time(&params, 99).expect("p clamps to table");
    assert_eq!(clamped, params.t_hat(4));
}
