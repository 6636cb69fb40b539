//! The transport contract, written once against [`AsyncTransport`] and
//! run on all three backends: the simulator, real threads and loopback
//! TCP. Each case is one `async fn` a rank runs; what only one backend
//! promises (the simulator's exact virtual deadlines, the thread
//! mailbox's visibility order, the socket's handshake, supervision and
//! hostile bytes) is tested beside that backend.

use desim::{SimDuration, SimTime};
use mpk::{
    poll_ready, run_sim_proc_cluster_with_faults, run_socket_cluster_with_faults,
    run_thread_cluster_with_faults, AsyncTransport, Envelope, FaultCounters, FaultSpec, Rank,
    SocketClusterOptions, Tag, ThreadClusterOptions,
};
use netsim::{ClusterSpec, ConstantLatency, CrashPlan, Loss, MachineCrash, NoFaults, Unloaded};

/// Run `case` on every rank of a `p`-rank cluster of each backend behind
/// the fault spec `faults` (the simulator with 1 ms links). Each rank's
/// result comes back with the blocking waits its endpoint made: `None` on
/// the simulator, where an expired wait is one timer event (pinned by
/// `desim`'s `timers_fired`).
macro_rules! on_every_backend {
    ($p:expr, $faults:expr, $case:expr) => {{
        let link = ConstantLatency(SimDuration::from_millis(1));
        let cluster = ClusterSpec::homogeneous($p, 100.0);
        let sim = run_sim_proc_cluster_with_faults(
            &cluster,
            link,
            Unloaded,
            $faults,
            false,
            |mut t| async move { ($case(&mut t).await, None) },
        )
        .unwrap()
        .0;
        let opts = ThreadClusterOptions::default();
        let thread = run_thread_cluster_with_faults($p, opts, $faults, |t| {
            (poll_ready($case(t)), Some(t.timed_waits()))
        });
        let opts = SocketClusterOptions::default();
        let socket = run_socket_cluster_with_faults($p, opts, $faults, |t| {
            (poll_ready($case(t)), Some(t.timed_waits()))
        });
        [("sim", sim), ("thread", thread), ("socket", socket)]
    }};
}

/// Every rank broadcasts one value; its rank, the cluster size, and what
/// it receives, sorted by sender.
async fn exchange<T: AsyncTransport<Msg = Vec<f64>>>(
    t: &mut T,
) -> (usize, usize, Vec<Envelope<Vec<f64>>>) {
    let me = t.rank().0;
    t.broadcast(Tag(7), vec![1.5, -2.25, f64::MAX, me as f64])
        .await;
    let mut got = Vec::new();
    for _ in 1..t.size() {
        got.push(t.recv().await);
    }
    got.sort_by_key(|e| e.src.0);
    (me, t.size(), got)
}

#[test]
fn every_rank_knows_itself_and_a_broadcast_reaches_every_peer_intact() {
    for (backend, ranks) in on_every_backend!(4, FaultSpec::none(), exchange) {
        for (me, ((rank, size, got), _)) in ranks.into_iter().enumerate() {
            let got: Vec<_> = got.into_iter().map(|e| (e.src.0, e.tag.0, e.msg)).collect();
            let want: Vec<_> = (0..4)
                .filter(|&k| k != me)
                .map(|k| (k, 7, vec![1.5, -2.25, f64::MAX, k as f64]))
                .collect();
            assert_eq!((rank, size, got), (me, 4, want), "{backend}");
        }
    }
}

/// Rank 0 sends 0..100 to rank 1, which reports the order it saw.
async fn stream<T: AsyncTransport<Msg = u64>>(t: &mut T) -> Vec<u64> {
    let mut got = Vec::new();
    if t.rank().0 == 0 {
        for i in 0..100 {
            t.send(Rank(1), Tag(0), i).await;
        }
    } else {
        for _ in 0..100 {
            got.push(t.recv().await.msg);
        }
    }
    got
}

#[test]
fn messages_between_one_pair_arrive_in_send_order() {
    for (backend, ranks) in on_every_backend!(2, FaultSpec::none(), stream) {
        assert_eq!(ranks[1].0, (0..100).collect::<Vec<_>>(), "{backend}");
    }
}

async fn silence<T: AsyncTransport<Msg = u64>>(t: &mut T) -> (bool, SimDuration) {
    let start = t.now();
    let got = t.recv_timeout(SimDuration::from_millis(25)).await;
    (got.is_none(), t.now() - start)
}

/// A bounded wait never spins: a timeout that runs to expiry on an empty
/// endpoint is one block, not a wake-check-sleep loop, and does not end
/// before its deadline.
#[test]
fn an_expired_wait_returns_none_after_one_block() {
    for (backend, ranks) in on_every_backend!(1, FaultSpec::none(), silence) {
        let ((expired, waited), waits) = ranks[0];
        assert!(expired, "{backend}: a message came from nowhere");
        assert!(
            waited >= SimDuration::from_millis(25),
            "{backend}: woke at {waited:?}"
        );
        assert!(
            matches!(waits, None | Some(1)),
            "{backend}: {waits:?} blocks"
        );
    }
}

async fn in_flight<T: AsyncTransport<Msg = u64>>(t: &mut T) -> Option<u64> {
    if t.rank().0 == 0 {
        t.send(Rank(1), Tag(0), 42).await;
        return None;
    }
    let got = t.recv_timeout(SimDuration::from_millis(5_000)).await;
    Some(got.expect("the message must end the wait").msg)
}

#[test]
fn a_message_in_flight_ends_a_timed_wait() {
    for (backend, ranks) in on_every_backend!(2, FaultSpec::none(), in_flight) {
        assert_eq!(ranks[1].0, Some(42), "{backend}");
    }
}

/// Rank 1 takes one message with `recv`, polls with a zero timeout
/// (sleeping 1 ms between polls) until the second is in, and then polls
/// once more: nothing, at no cost in time (on the simulator) or blocks
/// (elsewhere).
async fn zero_timeout<T: AsyncTransport<Msg = u64>>(t: &mut T) -> (Vec<Option<u64>>, bool) {
    if t.rank().0 == 0 {
        t.send(Rank(1), Tag(0), 9).await;
        t.send(Rank(1), Tag(0), 5).await;
        return (Vec::new(), true);
    }
    let first = t.recv().await.msg;
    let mut waiting = None;
    for _ in 0..5_000 {
        waiting = t.recv_timeout(SimDuration::ZERO).await.map(|e| e.msg);
        if waiting.is_some() {
            break;
        }
        t.sleep(SimDuration::from_millis(1)).await;
    }
    let before = t.now();
    let empty = t.recv_timeout(SimDuration::ZERO).await.map(|e| e.msg);
    (vec![Some(first), waiting, empty], t.now() == before)
}

#[test]
fn a_zero_timeout_degrades_to_try_recv() {
    for (backend, ranks) in on_every_backend!(2, FaultSpec::none(), zero_timeout) {
        let ((got, no_time), waits) = &ranks[1];
        assert_eq!(got, &[Some(9), Some(5), None], "{backend}");
        assert!(*no_time || backend != "sim", "{backend}: time passed");
        assert!(
            matches!(waits, None | Some(0)),
            "{backend}: {waits:?} blocks"
        );
    }
}

/// Rank 0 sends 0..5 to rank 1 through the fault layer and reports its
/// counters (delivered, dropped, duplicated); rank 1 reports what it
/// receives: with `DELIVERED`, each of the five within 5 s; otherwise
/// whatever arrives within 20 ms, a wait that is expected to run out.
async fn five_sends<const DELIVERED: bool, T: AsyncTransport<Msg = u64>>(
    t: &mut T,
) -> ((u64, u64, u64), Vec<u64>) {
    let mut got = Vec::new();
    if t.rank().0 == 0 {
        for i in 0..5 {
            t.send(Rank(1), Tag(0), i).await;
        }
    } else {
        let (n, wait) = if DELIVERED { (5, 5_000) } else { (1, 20) };
        for _ in 0..n {
            got.extend(t.recv_timeout(SimDuration::from_millis(wait)).await);
        }
    }
    let FaultCounters {
        delivered,
        dropped,
        duplicated,
    } = t.fault_counters();
    let got = got.into_iter().map(|e| e.msg).collect();
    ((delivered, dropped, duplicated), got)
}

#[test]
fn total_loss_drops_and_counts_every_send() {
    let total_loss = || FaultSpec::new(Loss::new(1.0, 7));
    for (backend, ranks) in on_every_backend!(2, total_loss(), five_sends::<false, _>) {
        assert_eq!(ranks[0].0, ((0, 5, 0), vec![]), "{backend}");
        assert_eq!(ranks[1].0 .1, vec![], "{backend}: total loss delivered");
    }
}

/// What the crash plan scripts for this rank.
async fn own_outages<T: AsyncTransport<Msg = u64>>(t: &mut T) -> Vec<MachineCrash> {
    t.scripted_crashes()
}

#[test]
fn each_rank_reads_its_own_outages_from_the_crash_plan() {
    let late = MachineCrash::permanent(1, SimTime::from_nanos(300_000_000));
    let early = MachineCrash {
        rank: 1,
        at: SimTime::from_nanos(100_000_000),
        restart_after: SimDuration::from_millis(50),
    };
    let plan = || FaultSpec::none().with_crashes(CrashPlan::new(vec![late, early]));
    for (backend, ranks) in on_every_backend!(2, plan(), own_outages) {
        let got: Vec<_> = ranks.into_iter().map(|(own, _)| own).collect();
        assert_eq!(got, vec![vec![], vec![early, late]], "{backend}");
    }
}

#[test]
fn a_no_faults_spec_is_fault_free() {
    for (backend, ranks) in on_every_backend!(2, FaultSpec::new(NoFaults), five_sends::<true, _>) {
        assert_eq!(ranks[0].0, ((5, 0, 0), vec![]), "{backend}");
        assert_eq!(ranks[1].0 .1, (0..5).collect::<Vec<_>>(), "{backend}");
    }
}

/// The simulator keeps no string trace: asking for one panics before the
/// first rank's body is even built.
#[test]
fn a_sim_cluster_asked_for_a_string_trace_panics_before_any_rank_runs() {
    let built = std::cell::Cell::new(0);
    let run = std::panic::AssertUnwindSafe(|| {
        run_sim_proc_cluster_with_faults::<u64, _, _, _>(
            &ClusterSpec::homogeneous(2, 100.0),
            ConstantLatency(SimDuration::from_millis(1)),
            Unloaded,
            FaultSpec::none(),
            true,
            |_t| {
                built.set(built.get() + 1);
                async {}
            },
        )
    });
    let payload = std::panic::catch_unwind(run).expect_err("trace = true must panic");
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        message.contains("there is no string trace"),
        "got: {message}"
    );
    assert_eq!(built.get(), 0, "a rank was built before the refusal");
}
