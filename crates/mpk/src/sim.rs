//! Virtual-time transport backend: ranks are `desim` processes on a
//! `netsim` cluster. This is the backend all paper experiments run on —
//! deterministic, seedable, and fast (no real waiting).

use std::cell::RefCell;
use std::rc::Rc;

use desim::{
    AsyncHandle, MailboxId, SimDuration, SimError, SimReport, SimTime, Simulation, TieBreak,
};
use netsim::{ClusterSpec, LoadModel, MachineSpec, MsgCtx, NetworkModel};
use obs::Recorder;

use crate::faults::{FaultGate, FaultSpec, Verdict};
use crate::tap::Tap;
use crate::transport::AsyncTransport;
use crate::types::{Envelope, FaultCounters, Rank, Tag, WireSize, HEADER_BYTES};

struct SharedNet {
    net: Box<dyn NetworkModel>,
    load: Box<dyn LoadModel>,
    gate: FaultGate,
}

/// A rank's endpoint on a simulated cluster.
///
/// Created by [`run_sim_proc_cluster`] and moved into the per-rank `async`
/// body. Each `.await` suspends the rank's state machine into the `desim`
/// event kernel, so every rank of the cluster — tens of thousands if need
/// be — runs on the calling thread.
pub struct SimIo<M> {
    h: AsyncHandle,
    rank: Rank,
    size: usize,
    machine: MachineSpec,
    mailboxes: Rc<Vec<MailboxId>>,
    shared: Rc<RefCell<SharedNet>>,
    tap: Tap,
    msg: std::marker::PhantomData<fn(M)>,
}

impl<M: Send + 'static> SimIo<M> {
    /// Record a trace annotation (visible in the [`SimReport`] if tracing
    /// was enabled).
    pub async fn trace(&mut self, label: impl Into<String>) {
        self.h.trace(label).await;
    }

    /// Lazily-built trace annotation; free when tracing is disabled.
    pub async fn trace_with(&mut self, label: impl FnOnce() -> String) {
        self.h.trace_with(label).await;
    }

    /// Attach a structured telemetry sink for this rank. Typically an
    /// [`obs::SharedRecorder`] clone, so the events can be drained after
    /// [`run_sim_proc_cluster`] returns. Message sends/receives are marked
    /// by the transport itself; spans and counters come from the algorithm
    /// via [`AsyncTransport::recorder`].
    pub fn set_recorder(&mut self, rec: Box<dyn Recorder>) {
        self.tap.attach(rec);
    }

    /// Built where it is sent, from `self`, not from locals: what `send`
    /// holds across its awaits is per-rank memory, at up to 100 000 ranks.
    fn envelope(&self, tag: Tag, msg: M) -> Envelope<M> {
        let src = self.rank;
        Envelope { src, tag, msg }
    }
}

impl<M: WireSize + Clone + Send + 'static> AsyncTransport for SimIo<M> {
    type Msg = M;

    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    async fn send(&mut self, to: Rank, tag: Tag, msg: M) {
        assert!(to.0 < self.size, "send to out-of-range rank {to}");
        assert_ne!(to, self.rank, "self-sends are not modelled");
        let bytes = msg.wire_size() + HEADER_BYTES;
        let ctx = MsgCtx {
            src: self.rank.0,
            dst: to.0,
            bytes,
            now: self.h.now(),
        };
        // Fate first, then the network: a dropped message never touches
        // the medium, so fault-free runs see the identical delay stream.
        // A corruption fate changes nothing here: there are no bytes to
        // damage.
        let (verdict, delay) = {
            let mut sh = self.shared.borrow_mut();
            let verdict = sh.gate.admit(&ctx);
            let travels = matches!(verdict, Verdict::Deliver { .. });
            (verdict, travels.then(|| sh.net.delay(&ctx)))
        };
        self.tap.fated(|| ctx.now.as_nanos(), to, bytes, verdict);
        let (Verdict::Deliver { copies, .. }, Some(delay)) = (verdict, delay) else {
            return;
        };
        // Each extra copy re-consults the network: duplicates occupy the
        // medium like any other message.
        for _ in 0..copies {
            let d = self.shared.borrow_mut().net.delay(&ctx);
            let copy = self.envelope(tag, msg.clone());
            self.h.send(self.mailboxes[to.0], d, copy).await;
        }
        let original = self.envelope(tag, msg);
        self.h.send(self.mailboxes[to.0], delay, original).await;
    }

    async fn try_recv(&mut self) -> Option<Envelope<M>> {
        let env = self
            .h
            .try_recv_as::<Envelope<M>>(self.mailboxes[self.rank.0])
            .await?;
        self.tap
            .received(|| self.h.now().as_nanos(), &env, HEADER_BYTES, None);
        Some(env)
    }

    async fn recv(&mut self) -> Envelope<M> {
        let env = self
            .h
            .recv_as::<Envelope<M>>(self.mailboxes[self.rank.0])
            .await;
        self.tap
            .received(|| self.h.now().as_nanos(), &env, HEADER_BYTES, None);
        env
    }

    async fn compute(&mut self, ops: u64) {
        if ops == 0 {
            return;
        }
        let factor = self
            .shared
            .borrow_mut()
            .load
            .factor(self.rank.0, self.h.now());
        self.h
            .advance(self.machine.ops_duration(ops).mul_f64(factor))
            .await;
    }

    fn now(&self) -> SimTime {
        self.h.now()
    }

    async fn recv_timeout(&mut self, timeout: SimDuration) -> Option<Envelope<M>> {
        if let Some(env) = self.try_recv().await {
            return Some(env);
        }
        if timeout == SimDuration::ZERO {
            return None;
        }
        // Event-driven timed receive: the kernel arms one deadline timer
        // and wakes this process either at the exact arrival time of the
        // next message or exactly at the deadline — never in between.
        let armed_at = self.h.now();
        let deadline = armed_at + timeout;
        let env = self
            .h
            .recv_deadline_as::<Envelope<M>>(self.mailboxes[self.rank.0], deadline)
            .await;
        let now = || self.h.now().as_nanos();
        match &env {
            Some(env) => {
                let armed = Some(armed_at.as_nanos());
                self.tap.received(now, env, HEADER_BYTES, armed);
            }
            None => self.tap.timer_fired(now, armed_at.as_nanos()),
        }
        env
    }

    async fn sleep(&mut self, d: SimDuration) {
        if d > SimDuration::ZERO {
            self.h.advance(d).await;
        }
    }

    fn fault_counters(&self) -> FaultCounters {
        self.shared.borrow().gate.counters(self.rank)
    }

    fn recorder(&mut self) -> Option<&mut (dyn Recorder + 'static)> {
        self.tap.recorder()
    }
}

/// Kernel-level options of a simulated cluster run, beyond the
/// network/load/fault models. `Default` reproduces
/// [`run_sim_proc_cluster_with_faults`] exactly.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimClusterOptions {
    /// Record per-process trace annotations into the [`SimReport`].
    pub trace: bool,
    /// How simultaneous events are ordered ([`TieBreak::Fifo`] is the
    /// historical insertion order). Conformance tests re-run a scenario
    /// under [`TieBreak::Lifo`]/[`TieBreak::Seeded`] to prove its result
    /// does not hinge on same-virtual-time delivery tie-breaks.
    pub tie_break: TieBreak,
    /// Arm the kernel's scheduling-invariant oracle
    /// ([`Simulation::enable_scheduling_checks`]): every grant and blocking
    /// yield is validated, and a violation panics with a diagnostic. Used
    /// by the property suites; off by default.
    pub check_scheduling: bool,
}

/// Run one `async` body per machine of `cluster` in deterministic virtual
/// time.
///
/// `f` is called once per rank (at spawn time, on the calling thread) to
/// build that rank's future, which distinguishes itself via
/// [`AsyncTransport::rank`]; the body itself first executes when the kernel
/// grants time zero. Returns each rank's result (rank order) plus the
/// kernel's [`SimReport`].
///
/// # Example
///
/// ```
/// use mpk::{run_sim_proc_cluster, AsyncTransport, Tag, Rank};
/// use netsim::{ClusterSpec, ConstantLatency, Unloaded};
/// use desim::SimDuration;
///
/// let cluster = ClusterSpec::homogeneous(3, 50.0);
/// let (sums, report) = run_sim_proc_cluster::<u64, _, _, _>(
///     &cluster,
///     ConstantLatency(SimDuration::from_millis(1)),
///     Unloaded,
///     false,
///     |mut t| async move {
///         t.broadcast(Tag(0), t.rank().0 as u64).await;
///         let mut sum = 0;
///         for _ in 0..t.size() - 1 {
///             sum += t.recv().await.msg;
///         }
///         sum
///     },
/// )
/// .unwrap();
/// assert_eq!(sums, vec![3, 2, 1]); // each rank sums the others' ids
/// assert!(report.end_time.as_nanos() > 0);
/// ```
pub fn run_sim_proc_cluster<M, R, F, Fut>(
    cluster: &ClusterSpec,
    net: impl NetworkModel + 'static,
    load: impl LoadModel + 'static,
    trace: bool,
    f: F,
) -> Result<(Vec<R>, SimReport), SimError>
where
    M: WireSize + Clone + Send + 'static,
    R: 'static,
    F: Fn(SimIo<M>) -> Fut,
    Fut: std::future::Future<Output = R> + 'static,
{
    run_sim_proc_cluster_with_faults(cluster, net, load, FaultSpec::none(), trace, f)
}

/// [`run_sim_proc_cluster`] with a fault layer: every send is routed through
/// `faults.model` (and the crash plan) before it may touch the network
/// model. With [`FaultSpec::none`] this is exactly `run_sim_proc_cluster` —
/// same delay stream, same schedule, bit for bit.
pub fn run_sim_proc_cluster_with_faults<M, R, F, Fut>(
    cluster: &ClusterSpec,
    net: impl NetworkModel + 'static,
    load: impl LoadModel + 'static,
    faults: FaultSpec<M>,
    trace: bool,
    f: F,
) -> Result<(Vec<R>, SimReport), SimError>
where
    M: WireSize + Clone + Send + 'static,
    R: 'static,
    F: Fn(SimIo<M>) -> Fut,
    Fut: std::future::Future<Output = R> + 'static,
{
    run_sim_proc_cluster_with_options(
        cluster,
        net,
        load,
        faults,
        SimClusterOptions {
            trace,
            ..SimClusterOptions::default()
        },
        f,
    )
}

/// [`run_sim_proc_cluster_with_faults`] with explicit [`SimClusterOptions`]
/// (trace collection, same-time event ordering, scheduling checks).
pub fn run_sim_proc_cluster_with_options<M, R, F, Fut>(
    cluster: &ClusterSpec,
    net: impl NetworkModel + 'static,
    load: impl LoadModel + 'static,
    faults: FaultSpec<M>,
    options: SimClusterOptions,
    f: F,
) -> Result<(Vec<R>, SimReport), SimError>
where
    M: WireSize + Clone + Send + 'static,
    R: 'static,
    F: Fn(SimIo<M>) -> Fut,
    Fut: std::future::Future<Output = R> + 'static,
{
    let mut sim = Simulation::new();
    if options.trace {
        sim.enable_tracing();
    }
    if options.check_scheduling {
        sim.enable_scheduling_checks();
    }
    sim.set_tie_break(options.tie_break);
    let p = cluster.len();
    // Mailboxes created in rank order, so MailboxId(r) == r. Shared by
    // Rc: at 100k ranks a per-rank Vec clone would be O(p²) memory traffic.
    let mailboxes: Rc<Vec<MailboxId>> = Rc::new((0..p).map(|_| sim.create_mailbox()).collect());
    let shared = Rc::new(RefCell::new(SharedNet {
        net: Box::new(net),
        load: Box::new(load),
        gate: FaultGate::new(faults, p),
    }));

    let results: Vec<_> = (0..p)
        .map(|r| {
            let machine = cluster.machines()[r];
            let io_mailboxes = Rc::clone(&mailboxes);
            let io_shared = Rc::clone(&shared);
            sim.spawn_async(format!("rank{r}"), |h| {
                f(SimIo {
                    h,
                    rank: Rank(r),
                    size: p,
                    machine,
                    mailboxes: io_mailboxes,
                    shared: io_shared,
                    tap: Tap::new(Rank(r)),
                    msg: std::marker::PhantomData,
                })
            })
        })
        .collect();

    let report = sim.run()?;
    let outs = results
        .iter()
        .map(|pr| pr.take().expect("rank finished without a result"))
        .collect();
    Ok((outs, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;
    use netsim::{ConstantLatency, SharedMedium, Unloaded};

    #[test]
    fn compute_time_reflects_machine_speed() {
        // Two machines, 100 and 10 MIPS; both do 1M ops.
        let cluster = ClusterSpec::new(vec![MachineSpec::new(100.0), MachineSpec::new(10.0)]);
        let (times, report) = run_sim_proc_cluster::<(), _, _, _>(
            &cluster,
            ConstantLatency(SimDuration::ZERO),
            Unloaded,
            false,
            |mut t| async move {
                t.compute(1_000_000).await;
                t.now().as_nanos()
            },
        )
        .unwrap();
        assert_eq!(times[0], 10_000_000); // 10 ms on the fast machine
        assert_eq!(times[1], 100_000_000); // 100 ms on the slow machine
        assert_eq!(report.end_time.as_nanos(), 100_000_000);
    }

    #[test]
    fn shared_medium_contention_affects_end_time() {
        // All four ranks blast a 10 KB message at rank 0 at t=0; the bus
        // serializes them. 1 MB/s → each takes ~10 ms of bus time.
        let cluster = ClusterSpec::homogeneous(5, 10.0);
        let run = |bw: f64| {
            let (_, report) = run_sim_proc_cluster::<Vec<u8>, _, _, _>(
                &cluster,
                SharedMedium::new(SimDuration::ZERO, bw),
                Unloaded,
                false,
                |mut t| async move {
                    if t.rank().0 == 0 {
                        for _ in 0..4 {
                            let _ = t.recv().await;
                        }
                    } else {
                        t.send(Rank(0), Tag(0), vec![0u8; 10_000]).await;
                    }
                },
            )
            .unwrap();
            report.end_time.as_secs_f64()
        };
        let slow = run(1e6);
        let fast = run(1e8);
        assert!(slow > 4.0 * 9e-3, "bus must serialize: {slow}");
        assert!(fast < slow / 10.0, "faster bus must shrink the run");
    }

    async fn total_loss_body(mut t: SimIo<u64>) -> u64 {
        if t.rank().0 == 0 {
            for i in 0..10 {
                t.send(Rank(1), Tag(0), i).await;
            }
            t.fault_counters().dropped
        } else {
            // Every send was swallowed: the wait must time out.
            match t.recv_timeout(SimDuration::from_millis(50)).await {
                Some(_) => 99,
                None => 0,
            }
        }
    }

    #[test]
    fn faulted_run_passes_the_scheduling_checks() {
        use netsim::Loss;
        let cluster = ClusterSpec::homogeneous(2, 10.0);
        let (got, _) = run_sim_proc_cluster_with_options::<u64, _, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(1)),
            Unloaded,
            FaultSpec::new(Loss::new(1.0, 1)),
            SimClusterOptions {
                check_scheduling: true,
                ..SimClusterOptions::default()
            },
            total_loss_body,
        )
        .unwrap();
        assert_eq!(got, vec![10, 0]);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        use netsim::Duplicate;
        let cluster = ClusterSpec::homogeneous(2, 10.0);
        let (got, _) = run_sim_proc_cluster_with_faults::<u64, _, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(1)),
            Unloaded,
            FaultSpec::new(Duplicate::new(1.0, 3)),
            false,
            |mut t| async move {
                if t.rank().0 == 0 {
                    t.send(Rank(1), Tag(0), 7).await;
                    t.fault_counters().duplicated
                } else {
                    let a = t.recv().await.msg;
                    let b = t
                        .recv_timeout(SimDuration::from_millis(20))
                        .await
                        .map(|e| e.msg)
                        .unwrap_or(0);
                    let none_after = t.recv_timeout(SimDuration::from_millis(20)).await.is_none();
                    assert!(none_after, "exactly two copies expected");
                    a + b
                }
            },
        )
        .unwrap();
        assert_eq!(got, vec![1, 14]);
    }

    #[test]
    fn sends_to_a_crashed_destination_are_lost() {
        use netsim::{CrashPlan, MachineCrash};
        let cluster = ClusterSpec::homogeneous(2, 10.0);
        let crashes = CrashPlan::new(vec![MachineCrash {
            rank: 1,
            at: SimTime::ZERO,
            restart_after: SimDuration::from_millis(10),
        }]);
        let (got, _) = run_sim_proc_cluster_with_faults::<u64, _, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(1)),
            Unloaded,
            FaultSpec::<u64>::none().with_crashes(crashes),
            false,
            |mut t| async move {
                if t.rank().0 == 0 {
                    t.send(Rank(1), Tag(0), 1).await; // rank 1 is down: lost
                    t.sleep(SimDuration::from_millis(20)).await;
                    t.send(Rank(1), Tag(0), 2).await; // back up: delivered
                    t.fault_counters().dropped
                } else {
                    t.recv().await.msg
                }
            },
        )
        .unwrap();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn recv_timeout_expires_exactly_at_the_deadline() {
        let cluster = ClusterSpec::homogeneous(2, 10.0);
        let (got, _) = run_sim_proc_cluster::<u64, _, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(1)),
            Unloaded,
            false,
            |mut t| async move {
                if t.rank().0 == 0 {
                    let start = t.now();
                    let out = t.recv_timeout(SimDuration::from_millis(7)).await;
                    assert!(out.is_none());
                    (t.now() - start).as_nanos()
                } else {
                    0
                }
            },
        )
        .unwrap();
        assert_eq!(got[0], 7_000_000);
    }

    #[test]
    fn recv_timeout_wakes_at_the_exact_arrival_time() {
        // Event-driven wait: the receiver must observe the message at its
        // delivery instant (1 ms), not rounded up to a polling quantum of
        // the 50 ms timeout.
        let cluster = ClusterSpec::homogeneous(2, 10.0);
        let (got, _) = run_sim_proc_cluster::<u64, _, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(1)),
            Unloaded,
            false,
            |mut t| async move {
                if t.rank().0 == 0 {
                    t.send(Rank(1), Tag(0), 42).await;
                    0
                } else {
                    let start = t.now();
                    let env = t
                        .recv_timeout(SimDuration::from_millis(50))
                        .await
                        .expect("message should arrive before the timeout");
                    assert_eq!(env.msg, 42);
                    (t.now() - start).as_nanos()
                }
            },
        )
        .unwrap();
        assert_eq!(got[1], 1_000_000);
    }

    #[test]
    fn recv_timeout_handles_sub_quantum_timeouts_exactly() {
        // 10 ns is far below what any polling quantum could resolve; the
        // single-timer wait must still expire at exactly 10 ns.
        let cluster = ClusterSpec::homogeneous(1, 10.0);
        let (got, _) = run_sim_proc_cluster::<u64, _, _, _>(
            &cluster,
            ConstantLatency(SimDuration::from_millis(1)),
            Unloaded,
            false,
            |mut t| async move {
                let start = t.now();
                assert!(t.recv_timeout(SimDuration::from_nanos(10)).await.is_none());
                (t.now() - start).as_nanos()
            },
        )
        .unwrap();
        assert_eq!(got[0], 10);
    }

    #[test]
    fn rank_closure_error_propagates() {
        let cluster = ClusterSpec::homogeneous(2, 10.0);
        let res = run_sim_proc_cluster::<(), _, _, _>(
            &cluster,
            ConstantLatency(SimDuration::ZERO),
            Unloaded,
            false,
            |mut t| async move {
                if t.rank().0 == 1 {
                    panic!("rank 1 exploded");
                }
                t.recv().await; // rank 0 waits forever
            },
        );
        match res {
            Err(SimError::ProcessPanicked { name, message }) => {
                assert_eq!(name, "rank1");
                assert!(message.contains("exploded"));
            }
            other => panic!("expected panic, got {:?}", other.map(|(r, _)| r)),
        }
    }
}
