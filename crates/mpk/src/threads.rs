//! Real-thread transport backend: ranks are OS threads exchanging messages
//! through in-process mailboxes with optionally injected latency.
//!
//! This is the "channel-based port" of the paper's PVM setting: it runs the
//! same algorithms as the virtual-time backend on real concurrency. It is
//! useful for demos and cross-backend agreement tests; quantitative
//! experiments use [`run_sim_proc_cluster`](crate::run_sim_proc_cluster)
//! instead, because wall-clock timing on a shared host is noisy.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use desim::{SimDuration, SimTime};
use obs::Recorder;
use parking_lot::{Condvar, Mutex};

use crate::clock::WallClock;
use crate::faults::{FaultSpec, SharedGate, Verdict};
use crate::tap::Tap;
use crate::transport::Transport;
use crate::types::{Envelope, FaultCounters, Rank, Tag, WireSize, HEADER_BYTES};

/// Configuration of a thread-backed cluster.
#[derive(Clone, Debug)]
pub struct ThreadClusterOptions {
    /// Injected fixed latency per message.
    pub latency: Duration,
    /// Nominal speed for [`Transport::compute`], in million ops per second.
    /// `compute(ops)` sleeps `ops / (mips · 1e6)` seconds.
    pub mips: f64,
}

impl Default for ThreadClusterOptions {
    fn default() -> Self {
        ThreadClusterOptions {
            latency: Duration::ZERO,
            mips: 1000.0,
        }
    }
}

struct Timed<M> {
    visible_at: Instant,
    seq: u64,
    env: Envelope<M>,
}

impl<M> PartialEq for Timed<M> {
    fn eq(&self, other: &Self) -> bool {
        self.visible_at == other.visible_at && self.seq == other.seq
    }
}
impl<M> Eq for Timed<M> {}
impl<M> PartialOrd for Timed<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Timed<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.visible_at, other.seq).cmp(&(self.visible_at, self.seq))
    }
}

struct MailboxState<M> {
    heap: BinaryHeap<Timed<M>>,
    seq: u64,
}

/// One rank's priority mailbox: peers push envelopes stamped with the
/// instant they become visible, the owner pops them in that order. The
/// condvar wait discipline (and its zero-spin property) lives here.
struct ThreadMailbox<M> {
    state: Mutex<MailboxState<M>>,
    cv: Condvar,
    /// Number of condvar blocks performed by timed receives. A wait on an
    /// empty mailbox that runs to its deadline is exactly one block —
    /// there is no polling quantum to re-wake on.
    timed_waits: AtomicU64,
}

impl<M> ThreadMailbox<M> {
    fn new() -> Self {
        ThreadMailbox {
            state: Mutex::new(MailboxState {
                heap: BinaryHeap::new(),
                seq: 0,
            }),
            cv: Condvar::new(),
            timed_waits: AtomicU64::new(0),
        }
    }

    fn push(&self, visible_at: Instant, env: Envelope<M>) {
        let mut st = self.state.lock();
        let seq = st.seq;
        st.seq += 1;
        st.heap.push(Timed {
            visible_at,
            seq,
            env,
        });
        self.cv.notify_all();
    }

    fn try_pop(&self) -> Option<Envelope<M>> {
        let mut st = self.state.lock();
        match st.heap.peek() {
            Some(t) if t.visible_at <= Instant::now() => Some(st.heap.pop().unwrap().env),
            _ => None,
        }
    }

    fn pop_blocking(&self) -> Envelope<M> {
        let mut st = self.state.lock();
        loop {
            let now = Instant::now();
            match st.heap.peek() {
                Some(t) if t.visible_at <= now => return st.heap.pop().unwrap().env,
                Some(t) => {
                    let wake = t.visible_at;
                    let _ = self.cv.wait_until(&mut st, wake);
                }
                None => self.cv.wait(&mut st),
            }
        }
    }

    fn pop_deadline(&self, deadline: Instant) -> Option<Envelope<M>> {
        let mut st = self.state.lock();
        loop {
            let now = Instant::now();
            if let Some(t) = st.heap.peek() {
                if t.visible_at <= now {
                    return Some(st.heap.pop().unwrap().env);
                }
            }
            if now >= deadline {
                return None;
            }
            // Sleep until the next definite event: the earliest in-flight
            // message becoming visible, or the absolute deadline. A push
            // notifies the condvar, re-evaluating the bound, so there is
            // no polling quantum anywhere in the wait.
            let wake = match st.heap.peek() {
                Some(t) => t.visible_at.min(deadline),
                None => deadline,
            };
            self.timed_waits.fetch_add(1, AtomicOrdering::Relaxed);
            let _ = self.cv.wait_until(&mut st, wake);
        }
    }
}

/// A rank's endpoint on a thread-backed cluster.
pub struct ThreadTransport<M> {
    rank: Rank,
    size: usize,
    opts: ThreadClusterOptions,
    mailboxes: Arc<Vec<ThreadMailbox<M>>>,
    clock: WallClock,
    tap: Tap,
    faults: SharedGate,
}

impl<M> ThreadTransport<M> {
    /// Attach a structured telemetry sink for this rank (typically an
    /// [`obs::SharedRecorder`] clone, drained after
    /// [`run_thread_cluster`] returns). Timestamps are wall-clock
    /// nanoseconds since cluster start, so they are *not* reproducible
    /// across runs — counters and marks are, spans durations are not.
    pub fn set_recorder(&mut self, rec: Box<dyn Recorder>) {
        self.tap.attach(rec);
    }

    /// How many times this rank's timed receives have blocked on the
    /// mailbox condvar. A timeout that expires on an empty mailbox costs
    /// exactly one block; conformance tests use this to prove the backend
    /// never spins.
    pub fn timed_waits(&self) -> u64 {
        self.mailboxes[self.rank.0]
            .timed_waits
            .load(AtomicOrdering::Relaxed)
    }
}

impl<M: WireSize + Clone + Send + 'static> Transport for ThreadTransport<M> {
    type Msg = M;

    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, to: Rank, tag: Tag, msg: M) {
        assert!(to.0 < self.size, "send to out-of-range rank {to}");
        assert_ne!(to, self.rank, "self-sends are not modelled");
        let bytes = msg.wire_size() + HEADER_BYTES;
        // A corruption fate changes nothing here: there is no frame layer
        // to flip bytes in.
        let verdict = self.faults.admit(self.rank, to, bytes, &self.clock);
        self.tap.fated(|| self.clock.now_ns(), to, bytes, verdict);
        let Verdict::Deliver { copies, .. } = verdict else {
            return;
        };
        let visible_at = Instant::now() + self.opts.latency;
        let (src, mailbox) = (self.rank, &self.mailboxes[to.0]);
        for _ in 0..copies {
            let msg = msg.clone();
            mailbox.push(visible_at, Envelope { src, tag, msg });
        }
        mailbox.push(visible_at, Envelope { src, tag, msg });
    }

    fn try_recv(&mut self) -> Option<Envelope<M>> {
        let env = self.mailboxes[self.rank.0].try_pop()?;
        self.tap
            .received(|| self.clock.now_ns(), &env, HEADER_BYTES, None);
        Some(env)
    }

    fn recv(&mut self) -> Envelope<M> {
        let env = self.mailboxes[self.rank.0].pop_blocking();
        self.tap
            .received(|| self.clock.now_ns(), &env, HEADER_BYTES, None);
        env
    }

    fn compute(&mut self, ops: u64) {
        self.clock.compute(ops);
    }

    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn recv_timeout(&mut self, timeout: SimDuration) -> Option<Envelope<M>> {
        // Same semantics as the sim backend: one immediate poll, a zero
        // timeout degrades to that poll, and otherwise a single wait to
        // an absolute deadline.
        if let Some(env) = self.try_recv() {
            return Some(env);
        }
        if timeout == SimDuration::ZERO {
            return None;
        }
        let armed = Instant::now();
        let deadline = armed + Duration::from_nanos(timeout.as_nanos());
        let env = self.mailboxes[self.rank.0].pop_deadline(deadline);
        let (now, armed_ns) = (|| self.clock.now_ns(), self.clock.ns_at(armed));
        match &env {
            Some(env) => self.tap.received(now, env, HEADER_BYTES, Some(armed_ns)),
            None => self.tap.timer_fired(now, armed_ns),
        }
        env
    }

    fn sleep(&mut self, d: SimDuration) {
        self.clock.sleep(d);
    }

    fn fault_counters(&self) -> FaultCounters {
        self.faults.counters(self.rank)
    }

    fn recorder(&mut self) -> Option<&mut (dyn Recorder + 'static)> {
        self.tap.recorder()
    }
}

/// Run one closure per rank on `p` real OS threads.
///
/// Returns each rank's result in rank order. Panics in any rank propagate.
pub fn run_thread_cluster<M, R, F>(p: usize, opts: ThreadClusterOptions, f: F) -> Vec<R>
where
    M: WireSize + Clone + Send + 'static,
    R: Send,
    F: Fn(&mut ThreadTransport<M>) -> R + Send + Sync,
{
    run_thread_cluster_inner(p, opts, SharedGate::default(), f)
}

/// [`run_thread_cluster`] with a [`FaultSpec`] — fate model plus scripted
/// crash plan — behind the same gate as the sim and socket backends, so a
/// crash→rejoin schedule runs identically (in values) on all three.
///
/// Unlike the sim backend, thread-backend fates depend on the real
/// interleaving of sends, so runs are *not* reproducible; this exists for
/// liveness demos and cross-backend smoke tests.
pub fn run_thread_cluster_with_faults<M, R, F>(
    p: usize,
    opts: ThreadClusterOptions,
    spec: FaultSpec<M>,
    f: F,
) -> Vec<R>
where
    M: WireSize + Clone + Send + 'static,
    R: Send,
    F: Fn(&mut ThreadTransport<M>) -> R + Send + Sync,
{
    run_thread_cluster_inner(p, opts, SharedGate::new(spec, p), f)
}

fn run_thread_cluster_inner<M, R, F>(
    p: usize,
    opts: ThreadClusterOptions,
    faults: SharedGate,
    f: F,
) -> Vec<R>
where
    M: WireSize + Clone + Send + 'static,
    R: Send,
    F: Fn(&mut ThreadTransport<M>) -> R + Send + Sync,
{
    assert!(p >= 1, "need at least one rank");
    let clock = WallClock::new(opts.mips);
    let mailboxes: Arc<Vec<ThreadMailbox<M>>> =
        Arc::new((0..p).map(|_| ThreadMailbox::new()).collect());
    on_rank_threads(0..p, |r, _| {
        let mut t = ThreadTransport {
            rank: Rank(r),
            size: p,
            opts: opts.clone(),
            mailboxes: Arc::clone(&mailboxes),
            clock,
            tap: Tap::new(Rank(r)),
            faults: faults.clone(),
        };
        f(&mut t)
    })
}

/// Run `rank_main(r, seed)` on an OS thread of its own for the `r`-th of
/// `seeds`; results in rank order, and a panic in any rank propagates.
pub(crate) fn on_rank_threads<S: Send, R: Send>(
    seeds: impl IntoIterator<Item = S>,
    rank_main: impl Fn(usize, S) -> R + Sync,
) -> Vec<R> {
    std::thread::scope(|s| {
        let rank_main = &rank_main;
        let spawn = |(r, seed)| s.spawn(move || rank_main(r, seed));
        let handles: Vec<_> = seeds.into_iter().enumerate().map(spawn).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_latency_delays_visibility() {
        let opts = ThreadClusterOptions {
            latency: Duration::from_millis(30),
            ..ThreadClusterOptions::default()
        };
        let outcomes = run_thread_cluster::<u8, _, _>(2, opts, |t| {
            if t.rank().0 == 0 {
                t.send(Rank(1), Tag(0), 1);
                true
            } else {
                let early = t.try_recv().is_some();
                let start = Instant::now();
                let _ = t.recv();
                let waited = start.elapsed();
                !early && waited >= Duration::from_millis(15)
            }
        });
        assert!(outcomes.iter().all(|ok| *ok), "latency was not observed");
    }

    #[test]
    fn earliest_visible_message_pops_first() {
        let mb = ThreadMailbox::<u8>::new();
        let now = Instant::now();
        mb.push(
            now + Duration::from_millis(5),
            Envelope {
                src: Rank(0),
                tag: Tag(0),
                msg: 2,
            },
        );
        mb.push(
            now,
            Envelope {
                src: Rank(0),
                tag: Tag(0),
                msg: 1,
            },
        );
        assert_eq!(mb.pop_blocking().msg, 1);
        assert_eq!(mb.pop_blocking().msg, 2);
    }

    #[test]
    fn try_pop_respects_visibility() {
        let mb = ThreadMailbox::<u8>::new();
        mb.push(
            Instant::now() + Duration::from_secs(60),
            Envelope {
                src: Rank(0),
                tag: Tag(0),
                msg: 9,
            },
        );
        assert!(mb.try_pop().is_none());
    }

    #[test]
    fn timed_wait_wakes_for_a_pending_visibility_without_spinning() {
        let mb = ThreadMailbox::<u8>::new();
        let now = Instant::now();
        mb.push(
            now + Duration::from_millis(10),
            Envelope {
                src: Rank(0),
                tag: Tag(0),
                msg: 7,
            },
        );
        let got = mb.pop_deadline(now + Duration::from_millis(200));
        assert_eq!(got.map(|e| e.msg), Some(7));
        // One wait to the message's visibility instant; allow one extra in
        // case the OS timer rounds the wake a hair early.
        assert!(mb.timed_waits.load(AtomicOrdering::Relaxed) <= 2);
    }

    #[test]
    fn thread_recv_timeout_handles_tiny_timeouts() {
        // Sub-microsecond timeouts used to be quantised; now they are a
        // single bounded wait that still expires.
        let results = run_thread_cluster::<u8, _, _>(1, ThreadClusterOptions::default(), |t| {
            t.recv_timeout(SimDuration::from_nanos(10)).is_none()
        });
        assert!(results[0]);
    }

    /// A `mips` no `compute` can be charged at stops the caller, naming the
    /// option — it used to surface as "rank thread panicked" from inside
    /// the first `compute`, or not at all.
    #[test]
    #[should_panic(expected = "cluster option `mips` must be positive")]
    fn zero_mips_is_refused_before_any_rank_runs() {
        let opts = ThreadClusterOptions {
            mips: 0.0,
            ..ThreadClusterOptions::default()
        };
        run_thread_cluster::<(), _, _>(1, opts, |_| unreachable!("a rank ran"));
    }

    #[test]
    fn compute_sleeps_roughly_the_right_time() {
        let opts = ThreadClusterOptions {
            mips: 1.0,
            ..ThreadClusterOptions::default()
        };
        let elapsed = run_thread_cluster::<(), _, _>(1, opts, |t| {
            let start = Instant::now();
            t.compute(20_000); // 20 ms at 1 MIPS
            start.elapsed()
        });
        assert!(
            elapsed[0] >= Duration::from_millis(15),
            "slept only {:?}",
            elapsed[0]
        );
    }
}
